//! Protocol-semantic trace diagnostics for the k-partition protocol.
//!
//! The paper's convergence story is causal: free agents flip (rules 1–4)
//! until rule 5 can break symmetry and *birth* a builder chain, the chain
//! recruits (rule 6) and either *completes* into `g_{k-1}, g_k` (rule 7)
//! or *aborts* when two chains collide (rule 8), after which demolishers
//! walk the settled groups back down (rules 9–10). This module attributes
//! every effective record to its rule (via the labels compiled into the
//! protocol) and folds the record stream into those lifecycle events,
//! plus an online check of Lemma 1's invariant at every recorded step.

use crate::format::{TraceError, TraceHeader, TraceRecord};
use crate::replay::Trace;
use pp_engine::protocol::StateId;
use pp_protocols::kpartition::UniformKPartition;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// One lifecycle event, derived from a rule firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Rule 5: `initial, initial' → g1, m2` — a builder chain is born
    /// (for `k = 2` the chain is trivial and completes immediately).
    ChainBirth {
        /// Interaction number of the firing.
        step: u64,
    },
    /// Rule 6: `x, m_i → g_i, m_{i+1}` — the chain recruits an agent into
    /// group `i` and advances to level `i + 1`.
    BuilderAdvance {
        /// Interaction number of the firing.
        step: u64,
        /// The level the builder advances *to* (`i + 1`).
        level: usize,
    },
    /// Rule 7: `x, m_{k-1} → g_{k-1}, g_k` — the chain completes and the
    /// builder settles into `g_k`.
    ChainCompletion {
        /// Interaction number of the firing.
        step: u64,
    },
    /// Rule 8: `m_i, m_j → d_{i-1}, d_{j-1}` — two chains collide and
    /// both abort into demolishers.
    ChainAbort {
        /// Interaction number of the firing.
        step: u64,
        /// Level of the first colliding builder.
        i: usize,
        /// Level of the second colliding builder.
        j: usize,
    },
    /// Rule 9: `d_i, g_i → d_{i-1}, initial` — the demolisher frees one
    /// settled agent and walks down a level.
    DemolitionStep {
        /// Interaction number of the firing.
        step: u64,
        /// The level being demolished.
        level: usize,
    },
    /// Rule 10: `d_1, g_1 → initial, initial` — the walk-back finishes
    /// and the demolisher itself returns to the free pool.
    DemolitionComplete {
        /// Interaction number of the firing.
        step: u64,
    },
}

impl Event {
    /// The interaction number the event occurred at.
    pub fn step(&self) -> u64 {
        match *self {
            Event::ChainBirth { step }
            | Event::BuilderAdvance { step, .. }
            | Event::ChainCompletion { step }
            | Event::ChainAbort { step, .. }
            | Event::DemolitionStep { step, .. }
            | Event::DemolitionComplete { step } => step,
        }
    }

    /// Short kind name for display and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ChainBirth { .. } => "chain_birth",
            Event::BuilderAdvance { .. } => "builder_advance",
            Event::ChainCompletion { .. } => "chain_completion",
            Event::ChainAbort { .. } => "chain_abort",
            Event::DemolitionStep { .. } => "demolition_step",
            Event::DemolitionComplete { .. } => "demolition_complete",
        }
    }
}

/// The folded diagnostics of one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// Firings per rule label (`r1`..`r10`), including zero entries for
    /// rules the protocol defines but the run never fired.
    pub rule_firings: BTreeMap<String, u64>,
    /// Lifecycle events in step order.
    pub events: Vec<Event>,
    /// Chain births (rule 5 firings).
    pub births: u64,
    /// Builder advances (rule 6 firings).
    pub advances: u64,
    /// Chain completions (rule 7 firings; for `k = 2`, rule 5 completes).
    pub completions: u64,
    /// Chain aborts (rule 8 firings) — each aborts *two* chains.
    pub aborts: u64,
    /// Demolition walk-back steps (rule 9 firings).
    pub demolition_steps: u64,
    /// Completed demolitions (rule 10 firings).
    pub demolitions: u64,
    /// Effective records that matched no labelled rule (0 for genuine
    /// k-partition traces; non-zero flags corruption or a foreign trace).
    pub unattributed: u64,
}

/// Recover the [`UniformKPartition`] instance a trace was recorded from,
/// by parsing `uniform-{k}-partition` and cross-checking the header's
/// state names against the protocol's layout.
pub fn kpartition_of(header: &TraceHeader) -> Result<UniformKPartition, TraceError> {
    let k: usize = header
        .protocol
        .strip_prefix("uniform-")
        .and_then(|rest| rest.strip_suffix("-partition"))
        .and_then(|mid| mid.parse().ok())
        .ok_or(TraceError::BadHeader {
            what: "not a uniform-k-partition trace",
        })?;
    let kp = UniformKPartition::try_new(k).map_err(|_| TraceError::BadHeader {
        what: "k is outside the uniform k-partition's range",
    })?;
    if kp.num_states() != header.state_names.len() {
        return Err(TraceError::BadHeader {
            what: "state count does not match 3k - 2",
        });
    }
    let proto = kp.compile();
    for s in proto.states() {
        if proto.state_name(s) != header.state_names[s.index()] {
            return Err(TraceError::BadHeader {
                what: "state names do not match the k-partition layout",
            });
        }
    }
    Ok(kp)
}

/// Attribute every effective record of `trace` to its rule and fold the
/// stream into lifecycle events. Fails if the trace is not a k-partition
/// trace (see [`kpartition_of`]).
pub fn classify(trace: &Trace) -> Result<Diagnostics, TraceError> {
    let kp = kpartition_of(&trace.header)?;
    let proto = kp.compile();
    let mut diag = Diagnostics::default();
    for label in proto.rule_names() {
        diag.rule_firings.insert(label.clone(), 0);
    }
    for rec in &trace.records {
        let &TraceRecord::Effective { step, p, q, p2, q2 } = rec else {
            continue;
        };
        let Some(rule) = proto.rule_of(StateId(p), StateId(q)) else {
            diag.unattributed += 1;
            continue;
        };
        // The recorded result must match what the rule does; a label with
        // a different outcome means the trace lies about the transition.
        let expect = proto.delta(StateId(p), StateId(q));
        if expect != (StateId(p2), StateId(q2)) {
            return Err(TraceError::DeltaMismatch { step });
        }
        let label = proto.rule_name(rule).to_string();
        *diag.rule_firings.entry(label.clone()).or_insert(0) += 1;
        match label.as_str() {
            "r5" => {
                diag.births += 1;
                diag.events.push(Event::ChainBirth { step });
                if kp.k() == 2 {
                    // k = 2: the same firing settles both agents.
                    diag.completions += 1;
                    diag.events.push(Event::ChainCompletion { step });
                }
            }
            "r6" => {
                // x, m_i → g_i, m_{i+1}: the m-state in the pair tells the
                // level; it appears as p or q depending on the order.
                let level = [p, q, p2, q2]
                    .iter()
                    .find_map(|&s| kp.m_index(StateId(s)))
                    .map(|i| i + 1)
                    .unwrap_or(0);
                diag.advances += 1;
                diag.events.push(Event::BuilderAdvance { step, level });
            }
            "r7" => {
                diag.completions += 1;
                diag.events.push(Event::ChainCompletion { step });
            }
            "r8" => {
                let i = kp.m_index(StateId(p)).unwrap_or(0);
                let j = kp.m_index(StateId(q)).unwrap_or(0);
                diag.aborts += 1;
                diag.events.push(Event::ChainAbort { step, i, j });
            }
            "r9" => {
                let level = kp
                    .d_index(StateId(p))
                    .or(kp.d_index(StateId(q)))
                    .unwrap_or(0);
                diag.demolition_steps += 1;
                diag.events.push(Event::DemolitionStep { step, level });
            }
            "r10" => {
                diag.demolitions += 1;
                diag.events.push(Event::DemolitionComplete { step });
            }
            // r1..r4: free-agent flips carry no lifecycle meaning.
            _ => {}
        }
    }
    Ok(diag)
}

/// Result of checking Lemma 1 at every recorded configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lemma1Report {
    /// The invariant held at the initial configuration and after every
    /// effective or lifecycle record; `checked` configurations were
    /// examined.
    Holds {
        /// Number of configurations checked (initial + one per
        /// count-changing record).
        checked: u64,
    },
    /// First violation: after the record at `step` (an interaction, or
    /// a join or departure), the residual vector was non-zero.
    ViolatedAt {
        /// Step of the first violating configuration.
        step: u64,
        /// The residual vector `Σ#m + Σ#d + #g_k − #g_x` per group `x`.
        residual: Vec<i64>,
    },
}

/// Walk the trace configurations (`Trace::walk`) and check the paper's
/// Lemma 1 invariant (`#g_x = Σ_{p>x} #m_p + Σ_{q≥x} #d_q + #g_k` for
/// every `x`) online, reporting the first violating step. Step 0 is the
/// initial configuration; joins and departures change the configuration
/// like interactions do, so a violation they cause is reported at their
/// step; identity runs cannot change counts and are skipped.
pub fn check_lemma1(trace: &Trace) -> Result<Lemma1Report, TraceError> {
    let kp = kpartition_of(&trace.header)?;
    let violation = |step, counts: &[u64]| {
        let residual = kp.lemma1_residual(counts);
        residual
            .iter()
            .any(|&r| r != 0)
            .then_some(Lemma1Report::ViolatedAt { step, residual })
    };
    if let Some(v) = violation(0, &trace.header.initial_counts) {
        return Ok(v);
    }
    let mut checked = 1u64;
    let walked = trace.walk(|rec, counts| {
        if matches!(rec, TraceRecord::IdentityRun { .. }) {
            return Ok(ControlFlow::Continue(()));
        }
        checked += 1;
        Ok(match violation(rec.last_step(), counts) {
            Some(v) => ControlFlow::Break(v),
            None => ControlFlow::Continue(()),
        })
    })?;
    Ok(match walked {
        ControlFlow::Break(v) => v,
        ControlFlow::Continue(_) => Lemma1Report::Holds { checked },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceKernel;
    use crate::recorder::TraceRecorder;
    use pp_engine::observer::{LifecycleKind, Observer};
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;

    fn record_small_run(k: usize, n: u64, seed: u64) -> Trace {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let mut rec = TraceRecorder::for_run(&proto, &pop, seed, TraceKernel::Naive);
        Simulator::new(&proto)
            .run_observed(
                &mut pop,
                &mut sched,
                &kp.stable_signature(n),
                kp.interaction_budget(n),
                &mut rec,
            )
            .expect("small run stabilises");
        Trace::decode(&rec.finish(pop.counts())).unwrap()
    }

    #[test]
    fn classify_accounts_for_every_effective_record() {
        let trace = record_small_run(3, 10, 7);
        let diag = classify(&trace).unwrap();
        assert_eq!(diag.unattributed, 0);
        let total: u64 = diag.rule_firings.values().sum();
        assert_eq!(total, trace.effective_len());
        // A stabilised 3-partition of 10 agents groups ⌈10/3⌉+… agents:
        // there must be at least one birth and one completion.
        assert!(diag.births >= 1);
        assert!(diag.completions >= 1);
        // Conservation: every abort produces two demolishers, and each
        // demolisher must finish exactly one walk-back (rule 10) before
        // the run can stabilise.
        assert_eq!(diag.demolitions, 2 * diag.aborts);
    }

    #[test]
    fn lemma1_holds_on_real_runs() {
        for seed in [1, 2, 3] {
            let trace = record_small_run(4, 13, seed);
            match check_lemma1(&trace).unwrap() {
                Lemma1Report::Holds { checked } => {
                    assert_eq!(checked, trace.effective_len() + 1)
                }
                Lemma1Report::ViolatedAt { step, residual } => {
                    panic!("lemma 1 violated at step {step}: {residual:?}")
                }
            }
        }
    }

    #[test]
    fn lemma1_pinpoints_injected_violation() {
        let kp = UniformKPartition::new(3);
        let proto = kp.compile();
        let header = TraceHeader {
            protocol: "uniform-3-partition".into(),
            state_names: proto
                .states()
                .map(|s| proto.state_name(s).to_string())
                .collect(),
            n: 6,
            seed: 0,
            kernel: TraceKernel::Naive,
            initial_counts: {
                let mut c = vec![0u64; proto.num_states()];
                c[kp.initial().index()] = 6;
                c
            },
        };
        let ini = kp.initial();
        let inip = kp.initial_prime();
        // Start with one flipped agent so rule 5 can fire legally.
        let mut header = header;
        header.initial_counts[ini.index()] = 5;
        header.initial_counts[inip.index()] = 1;
        let mut rec = TraceRecorder::new(&header);
        // Legal: rule 5 births a chain at step 1 (invariant preserved).
        rec.on_interaction(1, ini, inip, kp.g(1), kp.m(2), &[]);
        // Injected violation: an agent teleports into g1 with no builder —
        // not a rule of the protocol, and it breaks #g1 accounting.
        rec.on_interaction(2, ini, ini, kp.g(1), ini, &[]);
        let mut fc = header.initial_counts.clone();
        fc[ini.index()] -= 2;
        fc[inip.index()] -= 1;
        fc[kp.g(1).index()] = 2;
        fc[kp.m(2).index()] = 1;
        let trace = Trace::decode(&rec.finish(&fc)).unwrap();
        match check_lemma1(&trace).unwrap() {
            Lemma1Report::ViolatedAt { step, .. } => assert_eq!(step, 2),
            Lemma1Report::Holds { .. } => panic!("violation not detected"),
        }
    }

    /// A k = 3 header with `n` agents, all `initial`.
    fn k3_header(n: u64) -> (UniformKPartition, TraceHeader) {
        let kp = UniformKPartition::new(3);
        let proto = kp.compile();
        let mut initial_counts = vec![0u64; proto.num_states()];
        initial_counts[kp.initial().index()] = n;
        let header = TraceHeader {
            protocol: "uniform-3-partition".into(),
            state_names: proto
                .states()
                .map(|s| proto.state_name(s).to_string())
                .collect(),
            n,
            seed: 0,
            kernel: TraceKernel::Naive,
            initial_counts,
        };
        (kp, header)
    }

    /// A header naming a k outside the family's range is a bad header,
    /// not a panic — including a k whose `3k − 2` would overflow.
    #[test]
    fn out_of_range_k_is_a_bad_header() {
        let (_, mut header) = k3_header(3);
        header.protocol = "uniform-20000-partition".into();
        header.state_names = (0..59_998).map(|i| format!("q{i}")).collect();
        header.initial_counts = vec![0; 59_998];
        assert!(matches!(
            kpartition_of(&header),
            Err(TraceError::BadHeader { .. })
        ));
        header.protocol = format!("uniform-{}-partition", usize::MAX / 2);
        assert!(matches!(
            kpartition_of(&header),
            Err(TraceError::BadHeader { .. })
        ));
    }

    /// Joins are part of the configuration: rule 1 at step 1 needs the
    /// agent that joined before it.
    #[test]
    fn lemma1_follows_joins() {
        let (kp, header) = k3_header(1);
        let (ini, inip) = (kp.initial(), kp.initial_prime());
        let mut rec = TraceRecorder::new(&header);
        rec.on_lifecycle(0, LifecycleKind::Join, ini, &[]);
        rec.on_interaction(1, ini, ini, inip, inip, &[]);
        rec.on_lifecycle(1, LifecycleKind::Join, ini, &[]);
        rec.on_interaction(2, ini, inip, kp.g(1), kp.m(2), &[]);
        let mut fc = vec![0u64; kp.num_states()];
        fc[inip.index()] = 1;
        fc[kp.g(1).index()] = 1;
        fc[kp.m(2).index()] = 1;
        let trace = Trace::decode(&rec.finish(&fc)).unwrap();
        assert_eq!(trace.replay().unwrap().effective, 2);
        assert_eq!(
            check_lemma1(&trace).unwrap(),
            Lemma1Report::Holds { checked: 5 }
        );
    }

    /// A departure that breaks the invariant is reported at its step: a
    /// `g1` agent leaving a half-built chain strands the `m2` builder.
    #[test]
    fn lemma1_reports_violating_departure() {
        let (kp, header) = k3_header(3);
        let (ini, inip) = (kp.initial(), kp.initial_prime());
        let mut rec = TraceRecorder::new(&header);
        rec.on_interaction(1, ini, ini, inip, inip, &[]);
        rec.on_interaction(2, ini, inip, kp.g(1), kp.m(2), &[]);
        rec.on_lifecycle(2, LifecycleKind::Leave, kp.g(1), &[]);
        let mut fc = vec![0u64; kp.num_states()];
        fc[inip.index()] = 1;
        fc[kp.m(2).index()] = 1;
        let trace = Trace::decode(&rec.finish(&fc)).unwrap();
        assert_eq!(
            check_lemma1(&trace).unwrap(),
            Lemma1Report::ViolatedAt {
                step: 2,
                residual: vec![1, 0, 0]
            }
        );
    }
}
