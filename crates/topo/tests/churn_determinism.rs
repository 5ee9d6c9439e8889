//! Churn determinism, end to end through the trace layer: identical
//! `(protocol, n, dynamics, churn plan, seed)` must reproduce a run
//! *bit for bit* — the recorded `PPTRACE1` byte streams are equal — and
//! the recorded trace must survive the full record → decode → replay →
//! verify cycle, lifecycle events included.
//!
//! The churn plan aims its departure at `m2`, the k = 3 protocol's
//! chain-builder state: removing a mid-chain agent is exactly the event
//! the paper's complete-graph analysis never has to survive, so it is
//! the case the trace format must capture faithfully.
//!
//! Per-seed outcome digests pin the dynamics loop itself: a change to it
//! meant to keep every trajectory moves no draw, counter or count.

use pp_engine::observer::{LifecycleKind, NullObserver};
use pp_engine::population::Population;
use pp_engine::seeds::{derive, fnv1a64};
use pp_protocols::kpartition::UniformKPartition;
use pp_topo::{ChurnEvent, ChurnPlan, Dynamics};
use pp_trace::format::{TraceHeader, TraceKernel};
use pp_trace::replay::Trace;
use pp_trace::TraceRecorder;

const N: usize = 12;
const SEED: u64 = 0xA11CE;
const BUDGET: u64 = 20_000;

/// Record one seeded ring run with the given churn plan; returns the
/// finished trace bytes and the dynamics outcome.
fn record_run(seed: u64, plan: &ChurnPlan) -> (Vec<u8>, pp_topo::DynRunOutcome) {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let dynamics = Dynamics::parse("ring;uniform;j0.l0.c0.p0").expect("fragment parses");
    // Final population size: N plus the plan's net churn.
    let final_n = (N as i64 + plan.net()) as u64;
    let criterion = kp.stable_signature(final_n);

    let mut initial_counts = vec![0u64; proto.num_states()];
    initial_counts[proto.initial_state().index()] = N as u64;
    let header = TraceHeader {
        protocol: proto.name().to_string(),
        state_names: proto
            .states()
            .map(|s| proto.state_name(s).to_string())
            .collect(),
        n: N as u64,
        seed,
        kernel: TraceKernel::Naive,
        initial_counts,
    };
    let mut recorder = TraceRecorder::new(&header);

    let outcome = pp_topo::run_dynamics_with_plan(
        &proto,
        N,
        &dynamics,
        plan,
        &criterion,
        BUDGET,
        seed,
        &mut recorder,
    )
    .expect("dynamics run starts");
    let bytes = recorder.finish(outcome.pop.counts());
    (bytes, outcome)
}

/// The test's churn plan: leave a chain-builder mid-run, then a join and
/// a crash, netting one agent below the initial population.
fn chain_builder_plan() -> ChurnPlan {
    let proto = UniformKPartition::new(3).compile();
    let m2 = proto.state_by_name("m2").expect("k = 3 has chain state m2");
    ChurnPlan::from_events(vec![
        ChurnEvent {
            at: 600,
            kind: LifecycleKind::Leave,
            target_state: Some(m2),
        },
        ChurnEvent {
            at: 1_200,
            kind: LifecycleKind::Join,
            target_state: None,
        },
        ChurnEvent {
            at: 1_800,
            kind: LifecycleKind::Crash,
            target_state: None,
        },
    ])
}

#[test]
fn identical_seed_and_plan_give_bit_identical_traces() {
    let plan = chain_builder_plan();
    let (bytes_a, outcome_a) = record_run(SEED, &plan);
    let (bytes_b, outcome_b) = record_run(SEED, &plan);
    assert_eq!(outcome_a, outcome_b, "outcomes must agree before bytes");
    assert_eq!(
        bytes_a, bytes_b,
        "equal seed + plan must replay bit-identically"
    );
    assert_eq!(outcome_a.applied, [1, 1, 1], "all three events must apply");

    // A different seed is a genuinely different run — the byte equality
    // above is not vacuous.
    let (bytes_c, _) = record_run(SEED + 1, &plan);
    assert_ne!(bytes_a, bytes_c, "different seeds must diverge");
}

#[test]
fn recorded_churn_trace_replays_and_verifies() {
    let proto = UniformKPartition::new(3).compile();
    let plan = chain_builder_plan();
    let (bytes, outcome) = record_run(SEED, &plan);

    let trace = Trace::decode(&bytes).expect("recorded trace decodes");
    // replay_checked validates every transition against δ and the
    // lifecycle arithmetic against the footer.
    let summary = trace
        .replay_checked(&proto)
        .expect("recorded trace verifies against the rule table");
    assert_eq!(summary.lifecycle, 3, "all three lifecycle events recorded");
    assert_eq!(
        trace.final_counts,
        outcome.pop.counts(),
        "replayed final configuration matches the live run"
    );
    assert_eq!(
        outcome.pop.num_agents(),
        N as u64 - 1,
        "leave + join + crash nets one agent below the initial population"
    );

    // The targeted departure really removed a chain-builder: the trace's
    // Leave record carries state m2.
    let m2 = proto.state_by_name("m2").unwrap();
    let leave_states: Vec<_> = trace
        .records
        .iter()
        .filter_map(|r| match r {
            pp_trace::TraceRecord::Lifecycle { kind, state, .. }
                if *kind == LifecycleKind::Leave =>
            {
                Some(*state)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        leave_states,
        vec![m2.0],
        "the leave event must hit the chain-builder state m2"
    );
}

/// The final count vector of a dynamics run.
fn final_counts(outcome: &pp_topo::DynRunOutcome) -> Vec<u64> {
    outcome.pop.counts().to_vec()
}

/// Digest of `trials` seeds of Algorithm 1 at k = 3, n = 12 under the
/// dynamics `fragment`: each run's interactions (or censoring),
/// effective interactions, final count vector and applied lifecycle
/// events, hashed with `seeds::fnv1a64`.
fn dynamics_digest(fragment: &str, trials: u64) -> u64 {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let dynamics = Dynamics::parse(fragment).expect("fragment parses");
    let criterion = kp.stable_signature((N as i64 + dynamics.churn.net()) as u64);
    let mut bytes = Vec::new();
    for t in 0..trials {
        let outcome = pp_topo::run_dynamics(
            &proto,
            N,
            &dynamics,
            &criterion,
            BUDGET,
            derive(SEED, t),
            &mut NullObserver,
        )
        .expect("dynamics run starts");
        eprintln!(
            "DBG {fragment} {:?} eff={} applied={:?}",
            outcome.interactions, outcome.effective_interactions, outcome.applied
        );
        match outcome.interactions {
            Some(i) => {
                bytes.push(0);
                bytes.extend_from_slice(&i.to_le_bytes());
            }
            None => bytes.push(1),
        }
        bytes.extend_from_slice(&outcome.effective_interactions.to_le_bytes());
        for c in final_counts(&outcome) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        for a in outcome.applied {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn dynamics_outcomes_match_their_pinned_digests() {
    // (dynamics fragment, trials, digest)
    let cells: [(&str, u64, u64); 6] = [
        ("complete;uniform;j0.l0.c0.p0", 4, 0x29938e274cba7d7f),
        ("ring;uniform;j0.l0.c0.p0", 3, 0x0f3b78e5f1c28be6),
        ("star;uniform;j0.l0.c0.p0", 3, 0x81365d646d12f2a9),
        ("rr:d=4;uniform;j0.l0.c0.p0", 3, 0x053e00a1e7ef33e4),
        ("complete;uniform;j2.l1.c1.p500", 3, 0x2bf7535d4d5bcb40),
        ("ring;uniform;j2.l1.c1.p500", 3, 0x34c3ba31ec40f685),
    ];
    let rows: Vec<(&str, u64, u64)> = cells
        .iter()
        .map(|&(fragment, trials, want)| (fragment, dynamics_digest(fragment, trials), want))
        .collect();
    for (fragment, got, want) in &rows {
        println!("{fragment}: 0x{got:016x} (pinned 0x{want:016x})");
    }
    let wrong: Vec<&str> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(fragment, _, _)| *fragment)
        .collect();
    assert!(wrong.is_empty(), "dynamics outcomes moved in: {wrong:?}");
}
