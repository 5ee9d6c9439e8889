//! Struct-of-arrays **trial fleets**: hundreds of batch-kernel trials of
//! the same cell advanced in lockstep.
//!
//! A fleet lays every trial's count vector out in one contiguous
//! trial-major arena (`trials × |Q|` words — a few KiB for hundreds of
//! trials of a |Q| ≈ 22 protocol, which sits comfortably in L1/L2), with
//! parallel arrays for the per-trial RNGs, counters, and completion
//! status, and one shared [`Scratch`]. The round-robin
//! driver gives each still-active trial one [`BatchTrial::step`] per
//! sweep, so the workload touches the arena sequentially instead of
//! chasing per-trial heap allocations.
//!
//! Each trial runs **the same per-trial step code** as
//! [`crate::simulator::Simulator::run_batch`], so for a given seed a
//! fleet member's result is bit-identical to a scalar `run_batch` of that
//! seed — interleaving trials only changes which trial's RNG is consumed
//! when, never the per-trial stream. Tests pin this equivalence, which is
//! what lets the sweep's journaled scalar path and the fleet fan-out path
//! produce interchangeable results.

use crate::batch::{BatchConfig, BatchTrial, Scratch};
use crate::leap::StepOutcome;
use crate::observer::{FallbackReason, Observer};
use crate::protocol::{CompiledProtocol, StateId};
use crate::scheduler::UniformRandomScheduler;
use crate::simulator::{RunError, RunResult};
use crate::stability::StabilityCriterion;

/// Outcome of a fleet run: one result per seed (same order), plus the
/// fleet-wide batch-kernel tallies for telemetry.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Per-trial outcomes, indexed like the input seed slice.
    pub results: Vec<Result<RunResult, RunError>>,
    /// Tau-leaps applied across the whole fleet.
    pub leap_batches: u64,
    /// Batch→exact fallback transitions across the whole fleet.
    pub batch_fallbacks: u64,
    /// Total interactions across all trials, censored ones included.
    pub interactions: u64,
    /// Total effective interactions across all trials, censored included.
    pub effective_interactions: u64,
}

/// Tallies leaps and fallbacks across all trials of a fleet.
#[derive(Default)]
struct FleetTally {
    leap_batches: u64,
    batch_fallbacks: u64,
}

impl Observer for FleetTally {
    #[inline(always)]
    fn on_interaction(
        &mut self,
        _step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        _counts: &[u64],
    ) {
    }

    #[inline(always)]
    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, _effective: u64, _counts: &[u64]) {
        self.leap_batches += 1;
    }

    #[inline(always)]
    fn on_batch_fallback(&mut self, _reason: FallbackReason) {
        self.batch_fallbacks += 1;
    }
}

/// Run one batch-kernel trial per seed, all starting from
/// `initial_counts`, in struct-of-arrays lockstep.
///
/// Every trial's RNG stream, counters, and outcome are exactly those of a
/// scalar [`crate::simulator::Simulator::run_batch_configured`] with the
/// same seed (see the module docs); the fleet exists for throughput, not
/// for a different sampling scheme. Observation is limited to the
/// aggregate tallies in [`FleetSummary`] — per-interaction observers need
/// the scalar entry points.
pub fn run_batch_fleet<C: StabilityCriterion>(
    proto: &CompiledProtocol,
    initial_counts: &[u64],
    seeds: &[u64],
    criterion: &C,
    max_interactions: u64,
    cfg: &BatchConfig,
) -> FleetSummary {
    let m = proto.num_states();
    assert_eq!(initial_counts.len(), m, "initial counts must cover |Q|");
    let trials = seeds.len();
    let mut tally = FleetTally::default();

    // Degenerate cells resolve without building the arena, mirroring the
    // scalar kernel's pre-loop checks.
    if criterion.is_stable(proto, initial_counts) {
        return FleetSummary {
            results: vec![
                Ok(RunResult {
                    interactions: 0,
                    effective_interactions: 0,
                });
                trials
            ],
            leap_batches: 0,
            batch_fallbacks: 0,
            interactions: 0,
            effective_interactions: 0,
        };
    }
    let mut states: Vec<BatchTrial<'_>> = match (0..trials)
        .map(|_| BatchTrial::new(proto, criterion, initial_counts))
        .collect()
    {
        Ok(states) => states,
        Err(e) => {
            return FleetSummary {
                results: vec![Err(e); trials],
                leap_batches: 0,
                batch_fallbacks: 0,
                interactions: 0,
                effective_interactions: 0,
            }
        }
    };
    let mut scratch = Scratch::new(proto);

    // Struct-of-arrays state: one contiguous counts arena (trial-major so
    // each trial's |Q| words are adjacent), plus parallel per-trial arrays.
    let mut arena: Vec<u64> = Vec::with_capacity(trials * m);
    for _ in 0..trials {
        arena.extend_from_slice(initial_counts);
    }
    let mut schedulers: Vec<UniformRandomScheduler> = seeds
        .iter()
        .map(|&s| UniformRandomScheduler::from_seed(s))
        .collect();
    let mut results: Vec<Option<Result<RunResult, RunError>>> = vec![None; trials];
    let mut active: Vec<usize> = (0..trials).collect();
    let mut interactions_total: u64 = 0;
    let mut effective_total: u64 = 0;

    while !active.is_empty() {
        active.retain(|&t| {
            let counts = &mut arena[t * m..(t + 1) * m];
            let out = states[t].step(
                proto,
                counts,
                schedulers[t].rng_mut(),
                max_interactions,
                cfg,
                &mut scratch,
                &mut tally,
            );
            match out {
                StepOutcome::Continue => true,
                StepOutcome::Stable => {
                    let r = states[t].result();
                    interactions_total += r.interactions;
                    effective_total += r.effective_interactions;
                    results[t] = Some(Ok(r));
                    false
                }
                StepOutcome::Limit => {
                    let r = states[t].result();
                    interactions_total += r.interactions;
                    effective_total += r.effective_interactions;
                    results[t] = Some(Err(RunError::InteractionLimit {
                        limit: max_interactions,
                    }));
                    false
                }
            }
        });
    }

    FleetSummary {
        results: results
            .into_iter()
            .map(|r| r.expect("every trial resolved"))
            .collect(),
        leap_batches: tally.leap_batches,
        batch_fallbacks: tally.batch_fallbacks,
        interactions: interactions_total,
        effective_interactions: effective_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::CountPopulation;
    use crate::simulator::Simulator;
    use crate::spec::ProtocolSpec;
    use crate::stability::{Never, Silent};

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn fleet_matches_scalar_run_batch_bitwise() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let n = 2000u64;
        let initial = {
            let mut c = vec![0u64; proto.num_states()];
            c[s.index()] = n - 1;
            c[i.index()] = 1;
            c
        };
        let seeds: Vec<u64> = (0..17).map(|t| 9000 + t).collect();
        let cfg = BatchConfig::default();
        let fleet = run_batch_fleet(&proto, &initial, &seeds, &Silent, u64::MAX, &cfg);
        for (idx, &seed) in seeds.iter().enumerate() {
            let mut pop = CountPopulation::new(&proto, n);
            pop.set_count(s, n - 1);
            pop.set_count(i, 1);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            let scalar = Simulator::new(&proto)
                .run_batch(&mut pop, &mut sched, &Silent, u64::MAX)
                .unwrap();
            assert_eq!(fleet.results[idx], Ok(scalar), "seed {seed}");
        }
        assert!(fleet.leap_batches > 0, "large cell must take leaps");
    }

    #[test]
    fn fleet_initially_stable_and_tiny_population() {
        let proto = epidemic();
        let i = proto.state_by_name("I").unwrap();
        let mut stable = vec![0u64; proto.num_states()];
        stable[i.index()] = 7;
        let out = run_batch_fleet(
            &proto,
            &stable,
            &[1, 2, 3],
            &Silent,
            1000,
            &BatchConfig::default(),
        );
        assert!(out.results.iter().all(|r| r
            == &Ok(RunResult {
                interactions: 0,
                effective_interactions: 0
            })));

        let mut lone = vec![0u64; proto.num_states()];
        lone[i.index()] = 1;
        let out = run_batch_fleet(
            &proto,
            &lone,
            &[1, 2],
            &Never,
            1000,
            &BatchConfig::default(),
        );
        assert!(out
            .results
            .iter()
            .all(|r| r == &Err(RunError::PopulationTooSmall)));
    }

    #[test]
    fn fleet_censors_at_the_limit() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut initial = vec![0u64; proto.num_states()];
        initial[s.index()] = 499;
        initial[i.index()] = 1;
        let out = run_batch_fleet(
            &proto,
            &initial,
            &[5, 6],
            &Silent,
            3,
            &BatchConfig::default(),
        );
        assert!(out
            .results
            .iter()
            .all(|r| r == &Err(RunError::InteractionLimit { limit: 3 })));
    }

    #[test]
    fn fleet_empty_seed_list() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let mut initial = vec![0u64; proto.num_states()];
        initial[s.index()] = 10;
        let out = run_batch_fleet(
            &proto,
            &initial,
            &[],
            &Silent,
            1000,
            &BatchConfig::default(),
        );
        assert!(out.results.is_empty());
    }
}
