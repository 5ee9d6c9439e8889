//! Parallel trial fan-out.
//!
//! [`run_trials`] reproduces the paper's methodology: `trials` independent
//! executions of a protocol from its initial configuration under the
//! uniform random scheduler, each stopping at the supplied stability
//! criterion, returning the per-trial interaction counts.
//! [`run_trials_with`] also keeps each trial's final configuration and
//! observer, and [`run_trial`] is the single trial both are made of.
//! Every runner takes the [`Kernel`] to simulate on as a value. Trials are
//! mapped over a rayon thread pool; determinism is preserved because trial
//! `i`'s RNG seed is `seeds::derive(master_seed, i)` regardless of which
//! thread runs it.

use pp_engine::metrics::TelemetryObserver;
use pp_engine::observer::{Chain, NullObserver, Observer};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::CompiledProtocol;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::{Kernel, RunError, Simulator};
use pp_engine::stability::StabilityCriterion;
use rayon::prelude::*;

/// Configuration of a trial batch.
#[derive(Clone, Copy, Debug)]
pub struct TrialConfig {
    /// Number of independent executions (the paper uses 100).
    pub trials: usize,
    /// Master seed; trial `i` runs with `derive(master_seed, i)`.
    pub master_seed: u64,
    /// Per-trial interaction budget; runs exceeding it are reported as
    /// censored rather than aborting the batch.
    pub max_interactions: u64,
}

impl TrialConfig {
    /// The paper's default: 100 trials.
    pub fn paper_default(master_seed: u64, max_interactions: u64) -> Self {
        TrialConfig {
            trials: 100,
            master_seed,
            max_interactions,
        }
    }
}

/// Outcome of a trial batch.
#[derive(Clone, Debug)]
pub struct TrialBatch {
    /// Interactions-to-stability of every *completed* trial, in trial
    /// order (censored trials omitted).
    pub interactions: Vec<u64>,
    /// Number of trials that hit the interaction budget.
    pub censored: usize,
}

impl TrialBatch {
    /// Mean interactions over completed trials (the paper's reported
    /// statistic).
    ///
    /// # Panics
    /// If every trial was censored.
    pub fn mean(&self) -> f64 {
        assert!(
            !self.interactions.is_empty(),
            "all trials censored — raise max_interactions"
        );
        self.interactions.iter().sum::<u64>() as f64 / self.interactions.len() as f64
    }

    /// Full summary statistics over completed trials.
    pub fn summary(&self) -> crate::stats::Summary {
        crate::stats::Summary::of_u64(&self.interactions)
    }
}

/// Run one trial with an already-derived `seed` on `kernel`, reporting
/// to `observer`. This is the unit of work the batch runners below and
/// `pp-sweep`'s journaled executor share: trial `i` of a batch is exactly
/// `run_trial(.., seeds::derive(master_seed, i), ..)`, so a resumed sweep
/// reproduces a fresh one bit for bit (per kernel — the kernel is part of
/// a sweep cell's identity).
///
/// A run that hits `max_interactions` is censored, not an error: its
/// outcome has `interactions: None`. Any other [`RunError`] is returned.
pub fn run_trial<C, O>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    seed: u64,
    max_interactions: u64,
    kernel: Kernel,
    observer: &mut O,
) -> Result<TrialOutcome, RunError>
where
    C: StabilityCriterion,
    O: Observer,
{
    let mut pop = CountPopulation::new(proto, n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    // Telemetry rides along as an observer: it never touches scheduling
    // or RNG state, so trajectories — and the sweep cache's content
    // hashes built on them — are bit-identical to an unobserved run.
    let mut observers = Chain(observer, TelemetryObserver::new());
    let res = Simulator::new(proto).run_kernel(
        kernel,
        &mut pop,
        &mut sched,
        criterion,
        max_interactions,
        &mut observers,
    );
    let interactions = match res {
        Ok(r) => Some(r.interactions),
        Err(RunError::InteractionLimit { .. }) => {
            observers.1.mark_censored();
            None
        }
        Err(e) => return Err(e),
    };
    Ok(TrialOutcome {
        interactions,
        final_counts: pop.counts().to_vec(),
    })
}

/// Run `cfg.trials` independent executions of `proto` with `n` agents
/// (all starting in the initial state) and the given stability criterion
/// on `kernel`, in parallel. See module docs for the determinism
/// guarantee.
pub fn run_trials<C>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    cfg: TrialConfig,
    kernel: Kernel,
) -> Result<TrialBatch, RunError>
where
    C: StabilityCriterion + Sync,
{
    let trials = run_trials_with(proto, n, criterion, cfg, kernel, || NullObserver)?;
    let mut batch = TrialBatch {
        interactions: Vec::with_capacity(trials.len()),
        censored: 0,
    };
    for (outcome, _) in trials {
        match outcome.interactions {
            Some(x) => batch.interactions.push(x),
            None => batch.censored += 1,
        }
    }
    Ok(batch)
}

/// Like [`run_trials`], but each trial gets a fresh observer from
/// `observer` and keeps its final configuration: returns every trial's
/// outcome with its observer, in trial order. Baseline comparisons use
/// the final counts to measure the *uniformity* of the stable outcome;
/// Figure 4 watches `g_k` with a
/// [`pp_engine::observer::GroupCompletionObserver`].
pub fn run_trials_with<C, O, F>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    cfg: TrialConfig,
    kernel: Kernel,
    observer: F,
) -> Result<Vec<(TrialOutcome, O)>, RunError>
where
    C: StabilityCriterion + Sync,
    O: Observer + Send,
    F: Fn() -> O + Sync,
{
    (0..cfg.trials as u64)
        .into_par_iter()
        .map(|i| {
            let mut obs = observer();
            let seed = seeds::derive(cfg.master_seed, i);
            let outcome = run_trial(
                proto,
                n,
                criterion,
                seed,
                cfg.max_interactions,
                kernel,
                &mut obs,
            )?;
            Ok((outcome, obs))
        })
        .collect()
}

/// One instrumented trial: completion times of each watched-state
/// increment, plus the total if the run stabilised.
#[derive(Clone, Debug)]
pub struct WatchedTrial {
    /// Total interactions to stability; `None` if censored.
    pub total: Option<u64>,
    /// `completions[i]` = interaction at which the watched count first
    /// reached `i + 1`.
    pub completions: Vec<u64>,
}

/// One trial's full outcome: interaction count and the final
/// configuration (available even for censored runs, whose `interactions`
/// is `None`).
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Interactions to stability; `None` if the budget was hit.
    pub interactions: Option<u64>,
    /// Final count vector.
    pub final_counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;
    use pp_engine::stability::Silent;

    fn two_phase() -> (CompiledProtocol, pp_engine::protocol::StateId) {
        // (a, a) -> (b, b): pairs settle; odd agent remains. Watched: b.
        let mut spec = ProtocolSpec::new("pairing");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        (spec.compile().unwrap(), b)
    }

    #[test]
    fn trials_are_deterministic_in_master_seed() {
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 16,
            master_seed: 99,
            max_interactions: 1_000_000,
        };
        let a = run_trials(&p, 11, &Silent, cfg, Kernel::Leap).unwrap();
        let b = run_trials(&p, 11, &Silent, cfg, Kernel::Leap).unwrap();
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.censored, 0);
        assert_eq!(a.interactions.len(), 16);
        // Different master seed gives a different batch.
        let c = run_trials(
            &p,
            11,
            &Silent,
            TrialConfig {
                master_seed: 100,
                ..cfg
            },
            Kernel::Leap,
        )
        .unwrap();
        assert_ne!(a.interactions, c.interactions);
    }

    #[test]
    fn censoring_counts_budget_hits() {
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 8,
            master_seed: 1,
            max_interactions: 1, // absurdly tight: n=11 needs ≥ 5 pairings
        };
        for kernel in Kernel::ALL {
            let batch = run_trials(&p, 11, &Silent, cfg, kernel).unwrap();
            assert_eq!(batch.censored, 8, "{kernel}");
            assert!(batch.interactions.is_empty(), "{kernel}");
        }
    }

    #[test]
    fn watching_records_monotone_completions() {
        let (p, b) = two_phase();
        let cfg = TrialConfig {
            trials: 4,
            master_seed: 5,
            max_interactions: 1_000_000,
        };
        let trials = run_trials_with(&p, 10, &Silent, cfg, Kernel::Leap, || {
            pp_engine::observer::GroupCompletionObserver::new(b)
        })
        .unwrap();
        for (outcome, gc) in trials {
            let total = outcome.interactions.expect("not censored");
            let completions = gc.into_completions();
            // 10 agents -> 5 pairings -> watched count reaches 10.
            assert_eq!(completions.len(), 10);
            assert!(completions.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*completions.last().unwrap(), total);
            assert_eq!(outcome.final_counts, vec![0, 10]);
        }
    }

    #[test]
    fn run_errors_are_returned_on_every_kernel() {
        // One agent can never interact, and `Never` is never satisfied:
        // every runner must hand the error back instead of panicking.
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 3,
            master_seed: 1,
            max_interactions: 100,
        };
        let never = pp_engine::stability::Never;
        for kernel in Kernel::ALL {
            let err = RunError::PopulationTooSmall;
            let trial = run_trial(&p, 1, &never, 7, 100, kernel, &mut NullObserver);
            assert_eq!(trial.unwrap_err(), err, "{kernel}");
            let batch = run_trials(&p, 1, &never, cfg, kernel);
            assert_eq!(batch.unwrap_err(), err, "{kernel}");
            let with = run_trials_with(&p, 1, &never, cfg, kernel, || NullObserver);
            assert_eq!(with.unwrap_err(), err, "{kernel}");
        }
    }

    #[test]
    fn batch_mean_and_summary_agree() {
        let batch = TrialBatch {
            interactions: vec![10, 20, 30],
            censored: 0,
        };
        assert!((batch.mean() - 20.0).abs() < 1e-12);
        assert!((batch.summary().mean - 20.0).abs() < 1e-12);
    }
}
