//! Cell execution: cache check → journal recovery → simulate the missing
//! trials → atomically promote to the store.
//!
//! This is the workspace's one trial runner: the paper's method (§5) of
//! seeded trials per `(k, n)` point runs here, whether a sweep plan, a
//! `pp-serve` request or a test asks for it (tests and pp-bench's
//! `exact_vs_sim` run cells on [`ResultStore::in_memory`]).
//!
//! Determinism contract: trial `i` of a cell always runs with seed
//! `seeds::derive(spec.seed, i)` (trajectory cells use `spec.seed`
//! directly, so a trajectory is one run seeded by the cell),
//! independent of which trials already exist in the journal and of
//! scheduling. A cell resumed after a crash therefore produces the same
//! records, bit for bit, as an uninterrupted run — the property the
//! `resume_equals_fresh` proptest pins down.

use pp_engine::metrics::TelemetryObserver;
use pp_engine::observer::{
    Chain, GroupCompletionObserver, NullObserver, Observer, TrajectorySampler,
};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::{RunError, Simulator};

use crate::observer::SweepObserver;
use crate::spec::{CellMode, CellSpec, KernelChoice, MaterializedCell};
use crate::store::{CellResult, ResultStore, TrialRecord};
use crate::telemetry::{record_cell, sweep_metrics, CellAccounting};

/// Knobs for [`run_cell`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Test hook: stop after journaling this many *new* trials, leaving
    /// the cell incomplete — simulates a crash at an arbitrary point
    /// without process gymnastics. `None` runs to completion.
    pub kill_after: Option<usize>,
}

/// What [`run_cell`] produced.
#[derive(Debug)]
pub enum CellOutcome {
    /// The cell is complete (from cache, journal recovery, fresh
    /// simulation, or any mix).
    Complete(CellResult),
    /// `kill_after` fired; the journal holds `journaled` of the cell's
    /// trials.
    Interrupted {
        /// Trials now present in the journal.
        journaled: usize,
    },
}

impl CellOutcome {
    /// Unwrap the completed result.
    ///
    /// # Panics
    /// If the cell was interrupted.
    pub fn expect_complete(self) -> CellResult {
        match self {
            CellOutcome::Complete(r) => r,
            CellOutcome::Interrupted { journaled } => {
                panic!("cell interrupted after {journaled} journaled trials")
            }
        }
    }
}

/// One trial's outcome: its interaction count and final configuration
/// (available even for a censored run).
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Interactions to stability; `None` if the budget was hit.
    pub interactions: Option<u64>,
    /// Final count vector.
    pub final_counts: Vec<u64>,
}

/// The seed trial `trial` of a cell runs with.
pub(crate) fn trial_seed(spec: &CellSpec, trial: u64) -> u64 {
    match spec.mode {
        // A trajectory cell is one run, and its scheduler takes the
        // cell seed as it is.
        CellMode::Trajectory { .. } => spec.seed,
        _ => seeds::derive(spec.seed, trial),
    }
}

/// Run trial `trial` of a materialized cell on `kernel` with `observer`
/// attached — the one trial path of every cell mode, and of the trace
/// and timeline re-runs of trial 0. Default dynamics run on a count
/// population under a seeded uniform random scheduler; any other
/// dynamics through the topology / scheduler / churn loop in `pp_topo`
/// (always the naive kernel — [`CellSpec::validate_dynamics`] rejects
/// any other before we get here). A trial that hits its budget is
/// censored; any other run error is returned.
pub(crate) fn observe_trial<O: Observer>(
    spec: &CellSpec,
    cell: &MaterializedCell,
    trial: u64,
    kernel: KernelChoice,
    observer: &mut O,
) -> Result<TrialOutcome, String> {
    let seed = trial_seed(spec, trial);
    let failed =
        |e: &dyn std::fmt::Display| format!("trial {trial} of {} failed: {e}", spec.file_stem());
    if !spec.dynamics.is_default() {
        let outcome = pp_topo::run_dynamics(
            &cell.proto,
            spec.n as usize,
            &spec.dynamics,
            &cell.criterion,
            spec.budget,
            seed,
            observer,
        )
        .map_err(|e| failed(&e))?;
        return Ok(TrialOutcome {
            interactions: outcome.interactions,
            final_counts: outcome.pop.counts().to_vec(),
        });
    }
    let mut pop = CountPopulation::new(&cell.proto, spec.n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    // Telemetry rides along as an observer: it never touches scheduling
    // or RNG state, so trajectories — and the content hashes built on
    // them — are bit-identical to an unobserved run.
    let mut observers = Chain(observer, TelemetryObserver::new());
    let res = Simulator::new(&cell.proto).run_kernel(
        kernel,
        &mut pop,
        &mut sched,
        &cell.criterion,
        spec.budget,
        &mut observers,
    );
    let interactions = match res {
        Ok(r) => Some(r.interactions),
        Err(RunError::InteractionLimit { .. }) => {
            observers.1.mark_censored();
            None
        }
        Err(e) => return Err(failed(&e)),
    };
    Ok(TrialOutcome {
        interactions,
        final_counts: pop.counts().to_vec(),
    })
}

/// Run one trial of a materialized cell. Pure in `(spec, trial)` — this
/// is the replayable unit the journal checkpoints.
pub fn run_one_trial(
    spec: &CellSpec,
    cell: &MaterializedCell,
    trial: u64,
) -> std::io::Result<TrialRecord> {
    let failed = std::io::Error::other;
    let mut record = TrialRecord::summary(trial, None);
    match spec.mode {
        CellMode::Summary | CellMode::Full => {
            let o =
                observe_trial(spec, cell, trial, spec.kernel, &mut NullObserver).map_err(failed)?;
            record.interactions = o.interactions;
            if spec.mode == CellMode::Full {
                record.final_counts = Some(o.final_counts);
            }
        }
        CellMode::Watched => {
            let mut watch = GroupCompletionObserver::new(spec.watched_state());
            let o = observe_trial(spec, cell, trial, spec.kernel, &mut watch).map_err(failed)?;
            record.interactions = o.interactions;
            record.completions = Some(watch.into_completions());
        }
        CellMode::Trajectory { sample_every } => {
            // The sampler needs every interaction, so a batch cell samples
            // on the kernel's per-interaction stand-in.
            let mut sampler = TrajectorySampler::every(sample_every);
            let kernel = spec.kernel.per_interaction();
            let o = observe_trial(spec, cell, trial, kernel, &mut sampler).map_err(failed)?;
            record.interactions = o.interactions;
            let rows = sampler.samples().iter().map(|(t, counts)| {
                let mut row = Vec::with_capacity(1 + counts.len());
                row.push(*t);
                row.extend_from_slice(counts);
                row
            });
            record.samples = Some(rows.collect());
        }
    }
    Ok(record)
}

/// Execute a cell against the store: return the cached result if
/// complete, otherwise recover the journal, simulate the missing trials
/// (in parallel), journal each as it lands, and promote the finished set
/// to the store atomically.
///
/// Rejects specs whose dynamics block is invalid or whose kernel cannot
/// run it (e.g. the batch kernel on a non-complete topology) with
/// `InvalidInput` before any trial is simulated.
pub fn run_cell(
    spec: &CellSpec,
    store: &ResultStore,
    obs: &dyn SweepObserver,
    opts: &ExecOptions,
) -> std::io::Result<CellOutcome> {
    if let Err(msg) = spec.validate_dynamics() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
    }
    let started = std::time::Instant::now();
    let elapsed_micros =
        |s: &std::time::Instant| s.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    if let Some(cached) = store.load(spec) {
        record_cell(&CellAccounting {
            file_stem: &spec.file_stem(),
            cache_hit: true,
            wall_micros: elapsed_micros(&started),
            trials: cached.records.len() as u64,
            recovered: 0,
            censored: cached.censored() as u64,
            interactions: cached.interactions().iter().sum(),
        });
        obs.cell_finished(spec, true, 0);
        return Ok(CellOutcome::Complete(cached));
    }

    let journal_state = store.journal_state(spec);
    sweep_metrics()
        .journal_discarded_lines
        .add(journal_state.discarded_lines as u64);
    let mut records = journal_state.records;
    records.retain(|&t, _| t < spec.trials as u64);
    let recovered = records.len();
    sweep_metrics().trials_recovered.add(recovered as u64);
    let missing: Vec<u64> = (0..spec.trials as u64)
        .filter(|t| !records.contains_key(t))
        .collect();
    obs.cell_started(spec, recovered);

    let to_run: &[u64] = match opts.kill_after {
        Some(m) => &missing[..m.min(missing.len())],
        None => &missing,
    };

    if !to_run.is_empty() {
        let cell = spec.materialize();
        let writer = store.journal_sink(spec)?;
        let fresh: Vec<std::io::Result<TrialRecord>> = {
            use rayon::prelude::*;
            to_run
                .to_vec()
                .into_par_iter()
                .map(|t| {
                    let rec = run_one_trial(spec, &cell, t)?;
                    let journaled = writer.append(&rec);
                    let m = sweep_metrics();
                    m.trials_simulated.inc();
                    if rec.interactions.is_none() {
                        m.trials_censored.inc();
                    }
                    obs.trial_finished(spec, rec.interactions.is_none());
                    journaled.map(|()| rec)
                })
                .collect()
        };
        for rec in fresh {
            let rec = rec?;
            records.insert(rec.trial, rec);
        }
    }

    if records.len() < spec.trials {
        // kill_after fired (the only way to get here): leave the journal
        // in place for the next attempt.
        return Ok(CellOutcome::Interrupted {
            journaled: records.len(),
        });
    }

    let sorted: Vec<TrialRecord> = records.into_values().collect();
    let result = store.save(spec, sorted)?;
    record_cell(&CellAccounting {
        file_stem: &spec.file_stem(),
        cache_hit: false,
        wall_micros: elapsed_micros(&started),
        trials: result.records.len() as u64,
        recovered: recovered as u64,
        censored: result.censored() as u64,
        interactions: result.interactions().iter().sum(),
    });
    obs.cell_finished(spec, false, recovered);
    Ok(CellOutcome::Complete(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CountingObserver, NullObserver};
    use crate::spec::{CriterionKind, ProtocolId};
    use std::sync::atomic::Ordering;

    // Execution semantics are backend-independent; the unit tests run on
    // the in-memory backend (no tempdir churn), while the conformance
    // suite in tests/backend_conformance.rs covers fs and log.
    fn temp_store(_tag: &str) -> ResultStore {
        ResultStore::in_memory()
    }

    fn spec(mode: CellMode) -> CellSpec {
        let kernel = mode.default_kernel();
        CellSpec {
            protocol: ProtocolId::UniformKPartition { k: 3 },
            n: 12,
            trials: 6,
            seed: 41,
            criterion: CriterionKind::Stable,
            budget: 10_000_000,
            mode,
            kernel,
            dynamics: pp_topo::Dynamics::default_dynamics(),
        }
    }

    #[test]
    fn fresh_run_then_cache_hit() {
        let store = temp_store("cache");
        let obs = CountingObserver::default();
        let s = spec(CellMode::Summary);
        let r1 = run_cell(&s, &store, &obs, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(obs.trials.load(Ordering::Relaxed), 6);
        assert_eq!(obs.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(r1.records.len(), 6);
        assert_eq!(r1.censored(), 0);
        // Journal was promoted away.
        assert!(!store.has_journal(&s));

        let r2 = run_cell(&s, &store, &obs, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(obs.trials.load(Ordering::Relaxed), 6, "no re-simulation");
        assert_eq!(obs.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(r1.records, r2.records);
        // Every trial makes at least the n − 1 = 11 state changes, and
        // another cell seed draws other trials.
        assert!(r1.summary().min >= 11.0);
        let reseeded = CellSpec { seed: 42, ..s };
        let r3 = run_cell(&reseeded, &store, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_ne!(r1.interactions(), r3.interactions());
    }

    #[test]
    fn interrupted_then_resumed_equals_fresh() {
        let store_a = temp_store("resume_a");
        let store_b = temp_store("resume_b");
        let s = spec(CellMode::Summary);
        let fresh = run_cell(&s, &store_a, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();

        // Kill after 2 trials, then resume.
        let obs = CountingObserver::default();
        match run_cell(
            &s,
            &store_b,
            &obs,
            &ExecOptions {
                kill_after: Some(2),
            },
        )
        .unwrap()
        {
            CellOutcome::Interrupted { journaled } => assert_eq!(journaled, 2),
            other => panic!("expected interruption, got {other:?}"),
        }
        let resumed = run_cell(&s, &store_b, &obs, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(
            obs.trials.load(Ordering::Relaxed),
            6,
            "2 killed + 4 resumed"
        );
        assert_eq!(obs.recovered.load(Ordering::Relaxed), 2);
        assert_eq!(fresh.records, resumed.records);
    }

    #[test]
    fn watched_and_full_modes_record_extras() {
        let store = temp_store("modes");
        let w = run_cell(
            &spec(CellMode::Watched),
            &store,
            &NullObserver,
            &ExecOptions::default(),
        )
        .unwrap()
        .expect_complete();
        // n = 12, k = 3: ⌊n/k⌋ = 4 groupings, completed in order, and
        // since k divides n the last one is the stabilising interaction.
        for t in w.watched() {
            assert_eq!(t.completions.len(), 4);
            assert!(t.completions.windows(2).all(|p| p[0] <= p[1]));
            assert_eq!(t.completions.last().copied(), t.total);
        }
        let f = run_cell(
            &spec(CellMode::Full),
            &store,
            &NullObserver,
            &ExecOptions::default(),
        )
        .unwrap()
        .expect_complete();
        for o in f.outcomes() {
            assert_eq!(o.final_counts.iter().sum::<u64>(), 12);
        }
    }

    #[test]
    fn trajectory_mode_samples_counts() {
        let store = temp_store("traj");
        let s = CellSpec {
            trials: 1,
            ..spec(CellMode::Trajectory { sample_every: 64 })
        };
        let r = run_cell(&s, &store, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        let rec = &r.records[0];
        let samples = rec.samples.as_ref().unwrap();
        assert!(!samples.is_empty());
        let num_states = s.materialize().proto.num_states();
        for row in samples {
            assert_eq!(row.len(), 1 + num_states);
            assert_eq!(row[1..].iter().sum::<u64>(), 12);
        }
    }

    fn dyn_spec(fragment: &str, mode: CellMode) -> CellSpec {
        CellSpec {
            kernel: crate::spec::KernelChoice::Naive,
            dynamics: pp_topo::Dynamics::parse(fragment).unwrap(),
            // Sparse-topology trials may never stabilise; a small budget
            // keeps the censored path fast in debug builds.
            budget: 200_000,
            ..spec(mode)
        }
    }

    #[test]
    fn dynamics_cell_runs_end_to_end_and_caches() {
        let store = temp_store("dyn");
        let obs = CountingObserver::default();
        // Ring + net-positive churn, full capture: final counts must sum
        // to n plus net churn for every trial that ran.
        let s = dyn_spec("ring;uniform;j2.l1.c0.p50", CellMode::Full);
        let r1 = run_cell(&s, &store, &obs, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(r1.records.len(), 6);
        for rec in &r1.records {
            let counts = rec.final_counts.as_ref().unwrap();
            assert_eq!(counts.iter().sum::<u64>(), s.target_n());
        }
        // Deterministic and cached: a second run is a pure hit.
        let r2 = run_cell(&s, &store, &obs, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(obs.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(r1.records, r2.records);
    }

    #[test]
    fn dynamics_cell_resumes_deterministically() {
        // The journal/resume contract holds under dynamics too: kill
        // mid-cell, resume, compare against an uninterrupted run.
        let s = dyn_spec("rr:d=4;adversarial;j1.l1.c1.p40", CellMode::Summary);
        let fresh = run_cell(
            &s,
            &temp_store("dynfresh"),
            &NullObserver,
            &ExecOptions::default(),
        )
        .unwrap()
        .expect_complete();
        let store = temp_store("dynresume");
        match run_cell(
            &s,
            &store,
            &NullObserver,
            &ExecOptions {
                kill_after: Some(3),
            },
        )
        .unwrap()
        {
            CellOutcome::Interrupted { journaled } => assert_eq!(journaled, 3),
            other => panic!("expected interruption, got {other:?}"),
        }
        let resumed = run_cell(&s, &store, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(fresh.records, resumed.records);
    }

    #[test]
    fn invalid_dynamics_rejected_before_any_trial() {
        let store = temp_store("dynbad");
        let obs = CountingObserver::default();
        // Batch kernel on a ring: the typed pp_topo refusal surfaces as
        // InvalidInput, and no trial is simulated.
        let s = CellSpec {
            kernel: crate::spec::KernelChoice::Batch,
            ..dyn_spec("ring;uniform;j0.l0.c0.p0", CellMode::Summary)
        };
        let err = run_cell(&s, &store, &obs, &ExecOptions::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("batch"), "{err}");
        assert_eq!(obs.trials.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn budget_hits_are_censored_on_every_kernel() {
        // n = 12 needs at least n − 1 = 11 state changes, so a budget of
        // one interaction censors every trial.
        let store = temp_store("censor");
        for kernel in KernelChoice::ALL {
            let s = CellSpec {
                budget: 1,
                kernel,
                ..spec(CellMode::Summary)
            };
            let r = run_cell(&s, &store, &NullObserver, &ExecOptions::default())
                .unwrap()
                .expect_complete();
            assert_eq!(r.censored(), 6, "{kernel}");
            assert!(r.interactions().is_empty(), "{kernel}");
        }
    }

    #[test]
    fn run_errors_reach_the_caller_and_store_nothing() {
        // n(n − 1) overflows 64 bits, so neither kernel can start a trial.
        let store = temp_store("too_large");
        for kernel in [KernelChoice::Leap, KernelChoice::Batch] {
            let s = CellSpec {
                n: (1 << 32) + 1,
                kernel,
                ..spec(CellMode::Summary)
            };
            let err = run_cell(&s, &store, &NullObserver, &ExecOptions::default()).unwrap_err();
            assert!(err.to_string().contains("too large"), "{kernel}: {err}");
            assert!(store.load(&s).is_none(), "{kernel}");
            assert!(!store.has_journal(&s), "{kernel}");
        }
    }
}
