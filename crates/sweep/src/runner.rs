//! Plan orchestration: shard a plan's cell queue across the worker pool.
//!
//! Cells are the sharding unit — each worker claims whole cells off the
//! queue (via the order-preserving parallel map), while trials inside a
//! cell run on the same pool when it is otherwise idle. Heavier cells
//! (large `n`, large `k`) are dispatched first so the pool drains evenly
//! instead of one straggler cell serialising the tail of the run.

use std::collections::HashMap;

use crate::exec::{run_cell, CellOutcome, ExecOptions};
use crate::observer::SweepObserver;
use crate::spec::CellSpec;
use crate::store::ResultStore;

/// Outcome of a plan (or multi-plan) run.
#[derive(Debug)]
pub struct RunStats {
    /// Cells executed or loaded.
    pub cells: usize,
    /// Cells served entirely from the store.
    pub cache_hits: usize,
    /// Cells that finished by simulating at least one trial.
    pub simulated: usize,
}

/// Run a set of cells (deduplicated by content hash) against the store.
/// Returns per-cell stats; any I/O error aborts the run.
pub fn run_cells(
    cells: &[CellSpec],
    store: &ResultStore,
    obs: &dyn SweepObserver,
    opts: &ExecOptions,
) -> std::io::Result<RunStats> {
    // Dedupe: plans share cells (the ablation reuses fig3's cells, `all`
    // unions every plan); each distinct cell runs once.
    let mut seen = HashMap::new();
    for c in cells {
        seen.entry(c.content_hash()).or_insert_with(|| c.clone());
    }
    let mut unique: Vec<CellSpec> = seen.into_values().collect();
    // Largest simulation volume first (cost ∝ trials · budget is a crude
    // but monotone proxy); ties broken by hash for determinism.
    unique.sort_by_key(|c| {
        (
            std::cmp::Reverse(c.budget.saturating_mul(c.trials as u64)),
            c.content_hash(),
        )
    });

    obs.run_started(unique.len(), unique.iter().map(|c| c.trials as u64).sum());

    let m = crate::telemetry::sweep_metrics();
    let workers = rayon::current_num_threads() as u64;
    m.shard_workers.set(workers);
    let run_started = std::time::Instant::now();
    let busy_before = m.shard_busy_micros.get();

    // Tee observer: tallies hit/simulated for the return value while
    // forwarding every event to the caller's observer.
    struct Tee<'a> {
        inner: &'a dyn SweepObserver,
        hits: std::sync::atomic::AtomicUsize,
    }
    impl SweepObserver for Tee<'_> {
        fn cell_started(&self, spec: &CellSpec, already_done: usize) {
            self.inner.cell_started(spec, already_done);
        }
        fn trial_finished(&self, spec: &CellSpec, censored: bool) {
            self.inner.trial_finished(spec, censored);
        }
        fn cell_finished(&self, spec: &CellSpec, cache_hit: bool, recovered: usize) {
            if cache_hit {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            self.inner.cell_finished(spec, cache_hit, recovered);
        }
    }
    let tee = Tee {
        inner: obs,
        hits: std::sync::atomic::AtomicUsize::new(0),
    };

    let results: Vec<std::io::Result<()>> = {
        use rayon::prelude::*;
        unique
            .clone()
            .into_par_iter()
            .map(|spec| {
                // `kill_after` is a per-cell knob; at plan level it only
                // makes sense for single-cell test runs, so pass through.
                match run_cell(&spec, store, &tee, opts)? {
                    CellOutcome::Complete(_) | CellOutcome::Interrupted { .. } => Ok(()),
                }
            })
            .collect()
    };
    for r in results {
        r?;
    }

    let wall = run_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    m.run_wall_micros.add(wall);
    // Utilisation: busy mass this run over the pool's wall capacity.
    // Cache-hit-only runs finish in microseconds; report them as idle
    // rather than dividing by a meaninglessly small capacity.
    let busy = m.shard_busy_micros.get().saturating_sub(busy_before);
    let capacity = wall.saturating_mul(workers);
    if let Some(pct) = (busy * 100).min(capacity * 100).checked_div(capacity) {
        m.shard_utilisation_pct.set(pct);
    }

    let cache_hits = tee.hits.load(std::sync::atomic::Ordering::Relaxed);
    Ok(RunStats {
        cells: unique.len(),
        cache_hits,
        simulated: unique.len() - cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingObserver;
    use crate::plan::{ukp_cell, PlanConfig};
    use crate::spec::CellMode;
    use std::sync::atomic::Ordering;

    // Orchestration semantics are backend-independent; unit tests use
    // the in-memory backend (see tests/backend_conformance.rs for the
    // cross-backend battery).
    fn temp_store(_tag: &str) -> ResultStore {
        ResultStore::in_memory()
    }

    fn cfg() -> PlanConfig {
        PlanConfig {
            trials: 4,
            master_seed: 7,
        }
    }

    #[test]
    fn duplicate_cells_run_once() {
        let store = temp_store("dedupe");
        let obs = CountingObserver::default();
        let cell = ukp_cell(3, 12, cfg(), CellMode::Summary);
        let cells = vec![cell.clone(), cell.clone(), cell];
        let stats = run_cells(&cells, &store, &obs, &ExecOptions::default()).unwrap();
        assert_eq!(stats.cells, 1);
        assert_eq!(obs.trials.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let store = temp_store("hits");
        let cells: Vec<_> = [(3usize, 9u64), (3, 12), (4, 12)]
            .iter()
            .map(|&(k, n)| ukp_cell(k, n, cfg(), CellMode::Summary))
            .collect();
        let first = CountingObserver::default();
        run_cells(&cells, &store, &first, &ExecOptions::default()).unwrap();
        assert_eq!(first.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(first.trials.load(Ordering::Relaxed), 12);

        let second = CountingObserver::default();
        run_cells(&cells, &store, &second, &ExecOptions::default()).unwrap();
        assert_eq!(second.cache_hits.load(Ordering::Relaxed), 3, "100% hits");
        assert_eq!(second.trials.load(Ordering::Relaxed), 0, "nothing re-run");
    }
}
