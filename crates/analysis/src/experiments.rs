//! Pre-wired experiment cells for the paper's protocol.
//!
//! Each figure in §5 is a sweep over `(n, k)` cells; a *cell* is one batch
//! of trials at fixed parameters. These helpers wire the k-partition
//! protocol, its stable signature, a generous interaction budget, and
//! deterministic per-cell seed derivation together, so callers
//! (pp-bench's `exact_vs_sim`, `tests/scaling.rs`) only loop over their
//! parameter grids.

use crate::grouping::{grouping_breakdown, GroupingBreakdown};
use crate::runner::{run_trials, run_trials_with, TrialBatch, TrialConfig, WatchedTrial};
use crate::stats::Summary;
use pp_engine::observer::GroupCompletionObserver;
use pp_engine::seeds;
use pp_engine::simulator::{Kernel, RunError};
use pp_protocols::kpartition::UniformKPartition;

/// Result of one `(n, k)` cell.
#[derive(Clone, Debug)]
pub struct KPartitionCell {
    /// Number of groups.
    pub k: usize,
    /// Population size.
    pub n: u64,
    /// Trial outcomes.
    pub batch: TrialBatch,
}

impl KPartitionCell {
    /// Summary of interactions-to-stability across completed trials.
    pub fn summary(&self) -> Summary {
        self.batch.summary()
    }
}

/// Run one cell: `trials` executions of the uniform k-partition protocol
/// with `n` agents on the leap kernel, stopping at the Lemma 4–6 stable
/// signature.
///
/// The cell's master seed is derived from `(master_seed, k, n)`, so whole
/// sweeps are reproducible from a single recorded seed and cells are
/// independent of sweep order.
pub fn kpartition_cell(
    k: usize,
    n: u64,
    trials: usize,
    master_seed: u64,
) -> Result<KPartitionCell, RunError> {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let cfg = TrialConfig {
        trials,
        master_seed: seeds::derive_labelled(master_seed, k as u64, n),
        max_interactions: kp.interaction_budget(n),
    };
    let batch = run_trials(&proto, n, &kp.stable_signature(n), cfg, Kernel::Leap)?;
    Ok(KPartitionCell { k, n, batch })
}

/// Result of one instrumented `(n, k)` cell (Figure 4).
#[derive(Clone, Debug)]
pub struct KPartitionGroupingCell {
    /// Number of groups.
    pub k: usize,
    /// Population size.
    pub n: u64,
    /// The `NI'_i` decomposition.
    pub breakdown: GroupingBreakdown,
}

/// Run one instrumented cell: as [`kpartition_cell`], additionally
/// recording when each grouping completes (each increment of `#g_k`) and
/// aggregating the `NI'_i` decomposition of Figure 4.
pub fn kpartition_grouping_cell(
    k: usize,
    n: u64,
    trials: usize,
    master_seed: u64,
) -> Result<KPartitionGroupingCell, RunError> {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let cfg = TrialConfig {
        trials,
        master_seed: seeds::derive_labelled(master_seed, k as u64, n),
        max_interactions: kp.interaction_budget(n),
    };
    // Leap-safe: the watched count cannot change during an identity
    // run, so the completion times equal the naive kernel's.
    let watched: Vec<WatchedTrial> = run_trials_with(
        &proto,
        n,
        &kp.stable_signature(n),
        cfg,
        Kernel::Leap,
        || GroupCompletionObserver::new(kp.g(k)),
    )?
    .into_iter()
    .map(|(outcome, gc)| WatchedTrial {
        total: outcome.interactions,
        completions: gc.into_completions(),
    })
    .collect();
    Ok(KPartitionGroupingCell {
        k,
        n,
        breakdown: grouping_breakdown(&watched),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_runs_and_summarises() {
        let cell = kpartition_cell(3, 12, 10, 42).unwrap();
        assert_eq!(cell.batch.censored, 0);
        assert_eq!(cell.batch.interactions.len(), 10);
        let s = cell.summary();
        assert!(s.mean > 0.0);
        assert!(s.min >= 11.0); // needs at least n - 1 = 11 state changes
    }

    #[test]
    fn cell_reproducible_and_seed_sensitive() {
        let a = kpartition_cell(3, 9, 6, 1).unwrap();
        let b = kpartition_cell(3, 9, 6, 1).unwrap();
        let c = kpartition_cell(3, 9, 6, 2).unwrap();
        assert_eq!(a.batch.interactions, b.batch.interactions);
        assert_ne!(a.batch.interactions, c.batch.interactions);
    }

    #[test]
    fn grouping_cell_matches_expected_grouping_count() {
        // n = 13, k = 4: ⌊13/4⌋ = 3 groupings, remainder 1 agent tail.
        let cell = kpartition_grouping_cell(4, 13, 8, 7).unwrap();
        assert_eq!(cell.breakdown.increments.len(), 3);
        assert_eq!(cell.breakdown.trials_used, 8);
        // Mean total from the stack equals a direct cell's mean total in
        // expectation; here just check positivity and monotone stacking.
        assert!(cell.breakdown.mean_total() > 0.0);
    }

    #[test]
    fn grouping_increments_increase_on_average() {
        // The paper: NI'_1 < NI'_2 < … (later groupings are harder as
        // free agents thin out). Check on a moderate cell with generous
        // trials to keep flakiness negligible.
        let cell = kpartition_grouping_cell(3, 24, 30, 11).unwrap();
        let means: Vec<f64> = cell.breakdown.increments.iter().map(|s| s.mean).collect();
        assert_eq!(means.len(), 8);
        assert!(
            means.first().unwrap() * 2.0 < *means.last().unwrap(),
            "final grouping should dominate: {means:?}"
        );
    }
}
