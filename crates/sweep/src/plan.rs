//! Sweep plans: named, declarative bundles of cells plus a reporter.
//!
//! A [`Plan`] is what the paper calls an experiment: the figure sweeps,
//! the baselines, the ablation, and the extension experiments each
//! declare their cell grid up front and render their tables/CSVs from
//! the store afterwards. Because rendering is separated from running,
//! figures regenerate incrementally: a plan whose cells are all cached
//! re-renders without simulating anything.

use pp_engine::seeds;
use pp_protocols::kpartition::UniformKPartition;

use crate::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};
use crate::store::{CellResult, ResultStore};

/// A plan's reporter: renders tables and CSVs from the (complete) store.
pub type Reporter = Box<dyn Fn(&ResultStore) -> std::io::Result<String> + Send + Sync>;

/// A named experiment: banner, cell grid, and reporter.
pub struct Plan {
    /// CLI name (`pp-sweep run <name>`).
    pub name: &'static str,
    /// Banner title (e.g. "Figure 3").
    pub title: &'static str,
    /// Banner description.
    pub description: &'static str,
    /// The cells this plan needs.
    pub cells: Vec<CellSpec>,
    /// Render tables and CSVs from the (complete) store; returns the
    /// console report text, which includes `wrote <path>` lines for
    /// every file written.
    pub report: Reporter,
}

impl Plan {
    /// Total trials across the plan's cells.
    pub fn total_trials(&self) -> u64 {
        self.cells.iter().map(|c| c.trials as u64).sum()
    }
}

/// Sweep-wide knobs, read once from the environment (`PP_TRIALS`,
/// `PP_SEED`) so every cell of a run agrees on them.
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Trials per cell.
    pub trials: usize,
    /// Master seed; cell seeds derive from it.
    pub master_seed: u64,
}

impl PlanConfig {
    /// Read `PP_TRIALS` / `PP_SEED` (with the paper defaults).
    pub fn from_env() -> Self {
        PlanConfig {
            trials: pp_analysis::config::trials(),
            master_seed: pp_analysis::config::master_seed(),
        }
    }
}

/// The paper's-protocol cell at `(k, n)`: stable-signature criterion,
/// the protocol's own interaction budget, cell seed
/// `derive_labelled(master, k, n)`, so every `(k, n)` point is
/// reproducible from the master seed alone, whichever plan runs it.
pub fn ukp_cell(k: usize, n: u64, cfg: PlanConfig, mode: CellMode) -> CellSpec {
    let kp = UniformKPartition::new(k);
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k },
        n,
        trials: cfg.trials,
        seed: seeds::derive_labelled(cfg.master_seed, k as u64, n),
        criterion: CriterionKind::Stable,
        budget: kp.interaction_budget(n),
        mode,
        kernel: mode.default_kernel(),
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

/// A baseline-comparison cell: any protocol, effectively-unbounded
/// budget (the baselines have no budget formula; the legacy binary used
/// 10^12), full final-configuration capture for imbalance measurement.
pub fn baseline_cell(protocol: ProtocolId, n: u64, cfg: PlanConfig) -> CellSpec {
    CellSpec {
        protocol,
        n,
        trials: cfg.trials,
        seed: seeds::derive_labelled(cfg.master_seed, protocol.k() as u64, n),
        criterion: CriterionKind::Stable,
        budget: 1_000_000_000_000,
        mode: CellMode::Full,
        kernel: KernelChoice::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

/// Load a cell the runner has already completed.
///
/// # Panics
/// If the cell is not in the store — reporters run strictly after the
/// runner, so a miss is a bug (or an externally deleted store file).
pub fn must_load(store: &ResultStore, spec: &CellSpec) -> CellResult {
    store.load(spec).unwrap_or_else(|| {
        panic!(
            "cell {} missing from store {} — run the plan before reporting",
            spec.canonical_key(),
            store.dir().display()
        )
    })
}

/// All registered plans, in `run all` order.
pub fn plans(cfg: PlanConfig) -> Vec<Plan> {
    vec![
        crate::plans::fig3::plan(cfg),
        crate::plans::fig4::plan(cfg),
        crate::plans::fig5::plan(cfg),
        crate::plans::fig6::plan(cfg),
        crate::plans::baselines::plan(cfg),
        crate::plans::ablation_d_states::plan(cfg),
        crate::plans::variants::plan(cfg),
        crate::plans::distributions::plan(cfg),
        crate::plans::trajectory::plan(cfg),
        crate::plans::topo::plan(cfg),
    ]
}

/// Find a plan by name.
pub fn find(name: &str, cfg: PlanConfig) -> Option<Plan> {
    plans(cfg).into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlanConfig {
        PlanConfig {
            trials: 3,
            master_seed: 99,
        }
    }

    #[test]
    fn registry_names_are_unique_and_expected() {
        let names: Vec<&str> = plans(cfg()).iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "baselines",
                "ablation_d_states",
                "variants",
                "distributions",
                "trajectory",
                "topo-families",
            ]
        );
        for n in &names {
            assert!(find(n, cfg()).is_some());
        }
        assert!(find("nope", cfg()).is_none());
    }

    #[test]
    fn every_plan_declares_cells() {
        for p in plans(cfg()) {
            assert!(!p.cells.is_empty(), "{} has no cells", p.name);
            assert!(p.total_trials() > 0);
        }
    }

    #[test]
    fn ukp_cell_matches_legacy_wiring() {
        let c = ukp_cell(4, 96, cfg(), CellMode::Summary);
        let kp = UniformKPartition::new(4);
        assert_eq!(c.seed, seeds::derive_labelled(99, 4, 96));
        assert_eq!(c.budget, kp.interaction_budget(96));
        assert_eq!(c.trials, 3);
    }

    #[test]
    fn shared_cells_dedupe_across_plans() {
        // fig3 and fig4 sweep the same (k, n) grid but in different
        // modes, so their cells must NOT collide; fig5/fig3 overlap
        // nowhere (different n grids). Sanity-check hash disjointness.
        use std::collections::HashSet;
        let all = plans(cfg());
        let fig3: HashSet<u64> = all[0].cells.iter().map(|c| c.content_hash()).collect();
        let fig4: HashSet<u64> = all[1].cells.iter().map(|c| c.content_hash()).collect();
        assert!(fig3.is_disjoint(&fig4));
    }
}
