//! Sweep plans: named, declarative bundles of cells plus a reporter.
//!
//! A [`Plan`] is what the paper calls an experiment: the figure sweeps,
//! the baselines, the ablation, and the extension experiments each
//! declare their cell grid up front and render their tables/CSVs from
//! the store afterwards. Because rendering is separated from running,
//! figures regenerate incrementally: a plan whose cells are all cached
//! re-renders without simulating anything.
//!
//! This module also reads the process environment's three sweep
//! settings, and it is the only code that does: `PP_TRIALS` and `PP_SEED`
//! ([`PlanConfig::from_env`]) and `PP_RESULTS_DIR` ([`results_dir`]).

use std::ffi::OsString;
use std::path::PathBuf;

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

/// Sweep-wide settings, read once from the environment (`PP_TRIALS`,
/// `PP_SEED`) so every cell of a run agrees on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanConfig {
    /// Trials per cell.
    pub trials: usize,
    /// Master seed; cell seeds derive from it.
    pub master_seed: u64,
}

impl PlanConfig {
    /// Read `PP_TRIALS` (default 100, the paper's count) and `PP_SEED`
    /// (default 20180725, the paper's submission date).
    ///
    /// # Errors
    /// A message naming the variable when a value does not parse, or
    /// when `PP_TRIALS` is zero.
    pub fn from_env() -> Result<Self, String> {
        PlanConfig::parse(|name| std::env::var_os(name))
    }

    /// [`Self::from_env`] over any variable lookup.
    fn parse(var: impl Fn(&str) -> Option<OsString>) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(
            var: &impl Fn(&str) -> Option<OsString>,
            name: &str,
        ) -> Result<Option<T>, String> {
            var(name)
                .map(|raw| {
                    raw.to_str()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("{name}={raw:?} is not an unsigned integer"))
                })
                .transpose()
        }
        let trials = number(&var, "PP_TRIALS")?.unwrap_or(100);
        if trials == 0 {
            return Err("PP_TRIALS=0: a cell needs at least one trial".into());
        }
        Ok(PlanConfig {
            trials,
            master_seed: number(&var, "PP_SEED")?.unwrap_or(20_180_725),
        })
    }
}

/// The results directory: `PP_RESULTS_DIR` if set, else `results/` under
/// the workspace root (resolved from this crate's compile-time location),
/// else `./results` as a last resort. CSVs, logs and the default result
/// store live here.
pub fn results_dir() -> PathBuf {
    results_dir_or(std::env::var_os("PP_RESULTS_DIR"))
}

/// [`results_dir`] with the override given.
fn results_dir_or(dir: Option<OsString>) -> PathBuf {
    if let Some(dir) = dir {
        return PathBuf::from(dir);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("results")
}

/// Path of a named artifact inside [`results_dir`].
pub fn results_path(name: &str) -> PathBuf {
    results_dir().join(name)
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
    fn settings_default_to_the_papers_and_reject_malformed_values() {
        let parse = |vars: &[(&str, &str)]| {
            PlanConfig::parse(|name| {
                vars.iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| OsString::from(v))
            })
        };
        assert_eq!(
            parse(&[]),
            Ok(PlanConfig {
                trials: 100,
                master_seed: 20_180_725,
            })
        );
        assert_eq!(parse(&[("PP_TRIALS", "3"), ("PP_SEED", "99")]), Ok(cfg()));
        for (name, value) in [
            ("PP_TRIALS", "0"),
            ("PP_TRIALS", "five"),
            ("PP_TRIALS", ""),
            ("PP_TRIALS", "-1"),
            ("PP_SEED", "-1"),
            ("PP_SEED", "18446744073709551616"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err();
            assert!(err.starts_with(name), "{name}={value}: {err}");
        }
    }

    #[test]
    fn results_path_resolution_and_override() {
        let default = results_dir_or(None);
        assert!(default.ends_with("results"), "{}", default.display());
        if std::env::var_os("PP_RESULTS_DIR").is_none() {
            assert_eq!(results_path("x.csv"), default.join("x.csv"));
        }
        assert_eq!(
            results_dir_or(Some("/tmp/pp-override".into())).join("y.csv"),
            PathBuf::from("/tmp/pp-override/y.csv")
        );
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
