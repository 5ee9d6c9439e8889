//! Topology families: convergence probability and stabilisation-time gap
//! of the paper's protocol off the complete graph, with and without
//! churn.
//!
//! The paper's model (and every proof in it) assumes the complete
//! interaction graph. This plan measures what breaks when that
//! assumption is dropped: each cell runs the k-partition protocol under
//! a non-default [`Dynamics`] — ring, random-regular, power-law — and,
//! in a second band, under a net-zero churn plan on each family. Sparse
//! topologies can strand chain-builders (a chain's members may never
//! meet the partners rules 5–8 need), so trials that exhaust the budget
//! are *censored*, not failures; the honest headline numbers are the
//! convergence rate and, among converged trials only, the mean gap
//! versus the complete graph.
//!
//! CSV: `topo_gap.csv`, one row per `(family, churn)` cell.

use std::fmt::Write as _;

use pp_analysis::table::{fmt_f64, Table};
use pp_engine::seeds;
use pp_protocols::kpartition::UniformKPartition;
use pp_topo::Dynamics;

use crate::plan::{must_load, Plan, PlanConfig};
use crate::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};

const K: usize = 3;
const N: u64 = 18;

/// `(label, dynamics fragment)` grid: four families, each without and
/// with a net-zero churn plan (2 joins, 1 leave, 1 crash, every 2000
/// interactions). Net-zero keeps the stable signature target at `n`, so
/// the convergence-rate column isolates the *disruption* cost of churn
/// from the population-shift cost.
const GRID: [(&str, &str, &str); 8] = [
    ("complete", "none", "complete;uniform;j0.l0.c0.p0"),
    ("ring", "none", "ring;uniform;j0.l0.c0.p0"),
    ("rr4", "none", "rr:d=4;uniform;j0.l0.c0.p0"),
    ("pl25", "none", "pl:g=25;uniform;j0.l0.c0.p0"),
    ("complete", "j2l1c1", "complete;uniform;j2.l1.c1.p2000"),
    ("ring", "j2l1c1", "ring;uniform;j2.l1.c1.p2000"),
    ("rr4", "j2l1c1", "rr:d=4;uniform;j2.l1.c1.p2000"),
    ("pl25", "j2l1c1", "pl:g=25;uniform;j2.l1.c1.p2000"),
];

/// A topology cell: the paper's protocol at `(K, N)` on a declared
/// dynamics, pinned to the naive kernel (the only kernel defined off the
/// default dynamics; see `CellSpec::validate_dynamics`). The complete
/// no-churn cell deliberately uses an *explicit* default-dynamics spec:
/// it keys identically to a plain v3 cell, exercising the loss-free
/// KEY_VERSION bump on every run of this plan.
fn topo_cell(fragment: &str, cfg: PlanConfig) -> CellSpec {
    let kp = UniformKPartition::new(K);
    let dynamics = Dynamics::parse(fragment)
        .unwrap_or_else(|e| panic!("plan-internal dynamics fragment {fragment:?}: {e}"));
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k: K },
        n: N,
        trials: cfg.trials,
        // Independent of the ukp_cell(k, n) stream: labelled by the
        // dynamics fragment's own hash so every grid cell gets a
        // distinct, stable seed.
        seed: seeds::derive_labelled(cfg.master_seed, seeds::fnv1a64(fragment.as_bytes()), N),
        criterion: CriterionKind::Stable,
        budget: kp.interaction_budget(N),
        mode: CellMode::Summary,
        kernel: KernelChoice::Naive,
        dynamics,
    }
}

/// Build the topology-families plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = GRID
        .iter()
        .map(|&(_, _, frag)| topo_cell(frag, cfg))
        .collect();
    Plan {
        name: "topo-families",
        title: "Topology families",
        description: "convergence probability and stabilisation-time gap off the complete graph",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let mut table = Table::new(vec![
                "family",
                "churn",
                "trials",
                "converged",
                "rate",
                "mean (conv.)",
                "gap vs complete",
            ]);
            let mut csv = Table::new(vec![
                "family",
                "churn",
                "n",
                "trials",
                "converged",
                "convergence_rate",
                "mean_interactions",
                "gap_vs_complete",
            ]);

            // Baseline: mean over converged trials of the complete
            // no-churn cell (always the grid's first entry).
            let base = must_load(store, &topo_cell(GRID[0].2, cfg));
            let base_mean = mean(&base.interactions());

            for &(family, churn, frag) in &GRID {
                let cell = must_load(store, &topo_cell(frag, cfg));
                let ints = cell.interactions();
                let trials = cell.records.len();
                let converged = ints.len();
                let rate = converged as f64 / trials as f64;
                let m = mean(&ints);
                let gap = match (m, base_mean) {
                    (Some(m), Some(b)) if b > 0.0 => Some(m / b),
                    _ => None,
                };
                table.row(vec![
                    family.to_string(),
                    churn.to_string(),
                    trials.to_string(),
                    converged.to_string(),
                    format!("{rate:.2}"),
                    m.map_or("—".into(), fmt_f64),
                    gap.map_or("—".into(), |g| format!("{g:.2}x")),
                ]);
                csv.row(vec![
                    family.to_string(),
                    churn.to_string(),
                    N.to_string(),
                    trials.to_string(),
                    converged.to_string(),
                    format!("{rate:.4}"),
                    m.map_or(String::new(), |m| format!("{m:.1}")),
                    gap.map_or(String::new(), |g| format!("{g:.4}")),
                ]);
            }

            let _ = writeln!(out, "{}", table.to_markdown());
            let _ = writeln!(
                out,
                "Censored trials hit the interaction budget without stabilising — on \
                 sparse families the chain-builder can strand (no enabled pair advances \
                 it), and leave/crash churn can remove a settled agent the partition \
                 cannot replace, so sub-1.00 rates are the expected, honest reading; \
                 the gap column compares converged trials only."
            );
            let path = pp_analysis::config::results_path("topo_gap.csv");
            csv.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}

/// Mean of converged-trial interaction counts, `None` when all censored.
fn mean(ints: &[u64]) -> Option<f64> {
    if ints.is_empty() {
        return None;
    }
    Some(ints.iter().sum::<u64>() as f64 / ints.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cells_are_valid_and_distinct() {
        let cfg = PlanConfig {
            trials: 2,
            master_seed: 7,
        };
        let p = plan(cfg);
        assert_eq!(p.cells.len(), GRID.len());
        let mut hashes: Vec<u64> = p.cells.iter().map(|c| c.content_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), GRID.len(), "grid cells collide");
        for c in &p.cells {
            c.validate_dynamics().expect("grid cell invalid");
        }
    }

    #[test]
    fn complete_cell_reuses_legacy_keying() {
        // The complete no-churn grid cell parses to default dynamics and
        // therefore keys as a v3 cell — the loss-free bump in action.
        let cfg = PlanConfig {
            trials: 2,
            master_seed: 7,
        };
        let c = topo_cell(GRID[0].2, cfg);
        assert!(c.dynamics.is_default());
        assert!(c.canonical_key().starts_with("v3|"));
    }
}
