//! Variants: one-sided chain abort vs the paper's rule 8 (both-abort) —
//! same states, same stable configurations, much cheaper in k.
//!
//! CSV: `variants.csv` (columns unchanged from the legacy binary).

use std::fmt::Write as _;

use pp_analysis::fit;
use pp_analysis::table::{fmt_f64, Table};

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::{CellMode, CellSpec, ProtocolId};

const NS: [u64; 2] = [240, 480];
const KS: [usize; 5] = [3, 4, 5, 6, 8];

/// The variant's cell: identical to the paper's (same cell seed, same
/// interaction budget), only the protocol differs, so the two run the
/// same scheduler streams.
fn variant_cell(k: usize, n: u64, cfg: PlanConfig) -> CellSpec {
    CellSpec {
        protocol: ProtocolId::OneSidedAbort { k },
        ..ukp_cell(k, n, cfg, CellMode::Summary)
    }
}

/// Build the variants plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let mut cells = Vec::new();
    for &n in &NS {
        for &k in &KS {
            cells.push(ukp_cell(k, n, cfg, CellMode::Summary));
            cells.push(variant_cell(k, n, cfg));
        }
    }
    Plan {
        name: "variants",
        title: "Variants",
        description: "one-sided chain abort vs the paper's rule 8 (both-abort)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let mut table = Table::new(vec!["n", "k", "paper mean", "variant mean", "speedup"]);
            for &n in &NS {
                let mut paper_pts = Vec::new();
                let mut variant_pts = Vec::new();
                for &k in &KS {
                    let paper = must_load(store, &ukp_cell(k, n, cfg, CellMode::Summary))
                        .summary()
                        .mean;
                    let variant = must_load(store, &variant_cell(k, n, cfg)).summary().mean;
                    paper_pts.push((k as f64, paper));
                    variant_pts.push((k as f64, variant));
                    table.row(vec![
                        n.to_string(),
                        k.to_string(),
                        fmt_f64(paper),
                        fmt_f64(variant),
                        format!("{:.2}x", paper / variant),
                    ]);
                }
                let (pb, pr2) = fit::exponential_base(&paper_pts);
                let (vb, vr2) = fit::exponential_base(&variant_pts);
                let _ = writeln!(
                    out,
                    "n = {n}: paper ∝ {pb:.2}^k (r²={pr2:.2}), variant ∝ {vb:.2}^k (r²={vr2:.2})"
                );
            }

            let _ = writeln!(out, "\n{}", table.to_markdown());
            let _ = writeln!(
                out,
                "The variant wins increasingly with k — consistent with §5.2's analysis \
                 that destroyed chains are what makes the paper's protocol exponential. \
                 (Correctness of the variant is model-checked, not proved; see \
                 tests/model_check.rs.)"
            );
            let path = pp_analysis::config::results_path("variants.csv");
            table.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}
