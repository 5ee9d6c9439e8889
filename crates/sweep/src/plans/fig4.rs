//! Figure 4: decomposition of the interaction count into per-grouping
//! increments `NI'_i` plus the remainder tail.
//!
//! CSV: `fig4_k<k>.csv`, columns `k,n,segment,mean,sem` (unchanged from
//! the legacy binary — the segment axis doesn't fit the canonical
//! summary block).

use std::fmt::Write as _;

use pp_analysis::grouping::grouping_breakdown;
use pp_analysis::table::{fmt_f64, Table};

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::CellMode;

const KS: [usize; 3] = [4, 6, 8];

/// Build the Figure 4 plan (the Figure 3 grid, instrumented).
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = KS
        .iter()
        .flat_map(|&k| {
            super::fig3::ns_for(k)
                .into_iter()
                .map(move |n| ukp_cell(k, n, cfg, CellMode::Watched))
        })
        .collect();
    Plan {
        name: "fig4",
        title: "Figure 4",
        description: "interactions per i-th grouping (stacked decomposition)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            for &k in &KS {
                let ku = k as u64;
                let mut csv = Table::new(vec!["k", "n", "segment", "mean", "sem"]);
                let show: Vec<u64> = ((4 * ku + 2)..=(5 * ku + 1)).collect();
                let mut shown =
                    Table::new(vec!["n", "groupings", "NI'_1", "NI'_last", "tail", "total"]);
                for n in super::fig3::ns_for(k) {
                    let cell = must_load(store, &ukp_cell(k, n, cfg, CellMode::Watched));
                    let b = grouping_breakdown(&cell.watched());
                    for (i, s) in b.increments.iter().enumerate() {
                        csv.row(vec![
                            k.to_string(),
                            n.to_string(),
                            format!("NI'_{}", i + 1),
                            fmt_f64(s.mean),
                            fmt_f64(s.sem),
                        ]);
                    }
                    csv.row(vec![
                        k.to_string(),
                        n.to_string(),
                        "tail".to_string(),
                        fmt_f64(b.tail.mean),
                        fmt_f64(b.tail.sem),
                    ]);
                    if show.contains(&n) {
                        shown.row(vec![
                            n.to_string(),
                            b.increments.len().to_string(),
                            fmt_f64(b.increments.first().map_or(0.0, |s| s.mean)),
                            fmt_f64(b.increments.last().map_or(0.0, |s| s.mean)),
                            fmt_f64(b.tail.mean),
                            fmt_f64(b.mean_total()),
                        ]);
                    }
                }
                let _ = writeln!(
                    out,
                    "### k = {k} — one period n = {}..{} (NI'_last dominating near n mod k ∈ {{0,1}})\n",
                    4 * ku + 2,
                    5 * ku + 1
                );
                let _ = writeln!(out, "{}", shown.to_markdown());
                let path = crate::plan::results_path(&format!("fig4_k{k}.csv"));
                csv.write_csv(&path)?;
                let _ = writeln!(out, "wrote {}\n", path.display());
            }
            Ok(out)
        }),
    }
}
