//! Figure 5: interactions vs `n = 120·n'` for `k ∈ {3,4,5,6}` with
//! `n mod k = 0` (growth superlinear but subexponential).
//!
//! CSV: `fig5.csv`, columns `k,n` + the canonical summary block. (The
//! legacy CSV lacked `min`/`median`/`max`; adopting
//! `Table::SUMMARY_HEADERS` adds them.)

use std::fmt::Write as _;

use pp_analysis::fit;
use pp_analysis::table::{fmt_f64, Table};

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::CellMode;

const KS: [usize; 4] = [3, 4, 5, 6];

fn ns() -> Vec<u64> {
    (1..=8).map(|np| 120 * np).collect()
}

/// Build the Figure 5 plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = KS
        .iter()
        .flat_map(|&k| {
            ns().into_iter()
                .map(move |n| ukp_cell(k, n, cfg, CellMode::Summary))
        })
        .collect();
    Plan {
        name: "fig5",
        title: "Figure 5",
        description: "interactions vs n = 120·n' for k in {3,4,5,6} (n mod k = 0)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let ns = ns();
            let mut csv = Table::new(
                ["k", "n"]
                    .iter()
                    .map(|h| h.to_string())
                    .chain(Table::SUMMARY_HEADERS.iter().map(|h| h.to_string()))
                    .collect::<Vec<_>>(),
            );
            let mut matrix = Table::new(
                std::iter::once("k / n".to_string())
                    .chain(ns.iter().map(|n| n.to_string()))
                    .collect::<Vec<_>>(),
            );
            let mut fits = Table::new(vec!["k", "power-law exponent b", "r^2"]);

            for &k in &KS {
                let mut row = vec![k.to_string()];
                let mut points: Vec<(f64, f64)> = Vec::new();
                for &n in &ns {
                    let cell = must_load(store, &ukp_cell(k, n, cfg, CellMode::Summary));
                    let s = cell.summary();
                    row.push(fmt_f64(s.mean));
                    points.push((n as f64, s.mean));
                    csv.push_summary_row(
                        vec![k.to_string(), n.to_string()],
                        &s,
                        cell.censored(),
                        vec![],
                    );
                }
                matrix.row(row);
                let (b, r2) = fit::power_law_exponent(&points);
                fits.row(vec![k.to_string(), fmt_f64(b), fmt_f64(r2)]);
                let ratios = fit::growth_ratios(&points.iter().map(|p| p.1).collect::<Vec<_>>());
                let _ = writeln!(
                    out,
                    "k = {k}: growth ratios per n-doubling step {:?}",
                    ratios.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
                );
            }

            let _ = writeln!(out, "\n### Mean interactions (rows: k, columns: n)\n");
            let _ = writeln!(out, "{}", matrix.to_markdown());
            let _ = writeln!(
                out,
                "### Power-law fits mean ∝ n^b (superlinear, subexponential expected)\n"
            );
            let _ = writeln!(out, "{}", fits.to_markdown());
            let path = crate::plan::results_path("fig5.csv");
            csv.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}
