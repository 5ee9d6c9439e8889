//! Figure 6: interactions vs `k` at `n = 960` — exponential in `k`.
//!
//! CSV: `fig6.csv`, columns `k` + the canonical summary block +
//! `log10(mean)`. (The legacy CSV interleaved `log10(mean)` into the
//! middle and lacked `min`/`median`/`max`.)
//!
//! Grid: the divisors `k` of 960 from 2 to 16, so every group is exactly
//! `960 / k` agents.

use std::fmt::Write as _;

use pp_analysis::fit;
use pp_analysis::table::{fmt_f64, Table};

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::CellMode;

const N: u64 = 960;

/// The k grid: the divisors of 960 from 2 to 16.
const KS: [usize; 10] = [2, 3, 4, 5, 6, 8, 10, 12, 15, 16];

/// Build the Figure 6 plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = KS
        .into_iter()
        .map(|k| ukp_cell(k, N, cfg, CellMode::Summary))
        .collect();
    Plan {
        name: "fig6",
        title: "Figure 6",
        description: "interactions vs k at n = 960 (log scale)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let mut table = Table::new(
                std::iter::once("k".to_string())
                    .chain(Table::SUMMARY_HEADERS.iter().map(|h| h.to_string()))
                    .chain(std::iter::once("log10(mean)".to_string()))
                    .collect::<Vec<_>>(),
            );
            let mut points: Vec<(f64, f64)> = Vec::new();
            for k in KS {
                let cell = must_load(store, &ukp_cell(k, N, cfg, CellMode::Summary));
                let s = cell.summary();
                let _ = writeln!(out, "k = {k:2}: mean = {:>14}", fmt_f64(s.mean));
                table.push_summary_row(
                    vec![k.to_string()],
                    &s,
                    cell.censored(),
                    vec![fmt_f64(s.mean.log10())],
                );
                points.push((k as f64, s.mean));
            }

            let _ = writeln!(out, "\n### Mean interactions at n = 960\n");
            let _ = writeln!(out, "{}", table.to_markdown());

            let (c, r2) = fit::exponential_base(&points);
            let _ = writeln!(
                out,
                "semi-log fit: mean ∝ {c:.2}^k (r^2 = {r2:.3}) — exponential in k"
            );
            let ratios = fit::growth_ratios(&points.iter().map(|p| p.1).collect::<Vec<_>>());
            let _ = writeln!(
                out,
                "successive growth ratios: {:?}",
                ratios.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
            );

            let path = crate::plan::results_path("fig6.csv");
            table.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}
