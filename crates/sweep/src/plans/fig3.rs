//! Figure 3: mean interactions vs `n` for `k ∈ {4, 6, 8}` — the sawtooth
//! with period `k` driven by `n mod k`.
//!
//! CSV: `fig3_k<k>.csv`, columns `k,n,n_mod_k` + the canonical summary
//! block (same columns the legacy binary wrote).

use std::fmt::Write as _;

use pp_analysis::table::Table;

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::CellMode;

const KS: [usize; 3] = [4, 6, 8];

/// The full `n` grid for one `k` (consecutive, to expose the sawtooth).
pub fn ns_for(k: usize) -> Vec<u64> {
    ((k as u64 + 2)..=96).collect()
}

/// Build the Figure 3 plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = KS
        .iter()
        .flat_map(|&k| {
            ns_for(k)
                .into_iter()
                .map(move |n| ukp_cell(k, n, cfg, CellMode::Summary))
        })
        .collect();
    Plan {
        name: "fig3",
        title: "Figure 3",
        description: "interactions vs n for k in {4, 6, 8} (sawtooth with period k)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            for &k in &KS {
                let mut table = Table::new(
                    ["k", "n", "n mod k"]
                        .iter()
                        .map(|h| h.to_string())
                        .chain(Table::SUMMARY_HEADERS.iter().map(|h| h.to_string()))
                        .collect::<Vec<_>>(),
                );
                for n in ns_for(k) {
                    let cell = must_load(store, &ukp_cell(k, n, cfg, CellMode::Summary));
                    table.push_summary_row(
                        vec![k.to_string(), n.to_string(), (n % k as u64).to_string()],
                        &cell.summary(),
                        cell.censored(),
                        vec![],
                    );
                }
                let _ = writeln!(out, "### k = {k}\n");
                let _ = writeln!(out, "{}", table.to_markdown());
                let path = crate::plan::results_path(&format!("fig3_k{k}.csv"));
                table.write_csv(&path)?;
                let _ = writeln!(out, "wrote {}\n", path.display());
            }
            Ok(out)
        }),
    }
}
