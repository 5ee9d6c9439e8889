//! Distributions: the full spread of interactions-to-stability for a few
//! representative cells (the paper reports only means).
//!
//! CSV: `distributions.csv`, one row per `(k, n, trial)` (unchanged).
//! Trial counts are forced to at least 100 so the histograms have shape
//! even under a low `PP_TRIALS` smoke setting — matching the legacy
//! binary.

use std::fmt::Write as _;

use pp_analysis::histogram::{sparkline, Histogram};
use pp_analysis::table::{fmt_f64, Table};

use crate::plan::{must_load, ukp_cell, Plan, PlanConfig};
use crate::spec::CellMode;

const CELLS: [(usize, u64); 4] = [(3, 60), (4, 60), (6, 60), (4, 240)];

fn dist_cfg(cfg: PlanConfig) -> PlanConfig {
    PlanConfig {
        trials: cfg.trials.max(100),
        ..cfg
    }
}

/// Build the distributions plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cfg = dist_cfg(cfg);
    let cells: Vec<_> = CELLS
        .iter()
        .map(|&(k, n)| ukp_cell(k, n, cfg, CellMode::Summary))
        .collect();
    Plan {
        name: "distributions",
        title: "Distributions",
        description: "full spread of interactions-to-stability (the paper plots means only)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let mut csv = Table::new(vec!["k", "n", "trial", "interactions"]);
            let mut summary = Table::new(vec![
                "k",
                "n",
                "mean",
                "median",
                "min",
                "max",
                "max/median",
                "shape",
            ]);

            for &(k, n) in &CELLS {
                let cell = must_load(store, &ukp_cell(k, n, cfg, CellMode::Summary));
                let s = cell.summary();
                let interactions = cell.interactions();
                let samples: Vec<f64> = interactions.iter().map(|&x| x as f64).collect();
                let hist = Histogram::fit(&samples, 12);
                let _ = writeln!(out, "### k = {k}, n = {n} ({} trials)\n", samples.len());
                let _ = writeln!(out, "{}", hist.to_ascii(40));
                summary.row(vec![
                    k.to_string(),
                    n.to_string(),
                    fmt_f64(s.mean),
                    fmt_f64(s.median),
                    fmt_f64(s.min),
                    fmt_f64(s.max),
                    format!("{:.1}", s.max / s.median),
                    sparkline(hist.bins()),
                ]);
                for (i, &x) in interactions.iter().enumerate() {
                    csv.row(vec![
                        k.to_string(),
                        n.to_string(),
                        i.to_string(),
                        x.to_string(),
                    ]);
                }
            }

            let _ = writeln!(out, "{}", summary.to_markdown());
            let _ = writeln!(
                out,
                "Right skew throughout: means sit above medians and worst cases run \
                 several times the typical — concurrent chain collisions are the tail."
            );
            let path = crate::plan::results_path("distributions.csv");
            csv.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}
