//! Trajectory: the ratcheting of `#g_k` over one sampled execution per
//! `k` — Lemma 4 in motion.
//!
//! CSV: `trajectory.csv`, columns `k,interaction,gk,builders,demolishers,
//! free` (unchanged). Cells are single seeded runs (`trials = 1`) whose
//! scheduler seed is `master ^ k`, matching the legacy binary
//! byte-for-byte; the stored record keeps the raw sampled count vectors
//! so the derived series can be re-rendered without re-running.

use std::fmt::Write as _;

use pp_analysis::table::Table;
use pp_protocols::kpartition::UniformKPartition;

use crate::plan::{must_load, Plan, PlanConfig};
use crate::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};

const KS: [usize; 3] = [4, 6, 8];
const N: u64 = 240;
const SAMPLE_EVERY: u64 = 256;

fn traj_cell(k: usize, cfg: PlanConfig) -> CellSpec {
    let kp = UniformKPartition::new(k);
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k },
        n: N,
        trials: 1,
        // The legacy binary seeded the scheduler with `seed ^ k` directly
        // (no per-trial derivation); trajectory mode preserves that.
        seed: cfg.master_seed ^ k as u64,
        criterion: CriterionKind::Stable,
        budget: kp.interaction_budget(N),
        mode: CellMode::Trajectory {
            sample_every: SAMPLE_EVERY,
        },
        // Trajectory capture samples every interaction (identities
        // included), which only the naive kernel reports.
        kernel: KernelChoice::Naive,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

/// Build the trajectory plan.
pub fn plan(cfg: PlanConfig) -> Plan {
    let cells: Vec<_> = KS.iter().map(|&k| traj_cell(k, cfg)).collect();
    Plan {
        name: "trajectory",
        title: "Trajectory",
        description: "ratcheting of #g_k over one execution (Lemma 4 in motion)",
        cells,
        report: Box::new(move |store| {
            let mut out = String::new();
            let mut csv = Table::new(vec![
                "k",
                "interaction",
                "gk",
                "builders",
                "demolishers",
                "free",
            ]);

            for &k in &KS {
                let kp = UniformKPartition::new(k);
                let cell = must_load(store, &traj_cell(k, cfg));
                let rec = &cell.records[0];
                let total = rec.interactions.expect("trajectory run stabilises");
                let samples = rec.samples.as_ref().expect("trajectory-mode record");

                let target = N / k as u64;
                let _ = writeln!(
                    out,
                    "k = {k}: stabilised at {total} interactions; #g_k target {target}"
                );
                let derive = |counts: &[u64]| {
                    let gk = counts[kp.g(k).index()];
                    let builders: u64 = (2..k).map(|i| counts[kp.m(i).index()]).sum();
                    let demols: u64 = (1..k - 1).map(|i| counts[kp.d(i).index()]).sum();
                    let free = counts[kp.initial().index()] + counts[kp.initial_prime().index()];
                    (gk, builders, demols, free)
                };
                // ASCII ratchet: one row per ~1/20th of the run.
                let stride = (samples.len() / 20).max(1);
                for row in samples.iter().step_by(stride) {
                    let (t, counts) = (row[0], &row[1..]);
                    let (gk, builders, demols, free) = derive(counts);
                    let bar = "#".repeat((gk * 40 / target.max(1)) as usize);
                    let _ = writeln!(
                        out,
                        "  {t:>9} |{bar:<40}| gk={gk:<3} m={builders:<3} d={demols:<3} free={free}"
                    );
                }
                for row in samples {
                    let (t, counts) = (row[0], &row[1..]);
                    let (gk, builders, demols, free) = derive(counts);
                    csv.row(vec![
                        k.to_string(),
                        t.to_string(),
                        gk.to_string(),
                        builders.to_string(),
                        demols.to_string(),
                        free.to_string(),
                    ]);
                }
                let _ = writeln!(out);
            }

            let path = crate::plan::results_path("trajectory.csv");
            csv.write_csv(&path)?;
            let _ = writeln!(out, "wrote {}", path.display());
            Ok(out)
        }),
    }
}
