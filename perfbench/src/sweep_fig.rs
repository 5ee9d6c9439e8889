//! `sweep_fig`: the paper-reproduction path. A cold run of the Figure 3
//! grid (k ∈ {4, 6, 8}, n = k+2..96, 267 cells) and the Figure 5 grid
//! (k ∈ {3..6}, n = 120..960, 32 cells) on the leap kernel, 2 workers, a
//! fresh append-only log store (`LogBackend`) per repetition, ending by
//! rendering both reports. Each repetition runs the grid in seven parts,
//! one `run_cells` call per figure and k, timed one by one.
//!
//! Correctness: every trial of every cell stabilises, both reports
//! render, and the small-n Figure 3 means lie within [`Z_MAX`] standard
//! errors of the exact expectation `pp_verify::hitting` computes at
//! set-up (per cell and pooled over the checked cells).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use pp_engine::population::CountPopulation;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::Simulator;
use pp_protocols::kpartition::UniformKPartition;
use pp_sweep::backend::{LogBackend, StoreBackend};
use pp_sweep::plan::{Plan, PlanConfig};
use pp_sweep::spec::{CellSpec, KernelChoice, ProtocolId};
use pp_sweep::store::ResultStore;
use pp_verify::hitting::{hitting_moments, SolverOptions};
use pp_verify::ConfigGraph;

use crate::primitives::{self, Replay};
use crate::sweep_path::{cold_rep, PathStats};
use crate::{Ctx, Lap, Report, Schedule, SetupTimes, SETUPS};

/// Trials per cell (full size).
const TRIALS: usize = 3;
/// Largest configuration graph solved exactly for the mean check.
const CHECK_MAX_CONFIGS: usize = 4_000;
/// Largest |z| a checked mean may show.
pub const Z_MAX: f64 = 6.0;

/// Exact first two moments of one small Figure 3 cell.
struct Exact {
    k: usize,
    n: u64,
    mean: f64,
    sd: f64,
}

/// Set-up: the exact hitting-time moments of the small-n Figure 3 cells
/// (every `(k, n)` whose reachable graph stays under
/// [`CHECK_MAX_CONFIGS`]), one step per cell.
fn exact_references(tiny: bool, lap: &mut Lap) -> Vec<Exact> {
    let mut out = Vec::new();
    for k in [4usize, 6, 8] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let n_max = k as u64 + if tiny { 4 } else { 8 };
        for n in (k as u64 + 2)..=n_max {
            let Ok(graph) = ConfigGraph::explore(&proto, n, CHECK_MAX_CONFIGS) else {
                break;
            };
            let sig = kp.stable_signature(n);
            let stable = |cfg: &[u32]| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                sig.matches(&counts)
            };
            if let Ok(m) = hitting_moments(&graph, stable, SolverOptions::default()) {
                out.push(Exact {
                    k,
                    n,
                    mean: m.mean,
                    sd: m.std_dev,
                });
            }
            lap.lap();
        }
    }
    out
}

/// The repetition's cells: both plans' grids, every cell pinned to the
/// leap kernel explicitly, in parts of one figure and one k each.
fn grid(cfg: PlanConfig) -> (Plan, Plan, Vec<Vec<CellSpec>>) {
    let fig3 = pp_sweep::plans::fig3::plan(cfg);
    let fig5 = pp_sweep::plans::fig5::plan(cfg);
    let mut parts: Vec<Vec<CellSpec>> = Vec::new();
    for plan in [&fig3, &fig5] {
        let start = parts.len();
        for c in &plan.cells {
            let cell = CellSpec {
                kernel: KernelChoice::Leap,
                ..c.clone()
            };
            match parts[start..]
                .iter_mut()
                .find(|p| p[0].protocol == cell.protocol)
            {
                Some(part) => part.push(cell),
                None => parts.push(vec![cell]),
            }
        }
    }
    (fig3, fig5, parts)
}

/// Check one repetition's store after the clock stopped.
fn check(report: &mut Report, store: &ResultStore, cells: &[CellSpec], exact: &[Exact]) {
    let mut pooled = (0.0, 0.0);
    for cell in cells {
        let Some(res) = store.load(cell) else {
            report
                .checks
                .op(false, "sweep_fig: cell missing from store");
            continue;
        };
        let complete = res.records.len() == cell.trials && res.censored() == 0;
        if !report
            .checks
            .op(complete, "sweep_fig: censored or incomplete cell")
        {
            continue;
        }
        let ProtocolId::UniformKPartition { k } = cell.protocol else {
            continue;
        };
        let Some(e) = exact.iter().find(|e| e.k == k && e.n == cell.n) else {
            continue;
        };
        let t = cell.trials as f64;
        let diff = res.summary().mean - e.mean;
        pooled.0 += diff;
        pooled.1 += e.sd * e.sd / t;
        report.checks.op(
            diff.abs() <= Z_MAX * e.sd / t.sqrt(),
            "sweep_fig: Figure 3 mean off the exact expectation",
        );
    }
    if pooled.1 > 0.0 {
        report.checks.op(
            pooled.0.abs() <= Z_MAX * pooled.1.sqrt(),
            "sweep_fig: pooled Figure 3 means off the exact expectations",
        );
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let trials = if ctx.tiny { 2 } else { TRIALS };
    let mut setup_times = SetupTimes::default();
    let exact = setup_times.repeat(SETUPS, |_, lap| exact_references(ctx.tiny, lap));
    report.note(format!(
        "sweep_fig: {} small-n Figure 3 cells checked against exact expectations",
        exact.len()
    ));

    // Every repetition sweeps the same cells, so the fastest time of each
    // part measures the code on this seed's inputs rather than the
    // easiest of several.
    let cfg = PlanConfig {
        trials,
        master_seed: seeds::derive(ctx.seed, 0),
    };
    let (fig3, fig5, parts) = grid(cfg);
    let cells: Vec<CellSpec> = parts.concat();
    let mut stats = PathStats::default();
    let mut sched = Schedule::new(ctx, 3);
    let mut rep = 0u64;
    while let Some(traced) = sched.next_rep() {
        // A log store is one file. The one-file-per-cell store creates,
        // renames and unlinks ~900 files per repetition, and on a shared
        // disk those directory operations swing from 12 ms to 300 ms per
        // 300 cells for minutes at a time (see README).
        let path = ctx.dir.join(format!("sweep-{rep}.log"));
        let backend: Arc<dyn StoreBackend> = match LogBackend::open(&path) {
            Ok(b) => Arc::new(b),
            Err(_) => {
                report
                    .checks
                    .op(false, "sweep_fig: cannot open the log store");
                break;
            }
        };
        let out = cold_rep(&parts, backend.clone(), traced, |store| {
            catch_unwind(AssertUnwindSafe(|| {
                ((fig3.report)(store), (fig5.report)(store))
            }))
        });
        report
            .checks
            .op(out.run.is_ok(), "sweep_fig: run_cells failed");
        let (r3, r5) = match &out.rendered {
            Ok((r3, r5)) => (r3.as_ref().ok(), r5.as_ref().ok()),
            Err(_) => (None, None),
        };
        report.checks.op(
            r3.is_some_and(|t| t.contains("### k = 8")),
            "sweep_fig: Figure 3 report",
        );
        report.checks.op(
            r5.is_some_and(|t| t.contains("Power-law fits")),
            "sweep_fig: Figure 5 report",
        );
        check(
            &mut report,
            &ResultStore::with_backend(backend),
            &cells,
            &exact,
        );
        stats.add(&out);
        let _ = std::fs::remove_file(&path);
        setup_times.between(|_, lap| exact_references(ctx.tiny, lap));
        rep += 1;
    }
    stats.finish(&mut report);
    if ctx.trace {
        primitive_costs(&mut report, &cells, ctx);
    }
    report.set("setup_s", setup_times.fastest());
    report
}

/// Replay trial 0 of the repetition's largest-k cell under a capturing
/// observer and time the engine primitives on its vectors.
fn primitive_costs(report: &mut Report, cells: &[CellSpec], ctx: &Ctx) {
    let Some(spec) = cells.iter().max_by_key(|c| (c.protocol.k(), c.n)) else {
        return;
    };
    let ProtocolId::UniformKPartition { k } = spec.protocol else {
        return;
    };
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let sig = kp.stable_signature(spec.n);
    let mut pop = CountPopulation::new(&proto, spec.n);
    let mut sched = UniformRandomScheduler::from_seed(seeds::derive(spec.seed, 0));
    let mut replay = Replay::new(64);
    let t0 = Instant::now();
    let res = Simulator::new(&proto).run_leap_observed(
        &mut pop,
        &mut sched,
        &sig,
        spec.budget,
        &mut replay,
    );
    report
        .checks
        .op(res.is_ok(), "sweep_fig: replayed trial censored");
    let calls = if ctx.tiny { 20_000 } else { 2_000_000 };
    let costs = primitives::measure(&proto, &sig, &replay.vectors, calls, ctx.seed);
    set_costs(report, &costs);
    report.note(format!(
        "sweep_fig: primitives timed on {} vectors of ukp k={k} n={} (replay {:.2} s)",
        replay.vectors.len(),
        spec.n,
        t0.elapsed().as_secs_f64()
    ));
}

/// Report primitive costs under their metric names.
pub fn set_costs(report: &mut Report, c: &primitives::Costs) {
    report.set("engine.identity_run_ns", c.identity_run_ns);
    report.set("engine.state_of_rank_ns", c.state_of_rank_ns);
    report.set("engine.binomial_ns", c.binomial_ns);
    report.set("engine.tracker_update_ns", c.tracker_update_ns);
}
