//! `giant_batch`: a k-partition cell at n = 10⁶ on `KernelChoice::Batch`,
//! through the same sweep path as `sweep_fig`, in `Full` mode so the
//! final configurations can be checked. The only workload where the
//! tau-leap kernel (`pp_engine::batch`) runs.
//!
//! The cell's trajectory is pinned (master seed 20180725, the seed of
//! `BENCH_engine.json`): one n = 10⁶ trial costs anywhere from 0.9 s to
//! 2.6 s depending on its seed, so seed-drawn cells would measure the
//! seed rather than the code. `--seed` is accepted and ignored here.
//!
//! Correctness: every trial stabilises and its final group sizes equal
//! `UniformKPartition::expected_group_sizes(n)`.

use std::sync::Arc;
use std::time::Instant;

use pp_engine::population::CountPopulation;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::Simulator;
use pp_protocols::kpartition::UniformKPartition;
use pp_sweep::backend::FsBackend;
use pp_sweep::plan::{ukp_cell, PlanConfig};
use pp_sweep::spec::{CellMode, CellSpec, KernelChoice};
use pp_sweep::store::ResultStore;

use crate::primitives::{self, Replay};
use crate::sweep_path::{cold_rep, PathStats};
use crate::{Ctx, Lap, Report, Schedule, SetupTimes, SETUPS};

/// Master seed of every giant cell.
const PINNED_SEED: u64 = 20_180_725;

/// `(k, n)` of the giant cell (full size, smoke size), one trial. One
/// cell, so one worker runs it: a repetition of two cells in parallel
/// lasts as long as the slower of the two vCPUs, and on a busy host its
/// fastest time spread over 30% between runs. The k = 4 trial of the same
/// seed is ~1.4× as long and exercises the same kernel.
const CELL: (usize, u64) = (3, 1_000_000);
const TINY_CELL: (usize, u64) = (3, 20_000);

struct Setup {
    cell: CellSpec,
    proto: CompiledProtocol,
    expected: Vec<u64>,
}

/// Set-up steps: the cell, then a warm-up batch-kernel trial.
fn setup(tiny: bool, lap: &mut Lap) -> Setup {
    let (k, n) = if tiny { TINY_CELL } else { CELL };
    let cfg = PlanConfig {
        trials: 1,
        master_seed: PINNED_SEED,
    };
    let cell = CellSpec {
        kernel: KernelChoice::Batch,
        ..ukp_cell(k, n, cfg, CellMode::Full)
    };
    let kp = UniformKPartition::new(k);
    let setup = Setup {
        cell,
        proto: kp.compile(),
        expected: kp.expected_group_sizes(n),
    };
    lap.lap();
    // Warm-up: one short batch-kernel trial pages in the kernel code.
    let n = if tiny { 1_000 } else { 100_000 };
    let mut pop = CountPopulation::new(&setup.proto, n);
    let mut sched = UniformRandomScheduler::from_seed(PINNED_SEED);
    let _ = Simulator::new(&setup.proto).run_batch(
        &mut pop,
        &mut sched,
        &kp.stable_signature(n),
        kp.interaction_budget(n),
    );
    setup
}

fn group_sizes(proto: &CompiledProtocol, counts: &[u64]) -> Vec<u64> {
    let mut sizes = vec![0u64; proto.num_groups()];
    for (s, &c) in counts.iter().enumerate() {
        sizes[proto.group_of(StateId(s as u16)).number() - 1] += c;
    }
    sizes
}

fn check(report: &mut Report, store: &ResultStore, setup: &Setup) {
    let Some(res) = store.load(&setup.cell) else {
        report
            .checks
            .op(false, "giant_batch: cell missing from store");
        return;
    };
    for rec in &res.records {
        let ok = rec.interactions.is_some()
            && rec
                .final_counts
                .as_ref()
                .is_some_and(|c| group_sizes(&setup.proto, c) == setup.expected);
        report.checks.op(
            ok,
            "giant_batch: trial did not stabilise into the expected group sizes",
        );
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_times = SetupTimes::default();
    let setup = setup_times.repeat(SETUPS, |_, lap| setup(ctx.tiny, lap));
    let mut stats = PathStats::default();
    let mut sched = Schedule::new(ctx, 2);
    let mut rep = 0;
    while let Some(traced) = sched.next_rep() {
        let dir = ctx.dir.join(format!("giant-{rep}"));
        let backend = Arc::new(FsBackend::at(&dir));
        let out = cold_rep(&[vec![setup.cell.clone()]], backend, traced, |_| ());
        report
            .checks
            .op(out.run.is_ok(), "giant_batch: run_cells failed");
        check(&mut report, &ResultStore::at(&dir), &setup);
        stats.add(&out);
        let _ = std::fs::remove_dir_all(&dir);
        setup_times.between(|_, lap| self::setup(ctx.tiny, lap));
        rep += 1;
    }
    stats.finish(&mut report);
    if ctx.trace {
        replay(&mut report, &setup, ctx);
    }
    report.set("setup_s", setup_times.fastest());
    report
}

/// Replay the giant cell's trial under a capturing observer: split its
/// kernel time into tau-leap steps and exact-fallback bursts, and time the
/// engine primitives on its count vectors.
fn replay(report: &mut Report, setup: &Setup, ctx: &Ctx) {
    let spec = &setup.cell;
    let kp = UniformKPartition::new(spec.protocol.k());
    let proto = &setup.proto;
    let sig = kp.stable_signature(spec.n);
    let mut pop = CountPopulation::new(proto, spec.n);
    let mut sched = UniformRandomScheduler::from_seed(seeds::derive(spec.seed, 0));
    let mut replay = Replay::new(64);
    let t0 = Instant::now();
    let res = Simulator::new(proto).run_batch_observed(
        &mut pop,
        &mut sched,
        &sig,
        spec.budget,
        &mut replay,
    );
    report
        .checks
        .op(res.is_ok(), "giant_batch: replayed trial censored");
    report.set("engine.leap_time_share", replay.leap_time_share());
    let calls = if ctx.tiny { 20_000 } else { 2_000_000 };
    let costs = primitives::measure(proto, &sig, &replay.vectors, calls, ctx.seed);
    crate::sweep_fig::set_costs(report, &costs);
    report.note(format!(
        "giant_batch: replay of ukp k={} n={}: {:.3} s in tau-leap steps, {:.3} s in exact \
         fallback bursts ({:.2} s total); primitives timed on {} vectors",
        spec.protocol.k(),
        spec.n,
        replay.leap_s,
        replay.exact_s,
        t0.elapsed().as_secs_f64(),
        replay.vectors.len()
    ));
}
