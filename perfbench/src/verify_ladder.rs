//! `verify_ladder`: `pp-verify`'s `(k, n)` ladder for k ∈ {3, 4, 5}.
//! Every rung is explored exhaustively, checked for stable partitions
//! (Tarjan terminal SCCs), given its shortest stabilising schedule, and —
//! under [`HITTING_CAP`] configurations — its exact expected hitting time
//! (Gauss–Seidel). No simulation at all.
//!
//! The ladder is fixed, so `--seed` only rotates the order of the three
//! k-ladders.
//!
//! Correctness: every rung verifies, and where `BENCH_verify.json`
//! recorded a rung (snapshot in `data/verify_reference.json`) the
//! configuration count and shortest schedule match exactly and the
//! expected interactions match to within rounding.

use std::time::Instant;

use pp_engine::protocol::CompiledProtocol;
use pp_protocols::kpartition::UniformKPartition;
use pp_sweep::json::Value;
use pp_verify::hitting::{expected_interactions, SolverOptions};
use pp_verify::ConfigGraph;

use crate::stats::{between, fast_time, ratio};
use crate::{ledger, Ctx, Lap, Report, Schedule, SetupTimes, SETUPS};

/// Rungs with more configurations skip the exact hitting-time solve.
pub const HITTING_CAP: usize = 5_000;
/// Exploration budget per rung (no rung of the ladder comes close).
const MAX_CONFIGS: usize = 200_000;

/// Largest `n` per `k` (full size, smoke size). Sized so no rung takes
/// much over 0.1 s: the fastest repetition of each rung is what counts
/// (see [`run`]), and short rungs find a quiet moment on a busy machine.
const LADDER: [(usize, u64, u64); 3] = [(3, 30, 10), (4, 26, 9), (5, 23, 8)];

const REFERENCE: &str = include_str!("../data/verify_reference.json");

/// One reference rung from `BENCH_verify.json`.
struct Reference {
    k: usize,
    n: u64,
    configs: u64,
    expected: u64,
    min: u64,
}

fn parse_reference() -> Vec<Reference> {
    let doc = Value::parse(REFERENCE).expect("embedded reference parses");
    let cells = doc.get("cells").and_then(Value::as_arr).expect("cells");
    cells
        .iter()
        .map(|c| {
            let u = |key: &str| c.get(key).and_then(Value::as_u64).expect("integer field");
            Reference {
                k: u("k") as usize,
                n: u("n"),
                configs: u("configs"),
                expected: u("expected_interactions"),
                min: u("min_interactions"),
            }
        })
        .collect()
}

struct Setup {
    /// `(k, protocol, largest n)` in ladder order.
    ladders: Vec<(UniformKPartition, CompiledProtocol, u64)>,
    reference: Vec<Reference>,
    materialize_s: f64,
}

/// Set-up steps: compiling the protocols, then each warm-up rung.
fn setup(ctx: &Ctx, lap: &mut Lap) -> Setup {
    let t0 = Instant::now();
    let mut ladders: Vec<_> = LADDER
        .iter()
        .map(|&(k, n_full, n_tiny)| {
            let kp = UniformKPartition::new(k);
            let proto = kp.compile();
            (kp, proto, if ctx.tiny { n_tiny } else { n_full })
        })
        .collect();
    let materialize_s = t0.elapsed().as_secs_f64();
    lap.lap();
    let shift = (ctx.seed % ladders.len() as u64) as usize;
    ladders.rotate_left(shift);
    // Warm-up: the small rungs of every ladder, unchecked.
    for (kp, proto, _) in &ladders {
        let k = kp.k() as u64;
        for n in k.max(3)..=k + 10 {
            let mut sink = Phases::default();
            let _ = rung(kp, proto, n, &mut sink);
            lap.lap();
        }
    }
    Setup {
        ladders,
        reference: parse_reference(),
        materialize_s,
    }
}

/// Seconds per phase, summed over rungs.
#[derive(Clone, Copy, Debug, Default)]
struct Phases {
    explore_s: f64,
    scc_s: f64,
    shortest_s: f64,
    hitting_s: f64,
    sweeps: u64,
    configs: u64,
}

/// What one rung produced.
struct Rung {
    configs: usize,
    verified: bool,
    min: Option<u64>,
    expected: Option<f64>,
}

/// Explore, verify, schedule and (under the cap) solve one rung,
/// recording each phase as a span.
fn rung(
    kp: &UniformKPartition,
    proto: &CompiledProtocol,
    n: u64,
    acc: &mut Phases,
) -> Option<Rung> {
    let label = || {
        if ledger::recording() {
            format!("k{}n{n}", kp.k())
        } else {
            String::new()
        }
    };
    let t0 = Instant::now();
    let graph = ConfigGraph::explore(proto, n, MAX_CONFIGS).ok()?;
    let t1 = Instant::now();
    let groups = kp.expected_group_sizes(n);
    let verified = graph.verify_stable_partition(|g| g == groups).verified();
    let t2 = Instant::now();
    let sig = kp.stable_signature(n);
    let stable = |cfg: &[u32]| {
        let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
        sig.matches(&counts)
    };
    let min = graph.min_interactions_to(stable);
    let t3 = Instant::now();
    let hitting = (graph.num_configs() <= HITTING_CAP)
        .then(|| expected_interactions(&graph, stable, SolverOptions::default()).ok())
        .flatten();
    let t4 = Instant::now();
    ledger::record_labelled("verify.explore", label(), t0, t1);
    ledger::record_labelled("verify.scc", label(), t1, t2);
    ledger::record_labelled("verify.shortest", label(), t2, t3);
    ledger::record_labelled("verify.hitting", label(), t3, t4);
    acc.explore_s += between(t0, t1);
    acc.scc_s += between(t1, t2);
    acc.shortest_s += between(t2, t3);
    acc.hitting_s += between(t3, t4);
    acc.sweeps += hitting.as_ref().map_or(0, |h| h.sweeps as u64);
    acc.configs += graph.num_configs() as u64;
    Some(Rung {
        configs: graph.num_configs(),
        verified,
        min,
        expected: hitting.map(|h| h.expected_from_initial),
    })
}

fn check(report: &mut Report, reference: &[Reference], k: usize, n: u64, r: Option<Rung>) {
    let Some(r) = r else {
        report
            .checks
            .op(false, "verify_ladder: exploration over budget");
        return;
    };
    let mut ok = r.verified && r.min.is_some();
    if let Some(want) = reference.iter().find(|c| c.k == k && c.n == n) {
        ok &= r.configs as u64 == want.configs && r.min == Some(want.min);
        // Where we solved the rung, the expectation matches to rounding.
        if let Some(e) = r.expected {
            ok &= (e - want.expected as f64).abs() <= 1.0;
        }
    }
    report.checks.op(
        ok,
        "verify_ladder: rung unverified or off the BENCH_verify.json reference",
    );
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_times = SetupTimes::default();
    let setup = setup_times.repeat(SETUPS, |_, lap| setup(ctx, lap));

    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Per rung, its untraced (resp. traced) repetition times.
    let mut rung_walls: Vec<[Vec<f64>; 2]> = Vec::new();
    let mut configs = 0u64;
    let mut traced = Phases::default();
    let mut sched = Schedule::new(ctx, 3);
    while let Some(is_traced) = sched.next_rep() {
        let mut phases = Phases::default();
        let mut rungs = Vec::new();
        ledger::set_recording(is_traced);
        let t0 = Instant::now();
        for (kp, proto, n_max) in &setup.ladders {
            for n in (kp.k() as u64).max(3)..=*n_max {
                let r0 = Instant::now();
                let r = rung(kp, proto, n, &mut phases);
                let i = rungs.len();
                if rung_walls.len() == i {
                    rung_walls.push(Default::default());
                }
                rung_walls[i][usize::from(is_traced)].push(r0.elapsed().as_secs_f64());
                rungs.push((kp.k(), n, r));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        ledger::set_recording(false);
        for (k, n, r) in rungs {
            check(&mut report, &setup.reference, k, n, r);
        }
        configs = phases.configs;
        setup_times.between(|_, lap| self::setup(ctx, lap));
        if is_traced {
            traced_walls.push(wall);
            let t = &mut traced;
            t.explore_s += phases.explore_s;
            t.scc_s += phases.scc_s;
            t.shortest_s += phases.shortest_s;
            t.hitting_s += phases.hitting_s;
            t.sweeps += phases.sweeps;
            t.configs += phases.configs;
        } else {
            untraced_walls.push(wall);
        }
    }
    report.note(format!(
        "repetition walls (s): untraced {untraced_walls:.3?}, traced {traced_walls:.3?}"
    ));
    // The ladder's wall time at the machine's quiet speed: the sum over
    // rungs of each rung's fastest repetition. A rung lasts milliseconds
    // to ~0.1 s, so each one finds a quiet moment where a whole ladder
    // seldom does; the rungs are independent, deterministic work, so
    // their fastest times add up.
    let fastest = |kind: usize| -> f64 { rung_walls.iter().map(|w| fast_time(&w[kind])).sum() };
    let wall_s = fastest(0);
    report.set("wall_s", wall_s);
    report.set("ops_per_s", ratio(configs as f64, wall_s));
    report.set("configs_per_s", ratio(configs as f64, wall_s));
    let reps = traced_walls.len();
    if reps > 0 {
        let per = |x: f64| x / reps as f64;
        let t = &traced;
        report.set("protocols.materialize_s", setup.materialize_s);
        report.set("verify.explore_s", per(t.explore_s));
        report.set("verify.scc_s", per(t.scc_s));
        report.set("verify.shortest_s", per(t.shortest_s));
        report.set("verify.hitting_s", per(t.hitting_s));
        report.set("verify.hitting_sweeps", per(t.sweeps as f64));
        report.set("verify.configs", per(t.configs as f64));
        report.set(
            "verify.frontier_peak",
            pp_telemetry::global().gauge("verify.frontier_peak").get() as f64,
        );
        let explained = t.explore_s + t.scc_s + t.shortest_s + t.hitting_s;
        crate::ledger_check(&mut report, explained, traced_walls.iter().sum(), reps);
        crate::trace_overhead(&mut report, wall_s, fastest(1));
        report.note(format!(
            "verify_ladder per traced ladder: explore {:.3} s, scc {:.3} s, shortest {:.3} s, \
             hitting {:.3} s ({} sweeps), {} configs",
            per(t.explore_s),
            per(t.scc_s),
            per(t.shortest_s),
            per(t.hitting_s),
            per(t.sweeps as f64),
            per(t.configs as f64)
        ));
    }
    report.set("setup_s", setup_times.fastest());
    report
}
