//! The sweep path shared by `sweep_fig` and `giant_batch`: a cold
//! `pp_sweep::runner::run_cells` into a fresh store, an optional
//! rendering step, and the per-layer ledger of the run.

use std::sync::Arc;
use std::time::Instant;

use pp_sweep::backend::StoreBackend;
use pp_sweep::exec::ExecOptions;
use pp_sweep::observer::{NullObserver, SweepObserver};
use pp_sweep::spec::CellSpec;
use pp_sweep::store::ResultStore;

use crate::ledger::{self, PoolLedger};
use crate::stats::{between, fast_time, ratio};
use crate::timed::TimedBackend;
use crate::{EngineCounters, Report, WORKERS};

/// What one cold repetition measured.
pub struct ColdRep<T> {
    /// Every `run_cells` call plus the rendering step, seconds.
    pub wall_s: f64,
    /// The same time split into steps: one per part, then the rendering.
    pub steps: Vec<f64>,
    /// Engine counters accrued by the repetition.
    pub counters: EngineCounters,
    /// Layer self times, for traced repetitions.
    pub layers: Option<Layers>,
    /// Whether `run_cells` succeeded.
    pub run: std::io::Result<()>,
    /// The rendering step's output.
    pub rendered: T,
}

/// Layer self times of one traced repetition.
pub struct Layers {
    /// Pool thread-seconds per layer.
    pub pool: PoolLedger,
    /// The rendering step (reports) minus its store reads, seconds.
    pub report_s: f64,
    /// Store reads of the rendering step: seconds and count.
    pub report_loads: (f64, u64),
    /// Store bytes on disk after the run.
    pub bytes: u64,
}

/// Run `parts` cold into `backend`, a fresh (empty) store, one
/// `run_cells` call per part and each part timed on its own, then
/// `render` from that store. A traced repetition records every store,
/// journal and runner-hook call.
pub fn cold_rep<T>(
    parts: &[Vec<CellSpec>],
    backend: Arc<dyn StoreBackend>,
    traced: bool,
    render: impl FnOnce(&ResultStore) -> T,
) -> ColdRep<T> {
    let store = if traced {
        TimedBackend::store(backend.clone())
    } else {
        ResultStore::with_backend(backend.clone())
    };
    let hooks: &dyn SweepObserver = if traced {
        &crate::timed::HookRecorder
    } else {
        &NullObserver
    };
    let before = EngineCounters::now();
    ledger::set_recording(traced);
    let t0 = Instant::now();
    let mut steps = Vec::with_capacity(parts.len() + 1);
    let mut run = Ok(());
    let mut mark = t0;
    for cells in parts {
        let out = pp_sweep::runner::run_cells(cells, &store, hooks, &ExecOptions::default());
        run = run.and(out.map(drop));
        let now = Instant::now();
        steps.push(between(mark, now));
        mark = now;
    }
    let t1 = mark;
    let rendered = render(&store);
    let t2 = Instant::now();
    steps.push(between(t1, t2));
    ledger::record("sweep.report", t1, t2);
    ledger::set_recording(false);
    let counters = EngineCounters::since(&before);
    let layers = traced.then(|| {
        let spans = ledger::collect();
        let report_loads =
            ledger::total_between(&spans, "store.load", ledger::ns(t1), ledger::ns(t2));
        Layers {
            pool: ledger::attribute_pool(&spans, t0, t1, WORKERS),
            report_s: between(t1, t2) - report_loads.0,
            report_loads,
            bytes: backend.stats().bytes,
        }
    });
    ColdRep {
        wall_s: between(t0, t2),
        steps,
        counters,
        layers,
        run,
        rendered,
    }
}

/// Accumulates repetitions and turns them into metrics.
#[derive(Default)]
pub struct PathStats {
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Per step of a repetition, its time in each untraced repetition.
    untraced_steps: Vec<Vec<f64>>,
    /// The same for traced repetitions.
    traced_steps: Vec<Vec<f64>>,
    /// Engine counters of one untraced repetition: every repetition runs
    /// the same trials, so they repeat exactly.
    untraced_counters: EngineCounters,
    traced_counters: EngineCounters,
    pool: PoolLedger,
    report_s: f64,
    report_loads: (f64, u64),
    bytes: u64,
}

impl PathStats {
    /// Fold in one repetition.
    pub fn add<T>(&mut self, rep: &ColdRep<T>) {
        let c = &rep.counters;
        let steps = if rep.layers.is_some() {
            &mut self.traced_steps
        } else {
            &mut self.untraced_steps
        };
        steps.resize(rep.steps.len(), Vec::new());
        for (all, t) in steps.iter_mut().zip(&rep.steps) {
            all.push(*t);
        }
        match &rep.layers {
            None => {
                self.untraced_walls.push(rep.wall_s);
                self.untraced_counters = *c;
            }
            Some(l) => {
                self.traced_walls.push(rep.wall_s);
                let t = &mut self.traced_counters;
                t.interactions += c.interactions;
                t.effective += c.effective;
                t.leaps += c.leaps;
                t.fallbacks += c.fallbacks;
                self.pool.add(&l.pool);
                self.report_s += l.report_s;
                self.report_loads.0 += l.report_loads.0;
                self.report_loads.1 += l.report_loads.1;
                self.bytes += l.bytes;
            }
        }
    }

    /// Set the metrics of the run: end-to-end from the untraced
    /// repetitions, as the sum over steps of each step's fastest time;
    /// per-layer (means per traced repetition) and the ledger check from
    /// the traced ones. `ops_per_s` counts effective interactions.
    pub fn finish(&self, report: &mut Report) {
        let wall_s = fastest_steps(&self.untraced_steps);
        let c = &self.untraced_counters;
        report.set("wall_s", wall_s);
        report.set("ops_per_s", ratio(c.effective as f64, wall_s));
        report.set("interactions_per_s", ratio(c.interactions as f64, wall_s));
        report.note(format!(
            "repetition walls (s): untraced {:.3?}, traced {:.3?}",
            self.untraced_walls, self.traced_walls
        ));
        let fastest: Vec<f64> = self.untraced_steps.iter().map(|t| fast_time(t)).collect();
        report.note(format!("fastest untraced step times (s): {fastest:.4?}"));
        let reps = self.traced_walls.len();
        if reps == 0 {
            return;
        }
        let per = |x: f64| x / reps as f64;
        let c = &self.traced_counters;
        let p = &self.pool;
        report.set("engine.kernel_s", per(p.kernel_s));
        report.set("engine.interactions", per(c.interactions as f64));
        report.set("engine.effective", per(c.effective as f64));
        report.set(
            "engine.effective_ratio",
            ratio(c.effective as f64, c.interactions as f64),
        );
        report.set(
            "engine.ns_per_effective",
            1e9 * ratio(p.kernel_s, c.effective as f64),
        );
        report.set("engine.leaps", per(c.leaps as f64));
        report.set("engine.fallbacks", per(c.fallbacks as f64));
        report.set(
            "engine.fallback_ratio",
            ratio(c.fallbacks as f64, (c.leaps + c.fallbacks) as f64),
        );
        report.set("protocols.materialize_s", per(p.materialize_s));
        report.set("sweep.store.save_s", per(p.save_s));
        report.set("sweep.store.saves", per(p.saves as f64));
        report.set("sweep.store.bytes", per(self.bytes as f64));
        report.set("sweep.journal.open_s", per(p.journal_open_s));
        report.set("sweep.journal.append_s", per(p.append_s));
        report.set("sweep.journal.appends", per(p.appends as f64));
        // Cache probes inside the run plus the reports' reads.
        let (report_load_s, report_loads) = self.report_loads;
        report.set("sweep.store.load_s", per(p.load_s + report_load_s));
        report.set("sweep.store.loads", per((p.loads + report_loads) as f64));
        report.set("sweep.report_s", per(self.report_s));
        report.set("sweep.worker_idle_s", per(p.idle_s));
        let traced_wall: f64 = self.traced_walls.iter().sum();
        let explained = p.attributed() / WORKERS as f64 + self.report_s + report_load_s;
        crate::ledger_check(report, explained, traced_wall, reps);
        crate::trace_overhead(report, wall_s, fastest_steps(&self.traced_steps));
        report.note(format!(
            "ledger per traced rep (thread-s over {WORKERS} workers): kernel {:.3}, materialize {:.4}, \
             load {:.4}, journal open {:.4} append {:.4}, save {:.4}, idle {:.3}, glue {:.4}; \
             report {:.4} s + its store reads {:.4} s",
            per(p.kernel_s),
            per(p.materialize_s),
            per(p.load_s),
            per(p.journal_open_s),
            per(p.append_s),
            per(p.save_s),
            per(p.idle_s),
            per(p.glue_s),
            per(self.report_s),
            per(report_load_s),
        ));
    }
}

/// Sum over steps of each step's fastest time, seconds.
fn fastest_steps(steps: &[Vec<f64>]) -> f64 {
    steps.iter().map(|t| fast_time(t)).sum()
}
