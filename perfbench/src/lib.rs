//! End-to-end and per-layer benchmark of the uniform k-partition
//! reproduction.
//!
//! One binary runs four seeded workloads in-process against the
//! repository's library APIs — a cold Figure 3 + Figure 5 sweep
//! ([`sweep_fig`]), a giant-n cell on the tau-leap batch kernel
//! ([`giant_batch`]), a mixed hit/miss load on an in-process `pp-serve`
//! ([`serve_mixed`]) and `pp-verify`'s exhaustive `(k, n)` ladder
//! ([`verify_ladder`]) — checks every output, and prints one JSON result
//! line. Traced runs additionally split each workload's time into layer
//! self times ([`ledger`]) and time the engine's primitives on real count
//! vectors ([`primitives`]). See `README.md` for metric definitions.

#![forbid(unsafe_code)]

pub mod giant_batch;
pub mod ledger;
pub mod primitives;
pub mod report;
pub mod serve_mixed;
pub mod stats;
pub mod sweep_fig;
pub mod sweep_path;
pub mod timed;
pub mod verify_ladder;

use std::path::PathBuf;
use std::time::Instant;

pub use report::Report;

/// Worker threads (and client connections) every workload uses.
pub const WORKERS: usize = 2;

/// Ledger sum check: traced layer self times must explain at least this
/// share of the traced wall time.
pub const LEDGER_MIN_EXPLAINED: f64 = 0.90;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold Figure 3 + Figure 5 sweep on the leap kernel.
    SweepFig,
    /// A giant-n cell on the batch kernel through the sweep path.
    GiantBatch,
    /// Closed-loop hit/miss load on an in-process `pp-serve`.
    ServeMixed,
    /// `pp-verify`'s `(k, n)` ladder.
    VerifyLadder,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepFig,
        Workload::GiantBatch,
        Workload::ServeMixed,
        Workload::VerifyLadder,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFig => "sweep_fig",
            Workload::GiantBatch => "giant_batch",
            Workload::ServeMixed => "serve_mixed",
            Workload::VerifyLadder => "verify_ladder",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything a workload needs to know about its run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes (seconds, not minutes, in a debug build).
    pub tiny: bool,
    /// Private scratch directory, removed when the run ends.
    pub dir: PathBuf,
    /// Where a traced run writes its spans (NDJSON).
    pub spans_path: PathBuf,
}

/// Run one workload. The caller owns `ctx.dir` (creates it before,
/// removes it after).
pub fn run(workload: Workload, ctx: &Ctx) -> Report {
    let mut report = match workload {
        Workload::SweepFig => sweep_fig::run(ctx),
        Workload::GiantBatch => giant_batch::run(ctx),
        Workload::ServeMixed => serve_mixed::run(ctx),
        Workload::VerifyLadder => verify_ladder::run(ctx),
    };
    // A workload may have taken its own reading at a fixed point of work.
    if !report.values.contains_key("peak_rss_mb") {
        match stats::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => {
                report
                    .checks
                    .op(false, "peak_rss: /proc/self/status unreadable");
            }
        }
    }
    if ctx.trace {
        let spans = ledger::archived();
        if let Err(e) = ledger::write_ndjson(&ctx.spans_path, &spans) {
            report
                .checks
                .op(false, &format!("spans: cannot write NDJSON: {e}"));
        } else {
            report.note(format!(
                "{} spans written to {}",
                spans.len(),
                ctx.spans_path.display()
            ));
        }
    }
    report
}

/// Repetition schedule: untraced repetitions until the time budget is
/// spent (at least `min_each`), or in a traced run alternating untraced
/// and traced repetitions, ending on a traced one, so trace overhead is
/// measured against interleaved untraced repetitions.
pub struct Schedule {
    start: Instant,
    seconds: f64,
    min_each: usize,
    trace: bool,
    /// Untraced repetitions handed out.
    untraced: usize,
    /// Traced repetitions handed out.
    traced: usize,
}

/// No run measures longer than this, whatever `--seconds` says, so every
/// run ends well inside its time limit.
const HARD_CAP_S: f64 = 120.0;

impl Schedule {
    /// Start the clock.
    pub fn new(ctx: &Ctx, min_each: usize) -> Self {
        Schedule {
            start: Instant::now(),
            seconds: ctx.seconds,
            min_each: min_each.max(1),
            trace: ctx.trace,
            untraced: 0,
            traced: 0,
        }
    }

    /// The next repetition — `Some(traced)` — or `None` when done.
    pub fn next_rep(&mut self) -> Option<bool> {
        let elapsed = self.start.elapsed().as_secs_f64();
        // Completed pairs in a traced run, repetitions in an untraced one.
        let reps = if self.trace {
            if self.traced == self.untraced {
                self.traced
            } else {
                0
            }
        } else {
            self.untraced
        };
        let done = reps >= self.min_each && elapsed >= self.seconds;
        if done || (reps > 0 && elapsed >= HARD_CAP_S) {
            return None;
        }
        let traced = self.trace && self.untraced > self.traced;
        if traced {
            self.traced += 1;
        } else {
            self.untraced += 1;
        }
        Some(traced)
    }
}

/// Set-ups before a workload's measurement loop; see [`SetupTimes`].
pub const SETUPS: usize = 2;

/// Marks the end of each step of one set-up; see [`SetupTimes`].
pub struct Lap {
    last: Instant,
    steps: Vec<f64>,
}

impl Lap {
    /// The step that began at the previous mark ends now.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.steps.push(stats::between(self.last, now));
        self.last = now;
    }
}

/// Set-up timings. A set-up is a fixed sequence of steps, each ended by
/// [`Lap::lap`]; `setup_s` ([`SetupTimes::fastest`]) is the sum over
/// steps of each step's fastest time, as `verify_ladder`'s `wall_s` is
/// the sum of its rungs' fastest times. Workloads set up [`SETUPS`]
/// times before their measurement loop and once more between its
/// repetitions, at most once a second and outside their timings, so the
/// set-ups spread over the whole run like the repetitions do: a shared
/// host slows code down in phases lasting seconds, which cover set-ups
/// made back to back.
#[derive(Default)]
pub struct SetupTimes {
    /// Per step, its time in each set-up.
    steps: Vec<Vec<f64>>,
    /// When the last set-up ended.
    last: Option<Instant>,
}

/// Least time between two set-ups made by [`SetupTimes::between`].
const SETUP_GAP_S: f64 = 1.0;

impl SetupTimes {
    /// Run `f` `times` times, timing its steps, and return its last
    /// result. Each previous result is dropped before the next set-up, so
    /// its teardown is not timed.
    pub fn repeat<T>(&mut self, times: usize, mut f: impl FnMut(usize, &mut Lap) -> T) -> T {
        let mut last = None;
        for i in 0..times.max(1) {
            drop(last.take());
            let mut lap = Lap {
                last: Instant::now(),
                steps: Vec::new(),
            };
            let out = f(i, &mut lap);
            lap.lap();
            if self.steps.len() < lap.steps.len() {
                self.steps.resize(lap.steps.len(), Vec::new());
            }
            for (all, t) in self.steps.iter_mut().zip(lap.steps) {
                all.push(t);
            }
            last = Some(out);
        }
        self.last = Some(Instant::now());
        last.expect("at least one set-up")
    }

    /// One more set-up between two repetitions of the measurement, unless
    /// the last one ended less than a second ago.
    pub fn between<T>(&mut self, f: impl FnMut(usize, &mut Lap) -> T) -> Option<T> {
        let due = self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_GAP_S);
        due.then(|| self.repeat(1, f))
    }

    /// Sum over steps of each step's fastest time, seconds.
    pub fn fastest(&self) -> f64 {
        self.steps.iter().map(|t| stats::fast_time(t)).sum()
    }
}

/// Snapshot of the engine's global counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// `engine.interactions` (identities included).
    pub interactions: u64,
    /// `engine.effective_interactions`.
    pub effective: u64,
    /// `engine.leap_batches`.
    pub leaps: u64,
    /// `engine.batch_fallbacks`.
    pub fallbacks: u64,
    /// `engine.censored_runs`.
    pub censored: u64,
}

impl EngineCounters {
    /// Read the counters now.
    pub fn now() -> Self {
        let m = pp_engine::engine_metrics();
        EngineCounters {
            interactions: m.interactions.get(),
            effective: m.effective_interactions.get(),
            leaps: m.leap_batches.get(),
            fallbacks: m.batch_fallbacks.get(),
            censored: m.censored_runs.get(),
        }
    }

    /// Counts accrued since `before`.
    pub fn since(before: &EngineCounters) -> Self {
        let now = EngineCounters::now();
        EngineCounters {
            interactions: now.interactions - before.interactions,
            effective: now.effective - before.effective,
            leaps: now.leaps - before.leaps,
            fallbacks: now.fallbacks - before.fallbacks,
            censored: now.censored - before.censored,
        }
    }
}

/// Ledger verdict shared by every workload: report the unexplained rest
/// and the explained share, and fail the run (check `ledger`) when the
/// layers explain less than [`LEDGER_MIN_EXPLAINED`] of the wall time.
pub fn ledger_check(report: &mut Report, explained_s: f64, wall_s: f64, reps: usize) {
    let share = stats::ratio(explained_s, wall_s);
    report.set(
        "unattributed_s",
        (wall_s - explained_s) / reps.max(1) as f64,
    );
    report.set("ledger_explained_pct", 100.0 * share);
    report.checks.op(
        share >= LEDGER_MIN_EXPLAINED,
        &format!(
            "ledger: layers explain {:.1}% of traced wall time",
            100.0 * share
        ),
    );
}

/// Trace overhead: the traced wall time minus the untraced one (both
/// taken at the fast end), in percent of the untraced one.
pub fn trace_overhead(report: &mut Report, untraced_s: f64, traced_s: f64) {
    report.set(
        "trace_overhead_pct",
        100.0 * stats::ratio(traced_s - untraced_s, untraced_s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_s_adds_each_steps_fastest_time() {
        let mut times = SetupTimes::default();
        // Two set-ups of two steps; each step is fastest in a different one.
        let sleeps_ms = [[30, 10], [10, 30]];
        times.repeat(2, |i, lap| {
            for ms in sleeps_ms[i] {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                lap.lap();
            }
        });
        // 10 + 10 ms, where the fastest whole set-up takes 40 ms.
        let s = times.fastest();
        assert!((0.020..0.035).contains(&s), "{s}");
        // Less than a second after the last set-up, none is due.
        assert!(times.between(|_, _| ()).is_none());
    }
}
