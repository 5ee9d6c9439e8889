//! In-memory span recorder and the per-layer time ledger.
//!
//! Traced repetitions wrap the public calls of each layer (store,
//! journal, sweep observer hooks, verify phases, client requests) and
//! record one [`Span`] per call into a per-thread buffer — no lock is
//! shared between threads on the hot path. Spans stay in memory until
//! the run ends, when [`write_ndjson`] writes them out.
//!
//! [`attribute_pool`] turns the spans of one sweep-path run
//! (`pp_sweep::runner::run_cells`) into layer self times. The sweep
//! runner executes each cell on one pool thread, trials inline, in a
//! fixed order of public calls:
//!
//! ```text
//! store.load → journal.recover → cell.started → (materialize) →
//! journal.open → { (run_one_trial) → journal.append → trial.finished }* →
//! store.save → cell.finished
//! ```
//!
//! so the gap that ends at `journal.open` is the protocol
//! materialization and every gap that ends at `journal.append` is one
//! `exec::run_one_trial` — the engine kernel. Other gaps are runner glue
//! and stay unattributed.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval (zero-length for point events).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.save`.
    pub name: &'static str,
    /// Free-form label (e.g. a verify rung `k4n20`); usually empty.
    pub label: String,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

type Buffer = Arc<Mutex<Vec<Span>>>;

fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static ALL: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<(u32, Buffer)>> = const { RefCell::new(None) };
}

/// The process epoch all span timestamps count from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the epoch to `t`.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn span recording on or off (off by default).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Record `[start, end]` under `name` if recording is on.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    record_labelled(name, String::new(), start, end);
}

/// Record a labelled span if recording is on.
pub fn record_labelled(name: &'static str, label: String, start: Instant, end: Instant) {
    if !recording() {
        return;
    }
    let span = |thread| Span {
        name,
        label,
        thread,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (thread, buf) = local.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            buffers().lock().unwrap().push(Arc::clone(&buf));
            (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), buf)
        });
        buf.lock().unwrap().push(span(*thread));
    });
}

/// Record a point event now.
pub fn point(name: &'static str) {
    if recording() {
        let now = Instant::now();
        record(name, now, now);
    }
}

fn archive() -> &'static Mutex<Vec<Span>> {
    static ARCHIVE: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    ARCHIVE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Return the spans recorded since the last call, from every thread, and
/// keep a copy for [`archived`].
pub fn collect() -> Vec<Span> {
    let mut all = buffers().lock().unwrap();
    let mut out = Vec::new();
    for buf in all.iter() {
        out.append(&mut buf.lock().unwrap());
    }
    // Buffers of exited threads are referenced only from here.
    all.retain(|b| Arc::strong_count(b) > 1);
    archive().lock().unwrap().extend(out.iter().cloned());
    out
}

/// Every span of the run, for the NDJSON dump.
pub fn archived() -> Vec<Span> {
    collect();
    std::mem::take(&mut archive().lock().unwrap())
}

/// Sum of the durations of spans named `name`, and how many there were.
pub fn total(spans: &[Span], name: &str) -> (f64, u64) {
    total_between(spans, name, 0, u64::MAX)
}

/// [`total`] restricted to spans inside `[lo_ns, hi_ns]`.
pub fn total_between(spans: &[Span], name: &str, lo_ns: u64, hi_ns: u64) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && s.start_ns >= lo_ns && s.end_ns <= hi_ns)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

/// Write spans as NDJSON, one object per span, times in microseconds
/// since the process epoch.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"label\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.label,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

/// Layer self times of one sweep-path run, in thread-seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolLedger {
    /// Gaps ending at `journal.open`: `CellSpec::materialize`.
    pub materialize_s: f64,
    /// Gaps ending at `journal.append`: `exec::run_one_trial`.
    pub kernel_s: f64,
    /// `StoreBackend::load`.
    pub load_s: f64,
    /// Number of loads.
    pub loads: u64,
    /// `StoreBackend::journal_state` + `journal_sink`.
    pub journal_open_s: f64,
    /// `JournalSink::append`.
    pub append_s: f64,
    /// Number of appends.
    pub appends: u64,
    /// `StoreBackend::save`.
    pub save_s: f64,
    /// Number of saves.
    pub saves: u64,
    /// Pool capacity minus the threads' busy spans (first to last event).
    pub idle_s: f64,
    /// Gaps between events not attributable to a layer (runner glue).
    pub glue_s: f64,
}

impl PoolLedger {
    /// Thread-seconds attributed to a layer (glue excluded).
    pub fn attributed(&self) -> f64 {
        self.materialize_s
            + self.kernel_s
            + self.load_s
            + self.journal_open_s
            + self.append_s
            + self.save_s
            + self.idle_s
    }

    /// Accumulate another run's ledger.
    pub fn add(&mut self, o: &PoolLedger) {
        self.materialize_s += o.materialize_s;
        self.kernel_s += o.kernel_s;
        self.load_s += o.load_s;
        self.loads += o.loads;
        self.journal_open_s += o.journal_open_s;
        self.append_s += o.append_s;
        self.appends += o.appends;
        self.save_s += o.save_s;
        self.saves += o.saves;
        self.idle_s += o.idle_s;
        self.glue_s += o.glue_s;
    }
}

/// Names of the spans the sweep-path instrumentation records.
pub const POOL_SPANS: &[&str] = &[
    "store.load",
    "store.save",
    "journal.recover",
    "journal.open",
    "journal.append",
    "cell.started",
    "trial.finished",
    "cell.finished",
];

/// Attribute the pool spans of one `run_cells` call that ran from
/// `phase_start` to `phase_end` on `workers` threads (see module docs).
/// Spans outside that window are ignored.
pub fn attribute_pool(
    spans: &[Span],
    phase_start: Instant,
    phase_end: Instant,
    workers: usize,
) -> PoolLedger {
    let (lo, hi) = (ns(phase_start), ns(phase_end));
    let mut by_thread: std::collections::BTreeMap<u32, Vec<&Span>> = Default::default();
    for s in spans
        .iter()
        .filter(|s| POOL_SPANS.contains(&s.name) && s.start_ns >= lo && s.end_ns <= hi)
    {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut l = PoolLedger::default();
    let mut busy = 0.0;
    for events in by_thread.values_mut() {
        events.sort_by_key(|s| (s.start_ns, s.end_ns));
        let first = events[0].start_ns;
        let mut prev_end = first;
        let mut prev_name = "";
        for s in events.iter() {
            let gap = s.start_ns.saturating_sub(prev_end) as f64 * 1e-9;
            match (prev_name, s.name) {
                ("cell.started", "journal.open") => l.materialize_s += gap,
                ("journal.open" | "trial.finished", "journal.append") => l.kernel_s += gap,
                _ => l.glue_s += gap,
            }
            let d = s.secs();
            match s.name {
                "store.load" => {
                    l.load_s += d;
                    l.loads += 1;
                }
                "journal.recover" | "journal.open" => l.journal_open_s += d,
                "journal.append" => {
                    l.append_s += d;
                    l.appends += 1;
                }
                "store.save" => {
                    l.save_s += d;
                    l.saves += 1;
                }
                _ => {}
            }
            prev_end = prev_end.max(s.end_ns);
            prev_name = s.name;
        }
        busy += prev_end.saturating_sub(first) as f64 * 1e-9;
    }
    let capacity = workers as f64
        * phase_end
            .saturating_duration_since(phase_start)
            .as_secs_f64();
    l.idle_s = (capacity - busy).max(0.0);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            label: String::new(),
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn pool_gaps_are_attributed_by_the_call_that_ends_them() {
        let t0 = epoch();
        let ms = 1_000_000;
        let spans = vec![
            span("store.load", 0, 0, ms),
            span("journal.recover", 0, ms, 2 * ms),
            span("cell.started", 0, 2 * ms, 2 * ms),
            span("journal.open", 0, 5 * ms, 6 * ms), // 3 ms materialize
            span("journal.append", 0, 16 * ms, 17 * ms), // 10 ms kernel
            span("trial.finished", 0, 17 * ms, 17 * ms),
            span("journal.append", 0, 27 * ms, 28 * ms), // 10 ms kernel
            span("trial.finished", 0, 28 * ms, 28 * ms),
            span("store.save", 0, 29 * ms, 31 * ms), // 1 ms glue
            span("cell.finished", 0, 31 * ms, 31 * ms),
        ];
        let end = t0 + std::time::Duration::from_millis(40);
        let l = attribute_pool(&spans, t0, end, 1);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(l.materialize_s, 0.003));
        assert!(close(l.kernel_s, 0.020));
        assert!(close(l.append_s, 0.002) && l.appends == 2);
        assert!(close(l.save_s, 0.002) && l.saves == 1);
        assert!(close(l.journal_open_s, 0.002));
        assert!(close(l.glue_s, 0.001));
        // 40 ms of capacity, 31 ms busy.
        assert!(close(l.idle_s, 0.009));
        assert!(close(l.attributed() + l.glue_s, 0.040));
    }
}
