//! The flight recorder: a fixed-size, lock-free ring of recent records.
//!
//! Each write claims one global index with a single `fetch_add` and then
//! publishes into slot `index % capacity` under a per-slot seqlock. The
//! slot is claimed with a `compare_exchange` from a published sequence
//! older than the write's own, so two writes never fill one slot at once.
//! A write that finds a newer write in its slot (it fell a whole lap
//! behind) drops its record. A write that finds an older write still in
//! progress waits for it; that happens only after `capacity` writes have
//! raced past a stalled one.
//! Readers ([`FlightRecorder::snapshot`]) never block writers: a slot
//! caught mid-write fails its sequence re-check and is skipped. The ring
//! therefore always holds (a consistent view of) the most recent
//! `capacity` records, which is exactly the "what just happened" evidence
//! wanted after a panic or SIGTERM.
//!
//! The only lock in the module guards the name/label interner, taken when
//! a record is written (names come from a small fixed set, labels from
//! cell stems, so the critical section is a `BTreeMap` lookup) and once
//! per snapshot to clone the string table. The hot slot publish itself is
//! lock-free.

use pp_telemetry::json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic process clock: microseconds since the first call.
pub fn now_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

/// What a ring slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A point event with an attached integer value.
    Event,
    /// A span was opened (its close may still be pending — or never come,
    /// which after a crash is itself the interesting signal).
    SpanOpen,
    /// A span closed; carries both endpoints.
    SpanClose,
}

impl RecordKind {
    fn code(self) -> u64 {
        match self {
            RecordKind::Event => 0,
            RecordKind::SpanOpen => 1,
            RecordKind::SpanClose => 2,
        }
    }

    fn from_code(code: u64) -> Option<RecordKind> {
        match code {
            0 => Some(RecordKind::Event),
            1 => Some(RecordKind::SpanOpen),
            2 => Some(RecordKind::SpanClose),
            _ => None,
        }
    }

    /// Stable wire name used in the NDJSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::SpanOpen => "span_open",
            RecordKind::SpanClose => "span",
        }
    }
}

/// One decoded record, as returned by [`FlightRecorder::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Global write index (total ring writes before this one); snapshot
    /// order and the `seq` field of the NDJSON line.
    pub seq: u64,
    /// Which kind of record this is.
    pub kind: RecordKind,
    /// Span id (0 for plain events, which belong to their parent span).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Interned record name, e.g. `serve.request`.
    pub name: String,
    /// Free-form label (cell stem, reason, ...); empty when absent.
    pub label: String,
    /// Event/open time, or span start, in [`now_micros`] ticks.
    pub start_micros: u64,
    /// Span end; equals `start_micros` for events and opens.
    pub end_micros: u64,
    /// Attached integer payload (events only; 0 otherwise).
    pub value: u64,
}

impl Record {
    /// Encode as one NDJSON line (no trailing newline). Integer-and-string
    /// JSON only, matching the workspace's export conventions.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("seq", Value::U64(self.seq)),
            ("kind", Value::Str(self.kind.as_str().into())),
            ("id", Value::U64(self.id)),
            ("parent", Value::U64(self.parent)),
            ("name", Value::Str(self.name.clone())),
            ("micros", Value::U64(self.start_micros)),
        ];
        if self.kind == RecordKind::SpanClose {
            pairs.push(("end_micros", Value::U64(self.end_micros)));
        }
        if self.kind == RecordKind::Event {
            pairs.push(("value", Value::U64(self.value)));
        }
        if !self.label.is_empty() {
            pairs.push(("label", Value::Str(self.label.clone())));
        }
        Value::obj(pairs)
    }
}

/// Slot sequence encoding: `0` = never written, `2i + 1` = write `i` in
/// progress, `2i + 2` = write `i` published.
const EMPTY: u64 = 0;

struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
    name: AtomicU64,
    label: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(EMPTY),
            kind: AtomicU64::new(0),
            id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name: AtomicU64::new(0),
            label: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct Interner {
    by_name: BTreeMap<String, u64>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u64 {
        if self.names.is_empty() {
            // Index 0 is the empty string so `0` can mean "no label".
            self.names.push(String::new());
        }
        if s.is_empty() {
            return 0;
        }
        if let Some(&idx) = self.by_name.get(s) {
            return idx;
        }
        let idx = self.names.len() as u64;
        self.names.push(s.to_string());
        self.by_name.insert(s.to_string(), idx);
        idx
    }
}

/// A fixed-size lock-free ring of recent [`Record`]s.
///
/// Capacity 0 disables the recorder entirely: writes become no-ops and
/// snapshots are empty. The process-wide instance ([`recorder`]) sizes
/// itself from `PP_FLIGHT_CAPACITY` (default 4096).
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    next: AtomicU64,
    interner: Mutex<Interner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("written", &self.next.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            next: AtomicU64::new(0),
            interner: Mutex::new(Interner::default()),
        }
    }

    /// Ring capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether writes land anywhere.
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Total records ever written (not capped by capacity).
    pub fn written(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Write one record. Lock-free except for name/label interning.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: RecordKind,
        id: u64,
        parent: u64,
        name: &str,
        label: &str,
        start_micros: u64,
        end_micros: u64,
        value: u64,
    ) {
        if self.slots.is_empty() {
            return;
        }
        let (name_idx, label_idx) = {
            let mut interner = self.interner.lock().unwrap();
            (interner.intern(name), interner.intern(label))
        };
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        self.publish(index, |slot| {
            slot.kind.store(kind.code(), Ordering::Relaxed);
            slot.id.store(id, Ordering::Relaxed);
            slot.parent.store(parent, Ordering::Relaxed);
            slot.name.store(name_idx, Ordering::Relaxed);
            slot.label.store(label_idx, Ordering::Relaxed);
            slot.start.store(start_micros, Ordering::Relaxed);
            slot.end.store(end_micros, Ordering::Relaxed);
            slot.value.store(value, Ordering::Relaxed);
        });
    }

    /// Publish write `index` into slot `index % capacity` under the
    /// seqlock, `fill` storing the fields (Relaxed). Returns false, having
    /// written nothing, when a newer write owns the slot.
    fn publish(&self, index: u64, fill: impl FnOnce(&Slot)) -> bool {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let writing = 2 * index + 1;
        // Claim the slot: move it from a published (even) sequence older
        // than ours to our odd mark. The claim's Acquire pairs with the
        // previous writer's Release publish, so that writer's field
        // stores happen before ours and cannot land on top of them.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        let mut spins = 0u32;
        loop {
            if seq > writing {
                // A newer write owns or has published the slot.
                return false;
            }
            if seq % 2 == 1 {
                // An older write, a lap behind, is mid-write: wait.
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
                seq = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(seq, writing, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => seq = current,
            }
        }
        // Seqlock publish: the odd mark is in place; store the fields,
        // then publish the even sequence with Release, which pairs with
        // the reader's Acquire load of it. The release fence orders the
        // odd mark before the field stores and pairs with the reader's
        // acquire fence: a reader that observes any new field and then
        // re-reads the sequence is guaranteed to see the odd mark (or a
        // later value) and discard.
        fence(Ordering::Release);
        fill(slot);
        slot.seq.store(writing + 1, Ordering::Release);
        true
    }

    /// Consistent snapshot of every published record, oldest first.
    ///
    /// Non-destructive: the ring keeps recording. Slots caught mid-write
    /// (or overwritten between the two sequence reads) are skipped.
    pub fn snapshot(&self) -> Vec<Record> {
        // (record, name index, label index); strings resolved below.
        let mut raw = Vec::new();
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == EMPTY || seq1 % 2 == 1 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let name = slot.name.load(Ordering::Relaxed);
            let label = slot.label.load(Ordering::Relaxed);
            let start = slot.start.load(Ordering::Relaxed);
            let end = slot.end.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            // The acquire fence keeps the re-read below from being hoisted
            // above the field loads; paired with the writer's release
            // fence it makes a torn read visible as a sequence change.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue;
            }
            let Some(kind) = RecordKind::from_code(kind) else {
                continue;
            };
            let record = Record {
                seq: (seq1 - 2) / 2,
                kind,
                id,
                parent,
                name: String::new(),
                label: String::new(),
                start_micros: start,
                end_micros: end,
                value,
            };
            raw.push((record, name, label));
        }
        // A writer interns its strings before it publishes its slot, so a
        // table cloned after reading the slots resolves every index read.
        let names: Vec<String> = self
            .interner
            .lock()
            .expect("interner lock poisoned by a panicking writer")
            .names
            .clone();
        let resolve = |idx: u64| -> String { names.get(idx as usize).cloned().unwrap_or_default() };
        let mut out: Vec<Record> = raw
            .into_iter()
            .map(|(mut record, name, label)| {
                record.name = resolve(name);
                record.label = resolve(label);
                record
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The snapshot as NDJSON (one record per line, trailing newline;
    /// empty string when the ring is empty or disabled).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json().encode());
            out.push('\n');
        }
        out
    }

    /// Dump the snapshot to `path` as NDJSON.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_ndjson())
    }
}

/// The process-wide recorder. Capacity comes from `PP_FLIGHT_CAPACITY`
/// on first use (default 4096; `0` disables recording).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var("PP_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(4096);
        FlightRecorder::with_capacity(capacity)
    })
}

static DUMP_OVERRIDE: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Programmatic override for [`default_dump_path`] — how a binary's
/// `--flight-dump PATH` flag takes effect without mutating the process
/// environment. First caller wins; later calls are no-ops.
pub fn set_dump_path(path: impl Into<std::path::PathBuf>) {
    let _ = DUMP_OVERRIDE.set(path.into());
}

/// Where panic/SIGTERM dumps land: [`set_dump_path`]'s override if any,
/// else `PP_FLIGHT_DUMP` if set, else `pp-flight-<pid>.ndjson` in the
/// temp dir.
pub fn default_dump_path() -> std::path::PathBuf {
    if let Some(p) = DUMP_OVERRIDE.get() {
        return p.clone();
    }
    match std::env::var_os("PP_FLIGHT_DUMP") {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => std::env::temp_dir().join(format!("pp-flight-{}.ndjson", std::process::id())),
    }
}

/// Install a panic hook that dumps the global recorder to
/// [`default_dump_path`] before delegating to the previous hook, so a
/// crashing process leaves its last `capacity` records behind. Idempotent
/// per process (second call is a no-op).
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = default_dump_path();
            if recorder().dump_to(&path).is_ok() {
                eprintln!("pp-obs: flight recorder dumped to {}", path.display());
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_order() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(RecordKind::Event, 0, 3, "a", "", 10, 10, 7);
        rec.record(RecordKind::SpanOpen, 5, 0, "b", "cell-x", 11, 11, 0);
        rec.record(RecordKind::SpanClose, 5, 0, "b", "cell-x", 11, 42, 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value, 7);
        assert_eq!(snap[0].parent, 3);
        assert_eq!(snap[1].kind, RecordKind::SpanOpen);
        assert_eq!(snap[2].end_micros, 42);
        assert_eq!(snap[2].label, "cell-x");
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn wraparound_keeps_newest_records_sorted() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..11u64 {
            rec.record(RecordKind::Event, 0, 0, "tick", "", i, i, i);
        }
        let snap = rec.snapshot();
        // Exactly the last `capacity` writes survive, in write order.
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(
            snap.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(rec.written(), 11);
    }

    /// A write that fell a lap behind finds its slot already holding a
    /// newer record and drops its own instead of overwriting it.
    #[test]
    fn a_write_a_lap_behind_keeps_the_newer_record() {
        let rec = FlightRecorder::with_capacity(4);
        let event = |value: u64| {
            move |slot: &Slot| {
                slot.kind.store(RecordKind::Event.code(), Ordering::Relaxed);
                slot.value.store(value, Ordering::Relaxed);
            }
        };
        // Writes 1 and 5 share slot 1; write 5 publishes first.
        assert!(rec.publish(5, event(5)));
        assert!(!rec.publish(1, event(1)));
        let snap = rec.snapshot();
        assert_eq!(
            snap.iter().map(|r| (r.seq, r.value)).collect::<Vec<_>>(),
            vec![(5, 5)]
        );
        // An older write published first is overwritten as usual.
        assert!(rec.publish(2, event(2)));
        assert!(rec.publish(6, event(6)));
        let seqs: Vec<u64> = rec.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::with_capacity(0);
        assert!(!rec.enabled());
        rec.record(RecordKind::Event, 0, 0, "x", "", 0, 0, 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.to_ndjson(), "");
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(
            RecordKind::SpanClose,
            9,
            2,
            "serve.request",
            "POST /cells",
            1,
            5,
            0,
        );
        let text = rec.to_ndjson();
        let v = Value::parse(text.trim()).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9));
        assert_eq!(v.get("parent").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("end_micros").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("label").and_then(Value::as_str), Some("POST /cells"));
    }

    #[test]
    fn interner_reuses_indices() {
        let rec = FlightRecorder::with_capacity(4);
        for _ in 0..3 {
            rec.record(RecordKind::Event, 0, 0, "same", "lbl", 0, 0, 0);
        }
        assert_eq!(rec.interner.lock().unwrap().names.len(), 3); // "", "same", "lbl"
    }
}
