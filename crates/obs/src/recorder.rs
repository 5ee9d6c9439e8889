//! The flight recorder: a fixed-size ring of recent records behind one
//! mutex.
//!
//! A write locks the ring once; when the ring is full it drops the oldest
//! record, then pushes its own. A snapshot locks once and copies the ring,
//! oldest first. The ring therefore always holds the most recent
//! `capacity` records, which is exactly the "what just happened" evidence
//! wanted after a panic or SIGTERM.

use pp_telemetry::json::Value;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// Stable wire name used in the NDJSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::SpanOpen => "span_open",
            RecordKind::SpanClose => "span",
        }
    }
}

/// One record, as returned by [`FlightRecorder::snapshot`].
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
    /// Record name, e.g. `serve.request`.
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

/// One ring entry: a [`Record`] without its `seq`, which the slot's
/// position gives, and with its name borrowed instead of owned.
struct Slot {
    kind: RecordKind,
    id: u64,
    parent: u64,
    name: &'static str,
    label: Box<str>,
    start_micros: u64,
    end_micros: u64,
    value: u64,
}

/// What the lock guards: `slots` holds writes `written - len .. written`,
/// oldest first.
struct Ring {
    slots: VecDeque<Slot>,
    written: u64,
}

/// A fixed-size ring of the most recent [`Record`]s, behind one mutex.
///
/// Its memory is bounded by its capacity: a slot borrows its static name
/// and owns its label. The process-wide instance ([`recorder`]) holds
/// 4096 records.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("written", &self.written())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records.
    ///
    /// # Panics
    /// If `capacity` is 0: a ring needs at least one slot.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "a flight recorder needs at least one slot");
        FlightRecorder {
            capacity,
            // Preallocated: a deque grown by doubling would hold a
            // half-size copy at the moment it fills.
            ring: Mutex::new(Ring {
                slots: VecDeque::with_capacity(capacity),
                written: 0,
            }),
        }
    }

    /// The ring, even after a panic under the lock: no writer panics
    /// while it holds the lock, so the ring is whole, and the panic hook
    /// must still be able to dump it.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever written (not capped by capacity).
    pub fn written(&self) -> u64 {
        self.lock().written
    }

    /// Write one record, dropping the oldest when the ring is full.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: RecordKind,
        id: u64,
        parent: u64,
        name: &'static str,
        label: &str,
        start_micros: u64,
        end_micros: u64,
        value: u64,
    ) {
        let slot = Slot {
            kind,
            id,
            parent,
            name,
            label: label.into(),
            start_micros,
            end_micros,
            value,
        };
        let mut ring = self.lock();
        if ring.slots.len() == self.capacity {
            ring.slots.pop_front();
        }
        ring.slots.push_back(slot);
        ring.written += 1;
    }

    /// Every record in the ring, oldest first.
    ///
    /// Non-destructive: the ring keeps recording.
    pub fn snapshot(&self) -> Vec<Record> {
        let ring = self.lock();
        let first = ring.written - ring.slots.len() as u64;
        ring.slots
            .iter()
            .zip(first..)
            .map(|(slot, seq)| Record {
                seq,
                kind: slot.kind,
                id: slot.id,
                parent: slot.parent,
                name: slot.name.to_string(),
                label: slot.label.to_string(),
                start_micros: slot.start_micros,
                end_micros: slot.end_micros,
                value: slot.value,
            })
            .collect()
    }

    /// The snapshot as NDJSON (one record per line, trailing newline;
    /// empty string when the ring is empty).
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

/// The process-wide recorder, holding the last 4096 records.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(4096))
}

static DUMP_OVERRIDE: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Programmatic override for [`default_dump_path`] — how a binary's
/// `--flight-dump PATH` flag takes effect without mutating the process
/// environment. First caller wins; later calls are no-ops.
pub fn set_dump_path(path: impl Into<std::path::PathBuf>) {
    let _ = DUMP_OVERRIDE.set(path.into());
}

/// Where panic/SIGTERM dumps land: [`set_dump_path`]'s override if any,
/// else `pp-flight-<pid>.ndjson` in the temp dir.
pub fn default_dump_path() -> std::path::PathBuf {
    match DUMP_OVERRIDE.get() {
        Some(p) => p.clone(),
        None => std::env::temp_dir().join(format!("pp-flight-{}.ndjson", std::process::id())),
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

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        FlightRecorder::with_capacity(0);
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

    /// Labels are owned by their slots, so each survives exactly as long
    /// as its record stays in the ring.
    #[test]
    fn distinct_labels_survive_wraparound() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..12u64 {
            let label = format!("cell-{i}");
            rec.record(RecordKind::SpanOpen, i + 1, 0, "cell", &label, i, i, 0);
        }
        let labels: Vec<String> = rec.snapshot().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["cell-8", "cell-9", "cell-10", "cell-11"]);
    }

    #[test]
    fn a_poisoned_lock_still_records_snapshots_and_renders() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(RecordKind::Event, 0, 0, "before", "", 1, 1, 1);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _ring = rec.lock();
                    panic!("deliberate panic under the ring's lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(rec.ring.is_poisoned());
        rec.record(RecordKind::Event, 0, 0, "after", "x", 2, 2, 2);
        let snap = rec.snapshot();
        assert_eq!(
            snap.iter()
                .map(|r| (r.seq, r.name.as_str()))
                .collect::<Vec<_>>(),
            vec![(0, "before"), (1, "after")]
        );
        assert_eq!(rec.written(), 2);
        let text = rec.to_ndjson();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            Value::parse(line).unwrap();
        }
    }
}
