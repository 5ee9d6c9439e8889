//! Pluggable store backends: where content-addressed cells live.
//!
//! The [`StoreBackend`] trait is the persistence seam under
//! [`ResultStore`](crate::store::ResultStore). All three implementations
//! persist the *same* canonical cell document ([`encode_cell_doc`]) and
//! verify loads against the requesting spec's canonical key, so cells
//! are byte-portable between backends and a hash collision can never
//! serve the wrong cell.
//!
//! * [`FsBackend`] — one `<stem>.json` per cell plus a `<stem>.jsonl`
//!   crash journal, exactly the pre-trait layout: existing stores keep
//!   working and existing content hashes stay valid bit for bit.
//! * [`MemBackend`] — a mutex-guarded map. Journals are in-memory too,
//!   so checkpoint/resume semantics hold *within* a process (which is
//!   what the tests and an ephemeral `pp-serve` need) but nothing
//!   survives it.
//! * [`LogBackend`] — one append-only log file holding cell documents
//!   and journal trials as framed JSONL lines, an in-memory index of
//!   live cells, and copy-forward compaction once dead bytes dominate.
//!   One open handle owns the file; concurrent *processes* must not
//!   share a log.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pp_engine::seeds::fnv1a64;

use crate::journal::{self, JournalState, JournalWriter};
use crate::json::Value;
use crate::spec::CellSpec;
use crate::store::{decode_cell_doc, encode_cell_doc, CellResult, TrialRecord};

/// Append side of a cell's crash journal: each record lands durably (to
/// the backend's standard) before `append` returns.
pub trait JournalSink: Send + Sync {
    /// Append one finished trial.
    fn append(&self, record: &TrialRecord) -> std::io::Result<()>;
}

impl JournalSink for JournalWriter {
    fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        JournalWriter::append(self, record)
    }
}

/// What a garbage collection did.
#[derive(Clone, Debug, Default)]
pub struct GcOutcome {
    /// Human-readable lines describing each reclaimed item.
    pub removed: Vec<String>,
    /// Items kept (live cells; for `fs`, live files).
    pub kept: usize,
}

/// Cheap backend statistics for `pp-sweep status` / `pp-serve /stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendStats {
    /// Completed cells currently addressable.
    pub cells: u64,
    /// Cells with an in-progress journal.
    pub journals: u64,
    /// Total bytes held (file sizes; log length; encoded size for mem).
    pub bytes: u64,
    /// Of those, bytes still addressable.
    pub live_bytes: u64,
    /// Of those, bytes awaiting compaction (log backend only).
    pub dead_bytes: u64,
}

impl BackendStats {
    /// One compact console line, e.g.
    /// `12 cells, 0 journals, 34567 bytes (100% live)`.
    pub fn summary(&self) -> String {
        let live_pct = (self.live_bytes * 100)
            .checked_div(self.bytes)
            .unwrap_or(100);
        format!(
            "{} cells, {} journals, {} bytes ({}% live)",
            self.cells, self.journals, self.bytes, live_pct
        )
    }
}

/// A persistence backend for completed cells and their crash journals.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Short kind tag: `fs`, `mem`, or `log`.
    fn kind(&self) -> &'static str;
    /// Human-readable location for console output.
    fn location(&self) -> String;
    /// Load a completed cell; `None` on miss or corruption.
    fn load(&self, spec: &CellSpec) -> Option<CellResult>;
    /// Persist a completed cell (validated by the caller) and drop its
    /// journal.
    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult>;
    /// Recover a cell's journal (empty state if none).
    fn journal_state(&self, spec: &CellSpec) -> JournalState;
    /// Open an append sink for a cell's journal.
    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>>;
    /// Whether the cell has an in-progress journal.
    fn has_journal(&self, spec: &CellSpec) -> bool;
    /// Drop everything not addressed by a live stem; see
    /// [`ResultStore::gc`](crate::store::ResultStore::gc).
    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome>;
    /// Current statistics.
    fn stats(&self) -> BackendStats;
    /// Flush buffered state (graceful-shutdown hook).
    fn flush(&self) -> std::io::Result<()>;
    /// The backing directory, for directory-backed stores.
    fn fs_dir(&self) -> Option<&Path> {
        None
    }
}

// ---------------------------------------------------------------------
// FsBackend — the historical one-file-per-cell layout.
// ---------------------------------------------------------------------

/// File store: `<dir>/<stem>.json` per cell, `<dir>/<stem>.jsonl`
/// journals. Saves are atomic (temp file + rename), so a crash can lose
/// at most an in-progress cell — never corrupt a completed one.
#[derive(Debug)]
pub struct FsBackend {
    dir: PathBuf,
}

impl FsBackend {
    /// Backend rooted at `dir` (created lazily on first save).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        FsBackend { dir: dir.into() }
    }

    fn result_path(&self, spec: &CellSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.file_stem()))
    }

    fn journal_path(&self, spec: &CellSpec) -> PathBuf {
        self.dir.join(format!("{}.jsonl", spec.file_stem()))
    }

    /// All files currently in the store directory (results, journals,
    /// leftover temp files) — the garbage collector's view.
    pub fn existing_files(&self) -> std::io::Result<Vec<PathBuf>> {
        match std::fs::read_dir(&self.dir) {
            Ok(entries) => {
                let mut out: Vec<PathBuf> = entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.is_file())
                    .collect();
                out.sort();
                Ok(out)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }
}

impl StoreBackend for FsBackend {
    fn kind(&self) -> &'static str {
        "fs"
    }

    fn location(&self) -> String {
        self.dir.display().to_string()
    }

    fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        let text = std::fs::read_to_string(self.result_path(spec)).ok()?;
        let records = decode_cell_doc(spec, &text)?;
        Some(CellResult {
            spec: spec.clone(),
            records,
        })
    }

    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.result_path(spec);
        let tmp = self.dir.join(format!("{}.json.tmp", spec.file_stem()));
        std::fs::write(&tmp, encode_cell_doc(spec, &records))?;
        std::fs::rename(&tmp, &path)?;
        let _ = std::fs::remove_file(self.journal_path(spec));
        Ok(CellResult {
            spec: spec.clone(),
            records,
        })
    }

    fn journal_state(&self, spec: &CellSpec) -> JournalState {
        journal::load(&self.journal_path(spec))
    }

    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        Ok(Box::new(JournalWriter::open(self.journal_path(spec))?))
    }

    fn has_journal(&self, spec: &CellSpec) -> bool {
        self.journal_path(spec).exists()
    }

    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome> {
        // Everything a live stem can address is live: the result, its
        // journal, its trace. The default metrics export lives in the
        // store directory too and is never garbage.
        let mut live: HashSet<String> = HashSet::new();
        live.insert("metrics.jsonl".to_string());
        for stem in live_stems {
            live.insert(format!("{stem}.json"));
            live.insert(format!("{stem}.jsonl"));
            live.insert(format!("{stem}.trace"));
        }
        let mut out = GcOutcome::default();
        for f in self.existing_files()? {
            let name = f
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if live.contains(&name) {
                out.kept += 1;
            } else {
                std::fs::remove_file(&f)?;
                out.removed.push(f.display().to_string());
            }
        }
        Ok(out)
    }

    fn stats(&self) -> BackendStats {
        let mut s = BackendStats::default();
        for f in self.existing_files().unwrap_or_default() {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            s.bytes += len;
            s.live_bytes += len;
            match f.extension().and_then(|e| e.to_str()) {
                Some("json") => s.cells += 1,
                Some("jsonl") if f.file_name().is_some_and(|n| n != "metrics.jsonl") => {
                    s.journals += 1
                }
                _ => {}
            }
        }
        s
    }

    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }

    fn fs_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

// ---------------------------------------------------------------------
// MemBackend — ephemeral, for tests and in-memory serving.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemState {
    /// Completed cells by content hash, with their encoded size.
    cells: HashMap<u64, (CellResult, u64)>,
    /// In-progress journals by content hash.
    journals: HashMap<u64, BTreeMap<u64, TrialRecord>>,
}

/// In-memory store: a mutex-guarded map of completed cells plus
/// in-process journals. Resume-after-`kill_after` works within the
/// process; nothing survives it.
#[derive(Debug, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// A fresh, empty store.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

struct MemSink {
    state: Arc<Mutex<MemState>>,
    hash: u64,
}

impl JournalSink for MemSink {
    fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.journals
            .entry(self.hash)
            .or_default()
            .entry(record.trial)
            .or_insert_with(|| record.clone());
        Ok(())
    }
}

impl StoreBackend for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn location(&self) -> String {
        "(in-memory)".to_string()
    }

    fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        let st = self.state.lock().unwrap();
        let (res, _) = st.cells.get(&spec.content_hash())?;
        // Hash-collision guard, same contract as the key check on disk.
        if res.spec != *spec {
            return None;
        }
        Some(res.clone())
    }

    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        let bytes = encode_cell_doc(spec, &records).len() as u64;
        let result = CellResult {
            spec: spec.clone(),
            records,
        };
        let mut st = self.state.lock().unwrap();
        let h = spec.content_hash();
        st.cells.insert(h, (result.clone(), bytes));
        st.journals.remove(&h);
        Ok(result)
    }

    fn journal_state(&self, spec: &CellSpec) -> JournalState {
        let st = self.state.lock().unwrap();
        JournalState {
            records: st
                .journals
                .get(&spec.content_hash())
                .cloned()
                .unwrap_or_default(),
            discarded_lines: 0,
        }
    }

    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        Ok(Box::new(MemSink {
            state: Arc::clone(&self.state),
            hash: spec.content_hash(),
        }))
    }

    fn has_journal(&self, spec: &CellSpec) -> bool {
        self.state
            .lock()
            .unwrap()
            .journals
            .contains_key(&spec.content_hash())
    }

    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome> {
        let mut st = self.state.lock().unwrap();
        let mut out = GcOutcome::default();
        st.cells.retain(|_, (res, _)| {
            if live_stems.contains(&res.spec.file_stem()) {
                true
            } else {
                out.removed.push(format!("cell {}", res.spec.file_stem()));
                false
            }
        });
        out.kept = st.cells.len();
        st.journals.clear();
        Ok(out)
    }

    fn stats(&self) -> BackendStats {
        let st = self.state.lock().unwrap();
        let bytes: u64 = st.cells.values().map(|(_, b)| b).sum();
        BackendStats {
            cells: st.cells.len() as u64,
            journals: st.journals.len() as u64,
            bytes,
            live_bytes: bytes,
            dead_bytes: 0,
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LogBackend — append-only log + in-memory index + compaction.
// ---------------------------------------------------------------------

/// Dead bytes tolerated before a save triggers compaction (and dead
/// bytes must also outweigh live bytes — classic LSM-ish rule, so a
/// huge mostly-live log is not rewritten for a few stale lines).
const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    offset: u64,
    len: u64, // line length including the trailing newline
}

#[derive(Debug, Default)]
struct LogJournal {
    key: String,
    stem: String,
    records: BTreeMap<u64, TrialRecord>,
    bytes: u64,
}

#[derive(Debug)]
struct LogState {
    file: std::fs::File, // append handle
    index: HashMap<u64, (IndexEntry, String)>,
    journals: HashMap<u64, LogJournal>,
    tail: u64,
    dead_bytes: u64,
    compactions: u64,
}

/// Append-only log store: every completed cell is one framed line
/// (`{"t":"cell","key":…,"stem":…,"trials":[…]}`), every journaled trial
/// one `{"t":"trial",…}` line. An in-memory index maps content hashes to
/// byte ranges; loads seek and re-verify the key. Superseded lines
/// (re-saved cells, sealed journals) become dead bytes; once they exceed
/// both a threshold and the live mass, the log is compacted by copying
/// live lines to a fresh file and atomically renaming it into place.
#[derive(Debug)]
pub struct LogBackend {
    path: PathBuf,
    state: Arc<Mutex<LogState>>,
    compact_threshold: u64,
}

impl LogBackend {
    /// Open (or create) the log at `path`, recovering the index by a
    /// full scan. A torn tail (crash mid-append) is truncated away, the
    /// same contract as the per-cell journals.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        LogBackend::open_with_threshold(path, DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`LogBackend::open`] with an explicit compaction threshold
    /// (tests use a tiny one to force compactions).
    pub fn open_with_threshold(
        path: impl Into<PathBuf>,
        compact_threshold: u64,
    ) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut index: HashMap<u64, (IndexEntry, String)> = HashMap::new();
        let mut journals: HashMap<u64, LogJournal> = HashMap::new();
        let mut dead_bytes = 0u64;
        let mut good_end = 0u64;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut offset = 0u64;
        for line in text.split_inclusive('\n') {
            let len = line.len() as u64;
            let complete = line.ends_with('\n');
            let parsed = if complete {
                Value::parse(line.trim_end()).ok()
            } else {
                None // torn tail: no newline means the append died mid-line
            };
            let Some(v) = parsed else { break };
            match Self::apply_line(&v, offset, len, &mut index, &mut journals) {
                Some(reclaimed) => dead_bytes += reclaimed,
                None => break, // structurally foreign line: stop trusting the tail
            }
            offset += len;
            good_end = offset;
        }
        if good_end < text.len() as u64 {
            // Drop the torn/foreign tail so future offsets stay aligned.
            let f = std::fs::OpenOptions::new().write(true).open(&path);
            if let Ok(f) = f {
                f.set_len(good_end)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(LogBackend {
            path,
            state: Arc::new(Mutex::new(LogState {
                file,
                index,
                journals,
                tail: good_end,
                dead_bytes,
                compactions: 0,
            })),
            compact_threshold,
        })
    }

    /// Fold one parsed log line into the recovery state; returns the
    /// bytes it made dead (superseded lines), or `None` if the line is
    /// not a recognised frame.
    fn apply_line(
        v: &Value,
        offset: u64,
        len: u64,
        index: &mut HashMap<u64, (IndexEntry, String)>,
        journals: &mut HashMap<u64, LogJournal>,
    ) -> Option<u64> {
        let key = v.get("key")?.as_str()?;
        let stem = v.get("stem")?.as_str()?.to_string();
        let h = fnv1a64(key.as_bytes());
        let mut dead = 0u64;
        match v.get("t")?.as_str()? {
            "cell" => {
                v.get("trials")?.as_arr()?; // shape check only
                if let Some((old, _)) = index.insert(h, (IndexEntry { offset, len }, stem)) {
                    dead += old.len;
                }
                if let Some(j) = journals.remove(&h) {
                    dead += j.bytes;
                }
            }
            "trial" => {
                let rec = TrialRecord::from_json(v.get("rec")?)?;
                if index.contains_key(&h) {
                    dead += len; // trial for an already-sealed cell
                } else {
                    let j = journals.entry(h).or_default();
                    j.key = key.to_string();
                    j.stem = stem;
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        j.records.entry(rec.trial)
                    {
                        e.insert(rec);
                        j.bytes += len;
                    } else {
                        dead += len; // duplicate: first occurrence wins
                    }
                }
            }
            _ => return None,
        }
        Some(dead)
    }

    fn cell_line(spec: &CellSpec, records: &[TrialRecord]) -> String {
        let mut line = Value::obj([
            ("t", Value::Str("cell".into())),
            ("key", Value::Str(spec.canonical_key())),
            ("stem", Value::Str(spec.file_stem())),
            (
                "trials",
                Value::Arr(records.iter().map(TrialRecord::to_json).collect()),
            ),
        ])
        .encode();
        line.push('\n');
        line
    }

    fn trial_line(spec: &CellSpec, record: &TrialRecord) -> String {
        let mut line = Value::obj([
            ("t", Value::Str("trial".into())),
            ("key", Value::Str(spec.canonical_key())),
            ("stem", Value::Str(spec.file_stem())),
            ("rec", record.to_json()),
        ])
        .encode();
        line.push('\n');
        line
    }

    fn append_line(st: &mut LogState, line: &str) -> std::io::Result<IndexEntry> {
        st.file.write_all(line.as_bytes())?;
        st.file.flush()?;
        let entry = IndexEntry {
            offset: st.tail,
            len: line.len() as u64,
        };
        st.tail += entry.len;
        Ok(entry)
    }

    /// Copy every live line to a fresh log, atomically replace the old
    /// one, and rebuild the index. Called with the state lock held.
    fn compact_locked(&self, st: &mut LogState) -> std::io::Result<()> {
        let tmp = self.path.with_extension("log.compact");
        let mut reader = std::fs::File::open(&self.path)?;
        {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            // Deterministic order: live cells by stem (ties by hash),
            // then journals by stem.
            let mut cells: Vec<(&u64, &(IndexEntry, String))> = st.index.iter().collect();
            cells.sort_by(|a, b| (&a.1 .1, a.0).cmp(&(&b.1 .1, b.0)));
            let mut new_offset = 0u64;
            let mut new_index: HashMap<u64, (IndexEntry, String)> = HashMap::new();
            for (h, (entry, stem)) in cells {
                let mut buf = vec![0u8; entry.len as usize];
                reader.seek(std::io::SeekFrom::Start(entry.offset))?;
                reader.read_exact(&mut buf)?;
                out.write_all(&buf)?;
                new_index.insert(
                    *h,
                    (
                        IndexEntry {
                            offset: new_offset,
                            len: entry.len,
                        },
                        stem.clone(),
                    ),
                );
                new_offset += entry.len;
            }
            let mut jhashes: Vec<u64> = st.journals.keys().copied().collect();
            jhashes.sort_by_key(|h| (st.journals[h].stem.clone(), *h));
            for h in jhashes {
                let j = st.journals.get_mut(&h).unwrap();
                let mut bytes = 0u64;
                for rec in j.records.values() {
                    let mut line = Value::obj([
                        ("t", Value::Str("trial".into())),
                        ("key", Value::Str(j.key.clone())),
                        ("stem", Value::Str(j.stem.clone())),
                        ("rec", rec.to_json()),
                    ])
                    .encode();
                    line.push('\n');
                    out.write_all(line.as_bytes())?;
                    bytes += line.len() as u64;
                }
                j.bytes = bytes;
                new_offset += bytes;
            }
            out.flush()?;
            st.index = new_index;
            st.tail = new_offset;
        }
        std::fs::rename(&tmp, &self.path)?;
        st.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        st.dead_bytes = 0;
        st.compactions += 1;
        Ok(())
    }

    fn maybe_compact(&self, st: &mut LogState) -> std::io::Result<()> {
        let live = st.tail.saturating_sub(st.dead_bytes);
        if st.dead_bytes >= self.compact_threshold && st.dead_bytes >= live {
            self.compact_locked(st)?;
        }
        Ok(())
    }

    /// Compactions performed since open (observability + tests).
    pub fn compactions(&self) -> u64 {
        self.state.lock().unwrap().compactions
    }
}

struct LogSink {
    state: Arc<Mutex<LogState>>,
    spec: CellSpec,
}

impl JournalSink for LogSink {
    fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        let line = LogBackend::trial_line(&self.spec, record);
        let h = self.spec.content_hash();
        let mut st = self.state.lock().unwrap();
        let entry = LogBackend::append_line(&mut st, &line)?;
        let duplicate = st
            .journals
            .get(&h)
            .is_some_and(|j| j.records.contains_key(&record.trial));
        if duplicate {
            st.dead_bytes += entry.len;
        } else {
            let j = st.journals.entry(h).or_default();
            j.key = self.spec.canonical_key();
            j.stem = self.spec.file_stem();
            j.records.insert(record.trial, record.clone());
            j.bytes += entry.len;
        }
        Ok(())
    }
}

impl StoreBackend for LogBackend {
    fn kind(&self) -> &'static str {
        "log"
    }

    fn location(&self) -> String {
        self.path.display().to_string()
    }

    fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        let st = self.state.lock().unwrap();
        let (entry, _) = st.index.get(&spec.content_hash())?;
        let mut buf = vec![0u8; entry.len as usize];
        let mut reader = std::fs::File::open(&self.path).ok()?;
        reader.seek(std::io::SeekFrom::Start(entry.offset)).ok()?;
        reader.read_exact(&mut buf).ok()?;
        drop(st);
        let line = String::from_utf8(buf).ok()?;
        let v = Value::parse(line.trim_end()).ok()?;
        // Re-encode the embedded document and reuse the canonical
        // decoder so the key/shape verification is identical to fs.
        let doc = Value::obj([
            ("key", v.get("key")?.clone()),
            ("trials", v.get("trials")?.clone()),
        ]);
        let records = decode_cell_doc(spec, &doc.encode())?;
        Some(CellResult {
            spec: spec.clone(),
            records,
        })
    }

    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        let line = LogBackend::cell_line(spec, &records);
        let h = spec.content_hash();
        let mut st = self.state.lock().unwrap();
        let entry = LogBackend::append_line(&mut st, &line)?;
        if let Some((old, _)) = st.index.insert(h, (entry, spec.file_stem())) {
            st.dead_bytes += old.len;
        }
        if let Some(j) = st.journals.remove(&h) {
            st.dead_bytes += j.bytes;
        }
        self.maybe_compact(&mut st)?;
        Ok(CellResult {
            spec: spec.clone(),
            records,
        })
    }

    fn journal_state(&self, spec: &CellSpec) -> JournalState {
        let st = self.state.lock().unwrap();
        JournalState {
            records: st
                .journals
                .get(&spec.content_hash())
                .map(|j| j.records.clone())
                .unwrap_or_default(),
            discarded_lines: 0,
        }
    }

    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        Ok(Box::new(LogSink {
            state: Arc::clone(&self.state),
            spec: spec.clone(),
        }))
    }

    fn has_journal(&self, spec: &CellSpec) -> bool {
        self.state
            .lock()
            .unwrap()
            .journals
            .contains_key(&spec.content_hash())
    }

    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome> {
        let mut st = self.state.lock().unwrap();
        let mut out = GcOutcome::default();
        let mut dead = 0u64;
        st.index.retain(|_, (entry, stem)| {
            if live_stems.contains(stem) {
                true
            } else {
                out.removed.push(format!("cell {stem}"));
                dead += entry.len;
                false
            }
        });
        st.journals.retain(|_, j| {
            if live_stems.contains(&j.stem) {
                true
            } else {
                out.removed.push(format!("journal {}", j.stem));
                dead += j.bytes;
                false
            }
        });
        st.dead_bytes += dead;
        // gc always compacts: reclaiming the bytes *is* the deletion.
        self.compact_locked(&mut st)?;
        out.kept = st.index.len();
        Ok(out)
    }

    fn stats(&self) -> BackendStats {
        let st = self.state.lock().unwrap();
        let cell_bytes: u64 = st.index.values().map(|(e, _)| e.len).sum();
        let journal_bytes: u64 = st.journals.values().map(|j| j.bytes).sum();
        BackendStats {
            cells: st.index.len() as u64,
            journals: st.journals.len() as u64,
            bytes: st.tail,
            live_bytes: cell_bytes + journal_bytes,
            dead_bytes: st.dead_bytes,
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        self.state.lock().unwrap().file.sync_all()
    }
}
