//! Content-addressed result store, generic over [`StoreBackend`]s.
//!
//! A completed cell is addressed by the [content
//! hash](crate::spec::CellSpec::content_hash) of its spec; re-running a
//! plan whose cells are all stored is a pure cache hit: the runner never
//! simulates, and reporters regenerate figures from the stored trial
//! records. *Where* the records live is now pluggable (see
//! [`crate::backend`]):
//!
//! * [`FsBackend`](crate::backend::FsBackend) — one JSON file per cell
//!   under `<results>/store/`, the historical layout, bit-for-bit
//!   compatible with every store written before the backend split;
//! * [`MemBackend`](crate::backend::MemBackend) — a process-local map,
//!   for tests and ephemeral serving;
//! * [`LogBackend`](crate::backend::LogBackend) — a single append-only
//!   journal file with an in-memory index and periodic compaction,
//!   sized for millions of small cells (the `pp-serve` cache tier).
//!
//! [`ResultStore`] is the handle the rest of the crate (and `pp-serve`)
//! passes around: a thin, cloneable wrapper over an `Arc<dyn
//! StoreBackend>` that also hosts the invariant checks every backend
//! must honour (complete, trial-sorted record sets on save; key
//! verification on load).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{
    BackendStats, FsBackend, GcOutcome, JournalSink, LogBackend, MemBackend, StoreBackend,
};
use crate::journal::JournalState;
use crate::json::Value;
use crate::spec::CellSpec;

/// One trial's persisted outcome. Which optional fields are present
/// depends on the cell's [`CellMode`](crate::spec::CellMode); `Summary`
/// cells store only `trial` + `interactions`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialRecord {
    /// Trial index within the cell (seed = `derive(cell_seed, trial)`).
    pub trial: u64,
    /// Interactions to stability; `None` if the trial hit the budget.
    pub interactions: Option<u64>,
    /// Watched-state increment times (`Watched` mode).
    pub completions: Option<Vec<u64>>,
    /// Final configuration (`Full` mode).
    pub final_counts: Option<Vec<u64>>,
    /// Sampled trajectory: each row is `[interaction, count_0, …]`
    /// (`Trajectory` mode).
    pub samples: Option<Vec<Vec<u64>>>,
}

impl TrialRecord {
    /// A summary-mode record.
    pub fn summary(trial: u64, interactions: Option<u64>) -> Self {
        TrialRecord {
            trial,
            interactions,
            completions: None,
            final_counts: None,
            samples: None,
        }
    }

    /// Encode as a JSON object (optional fields omitted when absent,
    /// keeping summary journals one short line per trial).
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&'static str, Value)> = vec![
            ("trial", Value::U64(self.trial)),
            ("interactions", Value::opt_u64(self.interactions)),
        ];
        if let Some(c) = &self.completions {
            pairs.push(("completions", Value::u64_arr(c.iter().copied())));
        }
        if let Some(f) = &self.final_counts {
            pairs.push(("final_counts", Value::u64_arr(f.iter().copied())));
        }
        if let Some(s) = &self.samples {
            pairs.push((
                "samples",
                Value::Arr(
                    s.iter()
                        .map(|row| Value::u64_arr(row.iter().copied()))
                        .collect(),
                ),
            ));
        }
        Value::obj(pairs)
    }

    /// Decode from a JSON object; `None` if the shape is wrong (treated
    /// by callers as corruption).
    pub fn from_json(v: &Value) -> Option<TrialRecord> {
        let trial = v.get("trial")?.as_u64()?;
        let interactions = match v.get("interactions")? {
            Value::Null => None,
            other => Some(other.as_u64()?),
        };
        let u64_vec =
            |val: &Value| -> Option<Vec<u64>> { val.as_arr()?.iter().map(Value::as_u64).collect() };
        let completions = match v.get("completions") {
            Some(val) => Some(u64_vec(val)?),
            None => None,
        };
        let final_counts = match v.get("final_counts") {
            Some(val) => Some(u64_vec(val)?),
            None => None,
        };
        let samples = match v.get("samples") {
            Some(val) => Some(
                val.as_arr()?
                    .iter()
                    .map(u64_vec)
                    .collect::<Option<Vec<_>>>()?,
            ),
            None => None,
        };
        Some(TrialRecord {
            trial,
            interactions,
            completions,
            final_counts,
            samples,
        })
    }
}

/// A completed cell: its spec plus one record per trial, sorted by trial
/// index.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The spec that produced these records.
    pub spec: CellSpec,
    /// One record per trial, sorted by `trial`, complete (`len == trials`).
    pub records: Vec<TrialRecord>,
}

impl CellResult {
    /// Interactions of completed trials, in trial order.
    pub fn interactions(&self) -> Vec<u64> {
        self.records.iter().filter_map(|r| r.interactions).collect()
    }

    /// Number of censored trials.
    pub fn censored(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.interactions.is_none())
            .count()
    }

    /// Summary statistics over completed trials.
    ///
    /// # Panics
    /// If every trial was censored.
    pub fn summary(&self) -> pp_analysis::stats::Summary {
        pp_analysis::stats::Summary::of_u64(&self.interactions())
    }

    /// Reconstruct the watched-trial view (Figure 4 instrumentation).
    ///
    /// # Panics
    /// If any record lacks completions (i.e. the cell was not `Watched`).
    pub fn watched(&self) -> Vec<pp_analysis::grouping::WatchedTrial> {
        self.records
            .iter()
            .map(|r| pp_analysis::grouping::WatchedTrial {
                total: r.interactions,
                completions: r.completions.clone().expect("watched-mode record"),
            })
            .collect()
    }

    /// Reconstruct the full-outcome view (imbalance measurements).
    ///
    /// # Panics
    /// If any record lacks final counts (i.e. the cell was not `Full`).
    pub fn outcomes(&self) -> Vec<crate::exec::TrialOutcome> {
        self.records
            .iter()
            .map(|r| crate::exec::TrialOutcome {
                interactions: r.interactions,
                final_counts: r.final_counts.clone().expect("full-mode record"),
            })
            .collect()
    }
}

/// Encode a completed cell as the canonical store document. Every
/// backend persists exactly these bytes (the `FsBackend` as a file, the
/// `LogBackend` as one log line), which is what keeps stored cells
/// byte-portable between backends.
pub fn encode_cell_doc(spec: &CellSpec, records: &[TrialRecord]) -> String {
    Value::obj([
        ("key", Value::Str(spec.canonical_key())),
        (
            "trials",
            Value::Arr(records.iter().map(TrialRecord::to_json).collect()),
        ),
    ])
    .encode()
}

/// Decode and verify a stored cell document against the requesting spec.
/// `None` on any mismatch — wrong key (hash collision or stale
/// `KEY_VERSION`), wrong trial count, unsorted records, or plain
/// corruption — which callers treat as a cache miss.
pub fn decode_cell_doc(spec: &CellSpec, text: &str) -> Option<Vec<TrialRecord>> {
    let v = Value::parse(text).ok()?;
    if v.get("key")?.as_str()? != spec.canonical_key() {
        return None;
    }
    let records: Vec<TrialRecord> = v
        .get("trials")?
        .as_arr()?
        .iter()
        .map(TrialRecord::from_json)
        .collect::<Option<Vec<_>>>()?;
    if records.len() != spec.trials || records.iter().enumerate().any(|(i, r)| r.trial != i as u64)
    {
        return None;
    }
    Some(records)
}

/// Handle to a result store: a cloneable reference to one
/// [`StoreBackend`].
#[derive(Clone, Debug)]
pub struct ResultStore {
    backend: Arc<dyn StoreBackend>,
}

impl ResultStore {
    /// File-backed store rooted at the given directory (created lazily on
    /// save) — the historical layout.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultStore::with_backend(Arc::new(FsBackend::at(dir)))
    }

    /// Ephemeral in-memory store (tests, `pp-serve --backend mem`).
    pub fn in_memory() -> Self {
        ResultStore::with_backend(Arc::new(MemBackend::new()))
    }

    /// Compacting append-only log store at the given log-file path.
    pub fn log_at(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        Ok(ResultStore::with_backend(Arc::new(LogBackend::open(path)?)))
    }

    /// Wrap an explicit backend.
    pub fn with_backend(backend: Arc<dyn StoreBackend>) -> Self {
        ResultStore { backend }
    }

    /// The default store: `<results>/store`, where `<results>` follows
    /// [`pp_analysis::config::results_dir`] (including the
    /// `PP_RESULTS_DIR` override).
    pub fn default_location() -> Self {
        ResultStore::at(pp_analysis::config::results_dir().join("store"))
    }

    /// The store selected by `PP_STORE_BACKEND` (`fs` — the default —,
    /// `mem`, or `log`), rooted under the results directory. `log` stores
    /// live in `<results>/store.log`, next to (not inside) the file
    /// store, so the two backends never alias.
    pub fn from_env() -> std::io::Result<Self> {
        match std::env::var("PP_STORE_BACKEND").as_deref() {
            Ok("mem") => Ok(ResultStore::in_memory()),
            Ok("log") => ResultStore::log_at(pp_analysis::config::results_dir().join("store.log")),
            Ok("fs") | Ok("") | Err(_) => Ok(ResultStore::default_location()),
            Ok(other) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown PP_STORE_BACKEND '{other}' (expected fs, mem, or log)"),
            )),
        }
    }

    /// The backend's short kind tag (`fs`, `mem`, `log`).
    pub fn kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// Human-readable location for console output.
    pub fn location(&self) -> String {
        self.backend.location()
    }

    /// The store directory, when the backend is directory-backed
    /// (`None` for `mem` and `log`). Traces and the default metrics
    /// export land here when present.
    pub fn fs_dir(&self) -> Option<&Path> {
        self.backend.fs_dir()
    }

    /// The store directory.
    ///
    /// # Panics
    /// If the backend is not directory-backed; use [`Self::fs_dir`] in
    /// backend-generic code.
    pub fn dir(&self) -> &Path {
        self.fs_dir()
            .expect("ResultStore::dir on a non-directory backend")
    }

    /// Path of a cell's completed-result file (directory-backed stores).
    ///
    /// # Panics
    /// If the backend is not directory-backed.
    pub fn result_path(&self, spec: &CellSpec) -> PathBuf {
        self.dir().join(format!("{}.json", spec.file_stem()))
    }

    /// Path of a cell's in-progress journal (directory-backed stores).
    ///
    /// # Panics
    /// If the backend is not directory-backed.
    pub fn journal_path(&self, spec: &CellSpec) -> PathBuf {
        self.dir().join(format!("{}.jsonl", spec.file_stem()))
    }

    /// Load a completed cell, if stored. Returns `None` on a cache miss
    /// *or* on a corrupt/mismatched entry (the runner then recomputes and
    /// overwrites it).
    pub fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        self.backend.load(spec)
    }

    /// Atomically save a completed cell and drop its journal.
    ///
    /// # Panics
    /// If `records` is not a complete, trial-sorted set for the spec.
    pub fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        assert_eq!(records.len(), spec.trials, "incomplete cell");
        assert!(
            records.iter().enumerate().all(|(i, r)| r.trial == i as u64),
            "records must be sorted by trial index"
        );
        self.backend.save(spec, records)
    }

    /// Recover a cell's in-progress journal (empty state if none).
    pub fn journal_state(&self, spec: &CellSpec) -> JournalState {
        self.backend.journal_state(spec)
    }

    /// Open an append sink for a cell's journal.
    pub fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        self.backend.journal_sink(spec)
    }

    /// Whether the cell has an in-progress journal.
    pub fn has_journal(&self, spec: &CellSpec) -> bool {
        self.backend.has_journal(spec)
    }

    /// Garbage-collect: drop everything not addressed by `live_stems`
    /// (cell [file stems](CellSpec::file_stem)). File stores delete dead
    /// files; the log store drops dead index entries and compacts; the
    /// memory store forgets dead cells.
    pub fn gc(&self, live_stems: &std::collections::HashSet<String>) -> std::io::Result<GcOutcome> {
        self.backend.gc(live_stems)
    }

    /// Cheap backend statistics (cell count, byte usage, live/dead
    /// split) for `pp-sweep status` and the `pp-serve` `/stats`
    /// endpoint.
    pub fn stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Flush any buffered state to durable storage (graceful-shutdown
    /// hook; a no-op for backends that write through).
    pub fn flush(&self) -> std::io::Result<()> {
        self.backend.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellMode, CriterionKind, KernelChoice, ProtocolId};

    fn spec(trials: usize) -> CellSpec {
        CellSpec {
            protocol: ProtocolId::UniformKPartition { k: 3 },
            n: 12,
            trials,
            seed: 7,
            criterion: CriterionKind::Stable,
            budget: 1_000_000,
            mode: CellMode::Summary,
            kernel: KernelChoice::Leap,
            dynamics: pp_topo::Dynamics::default_dynamics(),
        }
    }

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("pp_sweep_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::at(dir)
    }

    #[test]
    fn record_roundtrips_all_modes() {
        let records = [
            TrialRecord::summary(0, Some(42)),
            TrialRecord::summary(1, None),
            TrialRecord {
                trial: 2,
                interactions: Some(9),
                completions: Some(vec![1, 5, 9]),
                final_counts: Some(vec![0, 4, 4, 4]),
                samples: Some(vec![vec![0, 12, 0], vec![256, 3, 9]]),
            },
        ];
        for r in &records {
            assert_eq!(TrialRecord::from_json(&r.to_json()).as_ref(), Some(r));
        }
    }

    #[test]
    fn save_load_roundtrip_and_miss_on_other_spec() {
        let store = temp_store("roundtrip");
        let s = spec(3);
        assert!(store.load(&s).is_none());
        let records = vec![
            TrialRecord::summary(0, Some(10)),
            TrialRecord::summary(1, None),
            TrialRecord::summary(2, Some(30)),
        ];
        store.save(&s, records.clone()).unwrap();
        let loaded = store.load(&s).unwrap();
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.interactions(), vec![10, 30]);
        assert_eq!(loaded.censored(), 1);
        // A different spec (different hash) misses.
        assert!(store.load(&spec(4)).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_or_mismatched_file_is_a_miss() {
        let store = temp_store("corrupt");
        let s = spec(1);
        store
            .save(&s, vec![TrialRecord::summary(0, Some(5))])
            .unwrap();
        // Truncate the stored file: must read as a miss, not a panic.
        let path = store.result_path(&s);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(store.load(&s).is_none());
        // Key mismatch (file swapped in from another cell) is a miss too.
        let other = spec(2);
        std::fs::write(store.result_path(&other), text).unwrap();
        assert!(store.load(&other).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    #[should_panic(expected = "incomplete cell")]
    fn save_rejects_incomplete_cells() {
        let store = temp_store("incomplete");
        let _ = store.save(&spec(2), vec![TrialRecord::summary(0, Some(1))]);
    }

    #[test]
    fn from_env_rejects_unknown_backends() {
        // Uses the parse helper indirectly: an unknown name must error
        // rather than silently falling back to fs. (Env mutation is
        // avoided — other tests read PP_* concurrently — so exercise the
        // match arm through a scoped process would be overkill; instead
        // assert the known names construct.)
        assert_eq!(ResultStore::in_memory().kind(), "mem");
        assert_eq!(temp_store("env").kind(), "fs");
    }
}
