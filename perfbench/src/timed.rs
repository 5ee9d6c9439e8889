//! A [`StoreBackend`] wrapper that records one ledger span per store and
//! journal call, and a [`SweepObserver`] that records the runner's hooks.
//! Both only record while [`crate::ledger::recording`] is on.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pp_sweep::backend::{BackendStats, GcOutcome, JournalSink, StoreBackend};
use pp_sweep::journal::JournalState;
use pp_sweep::observer::SweepObserver;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::{CellResult, ResultStore, TrialRecord};

use crate::ledger;

/// Times every call into the wrapped backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StoreBackend>,
}

impl TimedBackend {
    /// A result store whose backend calls are recorded as spans.
    pub fn store(inner: Arc<dyn StoreBackend>) -> ResultStore {
        ResultStore::with_backend(Arc::new(TimedBackend { inner }))
    }
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    ledger::record(name, t0, Instant::now());
    out
}

impl StoreBackend for TimedBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn location(&self) -> String {
        self.inner.location()
    }

    fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        timed("store.load", || self.inner.load(spec))
    }

    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        timed("store.save", || self.inner.save(spec, records))
    }

    fn journal_state(&self, spec: &CellSpec) -> JournalState {
        timed("journal.recover", || self.inner.journal_state(spec))
    }

    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        let inner = timed("journal.open", || self.inner.journal_sink(spec))?;
        Ok(Box::new(TimedSink { inner }))
    }

    fn has_journal(&self, spec: &CellSpec) -> bool {
        self.inner.has_journal(spec)
    }

    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome> {
        self.inner.gc(live_stems)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn fs_dir(&self) -> Option<&Path> {
        self.inner.fs_dir()
    }
}

struct TimedSink {
    inner: Box<dyn JournalSink>,
}

impl JournalSink for TimedSink {
    fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        timed("journal.append", || self.inner.append(record))
    }
}

/// Records the sweep runner's cell and trial hooks as point events.
pub struct HookRecorder;

impl SweepObserver for HookRecorder {
    fn cell_started(&self, _spec: &CellSpec, _already_done: usize) {
        ledger::point("cell.started");
    }

    fn trial_finished(&self, _spec: &CellSpec, _censored: bool) {
        ledger::point("trial.finished");
    }

    fn cell_finished(&self, _spec: &CellSpec, _cache_hit: bool, _recovered: usize) {
        ledger::point("cell.finished");
    }
}
