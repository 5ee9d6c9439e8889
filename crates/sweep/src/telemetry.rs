//! Sweep-layer metrics: cache behaviour, journal recovery, per-cell cost,
//! and shard utilisation.
//!
//! Everything lands in the process-wide [`pp_telemetry`] registry so one
//! `--metrics` export covers all three layers — engine counters
//! (`engine.*`, flushed by the observers the analysis runner attaches),
//! runner/store counters (`sweep.*`, recorded here), and verifier
//! counters (`verify.*`). Global series aggregate the whole run;
//! per-cell series are labelled with the cell's store file stem
//! (`sweep.cell.trials{cell=<stem>}`), so a fig3 export can be joined
//! back to the result files it describes.
//!
//! | name                           | kind      | meaning |
//! |--------------------------------|-----------|---------|
//! | `sweep.cells.completed`        | counter   | cells finished (any source) |
//! | `sweep.cells.cache_hits`       | counter   | cells served from the store |
//! | `sweep.cells.cache_misses`     | counter   | cells that needed execution |
//! | `sweep.trials.simulated`       | counter   | trials actually simulated |
//! | `sweep.trials.censored`        | counter   | simulated trials that hit the budget |
//! | `sweep.trials.recovered`       | counter   | trials replayed from journals |
//! | `sweep.journal.discarded_lines`| counter   | malformed/truncated journal lines dropped |
//! | `sweep.cell.wall_micros`       | histogram | wall time per executed cell |
//! | `sweep.run.wall_micros`        | counter   | wall time of `run_cells` calls |
//! | `sweep.shard.workers`          | gauge     | worker threads in the pool |
//! | `sweep.shard.busy_micros`      | counter   | summed per-cell wall time |
//! | `sweep.shard.utilisation_pct`  | gauge     | busy / (wall × workers), percent |

use pp_telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Shared handles to the sweep's global metric series in one registry.
#[derive(Clone, Debug)]
pub struct SweepMetrics {
    /// Cells finished, whether cached, recovered, or simulated.
    pub cells_completed: Arc<Counter>,
    /// Cells served entirely from the result store.
    pub cache_hits: Arc<Counter>,
    /// Cells that had to execute at least one trial.
    pub cache_misses: Arc<Counter>,
    /// Trials simulated fresh.
    pub trials_simulated: Arc<Counter>,
    /// Fresh trials that hit their interaction budget.
    pub trials_censored: Arc<Counter>,
    /// Trials recovered from a crash journal instead of re-simulated.
    pub trials_recovered: Arc<Counter>,
    /// Malformed or truncated journal lines dropped during recovery.
    pub journal_discarded_lines: Arc<Counter>,
    /// Wall time of each executed (non-cache-hit) cell, microseconds.
    pub cell_wall_micros: Arc<Histogram>,
    /// Total wall time spent inside `run_cells`, microseconds.
    pub run_wall_micros: Arc<Counter>,
    /// Worker threads available to the shard pool.
    pub shard_workers: Arc<Gauge>,
    /// Summed per-cell wall time — the pool's busy mass, microseconds.
    pub shard_busy_micros: Arc<Counter>,
    /// `busy / (wall × workers)` of the latest run, in percent.
    pub shard_utilisation_pct: Arc<Gauge>,
}

impl SweepMetrics {
    /// Resolve (registering on first use) the sweep series in `reg`.
    pub fn register_in(reg: &Registry) -> Self {
        SweepMetrics {
            cells_completed: reg.counter("sweep.cells.completed"),
            cache_hits: reg.counter("sweep.cells.cache_hits"),
            cache_misses: reg.counter("sweep.cells.cache_misses"),
            trials_simulated: reg.counter("sweep.trials.simulated"),
            trials_censored: reg.counter("sweep.trials.censored"),
            trials_recovered: reg.counter("sweep.trials.recovered"),
            journal_discarded_lines: reg.counter("sweep.journal.discarded_lines"),
            cell_wall_micros: reg.histogram("sweep.cell.wall_micros"),
            run_wall_micros: reg.counter("sweep.run.wall_micros"),
            shard_workers: reg.gauge("sweep.shard.workers"),
            shard_busy_micros: reg.counter("sweep.shard.busy_micros"),
            shard_utilisation_pct: reg.gauge("sweep.shard.utilisation_pct"),
        }
    }
}

/// The sweep's series in the process-wide registry.
pub fn sweep_metrics() -> &'static SweepMetrics {
    static GLOBAL: OnceLock<SweepMetrics> = OnceLock::new();
    GLOBAL.get_or_init(|| SweepMetrics::register_in(pp_telemetry::global()))
}

/// Per-cell accounting recorded once when a cell completes.
#[derive(Clone, Copy, Debug)]
pub struct CellAccounting<'a> {
    /// The cell's store file stem — the label joining metrics to results.
    pub file_stem: &'a str,
    /// Whether the cell was served from the store without executing.
    pub cache_hit: bool,
    /// Wall time from cache probe to completion, microseconds.
    pub wall_micros: u64,
    /// Trials in the finished cell.
    pub trials: u64,
    /// Of those, recovered from the journal.
    pub recovered: u64,
    /// Of those, censored (budget hit).
    pub censored: u64,
    /// Summed interactions over the cell's completed trials.
    pub interactions: u64,
}

/// Record one completed cell: bumps the global series and writes the
/// per-cell labelled series into the global registry.
pub fn record_cell(acct: &CellAccounting<'_>) {
    let m = sweep_metrics();
    m.cells_completed.inc();
    if acct.cache_hit {
        m.cache_hits.inc();
    } else {
        m.cache_misses.inc();
        m.cell_wall_micros.record(acct.wall_micros);
        m.shard_busy_micros.add(acct.wall_micros);
    }
    let reg = pp_telemetry::global();
    let labels: &[(&str, &str)] = &[("cell", acct.file_stem)];
    reg.gauge_with("sweep.cell.cache_hit", labels)
        .set(u64::from(acct.cache_hit));
    reg.gauge_with("sweep.cell.micros", labels)
        .set(acct.wall_micros);
    reg.counter_with("sweep.cell.trials", labels)
        .add(acct.trials);
    reg.counter_with("sweep.cell.recovered", labels)
        .add(acct.recovered);
    reg.counter_with("sweep.cell.censored", labels)
        .add(acct.censored);
    reg.counter_with("sweep.cell.interactions", labels)
        .add(acct.interactions);
}

/// Gauge stamping every export with the cell-key schema version that
/// produced it (`KEY_VERSION` `"v5"` → `5`). `pp-sweep status` and
/// `pp-sweep metrics` compare it against the running binary's version to
/// tell a stale export apart from a genuinely idle run — without the
/// stamp, a `metrics.jsonl` left behind by an older schema reads as an
/// all-zeros digest.
pub const KEY_VERSION_SERIES: &str = "sweep.export.key_version";

/// Numeric form of [`crate::spec::KEY_VERSION`] (`"v5"` → `5`).
pub fn key_version_num() -> u64 {
    crate::spec::KEY_VERSION
        .trim_start_matches('v')
        .parse()
        .unwrap_or(0)
}

/// Engine counters every sweep export must carry — the CI smoke test and
/// `pp-sweep metrics` both validate against this list.
pub const CORE_ENGINE_COUNTERS: &[&str] = &[
    "engine.runs",
    "engine.interactions",
    "engine.effective_interactions",
    "engine.leap_batches",
    "engine.batch_fallbacks",
];

/// Validate an exported snapshot: the core engine counters must be
/// present, and whenever the sweep simulated at least one trial,
/// `engine.runs` must be non-zero — a simulated trial that left no
/// engine tally means the observer wiring is broken. (An all-cache-hit
/// run legitimately exports zero engine runs.) At least one `sweep.*`
/// series must exist.
pub fn validate_snapshot(snap: &Snapshot) -> Result<(), String> {
    for name in CORE_ENGINE_COUNTERS {
        if snap.value(name).is_none() {
            return Err(format!("missing core engine counter {name}"));
        }
    }
    let simulated = snap.value("sweep.trials.simulated").unwrap_or(0);
    if simulated > 0 && snap.value("engine.runs") == Some(0) {
        return Err(format!(
            "{simulated} trials simulated but engine.runs is zero — observer wiring broken"
        ));
    }
    if !snap.metrics.iter().any(|m| m.name.starts_with("sweep.")) {
        return Err("no sweep.* series in export".into());
    }
    // Trace diagnostics, when present, must be internally consistent:
    // effective records imply per-rule attribution, and rule 8 emits
    // exactly two demolishers per abort, so finished demolitions can
    // never exceed twice the aborts (censored runs leave some pending).
    let traced = snap.value("trace.records.effective").unwrap_or(0);
    let firings: u64 = snap
        .metrics
        .iter()
        .filter(|m| m.name == "trace.rule.firings")
        .filter_map(|m| match m.data {
            pp_telemetry::MetricData::Counter(v) => Some(v),
            _ => None,
        })
        .sum();
    if firings > traced {
        return Err(format!(
            "{firings} rule firings attributed but only {traced} effective records traced"
        ));
    }
    let aborts = snap.value("trace.chain.aborts").unwrap_or(0);
    let demolitions = snap.value("trace.chain.demolitions").unwrap_or(0);
    if demolitions > 2 * aborts {
        return Err(format!(
            "{demolitions} demolitions finished from only {aborts} aborts (rule 8 spawns two demolishers each)"
        ));
    }
    Ok(())
}

/// Export the global registry as JSONL to `path`.
///
/// Forces registration of the engine and sweep series first, so every
/// export carries the core counters (at zero if nothing ran) — an
/// all-cache-hit run still yields a complete, validatable file.
pub fn write_metrics(path: &Path) -> std::io::Result<()> {
    register_all_series();
    Snapshot::capture_global().write_jsonl(path)
}

/// Force registration of the engine, sweep, and trace series in the
/// global registry and stamp the cell-key schema version, so a snapshot
/// captured right after carries every core counter (at zero if nothing
/// ran). `write_metrics` calls this before its export; `pp-serve`'s
/// `GET /metrics` calls it before rendering the Prometheus exposition.
pub fn register_all_series() {
    let _ = pp_engine::metrics::engine_metrics();
    let _ = sweep_metrics();
    pp_trace::export::register_series(pp_telemetry::global());
    // Stamp the schema version so readers can detect stale exports.
    pp_telemetry::global()
        .gauge(KEY_VERSION_SERIES)
        .set(key_version_num());
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_telemetry::MetricData;

    #[test]
    fn record_cell_updates_global_and_labelled_series() {
        let before = Snapshot::capture_global();
        let hits0 = before.value("sweep.cells.cache_hits").unwrap_or(0);
        let done0 = before.value("sweep.cells.completed").unwrap_or(0);
        record_cell(&CellAccounting {
            file_stem: "test_telemetry_cell",
            cache_hit: false,
            wall_micros: 1500,
            trials: 4,
            recovered: 1,
            censored: 0,
            interactions: 999,
        });
        record_cell(&CellAccounting {
            file_stem: "test_telemetry_cell",
            cache_hit: true,
            wall_micros: 10,
            trials: 4,
            recovered: 0,
            censored: 0,
            interactions: 999,
        });
        let after = Snapshot::capture_global();
        assert_eq!(after.value("sweep.cells.cache_hits"), Some(hits0 + 1));
        assert_eq!(after.value("sweep.cells.completed"), Some(done0 + 2));
        let labelled = after
            .metrics
            .iter()
            .find(|m| {
                m.name == "sweep.cell.trials"
                    && m.labels == [("cell".to_string(), "test_telemetry_cell".to_string())]
            })
            .expect("labelled per-cell series");
        let MetricData::Counter(trials) = labelled.data else {
            panic!("expected counter");
        };
        assert!(trials >= 8);
    }

    #[test]
    fn key_version_stamp_matches_the_spec_schema() {
        let expected: u64 = crate::spec::KEY_VERSION
            .trim_start_matches('v')
            .parse()
            .unwrap();
        assert!(expected > 0, "KEY_VERSION must stay numeric-after-v");
        assert_eq!(key_version_num(), expected);
        let dir = std::env::temp_dir().join(format!("pp_sweep_keyver_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        write_metrics(&path).unwrap();
        let snap = Snapshot::read_jsonl(&path).unwrap();
        assert_eq!(snap.value(KEY_VERSION_SERIES), Some(expected));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_incomplete_exports() {
        assert!(validate_snapshot(&Snapshot::default()).is_err());
        let text = "{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":0}\n";
        let snap = Snapshot::from_jsonl(text).unwrap();
        assert!(
            validate_snapshot(&snap).is_err(),
            "missing counters rejected"
        );
        // Trials simulated but no engine runs tallied: broken wiring.
        let text = "\
{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.interactions\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.effective_interactions\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.leap_batches\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.batch_fallbacks\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"sweep.trials.simulated\",\"value\":7}\n";
        let snap = Snapshot::from_jsonl(text).unwrap();
        assert!(
            validate_snapshot(&snap).is_err(),
            "zero runs with simulated trials rejected"
        );
        // All-cache-hit run: zero engine runs is legitimate.
        let text = "\
{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.interactions\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.effective_interactions\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.leap_batches\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.batch_fallbacks\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"sweep.trials.simulated\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"sweep.cells.cache_hits\",\"value\":12}\n";
        let snap = Snapshot::from_jsonl(text).unwrap();
        assert!(validate_snapshot(&snap).is_ok(), "cached run accepted");
        let text = "\
{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":5}\n\
{\"kind\":\"counter\",\"name\":\"engine.interactions\",\"value\":100}\n\
{\"kind\":\"counter\",\"name\":\"engine.effective_interactions\",\"value\":60}\n\
{\"kind\":\"counter\",\"name\":\"engine.leap_batches\",\"value\":2}\n\
{\"kind\":\"counter\",\"name\":\"engine.batch_fallbacks\",\"value\":1}\n\
{\"kind\":\"counter\",\"name\":\"sweep.cells.completed\",\"value\":1}\n";
        let snap = Snapshot::from_jsonl(text).unwrap();
        assert!(validate_snapshot(&snap).is_ok());
    }

    #[test]
    fn validate_checks_trace_consistency() {
        let base = "\
{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":5}\n\
{\"kind\":\"counter\",\"name\":\"engine.interactions\",\"value\":100}\n\
{\"kind\":\"counter\",\"name\":\"engine.effective_interactions\",\"value\":60}\n\
{\"kind\":\"counter\",\"name\":\"engine.leap_batches\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"engine.batch_fallbacks\",\"value\":0}\n\
{\"kind\":\"counter\",\"name\":\"sweep.cells.completed\",\"value\":1}\n";
        // More rule firings attributed than effective records traced.
        let text = format!(
            "{base}\
{{\"kind\":\"counter\",\"name\":\"trace.records.effective\",\"value\":10}}\n\
{{\"kind\":\"counter\",\"name\":\"trace.rule.firings\",\"labels\":{{\"rule\":\"r1\"}},\"value\":11}}\n"
        );
        let snap = Snapshot::from_jsonl(&text).unwrap();
        assert!(
            validate_snapshot(&snap).is_err(),
            "over-attribution rejected"
        );
        // Rule 8 spawns two demolishers per abort; three finished from one
        // abort is impossible.
        let text = format!(
            "{base}\
{{\"kind\":\"counter\",\"name\":\"trace.chain.aborts\",\"value\":1}}\n\
{{\"kind\":\"counter\",\"name\":\"trace.chain.demolitions\",\"value\":3}}\n"
        );
        let snap = Snapshot::from_jsonl(&text).unwrap();
        assert!(
            validate_snapshot(&snap).is_err(),
            "impossible demolitions rejected"
        );
        // A consistent trace export passes.
        let text = format!(
            "{base}\
{{\"kind\":\"counter\",\"name\":\"trace.records.effective\",\"value\":10}}\n\
{{\"kind\":\"counter\",\"name\":\"trace.rule.firings\",\"labels\":{{\"rule\":\"r1\"}},\"value\":6}}\n\
{{\"kind\":\"counter\",\"name\":\"trace.chain.aborts\",\"value\":2}}\n\
{{\"kind\":\"counter\",\"name\":\"trace.chain.demolitions\",\"value\":4}}\n"
        );
        let snap = Snapshot::from_jsonl(&text).unwrap();
        assert!(
            validate_snapshot(&snap).is_ok(),
            "consistent trace accepted"
        );
    }
}
