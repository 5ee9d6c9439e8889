//! The `pp-sweep` command-line interface.
//!
//! ```text
//! pp-sweep list               # registered plans
//! pp-sweep run <plan>|all     # execute (cache-aware) and report
//! pp-sweep resume <plan>|all  # alias of run: resume IS the default
//! pp-sweep status [<plan>]    # per-plan cell completion state + telemetry
//! pp-sweep metrics [path]     # validate + summarise a metrics export
//! pp-sweep gc                 # drop store files no current plan references
//! ```
//!
//! `run`/`resume` export telemetry as JSONL to `<results>/metrics.jsonl`
//! after every run (see [`crate::telemetry`]); `--metrics <path>` writes
//! an additional copy to an explicit location. `--trace <glob>` records
//! trial 0 of every cell whose store file stem matches the glob into
//! `<store>/<stem>.trace` (see [`crate::trace`]) and folds the trace
//! diagnostics into the same metrics export. `--timelines [glob]`
//! (default `*`) classifies trial 0 of each matching cell into
//! convergence phases and writes `<store>/<stem>.timeline.json` (see
//! [`crate::timeline`]).
//!
//! Environment: `PP_TRIALS` and `PP_SEED` participate in cell identity,
//! so changing them addresses different store entries rather than
//! corrupting existing ones; `PP_RESULTS_DIR` moves the file store at
//! `<results>/store` and the report CSVs (see [`crate::plan`]). A value
//! that does not parse, or `PP_TRIALS=0`, exits 2 before any work.

use std::collections::HashSet;

use crate::exec::ExecOptions;
use crate::observer::ConsoleProgress;
use crate::plan::{self, Plan, PlanConfig};
use crate::runner;
use crate::store::ResultStore;

/// Entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let cfg = match PlanConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pp-sweep: {e}");
            return 2;
        }
    };
    let store = ResultStore::default_location();
    // Split off the options run/resume accept: `--metrics [path]`,
    // `--trace <glob>`, and `--timelines [glob]`. An explicit metrics
    // path duplicates the export there; the default export next to the
    // results happens regardless. `--timelines` without a glob covers
    // every cell.
    let (args, metrics_to, trace_glob, timelines_glob) = {
        let mut rest = Vec::new();
        let mut metrics = None;
        let mut trace = None;
        let mut timelines = None;
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if a == "--metrics" {
                let path = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if path.is_some() {
                    it.next();
                }
                metrics = Some(path);
            } else if a == "--trace" {
                match it.peek().filter(|v| !v.starts_with("--")) {
                    Some(glob) => {
                        trace = Some((*glob).clone());
                        it.next();
                    }
                    None => {
                        eprintln!(
                            "pp-sweep: --trace requires a cell-stem glob (try `--trace '*'`)"
                        );
                        return 2;
                    }
                }
            } else if a == "--timelines" {
                let glob = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if glob.is_some() {
                    it.next();
                }
                timelines = Some(glob.unwrap_or_else(|| "*".to_string()));
            } else {
                rest.push(a);
            }
        }
        (rest, metrics, trace, timelines)
    };
    match args.as_slice() {
        [] => {
            eprintln!("{USAGE}");
            2
        }
        [cmd] if *cmd == "list" => {
            list(cfg);
            0
        }
        [cmd, name] if *cmd == "run" || *cmd == "resume" => run(
            name,
            cfg,
            &store,
            metrics_to.flatten(),
            trace_glob.as_deref(),
            timelines_glob.as_deref(),
        ),
        [cmd] if *cmd == "status" => {
            for p in plan::plans(cfg) {
                status(&p, &store);
            }
            status_telemetry(&store);
            0
        }
        [cmd, name] if *cmd == "status" => match plan::find(name, cfg) {
            Some(p) => {
                status(&p, &store);
                status_telemetry(&store);
                0
            }
            None => unknown_plan(name, cfg),
        },
        [cmd] if *cmd == "gc" => gc(cfg, &store),
        [cmd] if *cmd == "metrics" => metrics_cmd(&store, &default_metrics_path(&store)),
        [cmd, path] if *cmd == "metrics" => metrics_cmd(&store, std::path::Path::new(path)),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

const USAGE: &str = "usage: pp-sweep <list | run <plan|all> [--metrics [path]] [--trace <glob>] \
[--timelines [glob]] | resume <plan|all> [--metrics [path]] [--trace <glob>] [--timelines [glob]] | \
status [plan] | metrics [path] | gc>";

/// Where `run` exports metrics by default (and where `status` and the
/// bare `metrics` command look): next to the results they describe.
fn default_metrics_path(store: &ResultStore) -> std::path::PathBuf {
    match store.fs_dir() {
        Some(dir) => dir.join("metrics.jsonl"),
        // mem/log backends have no store directory; export next to the
        // rest of the results.
        None => plan::results_dir().join("metrics.jsonl"),
    }
}

/// One line describing the active backend and its stats, e.g.
/// `store backend: fs at results/store — 42 cells, 0 journals, …`.
fn backend_line(store: &ResultStore) -> String {
    format!(
        "store backend: {} at {} — {}",
        store.kind(),
        store.location(),
        store.stats().summary()
    )
}

fn list(cfg: PlanConfig) {
    println!(
        "registered plans (PP_TRIALS={}, PP_SEED={}):",
        cfg.trials, cfg.master_seed
    );
    for p in plan::plans(cfg) {
        println!(
            "  {:<18} {:>4} cells  {:>7} trials  — {}",
            p.name,
            p.cells.len(),
            p.total_trials(),
            p.description
        );
    }
    println!("  {:<18} union of the above", "all");
}

fn banner(p: &Plan, cfg: PlanConfig) {
    println!("== {} — {}", p.title, p.description);
    println!(
        "   {} cells, {} trials, master seed = {} (override with PP_TRIALS / PP_SEED)",
        p.cells.len(),
        p.total_trials(),
        cfg.master_seed
    );
    println!();
}

fn run(
    name: &str,
    cfg: PlanConfig,
    store: &ResultStore,
    metrics_to: Option<String>,
    trace_glob: Option<&str>,
    timelines_glob: Option<&str>,
) -> i32 {
    let selected: Vec<Plan> = if name == "all" {
        plan::plans(cfg)
    } else {
        match plan::find(name, cfg) {
            Some(p) => vec![p],
            None => return unknown_plan(name, cfg),
        }
    };

    // Union of cells first (dedupes across plans), then every report.
    let cells: Vec<_> = selected.iter().flat_map(|p| p.cells.clone()).collect();

    // Static analysis gate: refuse to simulate a structurally broken
    // protocol (lint errors), surface warnings without blocking.
    match crate::lintgate::lint_cells(&cells) {
        Ok(warnings) => {
            for w in warnings {
                eprintln!("pp-sweep: lint warning: {w}");
            }
        }
        Err(report) => {
            eprintln!("pp-sweep: refusing to run: {report}");
            return 1;
        }
    }

    let progress = ConsoleProgress::new();
    let stats = match runner::run_cells(&cells, store, &progress, &ExecOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            progress.finish();
            eprintln!("pp-sweep: run failed: {e}");
            return 1;
        }
    };
    progress.finish();
    eprintln!(
        "  {} cells complete ({} from cache, {} executed); store: {} ({})",
        stats.cells,
        stats.cache_hits,
        stats.simulated,
        store.location(),
        store.kind()
    );

    for p in &selected {
        banner(p, cfg);
        match (p.report)(store) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("pp-sweep: report for {} failed: {e}", p.name);
                return 1;
            }
        }
        println!();
    }

    // Trace capture happens after the run so it works on cache hits too
    // (trial 0's seed is a pure function of the spec), and before the
    // metrics export so the trace series land in the same snapshot.
    if let Some(glob) = trace_glob {
        match crate::trace::trace_matching(&cells, store, glob) {
            Ok(traced) if traced.is_empty() => {
                eprintln!("  traces: no cell stem matches `{glob}`");
            }
            Ok(traced) => {
                let fresh = traced.iter().filter(|t| t.fresh).count();
                let bytes: u64 = traced.iter().map(|t| t.bytes).sum();
                eprintln!(
                    "  traces: {} cells ({} recorded, {} reused), {} bytes",
                    traced.len(),
                    fresh,
                    traced.len() - fresh,
                    bytes
                );
            }
            Err(e) => {
                eprintln!("pp-sweep: trace capture failed: {e}");
                return 1;
            }
        }
    }

    // Phase timelines ride the same post-run slot as traces: trial 0's
    // seed is a pure function of the spec, so cache hits still yield a
    // timeline, and capturing before the metrics export lands the
    // timeline counters in the same snapshot.
    if let Some(glob) = timelines_glob {
        match crate::timeline::timeline_matching(&cells, store, glob) {
            Ok(timelines) if timelines.is_empty() => {
                eprintln!("  timelines: no classifiable cell stem matches `{glob}`");
            }
            Ok(timelines) => {
                let fresh = timelines.iter().filter(|t| t.fresh).count();
                let stable = timelines.iter().filter(|t| t.stable).count();
                eprintln!(
                    "  timelines: {} cells ({} recorded, {} reused), {} stabilised",
                    timelines.len(),
                    fresh,
                    timelines.len() - fresh,
                    stable
                );
            }
            Err(e) => {
                eprintln!("pp-sweep: timeline capture failed: {e}");
                return 1;
            }
        }
    }

    // Every run leaves a machine-readable performance record next to its
    // results; --metrics <path> exports an extra copy wherever asked.
    let mut targets = vec![default_metrics_path(store)];
    targets.extend(metrics_to.map(std::path::PathBuf::from));
    for path in &targets {
        if let Err(e) = crate::telemetry::write_metrics(path) {
            eprintln!("pp-sweep: cannot write metrics to {}: {e}", path.display());
            return 1;
        }
        eprintln!("  metrics: {}", path.display());
    }
    0
}

/// `pp-sweep metrics [path]`: parse an exported metrics file, check the
/// core engine counters are present, and print the summary table.
fn metrics_cmd(store: &ResultStore, path: &std::path::Path) -> i32 {
    println!("{}", backend_line(store));
    let snap = match pp_telemetry::Snapshot::read_jsonl(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pp-sweep: cannot read metrics: {e}");
            return 1;
        }
    };
    if let Err(e) = crate::telemetry::validate_snapshot(&snap) {
        eprintln!("pp-sweep: {}: invalid metrics export: {e}", path.display());
        return 1;
    }
    if let Some(warning) = stale_export_warning(&snap) {
        eprintln!("pp-sweep: warning: {warning}");
    }
    println!("metrics from {}:", path.display());
    print!("{}", snap.summary_table());
    // One derived line when the batch kernel ran: how often it leapt vs
    // handed back to exact stepping, the observable batch/exact crossover.
    let batches = snap.value("engine.leap_batches").unwrap_or(0);
    if batches > 0 {
        let fallbacks = snap.value("engine.batch_fallbacks").unwrap_or(0);
        println!(
            "batch kernel: {batches} tau-leaps applied, {fallbacks} fallbacks to exact stepping"
        );
    }
    0
}

/// Explain why an export cannot be trusted as "the last run", if so.
///
/// Exports are stamped with the cell-key schema version that produced
/// them (`sweep.export.key_version`). A missing or older stamp means the
/// file predates the current schema: the cells it describes live under
/// keys the running binary no longer addresses, so showing its counters
/// as a digest of "the last run" would silently report zeros (or stale
/// totals) for current work.
fn stale_export_warning(snap: &pp_telemetry::Snapshot) -> Option<String> {
    let current = crate::telemetry::key_version_num();
    match snap.value(crate::telemetry::KEY_VERSION_SERIES) {
        Some(v) if v == current => None,
        Some(v) => Some(format!(
            "metrics export was written under cell-key schema v{v}, but this binary uses \
v{current} — counters describe cells the current schema no longer addresses; \
re-run `pp-sweep run` to refresh"
        )),
        None => Some(format!(
            "metrics export carries no cell-key schema stamp (predates v{current}) — \
re-run `pp-sweep run` to refresh"
        )),
    }
}

/// One compact line of engine/sweep totals from the default metrics
/// export, if a run has produced one.
fn status_telemetry(store: &ResultStore) {
    println!("{}", backend_line(store));
    let path = default_metrics_path(store);
    let Ok(snap) = pp_telemetry::Snapshot::read_jsonl(&path) else {
        return; // no export yet — say nothing rather than alarm
    };
    if let Some(warning) = stale_export_warning(&snap) {
        // A stale export must not masquerade as a zeros digest of the
        // last run — say what happened and skip the digest entirely.
        println!("telemetry: {warning} ({})", path.display());
        return;
    }
    let v = |name: &str| snap.value(name).unwrap_or(0);
    println!(
        "telemetry (last run): {} interactions ({} effective) over {} engine runs; \
{} cells ({} cached), {} trials simulated, {} recovered — {}",
        v("engine.interactions"),
        v("engine.effective_interactions"),
        v("engine.runs"),
        v("sweep.cells.completed"),
        v("sweep.cells.cache_hits"),
        v("sweep.trials.simulated"),
        v("sweep.trials.recovered"),
        path.display()
    );
    // Batch-kernel crossover line, only when the tau-leap kernel ran.
    let batches = v("engine.leap_batches");
    if batches > 0 {
        println!(
            "batch kernel (last run): {batches} tau-leaps, {} exact fallbacks",
            v("engine.batch_fallbacks")
        );
    }
    // Timeline line only when the last run captured phase timelines.
    let timelines = v("timeline.cells.recorded") + v("timeline.cells.reused");
    if timelines > 0 {
        println!(
            "timelines (last run): {timelines} cells ({} freshly recorded, {} phase segments, \
{} checkpoints)",
            v("timeline.cells.recorded"),
            v("timeline.segments"),
            v("timeline.checkpoints"),
        );
    }
    // Second line only when the last run captured traces.
    let effective = v("trace.records.effective");
    if effective > 0 {
        println!(
            "traces (last run): {} effective records ({} bytes); chains: {} born, \
{} completed, {} aborted, {} demolished",
            effective,
            v("trace.bytes"),
            v("trace.chain.births"),
            v("trace.chain.completions"),
            v("trace.chain.aborts"),
            v("trace.chain.demolitions"),
        );
    }
}

fn status(p: &Plan, store: &ResultStore) {
    let mut complete = 0usize;
    let mut partial = 0usize;
    let mut partial_trials = 0u64;
    let mut pending = 0usize;
    let mut traced = 0usize;
    let mut timelined = 0usize;
    for spec in &p.cells {
        if crate::trace::trace_path(store, spec).exists() {
            traced += 1;
        }
        if crate::timeline::timeline_path(store, spec).exists() {
            timelined += 1;
        }
        if store.load(spec).is_some() {
            complete += 1;
        } else {
            let st = store.journal_state(spec);
            if st.records.is_empty() {
                pending += 1;
            } else {
                partial += 1;
                partial_trials += st.records.len() as u64;
            }
        }
    }
    let state = if complete == p.cells.len() {
        "complete"
    } else if complete + partial > 0 {
        "in progress"
    } else {
        "not started"
    };
    let mut traces = if traced > 0 {
        format!(", {traced} traced")
    } else {
        String::new()
    };
    if timelined > 0 {
        traces.push_str(&format!(", {timelined} timelined"));
    }
    println!(
        "{:<18} {:>11}: {}/{} cells complete, {} partial ({} journaled trials), {} pending{}",
        p.name,
        state,
        complete,
        p.cells.len(),
        partial,
        partial_trials,
        pending,
        traces
    );
}

fn gc(cfg: PlanConfig, store: &ResultStore) -> i32 {
    // Everything a *current* plan (under the current settings) can
    // address is live; anything else — stale KEY_VERSION entries, cells
    // from other PP_TRIALS/PP_SEED settings, leftover .tmp files — is
    // garbage. That is the point: gc reclaims results the current
    // configuration can no longer reach. What reclaiming *means* is the
    // backend's business: the file store deletes dead files, the log
    // store drops dead index entries and compacts, the memory store
    // forgets.
    let mut live: HashSet<String> = HashSet::new();
    for p in plan::plans(cfg) {
        for c in &p.cells {
            live.insert(c.file_stem());
        }
    }
    let outcome = match store.gc(&live) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pp-sweep: gc failed: {e}");
            return 1;
        }
    };
    for item in &outcome.removed {
        println!("removed {item}");
    }
    println!(
        "gc: removed {}, kept {} (store: {})",
        outcome.removed.len(),
        outcome.kept,
        store.location()
    );
    println!("{}", backend_line(store));
    0
}

fn unknown_plan(name: &str, cfg: PlanConfig) -> i32 {
    eprintln!("pp-sweep: unknown plan '{name}'; available:");
    for p in plan::plans(cfg) {
        eprintln!("  {}", p.name);
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_and_plans_fail_cleanly() {
        assert_eq!(main_with_args(&[]), 2);
        assert_eq!(main_with_args(&["frobnicate".into()]), 2);
        assert_eq!(main_with_args(&["run".into(), "not_a_plan".into()]), 2);
    }

    #[test]
    fn stale_exports_are_called_out_not_zeroed() {
        let current = crate::telemetry::key_version_num();
        assert!(current >= 1);
        // No schema stamp: the export predates versioned exports.
        let snap = pp_telemetry::Snapshot::from_jsonl(
            "{\"kind\":\"counter\",\"name\":\"engine.runs\",\"value\":0}\n",
        )
        .unwrap();
        let warning = stale_export_warning(&snap).expect("unstamped export flagged");
        assert!(warning.contains("no cell-key schema stamp"), "{warning}");
        // Older stamp: written under a previous KEY_VERSION.
        let text = format!(
            "{{\"kind\":\"gauge\",\"name\":\"sweep.export.key_version\",\"value\":{}}}\n",
            current - 1
        );
        let snap = pp_telemetry::Snapshot::from_jsonl(&text).unwrap();
        let warning = stale_export_warning(&snap).expect("old stamp flagged");
        assert!(
            warning.contains(&format!("schema v{}", current - 1)),
            "{warning}"
        );
        // Current stamp: trustworthy, no warning.
        let text = format!(
            "{{\"kind\":\"gauge\",\"name\":\"sweep.export.key_version\",\"value\":{current}}}\n"
        );
        let snap = pp_telemetry::Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(stale_export_warning(&snap), None);
    }

    #[test]
    fn gc_keeps_every_fig6_cell() {
        use crate::spec::CellMode;
        use crate::store::TrialRecord;
        let dir = std::env::temp_dir().join(format!("pp_sweep_gc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::at(&dir);
        let cfg = PlanConfig {
            trials: 1,
            master_seed: 1,
        };
        let k16 = plan::ukp_cell(16, 960, cfg, CellMode::Summary);
        store
            .save(&k16, vec![TrialRecord::summary(0, Some(7))])
            .unwrap();
        assert_eq!(gc(cfg, &store), 0);
        let kept = store.load(&k16).is_some();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(kept, "gc removed fig6's k = 16 cell");
    }

    #[test]
    fn list_and_status_do_not_touch_the_store() {
        // Point the store somewhere empty; list/status must succeed
        // without creating anything.
        let dir = std::env::temp_dir().join(format!("pp_sweep_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::at(&dir);
        let cfg = PlanConfig {
            trials: 2,
            master_seed: 1,
        };
        for p in plan::plans(cfg) {
            status(&p, &store);
        }
        list(cfg);
        assert!(!dir.exists());
    }
}
