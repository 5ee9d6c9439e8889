//! What one benchmark run reports: operation tallies, named checks, and
//! metric values, rendered as the single JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
/// `ops_per_s` counts the workload's own unit of work (see README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload; a
/// layer a workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // engine
    ("engine.kernel_s", "s"),
    ("engine.interactions", "count"),
    ("engine.effective", "count"),
    ("engine.effective_ratio", "ratio"),
    ("engine.ns_per_effective", "ns"),
    ("engine.leaps", "count"),
    ("engine.fallbacks", "count"),
    ("engine.fallback_ratio", "ratio"),
    ("engine.leap_time_share", "ratio"),
    ("engine.identity_run_ns", "ns"),
    ("engine.state_of_rank_ns", "ns"),
    ("engine.binomial_ns", "ns"),
    ("engine.tracker_update_ns", "ns"),
    ("interactions_per_s", "1/s"),
    // protocols
    ("protocols.materialize_s", "s"),
    // sweep
    ("sweep.store.save_s", "s"),
    ("sweep.store.saves", "count"),
    ("sweep.store.bytes", "bytes"),
    ("sweep.journal.open_s", "s"),
    ("sweep.journal.append_s", "s"),
    ("sweep.journal.appends", "count"),
    ("sweep.store.load_s", "s"),
    ("sweep.store.loads", "count"),
    ("sweep.report_s", "s"),
    ("sweep.worker_idle_s", "s"),
    // serve
    ("req_per_s", "1/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.miss_samples", "count"),
    ("serve.accept_queue_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.store_lookup_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.cell_self_ms", "ms"),
    ("serve.stream_flush_ms", "ms"),
    ("serve.request_self_ms", "ms"),
    ("serve.client_work_ms", "ms"),
    ("serve.client_idle_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    // verify
    ("configs_per_s", "1/s"),
    ("verify.explore_s", "s"),
    ("verify.configs", "count"),
    ("verify.frontier_peak", "count"),
    ("verify.scc_s", "s"),
    ("verify.shortest_s", "s"),
    ("verify.hitting_s", "s"),
    ("verify.hitting_sweeps", "count"),
    // every workload
    ("unattributed_s", "s"),
    ("ledger_explained_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Operation tallies plus the names of the checks that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Failure count per check name.
    pub failures: BTreeMap<String, u64>,
}

impl Checks {
    /// Count one operation; `ok == false` records a failure of `check`.
    pub fn op(&mut self, ok: bool, check: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(check.to_string()).or_default() += 1;
        }
        ok
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation tallies and failed checks.
    pub checks: Checks,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: BTreeMap<String, f64>,
    /// Human-readable summary lines for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Add a summary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The result line: the end-to-end metrics of an untraced run, or the
    /// per-layer metrics of a traced one. A missing end-to-end value or a
    /// non-finite value of either kind fails the run (check `metrics`).
    pub fn to_json(&mut self, trace: bool) -> String {
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.values.get(*name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.checks
                        .op(false, &format!("metrics: {name} is not finite"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.checks.op(false, &format!("metrics: {name} missing"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn json_line_lists_every_metric_and_fails_on_gaps() {
        let mut r = Report::default();
        r.checks.op(true, "x");
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut gap = Report::default();
        let _ = gap.to_json(false);
        assert!(!gap.correct());
        // Per-layer metrics a workload does not produce read 0.
        let mut traced = Report::default();
        assert!(traced
            .to_json(true)
            .contains("\"verify.scc_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(traced.correct());
    }
}
