//! Exporting trace diagnostics through the pp-telemetry registry.
//!
//! Series, all integer counters (rule firings are labelled by rule id):
//!
//! | name                        | labels      | meaning |
//! |-----------------------------|-------------|---------|
//! | `trace.records.effective`   |             | effective records exported |
//! | `trace.records.identity`    |             | identity interactions covered |
//! | `trace.bytes`               |             | trace bytes exported |
//! | `trace.rule.firings`        | `rule=rX`   | firings per Algorithm 1 rule |
//! | `trace.chain.births`        |             | chain births (rule 5) |
//! | `trace.chain.completions`   |             | chain completions (rule 7) |
//! | `trace.chain.aborts`        |             | chain collisions (rule 8) |
//! | `trace.chain.demolitions`   |             | finished walk-backs (rule 10) |

use crate::classify::Diagnostics;
use crate::replay::Trace;
use pp_telemetry::Registry;

/// Names of the chain-lifecycle counters, in export order.
pub const CHAIN_COUNTERS: &[&str] = &[
    "trace.chain.births",
    "trace.chain.completions",
    "trace.chain.aborts",
    "trace.chain.demolitions",
];

/// Force-register the global trace series at zero so exports are
/// complete (and validatable) even when nothing was traced.
pub fn register_series(reg: &Registry) {
    reg.counter("trace.records.effective");
    reg.counter("trace.records.identity");
    reg.counter("trace.bytes");
    for name in CHAIN_COUNTERS {
        reg.counter(name);
    }
}

/// Export one trace's record/byte totals into `reg`.
pub fn export_trace_stats(reg: &Registry, trace: &Trace, bytes: usize) {
    reg.counter("trace.records.effective")
        .add(trace.effective_len());
    reg.counter("trace.records.identity")
        .add(trace.identity_total());
    reg.counter("trace.bytes").add(bytes as u64);
}

/// Export per-rule firing counts and chain-lifecycle totals into `reg`.
pub fn export_diagnostics(reg: &Registry, diag: &Diagnostics) {
    for (rule, &count) in &diag.rule_firings {
        reg.counter_with("trace.rule.firings", &[("rule", rule.as_str())])
            .add(count);
    }
    reg.counter("trace.chain.births").add(diag.births);
    reg.counter("trace.chain.completions").add(diag.completions);
    reg.counter("trace.chain.aborts").add(diag.aborts);
    reg.counter("trace.chain.demolitions").add(diag.demolitions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceKernel;
    use crate::live::record_kpartition;

    #[test]
    fn diagnostics_land_in_registry() {
        let reg = Registry::new();
        register_series(&reg);
        let out = record_kpartition(3, 8, 5, TraceKernel::Leap, None).unwrap();
        let trace = Trace::decode(&out.bytes).unwrap();
        let diag = crate::classify::classify(&trace).unwrap();
        export_trace_stats(&reg, &trace, out.bytes.len());
        export_diagnostics(&reg, &diag);
        let snap = pp_telemetry::Snapshot::capture(&reg);
        assert_eq!(
            snap.value("trace.records.effective"),
            Some(trace.effective_len())
        );
        assert_eq!(snap.value("trace.chain.births"), Some(diag.births));
        // Labelled rule series exist for every labelled rule.
        let rule_series = snap
            .metrics
            .iter()
            .filter(|m| m.name == "trace.rule.firings")
            .count();
        assert_eq!(rule_series, diag.rule_firings.len());
    }
}
