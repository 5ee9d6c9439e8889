//! `pp-telemetry`: zero-dependency metrics core for the uniform
//! k-partition workspace.
//!
//! The paper's evaluation is about *where interactions go* — effective
//! vs. identity interactions, per-group completion cost, stabilisation
//! behaviour at scale. This crate provides the counters that answer
//! those questions cheaply enough to leave on during real runs:
//!
//! - [`Counter`] / [`Gauge`] — single `AtomicU64`s, relaxed ordering.
//! - [`Histogram`] — 65 fixed log₂ buckets covering all of `u64`;
//!   [`LocalHistogram`] batches hot-path samples without atomics.
//! - [`Registry`] — named handles; [`global()`] is the process-wide
//!   instance, tests build their own for isolation.
//! - [`Snapshot`] — JSONL export/import and a terminal summary table.
//! - [`prom`] — Prometheus text exposition of a snapshot (served live by
//!   `pp-serve`'s `GET /metrics`) and a strict format validator.
//!
//! Overhead contract: the engine's hot loops are instrumented through
//! the existing `Observer` trait, never directly — with `NullObserver`
//! the instrumentation monomorphises away entirely, and the telemetry
//! observer itself tallies into plain `u64`s, touching shared atomics
//! only when a run finishes. That still costs something: on a leap run
//! to stability at k = 8, n = 10⁴, the engine's `TelemetryObserver`
//! measured +3% to +8% over `NullObserver` (median of 25 interleaved
//! pairs, four sessions on a 2-vCPU host). No test or benchmark gates
//! that cost.
//!
//! No floats anywhere: durations are microseconds, ratios are left to
//! consumers, so exports stay exactly representable in the workspace's
//! integer-only JSON (the [`json`] module, which `pp-sweep` re-exports).

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod registry;

pub use export::{MetricData, MetricSnapshot, Snapshot};
pub use metrics::{
    bucket_hi, bucket_lo, bucket_of, quantile_from_buckets, Counter, Gauge, Histogram,
    LocalHistogram, HISTOGRAM_BUCKETS,
};
pub use prom::{to_prometheus, validate_exposition};
pub use registry::{counter, gauge, global, histogram, Entry, Metric, Registry};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_global_flow() {
        // Names prefixed test.* so they are disjoint from production
        // series even though the global registry is shared across tests.
        counter("test.lib.events").add(2);
        gauge("test.lib.level").set_max(7);
        histogram("test.lib.micros").record(3);
        let snap = Snapshot::capture_global();
        assert!(snap.value("test.lib.events").unwrap() >= 2);
        assert!(snap.value("test.lib.level").unwrap() >= 7);
        let MetricData::Histogram { count, .. } = &snap.get("test.lib.micros").unwrap().data else {
            panic!("histogram should register");
        };
        assert!(*count >= 1);
        let back = Snapshot::from_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
    }
}
