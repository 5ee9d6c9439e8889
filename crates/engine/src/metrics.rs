//! Engine telemetry: shared metric handles and the [`TelemetryObserver`].
//!
//! Instrumentation goes through the existing [`crate::observer::Observer`]
//! hook rather than the simulator loops themselves, so the overhead story
//! is unchanged from before telemetry existed: run with
//! [`crate::observer::NullObserver`] and the instrumentation monomorphises
//! away; run with a [`TelemetryObserver`] and each event is a couple of
//! plain `u64` bumps — the shared atomics in [`EngineMetrics`] are touched
//! once per *run*, on flush, not per interaction.
//!
//! Metric names follow the workspace `layer.subsystem.metric` scheme:
//!
//! | name                            | kind      | meaning |
//! |---------------------------------|-----------|---------|
//! | `engine.runs`                   | counter   | simulator runs flushed |
//! | `engine.censored_runs`          | counter   | runs that hit the interaction cap |
//! | `engine.interactions`           | counter   | total interactions (incl. identities) |
//! | `engine.effective_interactions` | counter   | state-changing interactions |
//! | `engine.identity_run_len`       | histogram | lengths of maximal identity runs |
//! | `engine.stability.rescans`      | counter   | O(&#124;Q&#124;) fallback stability rescans; none after a flip under a criterion that ignores class moves (`Silent`, `Never`) |
//! | `engine.leap_batches`           | counter   | batches applied by the batch kernel: tau-leaps and lumped stretches of flips |
//! | `engine.batch_fallbacks`        | counter   | batch→exact fallback transitions |

use crate::observer::{FallbackReason, Observer};
use crate::protocol::StateId;
use pp_telemetry::{Counter, Histogram, LocalHistogram, Registry};
use std::sync::{Arc, OnceLock};

/// Shared handles to the engine's metric series in one registry.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Simulator runs whose telemetry has been flushed.
    pub runs: Arc<Counter>,
    /// Runs that ended at the interaction cap instead of stabilising.
    pub censored_runs: Arc<Counter>,
    /// Total interactions performed, identities included.
    pub interactions: Arc<Counter>,
    /// Interactions that changed at least one agent's state.
    pub effective_interactions: Arc<Counter>,
    /// Histogram of maximal identity-run lengths.
    pub identity_run_len: Arc<Histogram>,
    /// Full-rescan stability checks (the O(|Q|) tracker fallback).
    pub stability_rescans: Arc<Counter>,
    /// Batches applied by the batch kernel: tau-leaps and lumped
    /// stretches of flips.
    pub leap_batches: Arc<Counter>,
    /// Batch-kernel fallbacks to exact lumped steps (all reasons).
    pub batch_fallbacks: Arc<Counter>,
}

impl EngineMetrics {
    /// Resolve (registering on first use) the engine series in `reg`.
    pub fn register_in(reg: &Registry) -> Self {
        EngineMetrics {
            runs: reg.counter("engine.runs"),
            censored_runs: reg.counter("engine.censored_runs"),
            interactions: reg.counter("engine.interactions"),
            effective_interactions: reg.counter("engine.effective_interactions"),
            identity_run_len: reg.histogram("engine.identity_run_len"),
            stability_rescans: reg.counter("engine.stability.rescans"),
            leap_batches: reg.counter("engine.leap_batches"),
            batch_fallbacks: reg.counter("engine.batch_fallbacks"),
        }
    }
}

/// The engine's series in the process-wide registry.
pub fn engine_metrics() -> &'static EngineMetrics {
    static GLOBAL: OnceLock<EngineMetrics> = OnceLock::new();
    GLOBAL.get_or_init(|| EngineMetrics::register_in(pp_telemetry::global()))
}

/// Observer that tallies interaction statistics for one run and flushes
/// them into an [`EngineMetrics`] when dropped (or on [`Self::flush`]).
///
/// Works under both kernels: the leap kernel reports skipped identity
/// runs through `on_identity_run`, while under the naive kernel the
/// observer coalesces consecutive per-interaction identities into runs
/// itself, so `engine.identity_run_len` means the same thing either way.
/// Observers never influence scheduling or RNG state, so attaching this
/// leaves trajectories bit-identical.
#[derive(Debug)]
pub struct TelemetryObserver {
    target: EngineMetrics,
    interactions: u64,
    effective: u64,
    /// Length of the in-progress identity run (naive kernel only).
    open_run: u64,
    identity_runs: LocalHistogram,
    leap_batches: u64,
    batch_fallbacks: u64,
    censored: bool,
}

impl TelemetryObserver {
    /// Observer flushing into the global registry's engine series.
    pub fn new() -> Self {
        Self::with_target(engine_metrics().clone())
    }

    /// Observer flushing into `reg` (tests use a private registry for
    /// exact counts).
    pub fn in_registry(reg: &Registry) -> Self {
        Self::with_target(EngineMetrics::register_in(reg))
    }

    fn with_target(target: EngineMetrics) -> Self {
        TelemetryObserver {
            target,
            interactions: 0,
            effective: 0,
            open_run: 0,
            identity_runs: LocalHistogram::new(),
            leap_batches: 0,
            batch_fallbacks: 0,
            censored: false,
        }
    }

    /// Mark this run as censored (hit its interaction cap without
    /// stabilising); counted in `engine.censored_runs` on flush.
    pub fn mark_censored(&mut self) {
        self.censored = true;
    }

    /// Interactions tallied so far in this run.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Effective (state-changing) interactions tallied so far.
    pub fn effective_interactions(&self) -> u64 {
        self.effective
    }

    /// Push the local tallies into the shared metrics and reset them.
    /// Called automatically on drop; calling twice is harmless (the
    /// second flush contributes only what accrued in between).
    pub fn flush(&mut self) {
        if self.open_run > 0 {
            self.identity_runs.record(self.open_run);
            self.open_run = 0;
        }
        if self.interactions == 0 && self.identity_runs.is_empty() && !self.censored {
            return;
        }
        self.target.runs.inc();
        if self.censored {
            self.target.censored_runs.inc();
            self.censored = false;
        }
        self.target.interactions.add(self.interactions);
        self.target.effective_interactions.add(self.effective);
        self.target.identity_run_len.merge(&self.identity_runs);
        self.target.leap_batches.add(self.leap_batches);
        self.target.batch_fallbacks.add(self.batch_fallbacks);
        self.interactions = 0;
        self.effective = 0;
        self.leap_batches = 0;
        self.batch_fallbacks = 0;
        self.identity_runs = LocalHistogram::new();
    }
}

impl Default for TelemetryObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TelemetryObserver {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Observer for TelemetryObserver {
    #[inline]
    fn on_interaction(
        &mut self,
        _step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        _counts: &[u64],
    ) {
        self.interactions += 1;
        if p == p2 && q == q2 {
            // Naive kernel reporting one identity at a time: extend the run.
            self.open_run += 1;
        } else {
            if self.open_run > 0 {
                self.identity_runs.record(self.open_run);
                self.open_run = 0;
            }
            self.effective += 1;
        }
    }

    #[inline]
    fn on_identity_run(&mut self, _last_step: u64, skipped: u64, _counts: &[u64]) {
        // Leap kernel: the whole maximal run arrives in one call.
        self.interactions += skipped;
        self.identity_runs.record(skipped);
    }

    #[inline]
    fn on_leap_batch(&mut self, _last_step: u64, tau: u64, effective: u64, _counts: &[u64]) {
        // Batch kernel: one tau-leap or lumped stretch covers `tau`
        // interactions, of which `effective` fired rules. The identity
        // mass inside a batch is not one *maximal* identity run, so it
        // deliberately stays out of `engine.identity_run_len`.
        self.interactions += tau;
        self.effective += effective;
        self.leap_batches += 1;
    }

    #[inline]
    fn on_batch_fallback(&mut self, _reason: FallbackReason) {
        self.batch_fallbacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::CountPopulation;
    use crate::scheduler::UniformRandomScheduler;
    use crate::simulator::{Kernel, Simulator};
    use crate::spec::ProtocolSpec;
    use crate::stability::Silent;
    use pp_telemetry::{MetricData, Snapshot};

    fn epidemic() -> crate::protocol::CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    fn seeded_pop(proto: &crate::protocol::CompiledProtocol, n: u64) -> CountPopulation {
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(proto, n);
        pop.set_count(s, n - 1);
        pop.set_count(i, 1);
        pop
    }

    #[test]
    fn naive_run_tallies_match_run_result() {
        let proto = epidemic();
        let reg = Registry::new();
        let mut obs = TelemetryObserver::in_registry(&reg);
        let mut pop = seeded_pop(&proto, 40);
        let mut sched = UniformRandomScheduler::from_seed(11);
        let res = Simulator::new(&proto)
            .run_observed(&mut pop, &mut sched, &Silent, 1_000_000, &mut obs)
            .unwrap();
        obs.flush();
        let snap = Snapshot::capture(&reg);
        assert_eq!(snap.value("engine.interactions"), Some(res.interactions));
        assert_eq!(
            snap.value("engine.effective_interactions"),
            Some(res.effective_interactions)
        );
        assert_eq!(snap.value("engine.runs"), Some(1));
        assert_eq!(snap.value("engine.censored_runs"), Some(0));
    }

    #[test]
    fn leap_and_naive_tallies_are_each_internally_consistent() {
        // The two kernels share a law but not a sample path, so totals
        // differ per seed. What must hold for both: the observer's
        // tallies reconcile with the RunResult, interactions split into
        // effective + identity-histogram mass, and — for the epidemic —
        // effective interactions are exactly n − 1 on every path (each
        // one infects exactly one agent).
        let proto = epidemic();
        let n = 64u64;
        for seed in [3u64, 17] {
            for kernel in [Kernel::Naive, Kernel::Leap] {
                let reg = Registry::new();
                let mut obs = TelemetryObserver::in_registry(&reg);
                let mut pop = seeded_pop(&proto, n);
                let mut sched = UniformRandomScheduler::from_seed(seed);
                let res = Simulator::new(&proto)
                    .run_kernel(kernel, &mut pop, &mut sched, &Silent, 10_000_000, &mut obs)
                    .unwrap();
                drop(obs); // flush via Drop
                let snap = Snapshot::capture(&reg);
                let ctx = format!("seed {seed}, {kernel} kernel");
                assert_eq!(
                    snap.value("engine.interactions"),
                    Some(res.interactions),
                    "{ctx}"
                );
                assert_eq!(
                    snap.value("engine.effective_interactions"),
                    Some(res.effective_interactions),
                    "{ctx}"
                );
                assert_eq!(
                    snap.value("engine.effective_interactions"),
                    Some(n - 1),
                    "{ctx}"
                );
                let MetricData::Histogram { sum, .. } =
                    &snap.get("engine.identity_run_len").unwrap().data
                else {
                    panic!("expected histogram ({ctx})");
                };
                assert_eq!(res.effective_interactions + sum, res.interactions, "{ctx}");
            }
        }
    }

    #[test]
    fn censored_runs_are_counted() {
        let proto = epidemic();
        let reg = Registry::new();
        let mut obs = TelemetryObserver::in_registry(&reg);
        let mut pop = seeded_pop(&proto, 64);
        let mut sched = UniformRandomScheduler::from_seed(5);
        let res = Simulator::new(&proto).run_observed(&mut pop, &mut sched, &Silent, 3, &mut obs);
        assert!(res.is_err());
        obs.mark_censored();
        obs.flush();
        let snap = Snapshot::capture(&reg);
        assert_eq!(snap.value("engine.censored_runs"), Some(1));
        assert_eq!(snap.value("engine.interactions"), Some(3));
    }

    #[test]
    fn flush_is_idempotent_and_drop_flushes() {
        let reg = Registry::new();
        let mut obs = TelemetryObserver::in_registry(&reg);
        let a = StateId(0);
        let b = StateId(1);
        obs.on_interaction(1, a, a, a, a, &[2, 0]); // identity
        obs.on_interaction(2, a, a, b, b, &[0, 2]); // effective
        obs.flush();
        obs.flush(); // no-op
        drop(obs); // also a no-op
        let snap = Snapshot::capture(&reg);
        assert_eq!(snap.value("engine.interactions"), Some(2));
        assert_eq!(snap.value("engine.effective_interactions"), Some(1));
        assert_eq!(snap.value("engine.runs"), Some(1));
    }

    #[test]
    fn trailing_identity_run_is_recorded_on_flush() {
        let reg = Registry::new();
        let mut obs = TelemetryObserver::in_registry(&reg);
        let a = StateId(0);
        for step in 1..=5 {
            obs.on_interaction(step, a, a, a, a, &[2]);
        }
        drop(obs);
        let snap = Snapshot::capture(&reg);
        let MetricData::Histogram {
            count, sum, max, ..
        } = &snap.get("engine.identity_run_len").unwrap().data
        else {
            panic!("expected histogram");
        };
        assert_eq!((*count, *sum, *max), (1, 5, 5));
    }

    #[test]
    fn rescan_tracker_counts_rescans() {
        use crate::stability::StabilityCriterion;
        let proto = epidemic();
        let before = engine_metrics().stability_rescans.get();
        let counts = [2u64, 2];
        let mut tracker = Silent.tracker(&proto, &counts);
        for _ in 0..7 {
            tracker.is_stable(&proto, &counts);
        }
        assert!(engine_metrics().stability_rescans.get() >= before + 7);
    }
}
