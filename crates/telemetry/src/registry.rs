//! The metric registry: named handles to shared counters, gauges, and
//! histograms.
//!
//! A [`Registry`] maps metric names (plus optional labels) to
//! `Arc`-shared primitives. Lookup takes a mutex, so call sites hold on
//! to the returned handle instead of re-resolving per event — the record
//! path then touches only the primitive's atomics. A process-wide
//! instance is available via [`global()`]; tests that need exact counts
//! construct their own `Registry` so parallel test threads cannot bleed
//! into each other's numbers.
//!
//! Naming scheme: `layer.subsystem.metric` in snake_case, e.g.
//! `engine.effective_interactions`, `sweep.cells.cache_hits`,
//! `verify.frontier_peak`. Per-entity series use labels
//! (`sweep.cell.wall_micros{cell=fig3_k4_n96}`) rather than mangled
//! names, so exports can aggregate across the label dimension.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A handle stored in the registry.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Instantaneous value.
    Gauge(Arc<Gauge>),
    /// Log₂-bucketed histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered series: a base name, its labels, and the primitive.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Base metric name (`engine.interactions`).
    pub name: String,
    /// Label pairs, sorted by key; empty for unlabelled metrics.
    pub labels: Vec<(String, String)>,
    /// The shared primitive.
    pub metric: Metric,
}

/// Render the unique registry key for a name + label set.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

/// A collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// — that is a naming-scheme bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Labelled counter, e.g. `("sweep.cell.trials", &[("cell", stem)])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.resolve(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.resolve(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.resolve(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn resolve(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let key = series_key(name, &labels);
        let mut entries = self.entries.lock().expect("registry poisoned");
        entries
            .entry(key)
            .or_insert_with(|| Entry {
                name: name.to_string(),
                labels,
                metric: make(),
            })
            .metric
            .clone()
    }

    /// All registered series, sorted by key (deterministic export order).
    pub fn entries(&self) -> Vec<Entry> {
        self.entries
            .lock()
            .expect("registry poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reset every registered metric to zero (series stay registered).
    pub fn reset(&self) {
        for e in self.entries() {
            match e.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry. All production instrumentation lands
/// here; `pp-sweep run --metrics` exports it at the end of the run.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand: gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand: histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_instance() {
        let reg = Registry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn labels_distinguish_series_and_sort_canonically() {
        let reg = Registry::new();
        let a = reg.counter_with("cell.trials", &[("cell", "a")]);
        let b = reg.counter_with("cell.trials", &[("cell", "b")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
        // Label order must not create distinct series.
        let c1 = reg.counter_with("m", &[("x", "1"), ("y", "2")]);
        let c2 = reg.counter_with("m", &[("y", "2"), ("x", "1")]);
        c1.inc();
        assert_eq!(c2.get(), 1);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("oops");
        let _ = reg.gauge("oops");
    }

    #[test]
    fn entries_are_sorted_and_reset_works() {
        let reg = Registry::new();
        reg.counter("b.second").inc();
        reg.counter("a.first").add(5);
        reg.gauge("c.gauge").set(9);
        let names: Vec<String> = reg.entries().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, ["a.first", "b.second", "c.gauge"]);
        reg.reset();
        assert_eq!(reg.counter("a.first").get(), 0);
        assert_eq!(reg.gauge("c.gauge").get(), 0);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn concurrent_registration_and_increment() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        reg.counter("shared.events").inc();
                        reg.counter_with("labelled.events", &[("shard", "0")])
                            .add(i % 2);
                    }
                });
            }
        });
        assert_eq!(reg.counter("shared.events").get(), 800);
        assert_eq!(
            reg.counter_with("labelled.events", &[("shard", "0")]).get(),
            8 * 50
        );
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global().counter("test.registry.global_singleton");
        let b = counter("test.registry.global_singleton");
        a.inc();
        assert!(b.get() >= 1);
    }
}
