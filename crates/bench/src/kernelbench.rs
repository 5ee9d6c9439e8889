//! Kernel measurement (naive vs leap vs batch): the numbers behind
//! `BENCH_engine.json` and the CI speedup smoke tests.
//!
//! All kernels simulate the same process — a uniform random scheduler
//! drawing ordered pairs of distinct agents — so the honest throughput
//! metric is *scheduler interactions per second*: identity (null)
//! interactions included, because the paper's time metric counts them
//! and the naive loop pays for each one. The leap kernel skips whole
//! identity runs in O(1), which is exactly where its advantage shows;
//! the batch kernel additionally fires whole tau-leaps of rule firings
//! in O(|rules|), which is where the giant-n regime opens up.
//!
//! ## Censoring semantics
//!
//! A measurement is *censored* when the run hit its interaction budget
//! before stabilising; a censored run did **less work than the task**
//! (run to stability), so wall-clock times of a censored and an
//! uncensored run are not comparable. Every per-kernel record therefore
//! carries its own `censored` flag, a cell is censored iff *any* of its
//! kernels is, and [`cell_json`] picks the speedup basis from the flags:
//! end-to-end `wall_clock` when both compared kernels completed the same
//! run, per-interaction `interactions_per_sec` (flat per-interaction
//! cost, honest under censoring) otherwise.

use std::time::Instant;

use pp_engine::observer::Observer;
use pp_engine::population::CountPopulation;
use pp_engine::protocol::StateId;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::{Kernel, RunError, Simulator};
use pp_protocols::kpartition::UniformKPartition;

/// One timed run of one kernel on one k-partition cell.
#[derive(Clone, Copy, Debug)]
pub struct KernelMeasurement {
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Partition arity.
    pub k: usize,
    /// Population size.
    pub n: u64,
    /// Scheduler interactions simulated (identities included).
    pub interactions: u64,
    /// Interactions that changed the configuration.
    pub effective_interactions: u64,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Whether the run reached the stable signature within the budget.
    pub stabilised: bool,
}

impl KernelMeasurement {
    /// Scheduler interactions per wall-clock second.
    pub fn interactions_per_sec(&self) -> f64 {
        self.interactions as f64 / self.seconds.max(1e-12)
    }
}

/// Counts effective interactions; works on the censored path too, where
/// `RunError` carries no counters. The leap kernel only reports
/// effective interactions, the naive kernel reports identities as well,
/// so counting `(p, q) != (p2, q2)` is right for both; the batch kernel
/// reports each tau-leap's effective-firing total through
/// `on_leap_batch` and its exact-fallback interactions one by one.
#[derive(Default)]
struct EffectiveCounter {
    effective: u64,
}

impl Observer for EffectiveCounter {
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
        if (p, q) != (p2, q2) {
            self.effective += 1;
        }
    }

    #[inline]
    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, effective: u64, _counts: &[u64]) {
        self.effective += effective;
    }
}

/// Time one seeded k-partition run to stability (or to `budget`
/// interactions, whichever comes first) under the given kernel.
pub fn measure(kernel: Kernel, k: usize, n: u64, budget: u64, seed: u64) -> KernelMeasurement {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let criterion = kp.stable_signature(n);
    let mut pop = CountPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    let sim = Simulator::new(&proto);
    let mut counter = EffectiveCounter::default();

    let t0 = Instant::now();
    let res = sim.run_kernel(
        kernel,
        &mut pop,
        &mut sched,
        &criterion,
        budget,
        &mut counter,
    );
    let seconds = t0.elapsed().as_secs_f64();

    let (interactions, stabilised) = match res {
        Ok(r) => {
            debug_assert_eq!(r.effective_interactions, counter.effective);
            (r.interactions, true)
        }
        // Censored at the budget: the kernel still simulated `limit`
        // interactions, so the throughput number stays honest.
        Err(RunError::InteractionLimit { limit }) => (limit, false),
        Err(e) => panic!("bench run failed: {e}"),
    };
    KernelMeasurement {
        kernel,
        k,
        n,
        interactions,
        effective_interactions: counter.effective,
        seconds,
        stabilised,
    }
}

/// One JSON record per measured kernel run, carrying the run's own
/// censoring flag (see the module docs on censoring semantics).
pub fn measurement_json(m: &KernelMeasurement) -> pp_sweep::json::Value {
    use pp_sweep::json::Value;
    Value::obj([
        ("kernel", Value::Str(m.kernel.name().to_string())),
        ("interactions", Value::U64(m.interactions)),
        (
            "effective_interactions",
            Value::U64(m.effective_interactions),
        ),
        ("micros", Value::U64((m.seconds * 1e6) as u64)),
        (
            "interactions_per_sec",
            Value::U64(m.interactions_per_sec() as u64),
        ),
        ("stabilised", Value::Bool(m.stabilised)),
        ("censored", Value::Bool(!m.stabilised)),
    ])
}

/// One cell of `BENCH_engine.json`: the measurements of every kernel
/// that ran at this population size, keyed by kernel label.
///
/// The cell-level `censored` flag is true iff any kernel's run was
/// censored; per-kernel flags live in the sub-records, so a cell where
/// naive hit its cap while leap stabilised reads `censored: true` at the
/// cell *and* `naive.censored: true` / `leap.censored: false` below it.
/// When both naive and leap ran, the cell carries their speedup: an
/// end-to-end wall-clock ratio (`speedup_basis: "wall_clock"`) when both
/// completed the run to stability, a throughput ratio
/// (`speedup_basis: "interactions_per_sec"`) when censoring made wall
/// times incomparable.
pub fn cell_json(n: u64, ms: &[KernelMeasurement]) -> pp_sweep::json::Value {
    use pp_sweep::json::Value;
    let censored = ms.iter().any(|m| !m.stabilised);
    let mut fields = vec![("n", Value::U64(n))];
    for m in ms {
        fields.push((m.kernel.name(), measurement_json(m)));
    }
    fields.push(("censored", Value::Bool(censored)));
    let naive = ms.iter().find(|m| m.kernel == Kernel::Naive);
    let leap = ms.iter().find(|m| m.kernel == Kernel::Leap);
    if let (Some(na), Some(le)) = (naive, leap) {
        let (speedup, basis) = if na.stabilised && le.stabilised {
            (na.seconds / le.seconds.max(1e-12), "wall_clock")
        } else {
            (
                le.interactions_per_sec() / na.interactions_per_sec().max(1e-12),
                "interactions_per_sec",
            )
        };
        fields.push(("speedup", Value::U64(speedup as u64)));
        fields.push(("speedup_basis", Value::Str(basis.to_string())));
    }
    Value::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_stabilise_a_small_cell() {
        for kernel in Kernel::ALL {
            let m = measure(kernel, 3, 24, u64::MAX, 7);
            assert!(m.stabilised, "{:?} failed to stabilise", kernel);
            assert!(m.interactions >= m.effective_interactions);
            assert!(m.interactions_per_sec() > 0.0);
        }
    }

    #[test]
    fn censored_run_reports_the_budget() {
        let m = measure(Kernel::Naive, 3, 24, 10, 7);
        assert!(!m.stabilised);
        assert_eq!(m.interactions, 10);
    }

    fn fake(kernel: Kernel, stabilised: bool, seconds: f64, ips: f64) -> KernelMeasurement {
        KernelMeasurement {
            kernel,
            k: 8,
            n: 1000,
            interactions: (ips * seconds) as u64,
            effective_interactions: 10,
            seconds,
            stabilised,
        }
    }

    #[test]
    fn cell_json_per_kernel_censoring_and_wall_basis() {
        // Both kernels completed the run: uncensored cell, wall-clock basis.
        let cell = cell_json(
            1000,
            &[
                fake(Kernel::Naive, true, 2.0, 1e6),
                fake(Kernel::Leap, true, 1.0, 2e6),
            ],
        )
        .encode();
        assert!(cell.contains("\"censored\":false"));
        assert!(cell.contains("\"speedup_basis\":\"wall_clock\""));
        assert!(cell.contains("\"speedup\":2"));
    }

    #[test]
    fn cell_json_censored_naive_downgrades_to_throughput_basis() {
        // Naive hit its cap, leap stabilised: the cell is censored, the
        // naive sub-record says so, the leap sub-record does not, and the
        // speedup switches to the per-interaction basis because the two
        // wall times cover different amounts of work.
        let cell = cell_json(
            100_000,
            &[
                fake(Kernel::Naive, false, 2.0, 1e6),
                fake(Kernel::Leap, true, 1.0, 50e6),
                fake(Kernel::Batch, true, 0.5, 100e6),
            ],
        )
        .encode();
        assert!(cell.contains("\"censored\":true"));
        assert!(cell.contains("\"speedup_basis\":\"interactions_per_sec\""));
        assert!(cell.contains("\"speedup\":50"));
        // Per-kernel flags diverge within the one cell.
        let naive_rec = cell.split("\"naive\":").nth(1).unwrap();
        assert!(naive_rec
            .split('}')
            .next()
            .unwrap()
            .contains("\"censored\":true"));
        let leap_rec = cell.split("\"leap\":").nth(1).unwrap();
        assert!(leap_rec
            .split('}')
            .next()
            .unwrap()
            .contains("\"censored\":false"));
    }

    #[test]
    fn cell_json_without_naive_has_no_speedup_pair() {
        let cell = cell_json(100_000_000, &[fake(Kernel::Batch, true, 1.0, 1e12)]).encode();
        assert!(cell.contains("\"censored\":false"));
        assert!(!cell.contains("speedup"));
    }
}
