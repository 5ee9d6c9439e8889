//! Kernel measurement (naive vs leap vs batch) for the release-mode
//! gates in `tests/`.
//!
//! All kernels simulate the same process — a uniform random scheduler
//! drawing ordered pairs of distinct agents — so one throughput metric
//! is *scheduler interactions per second*: identity (null)
//! interactions included, because the paper's time metric counts them
//! and the naive loop pays for each one. The leap kernel skips whole
//! identity runs in O(1), which is exactly where its advantage shows;
//! the batch kernel additionally fires whole tau-leaps of rule firings
//! in O(|rules|), which is where the giant-n regime opens up. Identities
//! per effective interaction grow with n, so kernels are compared at
//! equal n, on *effective interactions per second*.
//!
//! A run that hits its interaction budget before stabilising is
//! *censored*: it reports `stabilised: false` and the budget as its
//! interaction count, so its throughput stays honest while its wall time
//! covers less than the task.

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

    /// Effective (configuration-changing) interactions per wall-clock
    /// second.
    pub fn effective_per_sec(&self) -> f64 {
        self.effective_interactions as f64 / self.seconds.max(1e-12)
    }
}

/// Counts effective interactions; works on the censored path too, where
/// `RunError` carries no counters. The leap kernel only reports
/// effective interactions, the naive kernel reports identities as well,
/// so counting `(p, q) != (p2, q2)` is right for both. The batch kernel
/// reports the effective-firing total of each tau-leap, and of each
/// lumped stretch of flips in its exact steps, through `on_leap_batch`,
/// and the last effective interaction of each exact step one by one.
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
        interactions,
        effective_interactions: counter.effective,
        seconds,
        stabilised,
    }
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
}
