//! CI guard for the observability overhead contract: a leap run with
//! the convergence-phase probe attached must stay within 2% of the
//! `NullObserver` baseline. The probe only classifies counts at
//! log-spaced checkpoints (interaction numbers 1, 2, 4, 8, …), so its
//! steady-state cost is a single branch per observer callback — the
//! hot kernel loops themselves are untouched by pp-obs/pp-sweep
//! timelines. Timing-sensitive, so `#[ignore]`d by default and run in
//! release mode by the CI step `cargo test --release -p pp-bench --
//! --ignored`.
//!
//! The two variants run in back-to-back pairs, alternating which goes
//! first, and the verdict is the median over the pairs of the probed
//! run's time over the baseline run's. Drift in the host's speed then
//! falls on both halves of a pair alike instead of deciding the verdict,
//! and one lucky or unlucky run moves the median by one rank at most.
//! With the probe swapped for a second `NullObserver`, this estimate
//! stayed within ±0.8% over 8 runs on a 2-vCPU shared host, where
//! comparing each side's fastest run spread over −2% … +4%.

use pp_engine::observer::NullObserver;
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::CompiledProtocol;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::Simulator;
use pp_engine::stability::Signature;
use pp_protocols::kpartition::{PhaseProbe, UniformKPartition};
use std::hint::black_box;
use std::time::Instant;

/// One leap cell to stability, timed with or without the probe.
struct Cell {
    kp: UniformKPartition,
    proto: CompiledProtocol,
    criterion: Signature,
    budget: u64,
    n: u64,
    seed: u64,
}

impl Cell {
    fn new(k: usize, n: u64, seed: u64) -> Cell {
        let kp = UniformKPartition::new(k);
        Cell {
            proto: kp.compile(),
            criterion: kp.stable_signature(n),
            budget: kp.interaction_budget(n),
            kp,
            n,
            seed,
        }
    }

    /// Wall time of one leap run to stability, in seconds.
    fn seconds(&self, with_probe: bool) -> f64 {
        let mut pop = CountPopulation::new(&self.proto, self.n);
        let mut sched = UniformRandomScheduler::from_seed(self.seed);
        let sim = Simulator::new(&self.proto);
        let t0 = Instant::now();
        let interactions = if with_probe {
            let mut probe = PhaseProbe::new(self.kp.phase_map());
            let r = sim
                .run_leap_observed(
                    &mut pop,
                    &mut sched,
                    &self.criterion,
                    self.budget,
                    &mut probe,
                )
                .expect("cell stabilises");
            probe.finish(r.interactions, pop.counts());
            black_box(probe.segments().len());
            r.interactions
        } else {
            sim.run_leap_observed(
                &mut pop,
                &mut sched,
                &self.criterion,
                self.budget,
                &mut NullObserver,
            )
            .expect("cell stabilises")
            .interactions
        };
        black_box(interactions);
        t0.elapsed().as_secs_f64()
    }
}

#[test]
#[ignore = "timing-sensitive; CI runs it in release mode via -- --ignored"]
fn phase_probe_overhead_within_two_percent() {
    let (k, n, seed, reps) = (8usize, 10_000u64, 20180725u64, 25);
    let cell = Cell::new(k, n, seed);
    // One untimed run of each variant first, so neither side pays
    // one-time costs (page faults, branch training).
    cell.seconds(false);
    cell.seconds(true);
    // Per pair, the probed run's time over the baseline run's.
    let mut ratios: Vec<f64> = (0..reps)
        .map(|rep| {
            let order = if rep % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            let mut seconds = [0.0; 2];
            for with_probe in order {
                seconds[usize::from(with_probe)] = cell.seconds(with_probe);
            }
            seconds[1] / seconds[0]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[reps / 2] - 1.0;
    println!(
        "leap k={k} n={n}: median phase-probe/baseline over {reps} pairs: overhead {:+.2}% \
         (pairs span {:+.2}% … {:+.2}%)",
        overhead * 100.0,
        (ratios[0] - 1.0) * 100.0,
        (ratios[reps - 1] - 1.0) * 100.0
    );
    assert!(
        overhead <= 0.02,
        "phase probe costs {:.2}% on the leap kernel (contract: <= 2%)",
        overhead * 100.0
    );
}
