//! CI guard for the observability overhead contract: a leap run with
//! the convergence-phase probe attached must stay within 2% of the
//! `NullObserver` baseline. The probe only classifies counts at
//! log-spaced checkpoints (interaction numbers 1, 2, 4, 8, …), so its
//! steady-state cost is a single branch per observer callback — the
//! hot kernel loops themselves are untouched by pp-obs/pp-sweep
//! timelines. Timing-sensitive, so `#[ignore]`d by default and run in
//! release mode by the CI step `cargo test --release -p pp-bench --
//! --ignored`.

use pp_engine::population::{CountPopulation, Population};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::Simulator;
use pp_protocols::kpartition::{PhaseProbe, UniformKPartition};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall time of one leap run to stability, in seconds.
/// Minimum (not mean) so scheduler noise and cache warm-up inflate
/// neither side of the comparison.
fn best_leap_seconds(
    kp: &UniformKPartition,
    n: u64,
    seed: u64,
    reps: usize,
    with_probe: bool,
) -> f64 {
    let proto = kp.compile();
    let criterion = kp.stable_signature(n);
    let budget = kp.interaction_budget(n);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let t0 = Instant::now();
        let interactions = if with_probe {
            let mut probe = PhaseProbe::new(kp.phase_map());
            let r = Simulator::new(&proto)
                .run_leap_observed(&mut pop, &mut sched, &criterion, budget, &mut probe)
                .expect("cell stabilises");
            probe.finish(r.interactions, pop.counts());
            black_box(probe.segments().len());
            r.interactions
        } else {
            let r = Simulator::new(&proto)
                .run_leap_observed(
                    &mut pop,
                    &mut sched,
                    &criterion,
                    budget,
                    &mut pp_engine::observer::NullObserver,
                )
                .expect("cell stabilises");
            r.interactions
        };
        black_box(interactions);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "timing-sensitive; CI runs it in release mode via -- --ignored"]
fn phase_probe_overhead_within_two_percent() {
    let (k, n, seed, reps) = (8usize, 10_000u64, 20180725u64, 9);
    let kp = UniformKPartition::new(k);
    // Interleave a warm-up of each variant before timed reps so neither
    // side pays one-time costs (page faults, branch training).
    let _ = best_leap_seconds(&kp, n, seed, 1, false);
    let _ = best_leap_seconds(&kp, n, seed, 1, true);
    let baseline = best_leap_seconds(&kp, n, seed, reps, false);
    let probed = best_leap_seconds(&kp, n, seed, reps, true);

    let overhead = probed / baseline - 1.0;
    println!(
        "leap k={k} n={n}: baseline {:.6}s, phase-probe {:.6}s, overhead {:+.2}%",
        baseline,
        probed,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "phase probe costs {:.2}% on the leap kernel (contract: <= 2%)",
        overhead * 100.0
    );
}
