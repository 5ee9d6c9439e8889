//! The batch (tau-leap) kernel against its two contracts.
//!
//! **Exactness of the fallback path:** with `safety_threshold >= n`
//! every step of `run_batch` falls back to an exact lumped step. On a
//! protocol without flips (no flip class) that step is the leap kernel's
//! step, draw for draw, and — because the fallback eligibility check
//! consumes no randomness — the whole run is bit-identical to
//! `run_leap_observed` for the same seed. That is a hard equality,
//! property-tested over the registry's flip-free protocols. With flips the two kernels agree in
//! law; pp-bench's `lumped_step_law` and the exact hitting-time test in
//! `tests/kernel_equivalence.rs` check that.
//!
//! **Bounded error of the leap path:** with the default configuration
//! the kernel freezes propensities over each leap, a deliberate,
//! *bounded* approximation (Cao-style tau selection with epsilon = 0.05;
//! see `pp_engine::batch`). Stabilisation-time samples are therefore NOT
//! expected to match the leap kernel exactly — the tests below compare
//! them under an explicit error model: the Welch comparison of means
//! allows an epsilon-level relative drift on top of sampling noise, and
//! the Kolmogorov–Smirnov distance threshold is set above the alpha =
//! 0.001 critical value for identical distributions, so the tests catch
//! gross divergence (wrong propensities, broken fallback) while
//! tolerating the documented O(epsilon) drift.

use pp_lint::registry;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uniform_k_partition::engine::observer::{FallbackReason, NullObserver, Observer};
use uniform_k_partition::engine::protocol::StateId;
use uniform_k_partition::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On every flip-free registry protocol (epidemic, leader election,
    /// approximate majority), `run_batch` with `safety_threshold = n`
    /// (every step low-count → always falls back) is bit-identical to
    /// `run_leap_observed` under `Silent`: same outcome, interaction and
    /// effective-interaction counts, and final configuration, for the
    /// same seed, from a configuration drawn from the seed.
    #[test]
    fn full_fallback_is_bit_identical_to_leap(
        n in 10u64..=60,
        seed in 1u64..100_000,
    ) {
        let flip_free: Vec<_> = registry::all()
            .into_iter()
            .filter(|e| e.proto.flip_class().is_empty())
            .collect();
        prop_assert_eq!(flip_free.len(), 3);
        for entry in &flip_free {
            let proto = &entry.proto;
            let sim = Simulator::new(proto);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut counts = vec![0u64; proto.num_states()];
            for _ in 0..n {
                counts[rng.gen_range(0..proto.num_states())] += 1;
            }
            let budget = 100 * n * n;

            let mut pop_leap = CountPopulation::from_counts(counts.clone());
            let mut sched_leap = UniformRandomScheduler::from_seed(seed);
            let leap = sim.run_leap_observed(
                &mut pop_leap,
                &mut sched_leap,
                &Silent,
                budget,
                &mut NullObserver,
            );

            let mut pop_batch = CountPopulation::from_counts(counts);
            let mut sched_batch = UniformRandomScheduler::from_seed(seed);
            let batch = sim.run_batch_configured(
                &mut pop_batch,
                &mut sched_batch,
                &Silent,
                budget,
                n,
                &mut NullObserver,
            );

            prop_assert_eq!(&leap, &batch, "{}", entry.slug);
            prop_assert_eq!(pop_leap.counts(), pop_batch.counts(), "{}", entry.slug);
        }
    }
}

/// Counts applied leaps so the distribution test can prove it exercised
/// the approximate path rather than comparing exact against exact.
#[derive(Default)]
struct LeapCounter {
    leaps: u64,
}

impl Observer for LeapCounter {
    fn on_interaction(
        &mut self,
        _step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        _counts: &[u64],
    ) {
    }
    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, _effective: u64, _counts: &[u64]) {
        self.leaps += 1;
    }
    fn on_batch_fallback(&mut self, _reason: FallbackReason) {}
}

/// Stabilisation-time samples (scheduler interactions) for one kernel.
fn samples(batch_kernel: bool, k: usize, n: u64, trials: u64, seed_base: u64) -> (Vec<f64>, u64) {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let sig = kp.stable_signature(n);
    let sim = Simulator::new(&proto);
    let mut out = Vec::with_capacity(trials as usize);
    let mut leaps = 0;
    for t in 0..trials {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed_base + t);
        let r = if batch_kernel {
            let mut counter = LeapCounter::default();
            let r = sim
                .run_batch_observed(&mut pop, &mut sched, &sig, u64::MAX, &mut counter)
                .unwrap();
            leaps += counter.leaps;
            r
        } else {
            sim.run_leap_observed(&mut pop, &mut sched, &sig, u64::MAX, &mut NullObserver)
                .unwrap()
        };
        out.push(r.interactions as f64);
    }
    (out, leaps)
}

fn mean_sem(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Two-sample Kolmogorov–Smirnov statistic (max CDF distance).
fn ks_statistic(a: &mut [f64], b: &mut [f64]) -> f64 {
    a.sort_by(|x, y| x.partial_cmp(y).unwrap());
    b.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (mut i, mut j, mut d) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        let fa = i as f64 / a.len() as f64;
        let fb = j as f64 / b.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

/// Batch vs leap on a mid-size cell, under the bounded-error model
/// spelled out in the module docs: the batch kernel's mean
/// interactions-to-stability may drift from the leap kernel's by up to
/// ~epsilon (the tau-selection parameter, 0.05 by default) relative,
/// plus ordinary sampling noise; the KS distance threshold 0.25 sits
/// well above the ~0.17 alpha = 0.001 critical value for 120-vs-120
/// identical samples. The test also asserts the batch runs actually
/// leapt — otherwise it would vacuously compare exact against exact.
#[test]
fn batch_and_leap_agree_in_distribution_on_mid_size_cell() {
    let (k, n, trials) = (3usize, 600u64, 120u64);
    let epsilon = uniform_k_partition::engine::batch::EPSILON;
    let (mut leap, _) = samples(false, k, n, trials, 300_000);
    let (mut batch, leaps) = samples(true, k, n, trials, 400_000);
    assert!(
        leaps > 0,
        "batch runs never leapt at n={n} — the comparison is vacuous"
    );

    let (m_leap, s_leap) = mean_sem(&leap);
    let (m_batch, s_batch) = mean_sem(&batch);
    // Welch comparison with an explicit epsilon-drift allowance: the
    // tolerated gap is 2*epsilon relative (twice the per-leap freeze
    // bound, generous for accumulated drift) plus 4 joint standard
    // errors of sampling noise.
    let gap = (m_batch - m_leap).abs();
    let tolerance = 2.0 * epsilon * m_leap + 4.0 * (s_leap * s_leap + s_batch * s_batch).sqrt();
    assert!(
        gap < tolerance,
        "means diverged beyond the bounded-error model: leap {m_leap:.0} ± {s_leap:.0}, \
batch {m_batch:.0} ± {s_batch:.0}, gap {gap:.0} > tolerance {tolerance:.0}"
    );

    let d = ks_statistic(&mut leap, &mut batch);
    assert!(
        d < 0.25,
        "KS distance {d:.3} exceeds the bounded-error threshold 0.25"
    );
}
