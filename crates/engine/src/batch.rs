//! The tau-leap **batch kernel**: whole batches of rule firings per step.
//!
//! ## Propensity model
//!
//! Under the uniform random scheduler each interaction draws an ordered
//! pair of distinct agents uniformly from the `T = n(n−1)` possibilities.
//! Every ordered state pair `(p, q)` whose transition is not the identity
//! is a *channel* `i` with weight
//!
//! ```text
//! w_i(c) = c_p · (c_q − [p = q])
//! ```
//!
//! so a single interaction fires channel `i` with probability `w_i / T`
//! and is an identity with probability `W_id / T`, where
//! `Σ_i w_i = W_eff = T − W_id` exactly (the channels partition the
//! non-identity pairs). **Freezing the propensities** over a horizon of
//! `tau` interactions, the number of effective firings is
//! `F ~ Binomial(tau, W_eff / T)` and the per-channel counts are the
//! multinomial split of `F` proportional to `w_i` — sampled here by
//! binomial splitting, one [`sample_binomial`] draw per enabled channel.
//! One leap therefore costs O(|channels|) regardless of how many of the
//! `tau` interactions it covers, against the leap kernel's one sampling
//! step per *effective* interaction.
//!
//! ## Error bound (the tau-leap approximation, clearly labelled)
//!
//! The *only* approximation is the propensity freeze: real propensities
//! drift as counts change inside the leap. The horizon is chosen with the
//! standard Cao–Gillespie–Petzold bound — `tau` small enough that every
//! reactant state's expected count change and its standard deviation stay
//! within `max(ε · c_s, 1)`:
//!
//! ```text
//! tau ≤ min_s  max(ε c_s, 1) · T / |μ_s|,   max(ε c_s, 1)² · T / σ²_s
//! μ_s  = Σ_i d_{i,s} · w_i        (net drift of state s per interaction · T)
//! σ²_s = Σ_i d²_{i,s} · w_i
//! ```
//!
//! so relative propensity drift per leap is O(ε). Two further bounded
//! approximations: the binomial sampler switches to a normal
//! approximation above mean ≈ 32 (error exponentially small in the
//! mean), and firings inside one leap are unordered (observers see
//! leap-granular, not interaction-granular, trajectories — see
//! [`Observer::on_leap_batch`]). Statistics of the *stabilised* outcome
//! are protected by the fallback policy below; distribution tests in
//! `tests/batch_kernel.rs` bound the residual error empirically.
//!
//! ## Fallback policy (terminal behaviour is exact)
//!
//! Before each leap the kernel re-checks eligibility and hands control to
//! the **exact leap kernel** for a burst of [`BatchConfig::exact_burst`]
//! composite steps, each one call of the exact step
//! [`crate::simulator::Simulator::run_leap`] repeats, when:
//!
//! * **near convergence** — the stability tracker's
//!   [`crate::stability::StabilityTracker::violations_hint`] is at most
//!   [`BatchConfig::near_convergence_violations`]: the endgame that
//!   decides the paper's §5 metric is simulated exactly;
//! * **low counts** — channels whose reactant counts are at or below
//!   [`BatchConfig::safety_threshold`] carry enough propensity that a
//!   leap of useful size would likely fire them (`tau` is capped so the
//!   *expected* number of low-count firings per leap stays below one;
//!   when that cap squeezes the leap under [`BatchConfig::min_batch`]
//!   expected firings, the kernel steps exactly instead) — low-count
//!   species are where tau-leaping's error concentrates;
//! * **small leap** — the ε bound itself yields fewer than
//!   [`BatchConfig::min_batch`] expected firings: exact stepping is
//!   cheaper than a degenerate multinomial;
//! * **overdraw** — [`BatchConfig::max_retries`] tau-halvings could not
//!   produce a draw keeping every count non-negative.
//!
//! Eligibility checks consume **no randomness**, so a configuration that
//! always falls back (e.g. `safety_threshold = n`) makes `run_batch`
//! consume the RNG identically to `run_leap` — the bit-identity contract
//! `tests/batch_kernel.rs` pins down.

use crate::leap::{IdentityWeights, LeapRun, StepOutcome};
use crate::observer::{FallbackReason, Observer};
use crate::protocol::{CompiledProtocol, StateId};
use crate::simulator::{RunError, RunResult};
use crate::stability::StabilityCriterion;
use rand::rngs::SmallRng;
use rand::RngCore;

/// Tuning knobs of the batch kernel. The defaults are deliberately
/// conservative; `safety_threshold = n` turns the kernel into a
/// bit-identical replica of the leap kernel (every step falls back).
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Relative propensity-drift bound ε per leap (Cao-style tau
    /// selection): expected count change of any reactant state inside one
    /// leap stays within `max(ε · c_s, 1)`.
    pub epsilon: f64,
    /// Reactant counts at or below this are *low*: leaps are capped so
    /// low-count channels are not expected to fire inside them.
    pub safety_threshold: u64,
    /// Minimum expected effective firings for a leap to be worth taking;
    /// below it the kernel steps exactly.
    pub min_batch: u64,
    /// Number of exact composite steps per fallback burst before
    /// eligibility is re-evaluated.
    pub exact_burst: u64,
    /// Fall back for good-measure exactness once the stability tracker
    /// reports at most this many violated constraints.
    pub near_convergence_violations: u64,
    /// Tau-halving retries when a drawn leap would push a count negative.
    pub max_retries: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            epsilon: 0.05,
            safety_threshold: 16,
            min_batch: 16,
            exact_burst: 64,
            near_convergence_violations: 3,
            max_retries: 3,
        }
    }
}

/// Reusable per-step workspace, fully reinitialised by every leap
/// attempt; shared across a fleet's trials so the hot loop allocates
/// nothing.
///
/// The kernel's *channels* are the protocol's compiled pairs
/// ([`CompiledProtocol::pair_effects`]), taken in their row-major order:
/// the binomial split of a leap consumes randomness in channel order.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Per-channel weight `w_i` for the current configuration.
    weights: Vec<u64>,
    /// Per-state net count delta of the drawn leap.
    deltas: Vec<i64>,
    /// Per-state drift `μ_s` and variance `σ²_s` accumulators.
    mu: Vec<f64>,
    sigma2: Vec<f64>,
}

impl Scratch {
    /// Workspace sized for `proto`.
    pub fn new(proto: &CompiledProtocol) -> Self {
        let m = proto.num_states();
        Scratch {
            weights: vec![0; proto.pair_effects().len()],
            deltas: vec![0; m],
            mu: vec![0.0; m],
            sigma2: vec![0.0; m],
        }
    }
}

/// Per-trial state of one batch-kernel run: the exact step's run state
/// (identity weights, stability tracker, counters) and the exact-burst
/// countdown. [`crate::simulator::Simulator::run_batch`]
/// drives one; [`crate::fleet`] drives hundreds in lockstep over a shared
/// [`Scratch`].
pub struct BatchTrial<'a> {
    run: LeapRun<'a>,
    /// Remaining exact composite steps in the current fallback burst.
    exact_left: u64,
}

impl<'a> BatchTrial<'a> {
    /// Trial state for configuration `counts` under `criterion`. The
    /// caller has already found `counts` unstable.
    ///
    /// # Errors
    /// [`RunError::PopulationTooSmall`] below two agents, and
    /// [`RunError::PopulationTooLarge`] when `n(n−1)` does not fit in
    /// `u64`; both before any draw.
    pub fn new<C: StabilityCriterion>(
        proto: &CompiledProtocol,
        criterion: &'a C,
        counts: &[u64],
    ) -> Result<Self, RunError> {
        Ok(BatchTrial {
            run: LeapRun::new(proto, criterion, counts)?,
            exact_left: 0,
        })
    }

    /// The counters so far.
    pub fn result(&self) -> RunResult {
        self.run.result()
    }

    /// Advance the trial by one step: either one tau-leap or one exact
    /// composite step (identity run + one effective interaction),
    /// depending on eligibility.
    #[allow(clippy::too_many_arguments)]
    pub fn step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        cfg: &BatchConfig,
        scratch: &mut Scratch,
        observer: &mut O,
    ) -> StepOutcome {
        if self.exact_left == 0 {
            match self.try_leap(proto, counts, rng, max_interactions, cfg, scratch, observer) {
                LeapOutcome::Done(out) => return out,
                LeapOutcome::Fallback(reason) => {
                    observer.on_batch_fallback(reason);
                    self.exact_left = cfg.exact_burst.max(1);
                }
            }
        }
        self.exact_left -= 1;
        self.run
            .step(proto, counts, rng, max_interactions, observer)
    }

    /// Attempt one tau-leap. Consumes randomness only once eligibility is
    /// established — a fallback decision is RNG-free.
    #[allow(clippy::too_many_arguments)]
    fn try_leap<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        cfg: &BatchConfig,
        scratch: &mut Scratch,
        observer: &mut O,
    ) -> LeapOutcome {
        let run = &mut self.run;
        let total = run.total;
        let channels = proto.pair_effects();
        // Terminal exactness first: close to stability, hand over.
        if let Some(v) = run.tracker.violations_hint() {
            if v <= cfg.near_convergence_violations {
                return LeapOutcome::Fallback(FallbackReason::NearConvergence);
            }
        }

        // Channel weights for the frozen configuration.
        let mut w_eff: u64 = 0;
        let mut w_low: u64 = 0;
        for (i, ch) in channels.iter().enumerate() {
            let cp = counts[ch.p.index()];
            let cq = counts[ch.q.index()];
            // w_i = c_p · (c_q − [p = q]): a self-pair needs two agents.
            let w = if ch.p == ch.q {
                cp * cp.saturating_sub(1)
            } else {
                cp * cq
            };
            scratch.weights[i] = w;
            w_eff += w;
            if w > 0 && (cp <= cfg.safety_threshold || cq <= cfg.safety_threshold) {
                w_low += w;
            }
        }
        debug_assert_eq!(w_eff, total - run.weights.identity_weight());
        if w_eff == 0 {
            // Frozen configuration — same verdict run_leap reaches via its
            // w_id == total check, with no randomness drawn.
            return LeapOutcome::Done(StepOutcome::Limit);
        }

        // Cao-style tau selection over reactant states.
        let total_f = total as f64;
        let w_eff_f = w_eff as f64;
        scratch.mu.iter_mut().for_each(|x| *x = 0.0);
        scratch.sigma2.iter_mut().for_each(|x| *x = 0.0);
        for (i, ch) in channels.iter().enumerate() {
            let w = scratch.weights[i] as f64;
            if w == 0.0 {
                continue;
            }
            for (s, d) in ch.deltas() {
                let d = d as f64;
                scratch.mu[s.index()] += d * w;
                scratch.sigma2[s.index()] += d * d * w;
            }
        }
        let remaining = max_interactions - run.interactions;
        let mut tau = remaining as f64;
        for (i, ch) in channels.iter().enumerate() {
            if scratch.weights[i] == 0 {
                continue;
            }
            for s in [ch.p.index(), ch.q.index()] {
                let bound = (cfg.epsilon * counts[s] as f64).max(1.0);
                let mu = scratch.mu[s];
                if mu != 0.0 {
                    tau = tau.min(bound * total_f / mu.abs());
                }
                let s2 = scratch.sigma2[s];
                if s2 > 0.0 {
                    tau = tau.min(bound * bound * total_f / s2);
                }
            }
        }
        if tau * w_eff_f / total_f < cfg.min_batch as f64 {
            return LeapOutcome::Fallback(FallbackReason::SmallLeap);
        }
        if w_low > 0 {
            // Cap so low-count channels are not *expected* to fire within
            // the leap (hybrid tau-leap/exact partitioning).
            let tau_low = total_f / w_low as f64;
            if tau_low * w_eff_f / total_f < cfg.min_batch as f64 {
                return LeapOutcome::Fallback(FallbackReason::LowCount);
            }
            tau = tau.min(tau_low);
        }
        let mut tau = (tau.floor() as u64).clamp(1, remaining);

        // Draw the leap, halving tau when a draw would overdraw a state.
        for attempt in 0..=cfg.max_retries {
            let f = sample_binomial(rng, tau, w_eff_f / total_f);
            // Binomial splitting of the multinomial over channels.
            scratch.deltas.iter_mut().for_each(|d| *d = 0);
            let mut left_f = f;
            let mut left_w = w_eff;
            for (i, ch) in channels.iter().enumerate() {
                if left_f == 0 {
                    break;
                }
                let w = scratch.weights[i];
                if w == 0 {
                    continue;
                }
                let fi = if w == left_w {
                    left_f
                } else {
                    sample_binomial(rng, left_f, w as f64 / left_w as f64)
                };
                left_f -= fi;
                left_w -= w;
                if fi > 0 {
                    for (s, d) in ch.deltas() {
                        scratch.deltas[s.index()] += d * fi as i64;
                    }
                }
                if left_w == 0 {
                    break;
                }
            }
            let overdraw = scratch
                .deltas
                .iter()
                .enumerate()
                .any(|(s, &d)| (counts[s] as i128) + i128::from(d) < 0);
            if overdraw {
                if attempt == cfg.max_retries {
                    return LeapOutcome::Fallback(FallbackReason::Overdraw);
                }
                tau = (tau / 2).max(1);
                continue;
            }

            // Commit the leap: counts, tracker, identity weights, counters.
            for (s, &d) in scratch.deltas.iter().enumerate() {
                if d != 0 {
                    counts[s] = ((counts[s] as i128) + i128::from(d)) as u64;
                    run.tracker.apply_delta(StateId(s as u16), d);
                }
            }
            run.weights = IdentityWeights::new(proto, counts);
            run.interactions += tau;
            run.effective += f;
            observer.on_leap_batch(run.interactions, tau, f, counts);
            if run.tracker.is_stable(proto, counts) {
                return LeapOutcome::Done(StepOutcome::Stable);
            }
            if run.interactions >= max_interactions {
                return LeapOutcome::Done(StepOutcome::Limit);
            }
            return LeapOutcome::Done(StepOutcome::Continue);
        }
        unreachable!("overdraw loop returns on its last attempt");
    }
}

/// Internal verdict of a leap attempt.
enum LeapOutcome {
    /// A leap (or a terminal verdict) happened; the step is over.
    Done(StepOutcome),
    /// No leap: fall back to exact stepping for a burst.
    Fallback(FallbackReason),
}

/// A uniform deviate in `[0, 1)` from the top 53 bits of one `u64`.
#[inline]
fn uniform53(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
}

/// A standard normal deviate via Box–Muller (two uniforms per call; the
/// second Box–Muller root is discarded to keep the draw-count per call
/// fixed, which the fleet's determinism relies on).
#[inline]
fn sample_std_normal(rng: &mut SmallRng) -> f64 {
    // First uniform shifted into (0, 1] so the logarithm is finite.
    let u1 = (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64);
    let u2 = uniform53(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw `Binomial(t, p)`.
///
/// Exact CDF-inversion walk while the rarer-outcome mean is below ~32
/// (one uniform, expected O(mean) iterations); above that, the normal
/// approximation with continuity correction, clamped to `[0, t]` — a
/// bounded-error regime whose deviation from the exact law is
/// exponentially small in the mean (see the module docs' error model).
pub fn sample_binomial(rng: &mut SmallRng, t: u64, p: f64) -> u64 {
    if t == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return t;
    }
    // Sample the rarer outcome for numerical stability.
    if p > 0.5 {
        return t - sample_binomial_small_p(rng, t, 1.0 - p);
    }
    sample_binomial_small_p(rng, t, p)
}

/// `Binomial(t, p)` for `p ≤ 0.5`.
fn sample_binomial_small_p(rng: &mut SmallRng, t: u64, p: f64) -> u64 {
    let mean = t as f64 * p;
    if mean < 32.0 {
        // Inversion: walk the CDF from k = 0. `pdf` underflow is
        // impossible here (|t · ln(1 − p)| ≤ 2 · mean < 64).
        let tf = t as f64;
        let r = p / (1.0 - p);
        let mut pdf = (tf * (1.0 - p).ln()).exp();
        let mut cdf = pdf;
        let u = uniform53(rng);
        let mut k: u64 = 0;
        // The walk is capped ~40σ past the mean: P(overshoot) is far
        // below 2⁻⁵³, so the cap only guards degenerate float states.
        let cap = (mean + 40.0 * (mean + 1.0).sqrt()).ceil() as u64;
        while u > cdf && k < t && k <= cap {
            k += 1;
            pdf *= ((t - k + 1) as f64 / k as f64) * r;
            cdf += pdf;
        }
        k.min(t)
    } else {
        // Normal approximation with continuity correction (labelled
        // bounded-error; mean ≥ 32 keeps the tails negligible).
        let sd = (t as f64 * p * (1.0 - p)).sqrt();
        let x = mean + sd * sample_std_normal(rng) + 0.5;
        if x <= 0.0 {
            0
        } else if x >= t as f64 {
            t
        } else {
            x as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::population::{CountPopulation, Population};
    use crate::scheduler::UniformRandomScheduler;
    use crate::simulator::Simulator;
    use crate::spec::ProtocolSpec;
    use crate::stability::Silent;
    use rand::SeedableRng;

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn binomial_moments_small_mean() {
        let mut rng = SmallRng::seed_from_u64(42);
        let (t, p) = (100u64, 0.05);
        let trials = 50_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial(&mut rng, t, p) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        // Exact regime: mean 5, var 4.75.
        assert!((mean - 5.0).abs() < 0.06, "mean = {mean}");
        assert!((var - 4.75).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn binomial_moments_normal_regime() {
        let mut rng = SmallRng::seed_from_u64(43);
        let (t, p) = (1_000_000u64, 0.25);
        let trials = 20_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial(&mut rng, t, p) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        // Normal-approximation regime: mean 250 000, var 187 500.
        assert!((mean - 250_000.0).abs() < 20.0, "mean = {mean}");
        assert!((var / 187_500.0 - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn binomial_symmetry_flip_and_edges() {
        let mut rng = SmallRng::seed_from_u64(44);
        assert_eq!(sample_binomial(&mut rng, 0, 0.3), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
        for _ in 0..1000 {
            let x = sample_binomial(&mut rng, 7, 0.9);
            assert!(x <= 7);
        }
        // p close to 1 has mean close to t.
        let trials = 20_000;
        let sum: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 50, 0.98))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 49.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn channels_are_the_compiled_pairs() {
        let proto = epidemic();
        // Epidemic: (I, S) and (S, I) are the only non-identity pairs.
        assert_eq!(Scratch::new(&proto).weights.len(), 2);
        // Net deltas: S −1, I +1 for both orderings.
        for ch in proto.pair_effects() {
            let mut d: Vec<_> = ch.deltas().map(|(s, d)| (s.index(), d)).collect();
            d.sort();
            assert_eq!(d, vec![(0, -1), (1, 1)]);
        }
    }

    #[test]
    fn batch_epidemic_stabilises_everyone_infected() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 4096);
        pop.set_count(s, 4095);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(11);
        let res = Simulator::new(&proto)
            .run_batch(&mut pop, &mut sched, &Silent, u64::MAX)
            .unwrap();
        assert_eq!(pop.count(i), 4096);
        // Effective interactions are exactly the n − 1 infections on every
        // path, whether fired in bulk or exactly.
        assert_eq!(res.effective_interactions, 4095);
        assert!(res.interactions >= 4095);
    }

    #[test]
    fn batch_takes_leaps_on_large_populations() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 100_000);
        pop.set_count(s, 99_999);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(7);
        struct LeapCounter {
            batches: u64,
            fallbacks: u64,
        }
        impl Observer for LeapCounter {
            fn on_interaction(
                &mut self,
                _s: u64,
                _p: StateId,
                _q: StateId,
                _p2: StateId,
                _q2: StateId,
                _c: &[u64],
            ) {
            }
            fn on_leap_batch(&mut self, _l: u64, tau: u64, _e: u64, _c: &[u64]) {
                assert!(tau >= 1);
                self.batches += 1;
            }
            fn on_batch_fallback(&mut self, _r: FallbackReason) {
                self.fallbacks += 1;
            }
        }
        let mut obs = LeapCounter {
            batches: 0,
            fallbacks: 0,
        };
        let res = Simulator::new(&proto)
            .run_batch_observed(&mut pop, &mut sched, &Silent, u64::MAX, &mut obs)
            .unwrap();
        assert_eq!(pop.count(i), 100_000);
        assert_eq!(res.effective_interactions, 99_999);
        // The mid-run regime must actually engage the leap path, and the
        // endgame must have handed back to exact stepping at least once.
        assert!(obs.batches > 10, "batches = {}", obs.batches);
        assert!(obs.fallbacks >= 1, "fallbacks = {}", obs.fallbacks);
    }

    #[test]
    fn batch_full_fallback_matches_leap_bitwise() {
        // safety_threshold = n: every step falls back, so run_batch must
        // replicate run_leap's RNG consumption and counters exactly.
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let n = 300u64;
        for seed in [1u64, 7, 42] {
            let mut pop_a = CountPopulation::new(&proto, n);
            pop_a.set_count(s, n - 1);
            pop_a.set_count(i, 1);
            let mut sched_a = UniformRandomScheduler::from_seed(seed);
            let leap = Simulator::new(&proto)
                .run_leap(&mut pop_a, &mut sched_a, &Silent, u64::MAX)
                .unwrap();

            let mut pop_b = CountPopulation::new(&proto, n);
            pop_b.set_count(s, n - 1);
            pop_b.set_count(i, 1);
            let mut sched_b = UniformRandomScheduler::from_seed(seed);
            let cfg = BatchConfig {
                safety_threshold: n,
                ..BatchConfig::default()
            };
            let batch = Simulator::new(&proto)
                .run_batch_configured(
                    &mut pop_b,
                    &mut sched_b,
                    &Silent,
                    u64::MAX,
                    &cfg,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(leap, batch, "seed {seed}");
            assert_eq!(pop_a.counts(), pop_b.counts(), "seed {seed}");
        }
    }

    #[test]
    fn batch_already_stable_returns_zero() {
        let proto = epidemic();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 5);
        pop.set_count(proto.initial_state(), 0);
        pop.set_count(i, 5);
        let mut sched = UniformRandomScheduler::from_seed(0);
        let res = Simulator::new(&proto)
            .run_batch(&mut pop, &mut sched, &Silent, 100)
            .unwrap();
        assert_eq!(res.interactions, 0);
    }

    #[test]
    fn batch_limit_is_reported() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 1000);
        pop.set_count(s, 999);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        let err = Simulator::new(&proto)
            .run_batch(&mut pop, &mut sched, &Silent, 5)
            .unwrap_err();
        assert_eq!(
            err,
            crate::simulator::RunError::InteractionLimit { limit: 5 }
        );
    }

    #[test]
    fn batch_too_small_population_errors() {
        let proto = epidemic();
        let mut pop = CountPopulation::new(&proto, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        let err = Simulator::new(&proto)
            .run_batch(&mut pop, &mut sched, &crate::stability::Never, 5)
            .unwrap_err();
        assert_eq!(err, crate::simulator::RunError::PopulationTooSmall);
    }

    #[test]
    fn batch_frozen_configuration_hits_limit() {
        let proto = epidemic();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 50);
        pop.set_count(proto.initial_state(), 0);
        pop.set_count(i, 50);
        let mut sched = UniformRandomScheduler::from_seed(3);
        let err = Simulator::new(&proto)
            .run_batch(&mut pop, &mut sched, &crate::stability::Never, u64::MAX)
            .unwrap_err();
        assert_eq!(
            err,
            crate::simulator::RunError::InteractionLimit { limit: u64::MAX }
        );
    }
}
