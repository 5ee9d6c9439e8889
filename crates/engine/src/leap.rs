//! The leap kernel's algebra: identity-pair weights and batched skips.
//!
//! Under the uniform random scheduler, the next interaction draws an
//! ordered pair of distinct agents uniformly from the `T = n(n−1)`
//! possibilities. In configuration `c` the number of those pairs whose
//! transition is the *identity* is
//!
//! ```text
//! W_id(c) = Σ_{p,q} id(p, q) · c_p · (c_q − [p = q])
//! ```
//!
//! so each step is an identity with probability `ρ = W_id / T`,
//! independently of everything else, *as long as the configuration does
//! not change* — and identity interactions are exactly the ones that do
//! not change it. The number `G` of consecutive identity interactions
//! before the next effective one is therefore geometric:
//! `P(G = g) = ρ^g (1 − ρ)`. The leap kernel samples `G` in closed form
//! (inversion: `G = ⌊ln U / ln ρ⌋` for `U` uniform on `(0, 1]`), credits
//! `G` interactions to the paper's §5 counter in O(1), and then samples
//! one pair from the conditional distribution on *effective* pairs. The
//! composite process has exactly the law of the naive one-step loop; the
//! only deviation is the f64 rounding inside the geometric inversion
//! (one sample from a distribution within ~2⁻⁵³ of exact), which is far
//! below statistical resolution at any feasible trial count.
//!
//! [`IdentityWeights`] maintains `W_id` incrementally. One effective
//! interaction `δ(p, q)` changes the counts by a fixed net vector, so its
//! effect on `W_id` and on the per-state marginals is fixed too: the
//! protocol compiles it once per ordered pair ([`PairEffect`]), and
//! [`IdentityWeights::apply_pair`] costs O(1) plus the pair's marginal
//! list. For a pair that no identity pair involves, such as
//! Algorithm 1's free-agent flips (92–94% of its effective
//! interactions), the list is empty.
//!
//! `LeapRun::step` is the kernel's one exact step (an identity run,
//! then one effective interaction) on a detached count vector. The leap
//! kernel repeats it to the end of a run; the batch kernel's exact bursts
//! call the same step, which is what makes the two bit-identical per seed
//! whenever the batch kernel never leaps.

use crate::observer::Observer;
use crate::protocol::{CompiledProtocol, PairEffect, StateId};
use crate::simulator::{RunError, RunResult};
use crate::stability::{StabilityCriterion, StabilityTracker};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Maintained weight of identity ordered pairs in the current
/// configuration, with per-state row/column marginals for per-pair
/// updates and O(occupied states) conditional sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentityWeights {
    /// `row[p] = Σ_q id(p, q) · c_q` — identity mass of state `p` as
    /// first participant, per agent of `p` (before the `p = q` exclusion).
    row: Vec<u64>,
    /// `col[s] = Σ_p id(p, s) · c_p` — identity mass of state `s` as
    /// second participant, per agent of `s`.
    col: Vec<u64>,
    /// `diag[p] = id(p, p)` cached.
    diag: Vec<bool>,
    /// `W_id` for the current configuration.
    w_id: u64,
}

impl IdentityWeights {
    /// Compute the weights of configuration `counts` from scratch
    /// (O(|Q|²)); done once per run.
    pub fn new(proto: &CompiledProtocol, counts: &[u64]) -> Self {
        let m = counts.len();
        debug_assert_eq!(m, proto.num_states());
        let mut row = vec![0u64; m];
        let mut col = vec![0u64; m];
        let mut diag = vec![false; m];
        for p in 0..m {
            let id_row = proto.identity_row(StateId(p as u16));
            diag[p] = id_row[p];
            let mut r = 0;
            for (q, &cq) in counts.iter().enumerate() {
                if id_row[q] {
                    r += cq;
                    col[q] += counts[p];
                }
            }
            row[p] = r;
        }
        // W_id = Σ_p c_p·(row[p] − id(p,p)): the [p = q] exclusion removes
        // one pairing per agent of each identity-diagonal state. When
        // c_p ≥ 1 and id(p,p), row[p] ≥ c_p ≥ 1, so the subtraction is safe.
        let w_id: u64 = counts
            .iter()
            .enumerate()
            .map(|(p, &cp)| {
                if cp == 0 {
                    0
                } else {
                    cp * (row[p] - u64::from(diag[p]))
                }
            })
            .sum();
        IdentityWeights {
            row,
            col,
            diag,
            w_id,
        }
    }

    /// Current `W_id`: the number of ordered agent pairs whose interaction
    /// would be an identity.
    #[inline(always)]
    pub fn identity_weight(&self) -> u64 {
        self.w_id
    }

    /// Fold one firing of `δ(p, q)` into the weights, keeping `W_id` and
    /// the marginals exact. An identity pair changes nothing.
    ///
    /// Costs O(1) plus the length of the pair's marginal list (see
    /// [`PairEffect`]), which is empty for pairs no identity pair
    /// involves.
    pub fn apply_pair(&mut self, proto: &CompiledProtocol, p: StateId, q: StateId) {
        if let Some(e) = proto.pair_effect(p, q) {
            self.apply_effect(proto, e);
        }
    }

    /// [`Self::apply_pair`] on the pair's compiled effect.
    ///
    /// `ΔW_id = K + Σ_a d_a·(row[a] + col[a])` on the marginals before the
    /// firing. The sums run in wrapping `u64` arithmetic: the true result
    /// is a count of pairs, so the wrapped one is exact.
    #[inline(always)]
    fn apply_effect(&mut self, proto: &CompiledProtocol, e: &PairEffect) {
        let mut dw = e.identity_constant() as u64;
        for (a, d) in e.deltas() {
            let rc = self.row[a.index()] + self.col[a.index()];
            dw = dw.wrapping_add(rc.wrapping_mul(d as u64));
        }
        self.w_id = self.w_id.wrapping_add(dw);
        for m in proto.pair_marginals(e) {
            let x = m.state.index();
            self.row[x] = self.row[x].wrapping_add_signed(i64::from(m.row));
            self.col[x] = self.col[x].wrapping_add_signed(i64::from(m.col));
        }
    }

    /// Sample an ordered pair of distinct agents conditioned on the
    /// interaction being *effective* (non-identity), with the exact
    /// conditional distribution of the uniform random scheduler.
    ///
    /// Takes the population as a raw `(n, counts)` pair: the kernels
    /// step detached count vectors.
    ///
    /// Requires `W_eff = n(n−1) − W_id > 0`, with `n(n−1)` within `u64`
    /// (which the kernels check before their first draw). Cost is O(occupied states)
    /// for the row scan plus O(|Q|) for the column scan of the chosen row.
    #[inline]
    pub fn sample_effective(
        &self,
        proto: &CompiledProtocol,
        n: u64,
        counts: &[u64],
        rng: &mut SmallRng,
    ) -> (StateId, StateId) {
        let total = n * (n - 1);
        let w_eff = total - self.w_id;
        debug_assert!(w_eff > 0, "no effective pair enabled");
        let mut target = rng.gen_range(0..w_eff);
        for (pi, &cp) in counts.iter().enumerate() {
            if cp == 0 {
                continue;
            }
            let d = u64::from(self.diag[pi]);
            // Effective weight of row p: c_p·(n−1) total minus the row's
            // identity weight c_p·(row[p] − id(p,p)).
            debug_assert!(n - 1 + d >= self.row[pi]);
            let row_eff = cp * (n - 1 + d - self.row[pi]);
            if target >= row_eff {
                target -= row_eff;
                continue;
            }
            let p = StateId(pi as u16);
            let id_row = proto.identity_row(p);
            for (qi, &cq) in counts.iter().enumerate() {
                if id_row[qi] {
                    continue;
                }
                let w = cp * (cq - u64::from(qi == pi));
                if target < w {
                    return (p, StateId(qi as u16));
                }
                target -= w;
            }
            unreachable!("effective-pair column scan exhausted");
        }
        unreachable!("effective-pair row scan exhausted");
    }
}

/// Outcome of one step of a run ([`crate::batch::BatchTrial::step`], and
/// the leap kernel's exact step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The run continues.
    Continue,
    /// The configuration is stable; the run is finished.
    Stable,
    /// The interaction budget is exhausted (or the configuration is
    /// frozen); the run is censored.
    Limit,
}

/// One run of the exact leap step on a detached count vector: the
/// identity-weight algebra, the incremental stability tracker and the
/// interaction counters.
///
/// [`crate::simulator::Simulator::run_leap_observed`] repeats
/// [`LeapRun::step`] until the run ends; the batch kernel's exact bursts
/// ([`crate::batch::BatchTrial`]) call the same step between tau-leaps.
pub(crate) struct LeapRun<'a> {
    pub(crate) weights: IdentityWeights,
    pub(crate) tracker: Box<dyn StabilityTracker + 'a>,
    /// Number of agents `n`.
    n: u64,
    /// `n(n−1)`: the ordered agent pairs the scheduler draws from.
    pub(crate) total: u64,
    /// Cumulative interactions (identities included), the paper's metric.
    pub(crate) interactions: u64,
    /// Cumulative effective (state-changing) interactions.
    pub(crate) effective: u64,
}

impl<'a> LeapRun<'a> {
    /// A run from configuration `counts` under `criterion`. The caller
    /// has already found `counts` unstable.
    ///
    /// # Errors
    /// [`RunError::PopulationTooSmall`] below two agents, and
    /// [`RunError::PopulationTooLarge`] when the `n(n−1)` ordered agent
    /// pairs do not fit in `u64`. Both are decided before any random draw.
    pub(crate) fn new<C: StabilityCriterion>(
        proto: &CompiledProtocol,
        criterion: &'a C,
        counts: &[u64],
    ) -> Result<Self, RunError> {
        let n: u64 = counts.iter().sum();
        if n < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let total = n
            .checked_mul(n - 1)
            .ok_or(RunError::PopulationTooLarge { n })?;
        Ok(LeapRun {
            weights: IdentityWeights::new(proto, counts),
            tracker: criterion.tracker(proto, counts),
            n,
            total,
            interactions: 0,
            effective: 0,
        })
    }

    /// The counters so far.
    pub(crate) fn result(&self) -> RunResult {
        RunResult {
            interactions: self.interactions,
            effective_interactions: self.effective,
        }
    }

    /// One exact composite step: sample the run of identity interactions
    /// before the next effective one, then that effective pair, and apply
    /// it to `counts` (the configuration this run was created at, as
    /// changed by its earlier steps).
    ///
    /// The pair's net deltas update `counts`, and its compiled effect the
    /// identity weights and (in one call) the stability tracker. The
    /// observer sees the identity run ([`Observer::on_identity_run`], with
    /// the counts it ran on) and the effective interaction
    /// ([`Observer::on_interaction`], with the counts after it).
    #[inline(always)]
    pub(crate) fn step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        observer: &mut O,
    ) -> StepOutcome {
        let w_id = self.weights.identity_weight();
        if w_id == self.total {
            // Every enabled pair is an identity: the configuration can
            // never change again, and the criterion already judged it
            // unstable — the naive loop would spin to the limit.
            return StepOutcome::Limit;
        }
        let g = sample_identity_run(rng, w_id, self.total);
        // The naive loop admits the stabilising interaction only while
        // the counter is below the limit: g identities plus one
        // effective interaction must fit in the remaining budget.
        if g >= max_interactions - self.interactions {
            return StepOutcome::Limit;
        }
        if g > 0 {
            self.interactions += g;
            observer.on_identity_run(self.interactions, g, counts);
        }
        let (p, q) = self.weights.sample_effective(proto, self.n, counts, rng);
        let e = proto
            .pair_effect(p, q)
            .expect("effective pairs are non-identity");
        self.interactions += 1;
        self.effective += 1;
        self.weights.apply_effect(proto, e);
        for (s, d) in e.deltas() {
            let c = &mut counts[s.index()];
            debug_assert!(c.checked_add_signed(d).is_some(), "count underflow");
            *c = c.wrapping_add_signed(d);
        }
        self.tracker.apply_pair(e);
        observer.on_interaction(self.interactions, p, q, e.p2, e.q2, counts);
        if self.tracker.is_stable(proto, counts) {
            StepOutcome::Stable
        } else {
            StepOutcome::Continue
        }
    }
}

/// Sample the length of the maximal run of consecutive identity
/// interactions before the next effective one: `G ~ Geometric(1 − ρ)`
/// with `ρ = w_id / total`, via inversion `G = ⌊ln U / ln ρ⌋` for `U`
/// uniform on `(0, 1]`.
///
/// Requires `w_id < total` (some effective pair is enabled); saturates at
/// `u64::MAX`, which every caller treats as exceeding its remaining
/// interaction budget.
pub fn sample_identity_run(rng: &mut SmallRng, w_id: u64, total: u64) -> u64 {
    debug_assert!(w_id < total);
    if w_id == 0 {
        return 0;
    }
    // Clamp ρ strictly below 1.0: for total > 2^53 the f64 quotient can
    // round to exactly 1.0, which would make the inversion divide by zero.
    let rho = ((w_id as f64) / (total as f64)).min(1.0 - f64::EPSILON / 2.0);
    // 53 high bits of a u64, shifted into (0, 1]: never exactly 0, so the
    // logarithm is finite.
    let u = (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64);
    let g = u.ln() / rho.ln();
    debug_assert!(g >= 0.0);
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{CountPopulation, Population};
    use crate::spec::ProtocolSpec;
    use rand::SeedableRng;

    /// Epidemic: (I, S) and (S, I) are the only non-identity pairs.
    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    /// Brute-force W_id for cross-checking.
    fn w_id_brute(proto: &CompiledProtocol, counts: &[u64]) -> u64 {
        let mut w = 0;
        for p in proto.states() {
            for q in proto.states() {
                if proto.is_identity(p, q) {
                    let cp = counts[p.index()];
                    let cq = counts[q.index()];
                    w += cp * (cq - u64::from(p == q).min(cq));
                }
            }
        }
        w
    }

    #[test]
    fn weights_match_brute_force() {
        let proto = epidemic();
        for counts in [[10, 0], [0, 10], [7, 3], [1, 1], [2, 0]] {
            let w = IdentityWeights::new(&proto, &counts);
            assert_eq!(
                w.identity_weight(),
                w_id_brute(&proto, &counts),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn apply_pair_tracks_brute_force() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut counts = vec![8u64, 2];
        let mut w = IdentityWeights::new(&proto, &counts);
        // Replay a sequence of infections (S count down, I count up),
        // alternating the two orders of the pair.
        for step in 0..8 {
            let (p, q) = if step % 2 == 0 { (i, s) } else { (s, i) };
            w.apply_pair(&proto, p, q);
            counts[s.index()] -= 1;
            counts[i.index()] += 1;
            assert_eq!(w, IdentityWeights::new(&proto, &counts), "{counts:?}");
            assert_eq!(
                w.identity_weight(),
                w_id_brute(&proto, &counts),
                "{counts:?}"
            );
        }
        // Identity pairs change nothing.
        let before = w.clone();
        w.apply_pair(&proto, i, i);
        assert_eq!(w, before);
    }

    #[test]
    fn effective_sampling_matches_conditional_distribution() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 10);
        pop.set_count(s, 6);
        pop.set_count(i, 4);
        let w = IdentityWeights::new(&proto, pop.counts());
        // Effective pairs: (S, I) weight 6·4 = 24, (I, S) weight 4·6 = 24.
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 20_000;
        let mut si = 0u32;
        for _ in 0..trials {
            let (p, q) = w.sample_effective(&proto, pop.num_agents(), pop.counts(), &mut rng);
            assert!(!proto.is_identity(p, q));
            if (p, q) == (s, i) {
                si += 1;
            } else {
                assert_eq!((p, q), (i, s));
            }
        }
        let frac = f64::from(si) / f64::from(trials);
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn identity_run_mean_matches_geometric() {
        // ρ = 3/4 → E[G] = ρ/(1−ρ) = 3.
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 100_000;
        let sum: u64 = (0..trials)
            .map(|_| sample_identity_run(&mut rng, 3, 4))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn identity_run_zero_weight_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_identity_run(&mut rng, 0, 12), 0);
    }
}
