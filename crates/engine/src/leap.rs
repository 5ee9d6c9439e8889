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
//! Algorithm 1's free-agent flips, the list is empty. Flips are most of
//! the leap kernel's steps: 88.3% of its effective interactions over
//! perfbench `sweep_fig`'s grid (Figures 3 and 5, seed 3), and 93.8% to
//! 96.3% at k = 8 from n = 10⁴ to 10⁶ (ROADMAP item 11).
//!
//! `LeapRun::step` is the kernel's one exact step (an identity run,
//! then one effective interaction) on a detached count vector. The leap
//! kernel repeats it to the end of a run. The batch kernel's exact
//! bursts share the run state and call the same step whenever no flip
//! is enabled (otherwise they lump the stretch of flips, see
//! [`crate::batch`]), which is what makes the two bit-identical per seed
//! on flip-free protocols whenever the batch kernel never leaps.
//!
//! A flip keeps `W_id`, so the step pays what depends on `W_id` alone
//! only when `W_id` changes: `ln ρ` for the identity run and the Lemire
//! threshold `2⁶⁴ mod W_eff` for the effective draw live in a memo
//! (`StepDraws`) keyed on `W_id`. A flip also leaves the verdict of a
//! tracker that ignores moves within the flip class as it was, so after
//! a flip such a run continues without asking the tracker. Neither
//! moves a draw: the step is the same, draw for draw, as one that
//! recomputes both values and asks the tracker after every interaction.

use crate::observer::Observer;
use crate::protocol::{CompiledProtocol, PairEffect, StateId};
use crate::simulator::{RunError, RunResult};
use crate::stability::{StabilityCriterion, StabilityTracker};
use rand::rngs::SmallRng;
use rand::RngCore;

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

    /// The effective (non-identity) ordered pair at offset `target` of
    /// `[0, W_eff)`, with the pairs weighted `c_p · (c_q − [p = q])` in
    /// row-major order: for `target` uniform on `[0, W_eff)`, an ordered
    /// pair of distinct agents conditioned on the interaction being
    /// effective, with the exact conditional distribution of the uniform
    /// random scheduler.
    ///
    /// Takes the population as a raw `(n, counts)` pair: the kernels
    /// step detached count vectors.
    ///
    /// Requires `target < W_eff = n(n−1) − W_id`. Cost is O(occupied
    /// states) for the row scan plus O(|Q|) for the column scan of the
    /// chosen row.
    #[inline]
    pub fn effective_pair(
        &self,
        proto: &CompiledProtocol,
        n: u64,
        counts: &[u64],
        mut target: u64,
    ) -> (StateId, StateId) {
        debug_assert!(target < n * (n - 1) - self.w_id, "offset beyond W_eff");
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
pub(crate) enum StepOutcome {
    /// The run continues.
    Continue,
    /// The configuration is stable; the run is finished.
    Stable,
    /// The interaction budget is exhausted (or the configuration is
    /// frozen); the run is censored.
    Limit,
}

/// The values one exact step's draws share across the steps of a run at
/// identity weight `w_id` of `total`: `ln ρ` for the identity run and
/// the Lemire threshold `2⁶⁴ mod W_eff` for the effective draw.
///
/// [`LeapRun`] keeps one, keyed on the current `W_id`, and rebuilds it
/// only when `W_id` changes, which a flip never does; the batch kernel's
/// lumped steps read the same memo for a whole stretch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepDraws {
    /// The identity weight the values belong to.
    pub(crate) w_id: u64,
    /// `W_eff = total − w_id`: 0 in a frozen configuration.
    pub(crate) w_eff: u64,
    /// `ln ρ` with `ρ = w_id / total`, as [`sample_identity_run`]
    /// computes it; unused when `w_id = 0`.
    ln_rho: f64,
    /// `2⁶⁴ mod W_eff`, or 0 when `W_eff = 0`.
    zone: u64,
}

impl StepDraws {
    /// The memo for identity weight `w_id` of `total`, `w_id ≤ total`.
    /// Out of line: the step needs it only when `W_id` moves.
    #[inline(never)]
    pub(crate) fn new(w_id: u64, total: u64) -> Self {
        let w_eff = total - w_id;
        StepDraws {
            w_id,
            w_eff,
            ln_rho: ln_rho(w_id, total),
            zone: w_eff.wrapping_neg().checked_rem(w_eff).unwrap_or(0),
        }
    }

    /// [`sample_identity_run`] at this memo's weights, draw for draw.
    /// Requires `W_eff > 0`.
    #[inline(always)]
    pub(crate) fn identity_run(&self, rng: &mut SmallRng) -> u64 {
        debug_assert!(self.w_eff > 0);
        if self.w_id == 0 {
            return 0;
        }
        identity_run(rng, self.ln_rho)
    }

    /// A uniform offset in `[0, W_eff)`, accepted and mapped exactly as
    /// `gen_range(0..W_eff)` does. Requires `W_eff > 0`.
    #[inline(always)]
    pub(crate) fn effective(&self, rng: &mut SmallRng) -> u64 {
        uniform_below(rng, self.w_eff, self.zone)
    }
}

/// One run of the exact leap step on a detached count vector: the
/// identity-weight algebra and its draw memo, the incremental stability
/// tracker and the interaction counters.
///
/// [`crate::simulator::Simulator::run_leap_observed`] repeats
/// [`LeapRun::step`] until the run ends; the batch kernel's exact bursts
/// ([`crate::batch::BatchTrial`]) share the run state between tau-leaps
/// and call the same step when no flip is enabled.
pub(crate) struct LeapRun<'a> {
    pub(crate) weights: IdentityWeights,
    /// The draw memo for the `W_id` it was last built at.
    draws: StepDraws,
    pub(crate) tracker: Box<dyn StabilityTracker + 'a>,
    /// The tracker's answer to
    /// [`StabilityTracker::ignores_moves_within`] for the protocol's
    /// flip class, asked once: when yes, a flip needs no stability query
    /// after it, and the batch kernel lumps flips.
    pub(crate) quiet_flips: bool,
    /// Number of agents `n`.
    pub(crate) n: u64,
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
        let weights = IdentityWeights::new(proto, counts);
        let tracker = criterion.tracker(proto, counts);
        Ok(LeapRun {
            draws: StepDraws::new(weights.identity_weight(), total),
            weights,
            quiet_flips: tracker.ignores_moves_within(proto.flip_class()),
            tracker,
            n,
            total,
            interactions: 0,
            effective: 0,
        })
    }

    /// The draw memo for the current `W_id`, rebuilt if `W_id` moved
    /// since it was built.
    #[inline(always)]
    pub(crate) fn draws(&mut self) -> StepDraws {
        let w_id = self.weights.identity_weight();
        if w_id != self.draws.w_id {
            self.draws = StepDraws::new(w_id, self.total);
        }
        self.draws
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
    /// ([`Observer::on_interaction`], with the counts after it). The
    /// draws read the memo for the current `W_id` ([`StepDraws`]).
    #[inline(always)]
    pub(crate) fn step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        observer: &mut O,
    ) -> StepOutcome {
        let draws = self.draws();
        if draws.w_eff == 0 {
            // Every enabled pair is an identity: the configuration can
            // never change again, and the criterion already judged it
            // unstable — the naive loop would spin to the limit.
            return StepOutcome::Limit;
        }
        let g = draws.identity_run(rng);
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
        let target = draws.effective(rng);
        let (p, q) = self.weights.effective_pair(proto, self.n, counts, target);
        let e = proto
            .pair_effect(p, q)
            .expect("effective pairs are non-identity");
        self.fire(proto, counts, e, observer)
    }

    /// Apply one effective interaction, the compiled pair `e`, as the
    /// next interaction: its net deltas update `counts`, its effect the
    /// identity weights and the stability tracker, and the observer sees
    /// it through [`Observer::on_interaction`]. Then ask the tracker
    /// whether the run is over, unless `e` is a flip and the tracker
    /// ignores moves within the flip class: the configuration before the
    /// flip was unstable, and so is every one that differs from it only
    /// by a move within the class.
    #[inline(always)]
    pub(crate) fn fire<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        e: &PairEffect,
        observer: &mut O,
    ) -> StepOutcome {
        self.interactions += 1;
        self.effective += 1;
        self.weights.apply_effect(proto, e);
        for (s, d) in e.deltas() {
            let c = &mut counts[s.index()];
            debug_assert!(c.checked_add_signed(d).is_some(), "count underflow");
            *c = c.wrapping_add_signed(d);
        }
        self.tracker.apply_pair(e);
        observer.on_interaction(self.interactions, e.p, e.q, e.p2, e.q2, counts);
        if self.quiet_flips && e.is_flip() {
            return StepOutcome::Continue;
        }
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
/// uniform on `(0, 1]`. No draw when `w_id = 0`.
///
/// Requires `w_id < total` (some effective pair is enabled); saturates at
/// `u64::MAX`, which every caller treats as exceeding its remaining
/// interaction budget. The kernels draw the same value through their
/// memo (`StepDraws::identity_run`), which computes `ln ρ` once per
/// `W_id`.
pub fn sample_identity_run(rng: &mut SmallRng, w_id: u64, total: u64) -> u64 {
    debug_assert!(w_id < total);
    if w_id == 0 {
        return 0;
    }
    identity_run(rng, ln_rho(w_id, total))
}

/// `ln ρ` for `ρ = w_id / total`, clamped strictly below 1.0 first: for
/// total > 2^53 the f64 quotient can round to exactly 1.0, which would
/// make the inversion divide by zero.
fn ln_rho(w_id: u64, total: u64) -> f64 {
    ((w_id as f64) / (total as f64))
        .min(1.0 - f64::EPSILON / 2.0)
        .ln()
}

/// The identity-run draw `⌊ln U / ln ρ⌋` given `ln ρ < 0`.
#[inline(always)]
fn identity_run(rng: &mut SmallRng, ln_rho: f64) -> u64 {
    // 53 high bits of a u64, shifted into (0, 1]: never exactly 0, so the
    // logarithm is finite.
    let u = (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64);
    let g = u.ln() / ln_rho;
    debug_assert!(g >= 0.0);
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// A uniform draw from `[0, bound)` by Lemire's multiply-shift
/// rejection, with the threshold `zone = 2⁶⁴ mod bound` computed by the
/// caller, so a run pays its division once per `W_eff`. It accepts and
/// maps exactly as `gen_range(0..bound)` does.
#[inline(always)]
fn uniform_below(rng: &mut SmallRng, bound: u64, zone: u64) -> u64 {
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(bound);
        if wide as u64 >= zone {
            return (wide >> 64) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{CountPopulation, Population};
    use crate::spec::ProtocolSpec;
    use rand::{Rng, SeedableRng};

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
        let n = pop.num_agents();
        let w_eff = n * (n - 1) - w.identity_weight();
        for _ in 0..trials {
            let target = rng.gen_range(0..w_eff);
            let (p, q) = w.effective_pair(&proto, n, pop.counts(), target);
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

    /// The memo's draws are the memo-less ones, draw for draw: the
    /// identity run of `sample_identity_run` and the offset of
    /// `gen_range(0..W_eff)`, with the generator left in the same state.
    #[test]
    fn memo_draws_match_the_memo_less_draws() {
        for (w_id, total) in [
            (0, 12),
            (3, 4),
            (11, 12),
            (999, 1_000_000),
            (1 << 40, 3 << 41),
        ] {
            let memo = StepDraws::new(w_id, total);
            let mut a = SmallRng::seed_from_u64(w_id ^ total);
            let mut b = a.clone();
            for _ in 0..1_000 {
                assert_eq!(
                    memo.identity_run(&mut a),
                    sample_identity_run(&mut b, w_id, total)
                );
                assert_eq!(memo.effective(&mut a), b.gen_range(0..total - w_id));
            }
            assert_eq!(a.next_u64(), b.next_u64(), "w_id = {w_id}, total = {total}");
        }
    }

    #[test]
    fn identity_run_zero_weight_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_identity_run(&mut rng, 0, 12), 0);
    }
}
