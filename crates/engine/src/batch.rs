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
//! Before each leap the kernel re-checks eligibility and steps
//! **exactly** for a burst of `EXACT_BURST` lumped steps (see below)
//! when:
//!
//! * **near convergence** — the stability tracker's
//!   [`crate::stability::StabilityTracker::violations_hint`] is at most
//!   `NEAR_CONVERGENCE_VIOLATIONS`: the endgame that decides the
//!   paper's §5 metric is simulated exactly;
//! * **low counts** — channels whose reactant counts are at or below the
//!   safety threshold ([`SAFETY_THRESHOLD`] unless
//!   [`crate::simulator::Simulator::run_batch_configured`] is given
//!   another) carry enough propensity that a leap of useful size would
//!   likely fire them (`tau` is capped so the *expected* number of
//!   low-count firings per leap stays below one; when that cap squeezes
//!   the leap under `MIN_BATCH` expected firings, the kernel steps
//!   exactly instead) — low-count species are where tau-leaping's error
//!   concentrates;
//! * **small leap** — the ε bound itself yields fewer than `MIN_BATCH`
//!   expected firings: exact stepping is cheaper than a degenerate
//!   multinomial;
//! * **overdraw** — `MAX_RETRIES` tau-halvings could not produce a draw
//!   keeping every count non-negative.
//!
//! Eligibility checks consume **no randomness**, so under a safety
//! threshold of at least `n` every step falls back and the run is a
//! sequence of lumped steps. On a protocol without flips (see below),
//! or under a criterion whose tracker does not let the kernel lump them,
//! a lumped step is the leap kernel's step draw for draw, and the run
//! consumes the RNG identically to `run_leap_observed` — the
//! bit-identity contract `tests/batch_kernel.rs` pins down over the
//! registry's flip-free protocols. With flips the run is equal to
//! `run_leap_observed`'s in law.
//!
//! ## Lumped exact steps
//!
//! The protocol's [flip class](CompiledProtocol::flip_class) is the set
//! of states no identity pair involves, in either position; for
//! Algorithm 1 it is `{initial, initial'}`. A *flip* is a pair whose net
//! deltas stay inside the class (Algorithm 1's rules 1–4, 96.9% of the
//! effective interactions of a k = 3, n = 10⁶ leap run). Flips change
//! no count an identity pair reads, so `W_id` and `W_eff` stay fixed
//! while they run, and an exact step lumps the whole stretch of flips
//! that follows its identity run:
//!
//! * the flips fold into *moves* (`Flips`): linear in one class count,
//!   with the frozen counts of their partners outside the class as
//!   coefficient, or a pair of class states;
//! * each effective interaction of the stretch is one uniform draw over
//!   `[0, W_eff)`: a flip move, applied to the class counts, or — past
//!   the flip weight — the non-flip pair that ends the stretch;
//! * the identity gaps are i.i.d. geometric, so those after the first
//!   are one negative-binomial draw (`sample_negative_binomial`);
//! * a stretch that overruns the budget is cut exactly, by
//!   exchangeability (see `BatchTrial::lumped_step`).
//!
//! The stability tracker is asked only after the stretch's terminating
//! pair, which is exact when no configuration along the stretch can
//! change its verdict; a tracker says so through
//! [`StabilityTracker::ignores_moves_within`], and when it does not, the
//! kernel treats the class as empty. Observers see the stretch through
//! [`Observer::on_identity_run`] (the first gap),
//! [`Observer::on_leap_batch`] (the flips and the identities between
//! them) and [`Observer::on_interaction`] (the terminating pair).

use crate::leap::{IdentityWeights, LeapRun, StepDraws, StepOutcome};
use crate::observer::{FallbackReason, Observer};
use crate::protocol::{CompiledProtocol, PairEffect, StateId};
use crate::simulator::{RunError, RunResult};
use crate::stability::{StabilityCriterion, StabilityTracker};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Relative propensity-drift bound ε per leap (Cao-style tau selection):
/// expected count change of any reactant state inside one leap stays
/// within `max(ε · c_s, 1)`.
pub const EPSILON: f64 = 0.05;

/// The default safety threshold: reactant counts at or below it are
/// *low*, and leaps are capped so low-count channels are not expected to
/// fire inside them. A threshold of at least `n` makes every step fall
/// back to an exact lumped step, which turns the kernel into a replica
/// of the leap kernel: bit-identical on flip-free protocols, equal in
/// law otherwise.
pub const SAFETY_THRESHOLD: u64 = 16;

/// Minimum expected effective firings for a leap to be worth taking;
/// below it the kernel steps exactly.
const MIN_BATCH: u64 = 16;

/// Number of exact lumped steps per fallback burst before eligibility
/// is re-evaluated.
const EXACT_BURST: u64 = 64;

/// Fall back for good-measure exactness once the stability tracker
/// reports at most this many violated constraints.
const NEAR_CONVERGENCE_VIOLATIONS: u64 = 3;

/// Tau-halving retries when a drawn leap would push a count negative.
const MAX_RETRIES: u32 = 3;

/// Reusable per-step workspace, fully reinitialised by every leap
/// attempt, so the hot loop allocates nothing.
///
/// The kernel's *channels* are the protocol's compiled pairs
/// ([`CompiledProtocol::pair_effects`]), taken in their row-major order:
/// the binomial split of a leap consumes randomness in channel order.
struct Scratch {
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
    fn new(proto: &CompiledProtocol) -> Self {
        let m = proto.num_states();
        Scratch {
            weights: vec![0; proto.pair_effects().len()],
            deltas: vec![0; m],
            mu: vec![0.0; m],
            sigma2: vec![0.0; m],
        }
    }
}

/// `Move::b` of a linear move.
const LINEAR: usize = usize::MAX;

/// One move of the flip class's chain: a set of flips with the same net
/// deltas, fired as one.
#[derive(Clone, Debug)]
struct Move {
    /// The class state whose count the weight scales with.
    a: usize,
    /// A pair move's second class state; [`LINEAR`] for a linear move.
    b: usize,
    /// A linear move's coefficient: the counts of its partners, which a
    /// stretch leaves fixed, summed at the stretch's start.
    coef: u64,
    /// A linear move's partner state in each of its pairs, with
    /// multiplicity (both orders of a symmetric rule count).
    partners: Vec<usize>,
    /// The net count deltas every pair of the move shares.
    effect: PairEffect,
}

impl Move {
    /// The move's weight: the number of ordered agent pairs that fire it.
    #[inline(always)]
    fn weight(&self, counts: &[u64]) -> u64 {
        let ca = counts[self.a];
        if self.b == LINEAR {
            self.coef * ca
        } else {
            ca * counts[self.b].saturating_sub(u64::from(self.a == self.b))
        }
    }
}

/// The flip class's moves and the non-flip pairs, for lumped steps.
///
/// A *flip* is a compiled pair with a reactant in the protocol's
/// [flip class](CompiledProtocol::flip_class) whose net deltas stay
/// inside the class ([`PairEffect::is_flip`]). A flip
/// between a class state and a state outside the class has a weight
/// linear in the class state's count: flips with the same class
/// reactant and the same deltas fold into one *linear* move whose
/// coefficient is the sum of their partners' counts. A flip between two
/// class states is a *pair* move of its own. Algorithm 1 has four moves:
/// rules 1 and 2 as pair moves, and rules 3–4 as the two linear moves
/// `initial → initial'` and back.
struct Flips {
    moves: Vec<Move>,
    /// The non-flip pairs, in [`CompiledProtocol::pair_effects`] order.
    non_flips: Vec<PairEffect>,
    /// `(p, end)`: the non-flip pairs of row `p` end at `end`.
    rows: Vec<(usize, usize)>,
    /// The class states, and their counts at the start of the current
    /// stretch and of its current block.
    class: Vec<usize>,
    start: Vec<u64>,
    block: Vec<u64>,
}

impl Flips {
    /// The moves of `proto`'s flip class when `lumped`; otherwise no
    /// moves, and every pair is a non-flip.
    fn new(proto: &CompiledProtocol, lumped: bool) -> Self {
        let class = if lumped { proto.flip_class() } else { &[] };
        let in_class = |s: usize| class.contains(&StateId(s as u16));
        let mut moves: Vec<Move> = Vec::new();
        let mut non_flips = Vec::new();
        let mut rows: Vec<(usize, usize)> = Vec::new();
        for e in proto.pair_effects() {
            let (p, q) = (e.p.index(), e.q.index());
            if !(lumped && e.is_flip()) {
                non_flips.push(*e);
                match rows.last_mut() {
                    Some((row, end)) if *row == p => *end += 1,
                    _ => rows.push((p, non_flips.len())),
                }
                continue;
            }
            if in_class(p) && in_class(q) {
                moves.push(Move {
                    a: p,
                    b: q,
                    coef: 0,
                    partners: Vec::new(),
                    effect: *e,
                });
                continue;
            }
            let (a, partner) = if in_class(p) { (p, q) } else { (q, p) };
            let same = |m: &&mut Move| {
                m.b == LINEAR
                    && m.a == a
                    && m.effect.deltas().len() == e.deltas().len()
                    && e.deltas().all(|d| m.effect.deltas().any(|x| x == d))
            };
            match moves.iter_mut().find(same) {
                Some(m) => m.partners.push(partner),
                None => moves.push(Move {
                    a,
                    b: LINEAR,
                    coef: 0,
                    partners: vec![partner],
                    effect: *e,
                }),
            }
        }
        let class: Vec<usize> = class.iter().map(|s| s.index()).collect();
        Flips {
            moves,
            non_flips,
            rows,
            start: vec![0; class.len()],
            block: vec![0; class.len()],
            class,
        }
    }

    /// Start a stretch at `counts`: fix the linear moves' coefficients
    /// and remember the class counts. Returns the total flip weight.
    #[inline]
    fn begin(&mut self, counts: &[u64]) -> u64 {
        let mut total = 0;
        for m in &mut self.moves {
            if m.b == LINEAR {
                m.coef = m.partners.iter().map(|&s| counts[s]).sum();
            }
            total += m.weight(counts);
        }
        if total > 0 {
            for (c, &s) in self.start.iter_mut().zip(&self.class) {
                *c = counts[s];
            }
        }
        total
    }

    /// Remember the class counts at the start of a block.
    fn mark(&mut self, counts: &[u64]) {
        for (c, &s) in self.block.iter_mut().zip(&self.class) {
            *c = counts[s];
        }
    }

    /// Put the class counts back to the block's start.
    fn rewind(&self, counts: &mut [u64]) {
        for (&c, &s) in self.block.iter().zip(&self.class) {
            counts[s] = c;
        }
    }

    /// Fold the stretch's net class deltas into `tracker`.
    fn commit(&self, tracker: &mut dyn StabilityTracker, counts: &[u64]) {
        for (&c, &s) in self.start.iter().zip(&self.class) {
            let d = counts[s] as i64 - c as i64;
            if d != 0 {
                tracker.apply_delta(StateId(s as u16), d);
            }
        }
    }

    /// The event at offset `t` of `[0, W_eff)`: the flip whose move it
    /// falls in, applied to `counts` (`None`), or the offset left over
    /// the non-flip pairs.
    #[inline(always)]
    fn fire(&self, counts: &mut [u64], mut t: u64) -> Option<u64> {
        for m in &self.moves {
            let w = m.weight(counts);
            if t < w {
                for (s, d) in m.effect.deltas() {
                    counts[s.index()] = counts[s.index()].wrapping_add_signed(d);
                }
                return None;
            }
            t -= w;
        }
        Some(t)
    }

    /// The non-flip pair at `offset` of the non-flip weight, with the
    /// pairs weighted `c_p · (c_q − [p = q])` in row-major order.
    fn non_flip(&self, counts: &[u64], mut offset: u64) -> &PairEffect {
        let mut start = 0;
        for &(p, end) in &self.rows {
            let cp = counts[p];
            if cp > 0 {
                for e in &self.non_flips[start..end] {
                    let q = e.q.index();
                    let w = cp * (counts[q] - u64::from(q == p));
                    if offset < w {
                        return e;
                    }
                    offset -= w;
                }
            }
            start = end;
        }
        unreachable!("non-flip offset beyond the non-flip weight")
    }
}

/// Per-trial state of one batch-kernel run: the exact step's run state
/// (identity weights, stability tracker, counters), the flip class's
/// moves, the exact-burst countdown and the leap workspace.
/// [`crate::simulator::Simulator::run_batch_configured`] drives one.
pub(crate) struct BatchTrial<'a> {
    run: LeapRun<'a>,
    flips: Flips,
    /// Remaining exact lumped steps in the current fallback burst.
    exact_left: u64,
    scratch: Scratch,
}

impl<'a> BatchTrial<'a> {
    /// Trial state for configuration `counts` under `criterion`. The
    /// caller has already found `counts` unstable.
    ///
    /// # Errors
    /// [`RunError::PopulationTooSmall`] below two agents, and
    /// [`RunError::PopulationTooLarge`] when `n(n−1)` does not fit in
    /// `u64`; both before any draw.
    pub(crate) fn new<C: StabilityCriterion>(
        proto: &CompiledProtocol,
        criterion: &'a C,
        counts: &[u64],
    ) -> Result<Self, RunError> {
        let run = LeapRun::new(proto, criterion, counts)?;
        Ok(BatchTrial {
            flips: Flips::new(proto, run.quiet_flips),
            run,
            exact_left: 0,
            scratch: Scratch::new(proto),
        })
    }

    /// The counters so far.
    pub(crate) fn result(&self) -> RunResult {
        self.run.result()
    }

    /// Advance the trial by one step: either one tau-leap or one exact
    /// lumped step (an identity run, a stretch of flips, and one non-flip
    /// interaction), depending on eligibility.
    pub(crate) fn step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        safety_threshold: u64,
        observer: &mut O,
    ) -> StepOutcome {
        if self.exact_left == 0 {
            match self.try_leap(
                proto,
                counts,
                rng,
                max_interactions,
                safety_threshold,
                observer,
            ) {
                LeapOutcome::Done(out) => return out,
                LeapOutcome::Fallback(reason) => {
                    observer.on_batch_fallback(reason);
                    self.exact_left = EXACT_BURST;
                }
            }
        }
        self.exact_left -= 1;
        self.lumped_step(proto, counts, rng, max_interactions, observer)
    }

    /// One exact lumped step: the identity run before the next effective
    /// interaction, then the stretch of flips that follows it as a chain
    /// on the class counts, up to and including the first non-flip
    /// interaction. With no flip enabled it is [`LeapRun::step`], draw
    /// for draw.
    ///
    /// A flip touches no state any identity pair involves, so `W_id` and
    /// `W_eff` stay fixed through the stretch, and the run's draw memo
    /// ([`StepDraws`]) serves all of it. Each effective interaction
    /// is one uniform draw over `[0, W_eff)` (with the memo's rejection
    /// threshold), read as a flip move or, past the flip
    /// weight, as a non-flip pair. The identity gaps are i.i.d.
    /// geometric, so the gaps after the first are one negative-binomial
    /// draw. The stability tracker is asked only after the terminating
    /// pair, which the tracker's
    /// [`StabilityTracker::ignores_moves_within`] makes exact.
    ///
    /// The observer sees the first gap through
    /// [`Observer::on_identity_run`], the flips and the identities between
    /// them through [`Observer::on_leap_batch`], and the terminating pair
    /// through [`Observer::on_interaction`].
    ///
    /// The chain runs in blocks of at most the flips expected to fit in
    /// the budget left, each followed by the negative-binomial draw of
    /// its gaps, so a stretch that never terminates (a lone free agent
    /// under [`crate::stability::Silent`], say) costs what the budget
    /// allows, not a flip per interaction. A block almost never binds
    /// under a large budget, and then the stretch is one block. A block
    /// that overruns the budget is cut exactly: given its identity total,
    /// its flips before its last event sit at uniformly random positions,
    /// so the number completed at the cut is hypergeometric. The block is
    /// then replayed to that count from the generator's state before it,
    /// and the run ends on the limit.
    fn lumped_step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        observer: &mut O,
    ) -> StepOutcome {
        if self.flips.begin(counts) == 0 {
            return self
                .run
                .step(proto, counts, rng, max_interactions, observer);
        }
        let run = &mut self.run;
        let flips = &mut self.flips;
        let draws = run.draws();
        let g = draws.identity_run(rng);
        if g >= max_interactions - run.interactions {
            return StepOutcome::Limit;
        }
        if g > 0 {
            run.interactions += g;
            observer.on_identity_run(run.interactions, g, counts);
        }
        // The interactions left after the first gap: at least one, so the
        // stretch's first event fits.
        let room = max_interactions - run.interactions;
        let w_eff = draws.w_eff;
        let mut left = room;
        let mut flipped = 0u64;
        // The first block's first event has no gap before it.
        let mut lead = 1u64;
        loop {
            let expected = (left as f64 * (w_eff as f64 / run.total as f64)).ceil() as u64;
            let cap = expected.clamp(1, left);
            flips.mark(counts);
            let before = rng.clone();
            let mut fired = 0u64;
            let mut terminal = None;
            while fired < cap {
                match flips.fire(counts, draws.effective(rng)) {
                    None => fired += 1,
                    Some(offset) => {
                        terminal = Some(offset);
                        break;
                    }
                }
            }
            let events = fired + u64::from(terminal.is_some());
            let gaps = sample_negative_binomial(rng, events - lead, draws);
            // The block's last event is interaction `span` of the block.
            let span = events.saturating_add(gaps);
            if span <= left {
                flipped += fired;
                left -= span;
                if let Some(offset) = terminal {
                    // Done inside the budget: the flips and their gaps
                    // are `room − left − 1` interactions, then the pair.
                    let tau = room - left - 1;
                    if flipped > 0 {
                        run.interactions += tau;
                        run.effective += flipped;
                        flips.commit(&mut *run.tracker, counts);
                        observer.on_leap_batch(run.interactions, tau, flipped, counts);
                    }
                    let e = flips.non_flip(counts, offset);
                    return run.fire(proto, counts, e, observer);
                }
            } else {
                // Cut inside the block: of its events other than the
                // first-slot one and the last, spread uniformly over the
                // slots between them, those in the first `left` slots
                // complete.
                let done = lead
                    + sample_hypergeometric(rng, events - 1 - lead, span - 1 - lead, left - lead);
                flips.rewind(counts);
                let mut replay = before;
                for _ in 0..done {
                    let fired = flips.fire(counts, draws.effective(&mut replay));
                    debug_assert!(fired.is_none(), "the replay repeats the block's flips");
                }
                flipped += done;
                left = 0;
            }
            if left == 0 {
                run.interactions = max_interactions;
                run.effective += flipped;
                observer.on_leap_batch(max_interactions, room, flipped, counts);
                return StepOutcome::Limit;
            }
            lead = 0;
        }
    }

    /// Attempt one tau-leap. Consumes randomness only once eligibility is
    /// established — a fallback decision is RNG-free.
    fn try_leap<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        counts: &mut [u64],
        rng: &mut SmallRng,
        max_interactions: u64,
        safety_threshold: u64,
        observer: &mut O,
    ) -> LeapOutcome {
        let run = &mut self.run;
        let scratch = &mut self.scratch;
        let total = run.total;
        let channels = proto.pair_effects();
        // Terminal exactness first: close to stability, hand over.
        if let Some(v) = run.tracker.violations_hint() {
            if v <= NEAR_CONVERGENCE_VIOLATIONS {
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
            if w > 0 && (cp <= safety_threshold || cq <= safety_threshold) {
                w_low += w;
            }
        }
        debug_assert_eq!(w_eff, total - run.weights.identity_weight());
        if w_eff == 0 {
            // Frozen configuration — same verdict the leap kernel reaches
            // via its w_id == total check, with no randomness drawn.
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
                let bound = (EPSILON * counts[s] as f64).max(1.0);
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
        if tau * w_eff_f / total_f < MIN_BATCH as f64 {
            return LeapOutcome::Fallback(FallbackReason::SmallLeap);
        }
        if w_low > 0 {
            // Cap so low-count channels are not *expected* to fire within
            // the leap (hybrid tau-leap/exact partitioning).
            let tau_low = total_f / w_low as f64;
            if tau_low * w_eff_f / total_f < MIN_BATCH as f64 {
                return LeapOutcome::Fallback(FallbackReason::LowCount);
            }
            tau = tau.min(tau_low);
        }
        let mut tau = (tau.floor() as u64).clamp(1, remaining);

        // Draw the leap, halving tau when a draw would overdraw a state.
        for attempt in 0..=MAX_RETRIES {
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
                if attempt == MAX_RETRIES {
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

/// How many of `k` marked items, placed uniformly over `slots` slots,
/// land in the first `draws`: the hypergeometric law, one `gen_range`
/// per marked item (each takes a uniform slot among those still free).
fn sample_hypergeometric(rng: &mut SmallRng, k: u64, slots: u64, draws: u64) -> u64 {
    debug_assert!(k <= slots && draws <= slots);
    let (mut free, mut prefix, mut hits) = (slots, draws, 0);
    for _ in 0..k {
        if prefix == 0 {
            break;
        }
        if rng.gen_range(0..free) < prefix {
            hits += 1;
            prefix -= 1;
        }
        free -= 1;
    }
    hits
}

/// Draw the total of `r` independent identity runs at the memo's
/// identity weight `w_id` of `total`: the negative binomial
/// `NB(r, 1 − ρ)` with `ρ = w_id / total`, the number of identities
/// before the `r`-th effective interaction, with mean `rρ/(1 − ρ)` and
/// variance `rρ/(1 − ρ)²`.
///
/// Below 16 runs it sums `r` identity-run draws
/// ([`StepDraws::identity_run`]); from 16 on it draws the gamma–Poisson
/// mixture `Poisson(Gamma(r, ρ/(1 − ρ)))`, whose cost does not grow
/// with `r` (Marsaglia–Tsang gamma, PTRS Poisson). Both are exact up to
/// f64 rounding. Requires `w_id < total`; saturates at `u64::MAX`, as
/// [`crate::leap::sample_identity_run`] does. The memo comes by value:
/// behind a reference its address escapes the lumped step, whose flip
/// loop then reads it from memory (2–3% of `giant_batch`).
pub(crate) fn sample_negative_binomial(rng: &mut SmallRng, r: u64, draws: StepDraws) -> u64 {
    debug_assert!(draws.w_eff > 0);
    if r == 0 || draws.w_id == 0 {
        return 0;
    }
    if r < 16 {
        return (0..r).fold(0u64, |sum, _| sum.saturating_add(draws.identity_run(rng)));
    }
    // ρ/(1 − ρ) = W_id / W_eff, from the integers.
    let odds = draws.w_id as f64 / draws.w_eff as f64;
    let mean = sample_gamma(rng, r as f64) * odds;
    sample_poisson(rng, mean)
}

/// Draw `Gamma(shape, 1)` for `shape ≥ 1` (Marsaglia and Tsang, 2000).
fn sample_gamma(rng: &mut SmallRng, shape: f64) -> f64 {
    debug_assert!(shape >= 1.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_std_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = uniform53(rng);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Draw `Poisson(lambda)`: by multiplying uniforms below a mean of 10,
/// and from 10 on by Hörmann's transformed rejection with squeeze
/// (PTRS, 1993), which needs that mean. Saturates at `u64::MAX`.
fn sample_poisson(rng: &mut SmallRng, lambda: f64) -> u64 {
    if lambda < 10.0 {
        let floor = (-lambda).exp();
        let mut k = 0;
        let mut product = uniform53(rng);
        while product > floor {
            k += 1;
            product *= uniform53(rng);
        }
        return k;
    }
    if lambda >= u64::MAX as f64 {
        return u64::MAX;
    }
    let b = 0.931 + 2.53 * lambda.sqrt();
    let a = -0.059 + 0.02483 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = uniform53(rng) - 0.5;
        let v = uniform53(rng);
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return saturating_u64(k);
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln() <= ln_poisson_pmf(k, lambda) {
            return saturating_u64(k);
        }
    }
}

/// `k` as a `u64`, saturating at `u64::MAX`.
fn saturating_u64(k: f64) -> u64 {
    if k >= u64::MAX as f64 {
        u64::MAX
    } else {
        k as u64
    }
}

/// `ln P(Poisson(lambda) = k)` for a whole `k ≥ 0` and `lambda ≥ 10`.
///
/// From `k = 10` on it uses Stirling's series for `ln k!` and writes
/// `k ln(k/λ) − (k − λ)` as `λ·h(t)`, `h(t) = (1 + t) ln(1 + t) − t`,
/// `t = (k − λ)/λ`, which keeps full precision when `k` and `λ` are
/// large and close.
fn ln_poisson_pmf(k: f64, lambda: f64) -> f64 {
    if k < 10.0 {
        let ln_factorial: f64 = (2..=k as u64).map(|i| (i as f64).ln()).sum();
        return k * lambda.ln() - lambda - ln_factorial;
    }
    let t = (k - lambda) / lambda;
    let deviance = lambda * ((1.0 + t) * t.ln_1p() - t);
    let k2 = k * k;
    let stirling =
        (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * k2)) / k2) / k2) / k;
    -deviance - 0.5 * (std::f64::consts::TAU * k).ln() - stirling
}

/// A uniform deviate in `[0, 1)` from the top 53 bits of one `u64`.
#[inline]
fn uniform53(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
}

/// A standard normal deviate via Box–Muller (two uniforms per call; the
/// second Box–Muller root is discarded, so the sampler keeps no state
/// between calls).
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

    /// `ln Γ(x)` for `x > 0`: Stirling's series from 10 on, shifted
    /// there by `Γ(x + 1) = x Γ(x)` below it.
    fn ln_gamma(x: f64) -> f64 {
        if x < 10.0 {
            return ln_gamma(x + 1.0) - x.ln();
        }
        let x2 = x * x;
        (x - 0.5) * x.ln() - x
            + 0.5 * std::f64::consts::TAU.ln()
            + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x
    }

    /// The exact `P(NB(r, 1 − ρ) ≤ x)` at `ρ = w_id / total`: the
    /// chance of at least `r` effective interactions among the first
    /// `x + r`, a binomial tail summed from its boundary away from the
    /// mode.
    fn nb_cdf(r: u64, w_id: u64, total: u64, x: i64) -> f64 {
        if x < 0 {
            return 0.0;
        }
        let n = x as f64 + r as f64;
        let ln_p = ((total - w_id) as f64 / total as f64).ln();
        let ln_q = (w_id as f64 / total as f64).ln();
        let odds = ((total - w_id) as f64 / w_id as f64).ln();
        let ln_pmf = |j: f64| {
            ln_gamma(n + 1.0) - ln_gamma(j + 1.0) - ln_gamma(n - j + 1.0)
                + j * ln_p
                + (n - j) * ln_q
        };
        let r = r as f64;
        let mode = ((n + 1.0) * (total - w_id) as f64 / total as f64).floor();
        // Sum terms while they matter; they shrink monotonically away
        // from the mode.
        let tail = |first: f64, up: bool| {
            let (mut j, mut term, mut sum) = (first, ln_pmf(first).exp(), 0.0f64);
            while term > 1e-18 * sum.max(1e-300) {
                sum += term;
                let ratio = if up {
                    ((n - j) / (j + 1.0)).ln() + odds
                } else {
                    (j / (n - j + 1.0)).ln() - odds
                };
                j += if up { 1.0 } else { -1.0 };
                if j < 0.0 || j > n {
                    break;
                }
                term *= ratio.exp();
            }
            sum
        };
        if r - 1.0 >= mode {
            tail(r, true).min(1.0)
        } else {
            (1.0 - tail(r - 1.0, false)).max(0.0)
        }
    }

    /// The sampler against its exact law: mean `rρ/(1 − ρ)`, variance
    /// `rρ/(1 − ρ)²`, and the randomised probability integral transform
    /// of each sample under the exact CDF, which must be uniform by a
    /// one-sample KS test. Every check is set at p ≈ 10⁻⁶ (|z| < 5, KS
    /// distance below its α = 10⁻⁶ critical value); there are 60 of
    /// them, so a correct sampler fails with probability below 10⁻⁴.
    #[test]
    fn negative_binomial_matches_its_exact_law() {
        let total = 1u64 << 50;
        let mut rng = SmallRng::seed_from_u64(2021);
        let mut pit_rng = SmallRng::seed_from_u64(2020);
        for r in [2u64, 30, 10_000] {
            for p in [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6] {
                let w_eff = (p * total as f64) as u64;
                let w_id = total - w_eff;
                let (rho, p) = (w_id as f64 / total as f64, w_eff as f64 / total as f64);
                let draws = if r == 10_000 { 4_000 } else { 20_000 };
                let memo = StepDraws::new(w_id, total);
                let xs: Vec<u64> = (0..draws)
                    .map(|_| sample_negative_binomial(&mut rng, r, memo))
                    .collect();
                let nf = draws as f64;
                let mean = r as f64 * rho / p;
                let var = mean / p;
                let m = xs.iter().map(|&x| x as f64).sum::<f64>() / nf;
                let s2 = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / (nf - 1.0);
                let label = format!("r = {r}, 1 − ρ = {p:e}");
                let z = (m - mean) / (var / nf).sqrt();
                assert!(
                    z.abs() < 5.0,
                    "{label}: mean {m} against {mean} (z = {z:.2})"
                );
                // Var(s²) = σ⁴ (2 + excess kurtosis) / N.
                let kurtosis = 6.0 / r as f64 + p * p / (r as f64 * rho);
                let z = (s2 / var - 1.0) / ((2.0 + kurtosis) / nf).sqrt();
                assert!(
                    z.abs() < 5.0,
                    "{label}: variance {s2} against {var} (z = {z:.2})"
                );
                let mut pit: Vec<f64> = xs
                    .iter()
                    .map(|&x| {
                        let lo = nb_cdf(r, w_id, total, x as i64 - 1);
                        let hi = nb_cdf(r, w_id, total, x as i64);
                        lo + uniform53(&mut pit_rng) * (hi - lo)
                    })
                    .collect();
                pit.sort_by(f64::total_cmp);
                let d = pit
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| (u - i as f64 / nf).max((i + 1) as f64 / nf - u))
                    .fold(0.0, f64::max);
                let critical = (-(1e-6f64 / 2.0).ln() / (2.0 * nf)).sqrt();
                assert!(
                    d < critical,
                    "{label}: KS distance {d:.4} over {critical:.4}"
                );
            }
        }
    }

    #[test]
    fn negative_binomial_edges() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(
            sample_negative_binomial(&mut rng, 0, StepDraws::new(3, 4)),
            0
        );
        assert_eq!(
            sample_negative_binomial(&mut rng, 100, StepDraws::new(0, 4)),
            0
        );
        // ρ within 2⁻⁶⁴ of 1: the mean is far beyond u64, so the draw
        // saturates.
        assert_eq!(
            sample_negative_binomial(&mut rng, 1_000, StepDraws::new(u64::MAX - 1, u64::MAX)),
            u64::MAX
        );
    }

    /// The k = 2 uniform k-partition (bipartition): `initial` and
    /// `initial'` flip together on equal flags and when they meet a
    /// settled agent, and settle on opposite flags.
    fn bipartition() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("bipartition");
        let ini = spec.add_state("initial", 1);
        let inip = spec.add_state("initial'", 1);
        let g1 = spec.add_state("g1", 1);
        let g2 = spec.add_state("g2", 2);
        spec.set_initial(ini);
        spec.add_rule(ini, ini, inip, inip);
        spec.add_rule(inip, inip, ini, ini);
        spec.add_rule_symmetric(ini, inip, g1, g2);
        for g in [g1, g2] {
            spec.add_rule_symmetric(g, ini, g, inip);
            spec.add_rule_symmetric(g, inip, g, ini);
        }
        spec.compile().unwrap()
    }

    #[test]
    fn flip_class_folds_into_four_moves() {
        let proto = bipartition();
        let class = proto.flip_class();
        let names: Vec<_> = class.iter().map(|&s| proto.state_name(s)).collect();
        assert_eq!(names, ["initial", "initial'"]);
        let flips = Flips::new(&proto, true);
        // Rules 1 and 2 as pair moves, rules 3–4 as two linear moves whose
        // partners are g1 and g2 in both orders.
        let shapes: Vec<_> = flips
            .moves
            .iter()
            .map(|m| (m.a, m.b == LINEAR, m.partners.len()))
            .collect();
        assert_eq!(
            shapes,
            [(0, false, 0), (0, true, 4), (1, false, 0), (1, true, 4)]
        );
        // The settle, both orders, is the only non-flip.
        assert_eq!(flips.non_flips.len(), 2);
        // With no flip class, every pair is a non-flip.
        let none = Flips::new(&proto, false);
        assert!(none.moves.is_empty());
        assert_eq!(none.non_flips.len(), proto.pair_effects().len());
        assert!(Flips::new(&epidemic(), true).moves.is_empty());
    }

    /// Counts each hook's calls and interactions.
    #[derive(Default)]
    struct Hooks {
        order: Vec<char>,
        interactions: u64,
        effective: u64,
    }

    impl Observer for Hooks {
        fn on_interaction(
            &mut self,
            step: u64,
            _p: StateId,
            _q: StateId,
            _p2: StateId,
            _q2: StateId,
            _c: &[u64],
        ) {
            self.interactions += 1;
            self.effective += 1;
            assert_eq!(step, self.interactions);
            self.order.push('i');
        }
        fn on_identity_run(&mut self, last: u64, skipped: u64, _c: &[u64]) {
            self.interactions += skipped;
            assert_eq!(last, self.interactions);
            self.order.push('g');
        }
        fn on_leap_batch(&mut self, last: u64, tau: u64, effective: u64, _c: &[u64]) {
            assert!(tau >= effective && effective >= 1);
            self.interactions += tau;
            self.effective += effective;
            assert_eq!(last, self.interactions);
            self.order.push('b');
        }
    }

    /// Lumped stretches report the first gap, then the flips, then the
    /// terminating pair, and the hooks add up to the run's counters, to
    /// stability and at a budget that cuts a stretch.
    #[test]
    fn lumped_steps_report_in_order_and_in_full() {
        let proto = bipartition();
        let n = 40;
        for (budget, seed) in [(u64::MAX, 1), (u64::MAX, 2), (150, 3), (400, 4)] {
            let mut pop = CountPopulation::new(&proto, n);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            let mut hooks = Hooks::default();
            let res = Simulator::new(&proto).run_batch_configured(
                &mut pop,
                &mut sched,
                &crate::stability::Never,
                budget,
                n,
                &mut hooks,
            );
            assert_eq!(
                res,
                Err(crate::simulator::RunError::InteractionLimit { limit: budget }),
                "Never ends only on the limit"
            );
            let order: String = hooks.order.iter().collect();
            assert!(order.contains('b'), "no stretch was lumped: {order}");
            assert!(!order.contains("bb") && !order.contains("bg"), "{order}");
            if budget < u64::MAX {
                // The cut lands inside a stretch or on a gap; either way
                // the hooks reach the configuration the run stopped in.
                assert!(hooks.interactions <= budget);
                assert_eq!(pop.counts().iter().sum::<u64>(), n);
            }
        }
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
        // replicate the leap kernel's RNG consumption and counters exactly.
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
                .run_leap_observed(
                    &mut pop_a,
                    &mut sched_a,
                    &Silent,
                    u64::MAX,
                    &mut NullObserver,
                )
                .unwrap();

            let mut pop_b = CountPopulation::new(&proto, n);
            pop_b.set_count(s, n - 1);
            pop_b.set_count(i, 1);
            let mut sched_b = UniformRandomScheduler::from_seed(seed);
            let batch = Simulator::new(&proto)
                .run_batch_configured(
                    &mut pop_b,
                    &mut sched_b,
                    &Silent,
                    u64::MAX,
                    n,
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
