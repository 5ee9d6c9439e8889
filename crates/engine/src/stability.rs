//! Stability criteria — when has an execution "solved" its problem?
//!
//! The paper measures "the total number of interactions until a population
//! reaches a stable configuration" (§5). A configuration is *stable* for
//! uniform k-partition when group sizes are balanced and **no agent ever
//! changes its group again** in any continuation (§2.2). Deciding this
//! generically requires reasoning about all reachable continuations, so the
//! engine offers a spectrum of criteria:
//!
//! * [`Silent`] — no enabled transition changes any state. Sound for every
//!   protocol (a silent configuration is a sink) but incomplete for the
//!   paper's protocol: when `n mod k = 1` the lone free agent keeps
//!   flipping `initial ↔ initial'` (rules 3–4), so the stable configuration
//!   is never silent.
//! * [`GroupClosure`] — explores the set of configurations reachable from
//!   the current one and reports stable iff no group-changing transition is
//!   enabled anywhere in that closure. Sound *and* complete for group
//!   stability, at the cost of a bounded search; cheap in practice because
//!   the closure of a truly stable configuration of the k-partition
//!   protocol has at most `#free + 1` elements (only free-agent flips
//!   remain).
//! * [`Signature`] — an exact, O(|Q|) predicate on the count vector,
//!   supplied by the protocol implementation (e.g. the Lemma 4–6
//!   characterisation of the k-partition protocol's stable
//!   configurations). This is what the figure harnesses use; tests verify
//!   it agrees with [`GroupClosure`].
//! * [`Never`] — never stable; for fixed-length runs.

use crate::population::{CountPopulation, Population};
use crate::protocol::{CompiledProtocol, PairEffect, StateId};
use std::collections::HashSet;

/// Decides whether a configuration (count vector) is stable.
///
/// ```
/// use pp_engine::spec::ProtocolSpec;
/// use pp_engine::stability::{Silent, StabilityCriterion};
///
/// let mut spec = ProtocolSpec::new("epidemic");
/// let s = spec.add_state("S", 1);
/// let i = spec.add_state("I", 2);
/// spec.set_initial(s);
/// spec.add_rule_symmetric(i, s, i, i);
/// let proto = spec.compile().unwrap();
///
/// // [S, I] counts: an infection is still possible at [1, 2]…
/// assert!(!Silent.is_stable(&proto, &[1, 2]));
/// // …but [0, 3] is a sink.
/// assert!(Silent.is_stable(&proto, &[0, 3]));
/// ```
pub trait StabilityCriterion {
    /// Whether the configuration given by `counts` is stable.
    ///
    /// Called by the simulator once at the start of a run and after every
    /// count-changing interaction (identity interactions cannot change
    /// stability).
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool;

    /// An incremental checker for this criterion, initialised at `counts`.
    ///
    /// The leap and batch kernels drive the returned [`StabilityTracker`]
    /// with the net count deltas of every applied transition or tau-leap,
    /// so criteria that can fold deltas (notably
    /// [`Signature`]) answer stability in O(1) per interaction instead of
    /// an O(|Q|) rescan. The default implementation falls back to
    /// re-evaluating [`StabilityCriterion::is_stable`] on every query,
    /// which is always correct, and answers `false` to
    /// [`StabilityTracker::ignores_moves_within`].
    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        _counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a>
    where
        Self: Sized,
    {
        Box::new(RescanTracker {
            criterion: self,
            ignores_class_moves: false,
        })
    }
}

/// Incremental form of a [`StabilityCriterion`]: consumes the count
/// deltas of applied transitions and answers stability queries between
/// them.
///
/// The kernels feed the *net* deltas of each step: one transition's
/// compiled [`crate::protocol::PairEffect`] deltas (at most four states;
/// two when only one agent changes state), or one tau-leap's per-state
/// totals. They apply all of a step's deltas before querying
/// [`StabilityTracker::is_stable`], so implementations may observe
/// transient configurations mid-step but are only *asked* about
/// consistent ones.
pub trait StabilityTracker {
    /// Fold one count delta on state `s`: any non-zero `delta` that keeps
    /// the count non-negative.
    fn apply_delta(&mut self, s: StateId, delta: i64);

    /// Fold one firing of a compiled pair: its net deltas, in one call
    /// (the leap step's one call into the tracker besides
    /// [`StabilityTracker::is_stable`]).
    #[inline]
    fn apply_pair(&mut self, e: &PairEffect) {
        for (s, d) in e.deltas() {
            self.apply_delta(s, d);
        }
    }

    /// Whether the current configuration (equal to `counts`) is stable.
    fn is_stable(&mut self, proto: &CompiledProtocol, counts: &[u64]) -> bool;

    /// A cheap *distance-to-stability* hint: how many independently
    /// tracked constraints are currently violated, if the tracker knows.
    ///
    /// The batch kernel ([`crate::simulator::Simulator::run_batch`]) uses
    /// this to hand control back to exact stepping when the
    /// configuration is close to stable, so terminal behaviour is never
    /// approximated. `None` (the default) means the tracker cannot
    /// quantify the distance; the batch kernel then relies on its other
    /// fallback triggers alone.
    fn violations_hint(&self) -> Option<u64> {
        None
    }

    /// Whether moving agents between the states of `class` can never
    /// change this tracker's verdict.
    ///
    /// The leap step asks once per run, with the protocol's
    /// [flip class](CompiledProtocol::flip_class), whether it may skip
    /// the stability query after a flip, and the batch kernel reads the
    /// same answer to decide whether it may run a stretch of flips
    /// without a query between them. Along a stretch the class total and
    /// every count outside the class stay fixed, and so does the identity
    /// weight `W_id`, so a configuration with an enabled non-identity
    /// pair keeps one. The default, `false`, is always safe: the kernels
    /// then query after every flip and step flips one at a time.
    fn ignores_moves_within(&self, _class: &[StateId]) -> bool {
        false
    }
}

/// Default tracker: ignores deltas and rescans via the wrapped criterion.
struct RescanTracker<'a, C: ?Sized> {
    criterion: &'a C,
    /// The answer to [`StabilityTracker::ignores_moves_within`], fixed
    /// by the criterion.
    ignores_class_moves: bool,
}

impl<C: StabilityCriterion + ?Sized> StabilityTracker for RescanTracker<'_, C> {
    #[inline(always)]
    fn apply_delta(&mut self, _s: StateId, _delta: i64) {}

    #[inline]
    fn is_stable(&mut self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        // Each call is a full O(|Q|)-or-worse re-evaluation; counting them
        // shows how much a criterion loses by not providing an incremental
        // tracker. One relaxed add is noise next to the rescan itself.
        crate::metrics::engine_metrics().stability_rescans.inc();
        self.criterion.is_stable(proto, counts)
    }

    fn ignores_moves_within(&self, _class: &[StateId]) -> bool {
        self.ignores_class_moves
    }
}

/// Every ordered pair `(p, q)` enabled in `counts` (`counts[p] ≥ 1`,
/// and `counts[q] ≥ 2` when `p == q`): occupied rows in state order,
/// and within each its occupied columns in state order.
///
/// Lazy and allocation-free, so a caller that stops at its first
/// answer pays only for the pairs up to it; a full walk costs
/// O(occupied states · |Q|).
pub fn enabled_pairs(counts: &[u64]) -> impl Iterator<Item = (StateId, StateId)> + '_ {
    let occupied = move || {
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= 1)
            .map(|(i, &c)| (StateId(i as u16), c))
    };
    occupied().flat_map(move |(p, _)| {
        occupied()
            .filter(move |&(q, cq)| p != q || cq >= 2)
            .map(move |(q, _)| (p, q))
    })
}

/// No enabled transition changes any state: the configuration is a sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct Silent;

impl StabilityCriterion for Silent {
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        enabled_pairs(counts).all(|(p, q)| proto.is_identity(p, q))
    }

    /// The rescanning tracker, which ignores moves within the flip class:
    /// a stretch of flips starts with a flip enabled and keeps `W_id`, so
    /// some non-identity pair stays enabled and no configuration along it
    /// is silent.
    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        _counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        Box::new(RescanTracker {
            criterion: self,
            ignores_class_moves: true,
        })
    }
}

/// Complete group-stability check by closure exploration.
///
/// Reports stable iff no configuration reachable from `counts` enables a
/// group-changing transition. The search aborts (reporting *unstable*) once
/// `max_closure` distinct configurations have been visited, which keeps the
/// check bounded when invoked on a far-from-stable configuration; the
/// default bound of `4096` comfortably covers the flip-only closures of
/// genuinely stable configurations.
#[derive(Clone, Copy, Debug)]
pub struct GroupClosure {
    /// Abort threshold on the number of explored configurations.
    pub max_closure: usize,
}

impl Default for GroupClosure {
    fn default() -> Self {
        GroupClosure { max_closure: 4096 }
    }
}

impl StabilityCriterion for GroupClosure {
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        // Fast necessary condition: no *currently* enabled group-changing
        // transition. This rejects almost every mid-run configuration
        // without touching the closure search.
        if enabled_pairs(counts).any(|(p, q)| proto.is_group_changing(p, q)) {
            return false;
        }
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut stack = vec![counts.to_vec()];
        seen.insert(counts.to_vec());
        while let Some(cfg) = stack.pop() {
            if seen.len() > self.max_closure {
                return false;
            }
            for (p, q) in enabled_pairs(&cfg).collect::<Vec<_>>() {
                if proto.is_group_changing(p, q) {
                    return false;
                }
                if proto.is_identity(p, q) {
                    continue;
                }
                let (p2, q2) = proto.delta(p, q);
                let mut next = cfg.clone();
                next[p.index()] -= 1;
                next[q.index()] -= 1;
                next[p2.index()] += 1;
                next[q2.index()] += 1;
                if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        true
    }
}

/// Exact target signature on the count vector.
///
/// `fixed[s] = Some(c)` requires `counts[s] == c`; states not fixed must be
/// covered by a *pool*: a set of states whose counts must sum to a given
/// value (e.g. "exactly one agent in `{initial, initial'}`" for the
/// `n mod k = 1` case of Lemma 6).
#[derive(Clone, Debug)]
pub struct Signature {
    fixed: Vec<Option<u64>>,
    pools: Vec<(Vec<StateId>, u64)>,
}

impl Signature {
    /// Build a signature. Every state must either appear in `fixed` (as
    /// `Some`) or belong to exactly one pool; unconstrained states would
    /// make the predicate vacuous, so they are rejected.
    pub fn new(fixed: Vec<Option<u64>>, pools: Vec<(Vec<StateId>, u64)>) -> Self {
        let mut covered: Vec<bool> = fixed.iter().map(Option::is_some).collect();
        for (states, _) in &pools {
            for s in states {
                assert!(
                    !covered[s.index()],
                    "state {s:?} constrained twice in stability signature"
                );
                covered[s.index()] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "every state must be constrained by a stability signature"
        );
        Signature { fixed, pools }
    }

    /// Signature requiring exactly the given counts (no pools).
    pub fn exact(counts: Vec<u64>) -> Self {
        Signature {
            fixed: counts.into_iter().map(Some).collect(),
            pools: Vec::new(),
        }
    }

    /// Check the signature directly against a count vector.
    pub fn matches(&self, counts: &[u64]) -> bool {
        debug_assert_eq!(counts.len(), self.fixed.len());
        for (c, f) in counts.iter().zip(&self.fixed) {
            if let Some(want) = f {
                if c != want {
                    return false;
                }
            }
        }
        self.pools
            .iter()
            .all(|(states, want)| states.iter().map(|s| counts[s.index()]).sum::<u64>() == *want)
    }
}

impl StabilityCriterion for Signature {
    #[inline]
    fn is_stable(&self, _proto: &CompiledProtocol, counts: &[u64]) -> bool {
        self.matches(counts)
    }

    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        Box::new(SignatureTracker::new(self, counts))
    }
}

/// How a state is constrained inside a [`SignatureTracker`].
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// `counts[s]` must equal `want`; `cur` is the maintained count.
    Fixed { cur: u64, want: u64 },
    /// The state belongs to pool `i`; its count feeds `pool_cur[i]`.
    Pool(usize),
}

/// O(1)-per-delta incremental checker for [`Signature`].
///
/// Maintains each fixed state's count and each pool's sum alongside a
/// single violation counter (one unit per unsatisfied fixed state or
/// pool), so a stability query is a comparison with zero.
#[derive(Clone, Debug)]
pub struct SignatureTracker {
    slots: Vec<Slot>,
    pool_cur: Vec<u64>,
    pool_want: Vec<u64>,
    violations: usize,
}

impl SignatureTracker {
    /// Tracker for `sig`, initialised at configuration `counts`.
    pub fn new(sig: &Signature, counts: &[u64]) -> Self {
        debug_assert_eq!(counts.len(), sig.fixed.len());
        let mut slots = vec![Slot::Pool(usize::MAX); counts.len()];
        for (s, f) in sig.fixed.iter().enumerate() {
            if let Some(want) = f {
                slots[s] = Slot::Fixed {
                    cur: counts[s],
                    want: *want,
                };
            }
        }
        let mut pool_cur = Vec::with_capacity(sig.pools.len());
        let mut pool_want = Vec::with_capacity(sig.pools.len());
        for (i, (states, want)) in sig.pools.iter().enumerate() {
            for s in states {
                slots[s.index()] = Slot::Pool(i);
            }
            pool_cur.push(states.iter().map(|s| counts[s.index()]).sum());
            pool_want.push(*want);
        }
        let mut violations = 0;
        for slot in &slots {
            if let Slot::Fixed { cur, want } = slot {
                if cur != want {
                    violations += 1;
                }
            }
        }
        violations += pool_cur
            .iter()
            .zip(&pool_want)
            .filter(|(c, w)| c != w)
            .count();
        SignatureTracker {
            slots,
            pool_cur,
            pool_want,
            violations,
        }
    }
}

impl StabilityTracker for SignatureTracker {
    #[inline]
    fn apply_delta(&mut self, s: StateId, delta: i64) {
        match &mut self.slots[s.index()] {
            Slot::Fixed { cur, want } => {
                let was_ok = *cur == *want;
                if delta >= 0 {
                    *cur += delta as u64;
                } else {
                    *cur -= delta.unsigned_abs();
                }
                let now_ok = *cur == *want;
                if was_ok && !now_ok {
                    self.violations += 1;
                } else if !was_ok && now_ok {
                    self.violations -= 1;
                }
            }
            Slot::Pool(i) => {
                let i = *i;
                let was_ok = self.pool_cur[i] == self.pool_want[i];
                if delta >= 0 {
                    self.pool_cur[i] += delta as u64;
                } else {
                    self.pool_cur[i] -= delta.unsigned_abs();
                }
                let now_ok = self.pool_cur[i] == self.pool_want[i];
                if was_ok && !now_ok {
                    self.violations += 1;
                } else if !was_ok && now_ok {
                    self.violations -= 1;
                }
            }
        }
    }

    #[inline(always)]
    fn is_stable(&mut self, _proto: &CompiledProtocol, _counts: &[u64]) -> bool {
        self.violations == 0
    }

    #[inline(always)]
    fn violations_hint(&self) -> Option<u64> {
        Some(self.violations as u64)
    }

    /// Yes when `class` lies in one pool, whose sum moves within the
    /// class keep, or when every state of `class` is fixed at 0: the
    /// class total is kept too, so those constraints hold throughout or
    /// fail throughout. These are the two shapes of the k-partition
    /// signature, for `n mod k = 1` and otherwise.
    fn ignores_moves_within(&self, class: &[StateId]) -> bool {
        let mut slots = class.iter().map(|s| self.slots[s.index()]);
        match slots.next() {
            None => true,
            Some(Slot::Pool(i)) => slots.all(|s| matches!(s, Slot::Pool(j) if j == i)),
            Some(Slot::Fixed { want: 0, .. }) => {
                slots.all(|s| matches!(s, Slot::Fixed { want: 0, .. }))
            }
            Some(Slot::Fixed { .. }) => false,
        }
    }
}

/// Never stable — run until the interaction limit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Never;

impl StabilityCriterion for Never {
    #[inline(always)]
    fn is_stable(&self, _proto: &CompiledProtocol, _counts: &[u64]) -> bool {
        false
    }

    /// The rescanning tracker, which ignores moves within any class.
    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        _counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        Box::new(RescanTracker {
            criterion: self,
            ignores_class_moves: true,
        })
    }
}

/// Stable when *either* criterion fires; records nothing.
#[derive(Clone, Copy, Debug)]
pub struct Either<A, B>(
    /// First criterion.
    pub A,
    /// Second criterion.
    pub B,
);

impl<A: StabilityCriterion, B: StabilityCriterion> StabilityCriterion for Either<A, B> {
    #[inline]
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        self.0.is_stable(proto, counts) || self.1.is_stable(proto, counts)
    }

    fn tracker<'a>(
        &'a self,
        proto: &CompiledProtocol,
        counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        struct EitherTracker<'a> {
            a: Box<dyn StabilityTracker + 'a>,
            b: Box<dyn StabilityTracker + 'a>,
        }
        impl StabilityTracker for EitherTracker<'_> {
            #[inline]
            fn apply_delta(&mut self, s: StateId, delta: i64) {
                self.a.apply_delta(s, delta);
                self.b.apply_delta(s, delta);
            }
            #[inline]
            fn apply_pair(&mut self, e: &PairEffect) {
                self.a.apply_pair(e);
                self.b.apply_pair(e);
            }
            #[inline]
            fn is_stable(&mut self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
                self.a.is_stable(proto, counts) || self.b.is_stable(proto, counts)
            }
            #[inline]
            fn violations_hint(&self) -> Option<u64> {
                // Stability needs only one side to fire, so the distance
                // is the nearer of the two hints.
                match (self.a.violations_hint(), self.b.violations_hint()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            }
            fn ignores_moves_within(&self, class: &[StateId]) -> bool {
                self.a.ignores_moves_within(class) && self.b.ignores_moves_within(class)
            }
        }
        Box::new(EitherTracker {
            a: self.0.tracker(proto, counts),
            b: self.1.tracker(proto, counts),
        })
    }
}

/// Convenience: evaluate a criterion against a [`CountPopulation`].
pub fn is_stable<C: StabilityCriterion>(
    crit: &C,
    proto: &CompiledProtocol,
    pop: &CountPopulation,
) -> bool {
    crit.is_stable(proto, pop.counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;

    /// Epidemic with a "refractory flip": (I, I) -> (J, J), (J, J) -> (I, I)
    /// where I and J are both group 2. Once everyone is infected the
    /// population keeps flipping between I and J — never silent, but group
    /// membership is fixed.
    fn flipping_epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("flip");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        let j = spec.add_state("J", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.add_rule_symmetric(j, s, j, j);
        spec.add_rule(i, i, j, j);
        spec.add_rule(j, j, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn silent_detects_sinks_only() {
        let p = flipping_epidemic();
        // counts: [S, I, J]
        assert!(!Silent.is_stable(&p, &[3, 1, 0])); // infection enabled
        assert!(!Silent.is_stable(&p, &[0, 2, 0])); // flip enabled
        assert!(Silent.is_stable(&p, &[0, 1, 1])); // (I, J) is identity
        assert!(Silent.is_stable(&p, &[0, 1, 0])); // single agent
        assert!(Silent.is_stable(&p, &[1, 0, 0])); // lone susceptible
    }

    #[test]
    fn group_closure_sees_through_flips() {
        let p = flipping_epidemic();
        // All infected, flipping forever: group-stable but not silent.
        assert!(GroupClosure::default().is_stable(&p, &[0, 4, 0]));
        assert!(!Silent.is_stable(&p, &[0, 4, 0]));
        // One susceptible left: infection will change its group.
        assert!(!GroupClosure::default().is_stable(&p, &[1, 3, 0]));
    }

    #[test]
    fn group_closure_rejects_latent_instability() {
        // Protocol where the group change is two hops away:
        // (a, a) -> (b, b) keeps group 1; (b, b) -> (c, c) moves to group 2.
        let mut spec = ProtocolSpec::new("latent");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, c, c);
        let p = spec.compile().unwrap();
        // No group-changing transition is *currently* enabled at [2,0,0],
        // but one becomes enabled after the (a,a) flip.
        assert!(!GroupClosure::default().is_stable(&p, &[2, 0, 0]));
        assert!(GroupClosure::default().is_stable(&p, &[1, 1, 0]));
        let _ = (a, b, c);
    }

    #[test]
    fn signature_pools() {
        let p = flipping_epidemic();
        let i = p.state_by_name("I").unwrap();
        let j = p.state_by_name("J").unwrap();
        let sig = Signature::new(vec![Some(0), None, None], vec![(vec![i, j], 4)]);
        assert!(sig.is_stable(&p, &[0, 4, 0]));
        assert!(sig.is_stable(&p, &[0, 1, 3]));
        assert!(!sig.is_stable(&p, &[0, 3, 0]));
        assert!(!sig.is_stable(&p, &[1, 3, 1]));
    }

    #[test]
    fn signature_exact() {
        let sig = Signature::exact(vec![1, 2, 3]);
        assert!(sig.matches(&[1, 2, 3]));
        assert!(!sig.matches(&[1, 2, 4]));
    }

    #[test]
    #[should_panic(expected = "constrained twice")]
    fn signature_rejects_double_constraint() {
        Signature::new(vec![Some(0), Some(1)], vec![(vec![StateId(1)], 1)]);
    }

    #[test]
    #[should_panic(expected = "must be constrained")]
    fn signature_rejects_unconstrained_state() {
        Signature::new(vec![Some(0), None], vec![]);
    }

    #[test]
    fn either_combines() {
        let p = flipping_epidemic();
        let sig = Signature::exact(vec![9, 9, 9]);
        let both = Either(sig, Silent);
        assert!(both.is_stable(&p, &[0, 1, 1])); // silent side
        assert!(both.is_stable(&p, &[9, 9, 9])); // signature side
        assert!(!both.is_stable(&p, &[1, 1, 0]));
    }

    #[test]
    fn never_is_never_stable() {
        let p = flipping_epidemic();
        assert!(!Never.is_stable(&p, &[0, 0, 0]));
    }

    #[test]
    fn enabled_pairs_respects_multiplicity() {
        let pairs: Vec<_> = enabled_pairs(&[1, 2]).collect();
        // (0,0) needs two agents in state 0 -> absent.
        assert!(!pairs.contains(&(StateId(0), StateId(0))));
        assert!(pairs.contains(&(StateId(0), StateId(1))));
        assert!(pairs.contains(&(StateId(1), StateId(0))));
        assert!(pairs.contains(&(StateId(1), StateId(1))));
    }
}
