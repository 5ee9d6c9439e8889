//! Compiled protocols: dense transition tables with precomputed masks.
//!
//! A population protocol is a pair `(Q, δ)` together with a designated
//! initial state and an output map `f : Q → {1..k}`. This module stores `δ`
//! as a dense `|Q| × |Q|` table of ordered-pair results, which makes a
//! single interaction an O(1) lookup and lets us precompute, for every
//! ordered pair, whether the transition is an *identity* (changes neither
//! state) and whether it is *group-changing* (changes `f` of at least one
//! participant). Those masks power the O(1)-amortised stability checks in
//! [`crate::stability`]. Each non-identity pair's net effect on the count
//! vector, and on the leap kernel's identity marginals, is compiled once
//! into a [`PairEffect`] (see [`CompiledProtocol::pair_effect`]).

use std::fmt;

/// Index of a state in a compiled protocol's state set `Q`.
///
/// States are small (`3k − 2` for the paper's protocol), so a `u16` is
/// ample; keeping the index narrow keeps transition-table rows cache-dense.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u16);

impl StateId {
    /// The state index as a `usize`, for table lookups.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A group label in `{1, .., k}`, the codomain of the output map `f`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroupId(pub u16);

/// Identity of a *labelled* rule in a compiled protocol.
///
/// Rule ids are assigned in label-first-seen order at compile time; every
/// ordered pair registered under the same label (e.g. both orders of a
/// symmetric rule) maps back to one id. Unlabelled rules and identity
/// pairs have no rule id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u16);

impl RuleId {
    /// Sentinel raw value marking "no rule" in the dense per-pair table.
    pub(crate) const NONE_RAW: u16 = u16::MAX;

    /// The rule index as a `usize`, for table lookups.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

impl GroupId {
    /// The group as a 1-based number, matching the paper's notation.
    #[inline(always)]
    pub fn number(self) -> usize {
        self.0 as usize
    }
}

/// Errors detected while validating a protocol description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// No initial state was designated.
    MissingInitialState,
    /// The protocol has no states at all.
    EmptyStateSet,
    /// Two rules were given for the same ordered pair with different results.
    ConflictingRule {
        /// First state of the ordered pair.
        p: StateId,
        /// Second state of the ordered pair.
        q: StateId,
    },
    /// A rule references a state id outside the state set.
    StateOutOfRange(StateId),
    /// A symmetric-protocol check failed: `δ(p, p) = (p', q')` with `p' ≠ q'`.
    AsymmetricTransition {
        /// The state interacting with itself.
        p: StateId,
    },
    /// A group label of 0 was used (groups are 1-based, as in the paper).
    ZeroGroup(StateId),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::MissingInitialState => write!(f, "no designated initial state"),
            ProtocolError::EmptyStateSet => write!(f, "protocol has no states"),
            ProtocolError::ConflictingRule { p, q } => {
                write!(f, "conflicting transition rules for pair ({p:?}, {q:?})")
            }
            ProtocolError::StateOutOfRange(s) => write!(f, "state {s:?} out of range"),
            ProtocolError::AsymmetricTransition { p } => {
                write!(f, "asymmetric transition on pair ({p:?}, {p:?})")
            }
            ProtocolError::ZeroGroup(s) => {
                write!(f, "state {s:?} mapped to group 0 (groups are 1-based)")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One non-identity entry of the compiled rule table: the ordered pair,
/// its result, and the labelled rule covering it (if any). Produced by
/// [`CompiledProtocol::rule_entries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleEntry {
    /// First state of the ordered pair.
    pub p: StateId,
    /// Second state of the ordered pair.
    pub q: StateId,
    /// Result for the first agent.
    pub p2: StateId,
    /// Result for the second agent.
    pub q2: StateId,
    /// The labelled rule covering this pair, if any.
    pub rule: Option<RuleId>,
}

/// The compiled net effect of one non-identity ordered pair `(p, q)`.
///
/// Firing `δ(p, q) = (p2, q2)` once changes the count vector by
/// `d = e_p2 + e_q2 − e_p − e_q`: at most four states, fewer when they
/// coincide. The leap kernel ([`crate::leap::IdentityWeights`]) keeps
/// the identity marginals `row[x] = Σ_b id(x, b)·c_b` and
/// `col[x] = Σ_a id(a, x)·c_a`, and their total `W_id`, exact across
/// each firing. Since `d` is fixed per pair, so are those changes:
///
/// * `Δrow[x] = Σ_a id(x, a)·d_a` and `Δcol[x] = Σ_a id(a, x)·d_a`, listed
///   for every `x` where either is non-zero
///   ([`CompiledProtocol::pair_marginals`]);
/// * `ΔW_id = K + Σ_a d_a·(row[a] + col[a])` on the marginals before the
///   firing, with the constant
///   `K = Σ_{a,b} id(a, b)·d_a·d_b − Σ_a id(a, a)·d_a`.
///
/// A pair that no identity pair involves, such as Algorithm 1's
/// free-agent flips, has an empty marginal list and `K = 0`. Whether the
/// pair is a *flip* of the protocol's
/// [flip class](CompiledProtocol::flip_class) is compiled too
/// ([`PairEffect::is_flip`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairEffect {
    /// First state of the ordered pair.
    pub p: StateId,
    /// Second state of the ordered pair.
    pub q: StateId,
    /// Result for the first agent.
    pub p2: StateId,
    /// Result for the second agent.
    pub q2: StateId,
    /// Net count deltas; the first `len` are live.
    deltas: [(StateId, i8); 4],
    len: u8,
    /// The constant `K` of `ΔW_id`.
    identity_constant: i8,
    /// This pair's entries in the flat marginal list.
    marginals_len: u16,
    marginals_start: u32,
    /// Whether the pair is a flip (see [`PairEffect::is_flip`]).
    flip: bool,
}

impl PairEffect {
    /// The net count deltas `(s, d_s)`, zeros dropped, in first-seen
    /// order over `(p, −1), (q, −1), (p2, +1), (q2, +1)`.
    #[inline(always)]
    pub fn deltas(&self) -> impl ExactSizeIterator<Item = (StateId, i64)> + '_ {
        self.deltas[..usize::from(self.len)]
            .iter()
            .map(|&(s, d)| (s, i64::from(d)))
    }

    /// The constant `K = Σ_{a,b} id(a, b)·d_a·d_b − Σ_a id(a, a)·d_a` of
    /// `ΔW_id`.
    #[inline(always)]
    pub fn identity_constant(&self) -> i64 {
        i64::from(self.identity_constant)
    }

    /// Whether the pair is a *flip*: a reactant lies in the protocol's
    /// [flip class](CompiledProtocol::flip_class) and every net delta
    /// stays inside it. A flip changes no count an identity pair reads,
    /// so its marginal list is empty, `K = 0`, and `W_id` stays where it
    /// was; Algorithm 1's flips are its rules 1–4.
    #[inline(always)]
    pub fn is_flip(&self) -> bool {
        self.flip
    }
}

/// One entry of a pair's marginal list: firing the pair adds `row` to
/// the identity marginal `row[state]` and `col` to `col[state]` (see
/// [`PairEffect`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarginalDelta {
    /// The state whose marginals change.
    pub state: StateId,
    /// `Δrow[state]`.
    pub row: i8,
    /// `Δcol[state]`.
    pub col: i8,
}

/// `pair_slot` entry of an identity pair.
const NO_PAIR: u32 = u32::MAX;

/// A fully validated, dense-table population protocol.
///
/// Construct via [`crate::spec::ProtocolSpec::compile`]. The table stores
/// the result of `δ(p, q)` for every *ordered* pair `(p, q)`; pairs for
/// which no rule was declared default to the identity `(p, q)`, matching
/// the convention of the paper (unlisted interactions are null).
pub struct CompiledProtocol {
    name: String,
    state_names: Vec<String>,
    groups: Vec<GroupId>,
    num_groups: usize,
    initial: StateId,
    /// Row-major `|Q| × |Q|` table of ordered-pair results.
    table: Vec<(StateId, StateId)>,
    /// `identity[p * S + q]` is true iff `δ(p, q) = (p, q)`.
    identity: Vec<bool>,
    /// `group_changing[p * S + q]` is true iff `δ(p, q)` changes `f` of
    /// either participant.
    group_changing: Vec<bool>,
    /// `rule_table[p * S + q]` is the raw [`RuleId`] of the labelled rule
    /// covering the pair, or [`RuleId::NONE_RAW`] if none.
    rule_table: Vec<u16>,
    /// Rule labels, indexed by [`RuleId`].
    rule_names: Vec<String>,
    symmetric: bool,
    /// `pair_slot[p * S + q]` indexes `pair_effects` for a non-identity
    /// pair and is [`NO_PAIR`] for an identity.
    pair_slot: Vec<u32>,
    /// One [`PairEffect`] per non-identity pair, in row-major pair order.
    pair_effects: Vec<PairEffect>,
    /// Every pair's marginal list, back to back.
    pair_marginals: Vec<MarginalDelta>,
    /// The states no identity pair involves (see [`Self::flip_class`]).
    flip_class: Vec<StateId>,
}

impl CompiledProtocol {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        state_names: Vec<String>,
        groups: Vec<GroupId>,
        initial: StateId,
        table: Vec<(StateId, StateId)>,
        rule_table: Vec<u16>,
        rule_names: Vec<String>,
    ) -> Result<Self, ProtocolError> {
        let s = state_names.len();
        if s == 0 {
            return Err(ProtocolError::EmptyStateSet);
        }
        if initial.index() >= s {
            return Err(ProtocolError::StateOutOfRange(initial));
        }
        debug_assert_eq!(table.len(), s * s);
        debug_assert_eq!(rule_table.len(), s * s);
        for (g, id) in groups.iter().zip(0u16..) {
            if g.0 == 0 {
                return Err(ProtocolError::ZeroGroup(StateId(id)));
            }
        }
        let num_groups = groups.iter().map(|g| g.number()).max().unwrap_or(0);
        let mut identity = vec![false; s * s];
        let mut group_changing = vec![false; s * s];
        let mut symmetric = true;
        for p in 0..s {
            for q in 0..s {
                let (p2, q2) = table[p * s + q];
                if p2.index() >= s {
                    return Err(ProtocolError::StateOutOfRange(p2));
                }
                if q2.index() >= s {
                    return Err(ProtocolError::StateOutOfRange(q2));
                }
                let id = p2.index() == p && q2.index() == q;
                identity[p * s + q] = id;
                group_changing[p * s + q] =
                    groups[p2.index()] != groups[p] || groups[q2.index()] != groups[q];
                if p == q && p2 != q2 {
                    symmetric = false;
                }
            }
        }
        let (pair_slot, pair_effects, pair_marginals, flip_class) =
            compile_pairs(s, &table, &identity);
        Ok(CompiledProtocol {
            name,
            state_names,
            groups,
            num_groups,
            initial,
            table,
            identity,
            group_changing,
            rule_table,
            rule_names,
            symmetric,
            pair_slot,
            pair_effects,
            pair_marginals,
            flip_class,
        })
    }

    /// Human-readable protocol name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states `|Q|`.
    #[inline(always)]
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Largest group number used by the output map (the `k` of k-partition).
    #[inline(always)]
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The designated initial state `s0`.
    #[inline(always)]
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Name of state `s`.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.index()]
    }

    /// Look up a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u16))
    }

    /// The output map `f`: group of state `s`.
    #[inline(always)]
    pub fn group_of(&self, s: StateId) -> GroupId {
        self.groups[s.index()]
    }

    /// The transition function `δ` on the ordered pair `(p, q)`.
    #[inline(always)]
    pub fn delta(&self, p: StateId, q: StateId) -> (StateId, StateId) {
        self.table[p.index() * self.num_states() + q.index()]
    }

    /// Whether `δ(p, q)` is the identity (a *null* interaction).
    #[inline(always)]
    pub fn is_identity(&self, p: StateId, q: StateId) -> bool {
        self.identity[p.index() * self.num_states() + q.index()]
    }

    /// Row `p` of the identity mask as a contiguous slice:
    /// `identity_row(p)[q] == is_identity(p, q)` for every `q`.
    #[inline(always)]
    pub fn identity_row(&self, p: StateId) -> &[bool] {
        let s = self.num_states();
        &self.identity[p.index() * s..(p.index() + 1) * s]
    }

    /// The compiled effect of `δ(p, q)`, or `None` for an identity pair.
    #[inline(always)]
    pub fn pair_effect(&self, p: StateId, q: StateId) -> Option<&PairEffect> {
        let slot = self.pair_slot[p.index() * self.num_states() + q.index()];
        self.pair_effects.get(slot as usize)
    }

    /// Every non-identity ordered pair's compiled effect, in row-major
    /// pair order (the order of [`Self::rule_entries`]).
    #[inline(always)]
    pub fn pair_effects(&self) -> &[PairEffect] {
        &self.pair_effects
    }

    /// The identity-marginal changes of firing `e` once: one entry per
    /// state whose `row` or `col` marginal moves (see [`PairEffect`]).
    #[inline(always)]
    pub fn pair_marginals(&self, e: &PairEffect) -> &[MarginalDelta] {
        let start = e.marginals_start as usize;
        &self.pair_marginals[start..start + usize::from(e.marginals_len)]
    }

    /// The *flip class*: the states that no identity pair involves, in
    /// either position, so that every interaction of an agent in one of
    /// them changes some state. For Algorithm 1 it is the free agents'
    /// `{initial, initial'}`.
    ///
    /// A pair whose net deltas stay inside the class (a *flip*, such as
    /// Algorithm 1's rules 1–4, see [`PairEffect::is_flip`]) changes no
    /// count an identity pair reads, so `W_id` stays where it was. The
    /// leap step skips the stability query after a flip, and the batch
    /// kernel runs stretches of flips as one lumped step
    /// ([`crate::batch`]), when the tracker allows it. Compiled once with
    /// the pair table.
    #[inline(always)]
    pub fn flip_class(&self) -> &[StateId] {
        &self.flip_class
    }

    /// Whether `δ(p, q)` changes the group (under `f`) of either agent.
    #[inline(always)]
    pub fn is_group_changing(&self, p: StateId, q: StateId) -> bool {
        self.group_changing[p.index() * self.num_states() + q.index()]
    }

    /// Number of distinct *labelled* rules (see [`RuleId`]).
    #[inline(always)]
    pub fn num_rules(&self) -> usize {
        self.rule_names.len()
    }

    /// The labelled rule covering `δ(p, q)`, if any. Identity pairs and
    /// pairs registered without a label return `None`.
    #[inline(always)]
    pub fn rule_of(&self, p: StateId, q: StateId) -> Option<RuleId> {
        let raw = self.rule_table[p.index() * self.num_states() + q.index()];
        (raw != RuleId::NONE_RAW).then_some(RuleId(raw))
    }

    /// Label of rule `r` (e.g. `"r5"`).
    pub fn rule_name(&self, r: RuleId) -> &str {
        &self.rule_names[r.index()]
    }

    /// Look up a rule id by its label.
    pub fn rule_by_name(&self, label: &str) -> Option<RuleId> {
        self.rule_names
            .iter()
            .position(|n| n == label)
            .map(|i| RuleId(i as u16))
    }

    /// All rule labels, indexed by [`RuleId`].
    pub fn rule_names(&self) -> &[String] {
        &self.rule_names
    }

    /// Whether every transition is symmetric: `δ(p, p) = (p', p')`.
    ///
    /// Symmetric protocols cannot break the symmetry of two identical
    /// agents in one interaction; the paper restricts itself to this class.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Iterator over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.num_states() as u16).map(StateId)
    }

    /// All ordered pairs `(p, q)` whose transition is *not* the identity,
    /// with their results. Useful for debugging and for the model checker.
    pub fn non_identity_rules(&self) -> Vec<(StateId, StateId, StateId, StateId)> {
        self.rule_entries()
            .map(|e| (e.p, e.q, e.p2, e.q2))
            .collect()
    }

    /// Iterator over the non-identity ordered pairs together with their
    /// results and (optional) labelled rule ids — the rule table in the
    /// form static analyzers consume (row-major pair order, so the output
    /// is deterministic for a given protocol).
    pub fn rule_entries(&self) -> impl Iterator<Item = RuleEntry> + '_ {
        self.pair_effects.iter().map(move |e| RuleEntry {
            p: e.p,
            q: e.q,
            p2: e.p2,
            q2: e.q2,
            rule: self.rule_of(e.p, e.q),
        })
    }

    /// The net state-count displacement of `δ(p, q)` as a dense integer
    /// vector over `Q`: applying the transition to a configuration adds
    /// `displacement(p, q)[s]` to the count of each state `s`. Identity
    /// pairs (and e.g. swaps) yield the zero vector. This is one column
    /// of the displacement matrix whose integer left-nullspace is the
    /// protocol's space of linear (P-)invariants.
    pub fn displacement(&self, p: StateId, q: StateId) -> Vec<i64> {
        let mut d = vec![0i64; self.num_states()];
        let (p2, q2) = self.delta(p, q);
        d[p.index()] -= 1;
        d[q.index()] -= 1;
        d[p2.index()] += 1;
        d[q2.index()] += 1;
        d
    }
}

/// Compile the [`PairEffect`] of every non-identity pair of the
/// row-major `s × s` transition `table`, with their marginal lists laid
/// out back to back, and the flip class.
///
/// The identity mask is first packed into per-state bitsets, and a
/// pair's marginal changes are then summed bit-sliced, one 64-state word
/// at a time, so the build costs O(s²/64) plus O(1) per pair and per
/// marginal entry. A pair whose mirror `(q, p)` has the same net deltas
/// (every pair of a symmetric rule) shares the mirror's list. The flip
/// class is the states whose two bitsets are empty.
fn compile_pairs(
    s: usize,
    table: &[(StateId, StateId)],
    identity: &[bool],
) -> (Vec<u32>, Vec<PairEffect>, Vec<MarginalDelta>, Vec<StateId>) {
    let words = s.div_ceil(64);
    // Bit x of `into[a]` is id(x, a): row marginal x counts state a.
    // Bit x of `from[a]` is id(a, x): column marginal x counts state a.
    let mut into = vec![0u64; s * words];
    let mut from = vec![0u64; s * words];
    for a in 0..s {
        for b in 0..s {
            if identity[a * s + b] {
                from[a * words + b / 64] |= 1 << (b % 64);
                into[b * words + a / 64] |= 1 << (a % 64);
            }
        }
    }
    let in_class: Vec<bool> = (0..s)
        .map(|a| (0..words).all(|w| (into[a * words + w] | from[a * words + w]) == 0))
        .collect();
    let mut slot = vec![NO_PAIR; s * s];
    let mut effects: Vec<PairEffect> =
        Vec::with_capacity(identity.iter().filter(|&&id| !id).count());
    let mut marginals = Vec::new();
    for p in (0..s).map(|p| StateId(p as u16)) {
        for q in (0..s).map(|q| StateId(q as u16)) {
            let pq = p.index() * s + q.index();
            if identity[pq] {
                continue;
            }
            let (p2, q2) = table[pq];
            // Fold repeated states into their first occurrence, then drop
            // the zeros, keeping first-seen order.
            let mut deltas = [(p, -1i8), (q, -1), (p2, 1), (q2, 1)];
            for i in 1..4 {
                if let Some(j) = (0..i).find(|&j| deltas[j].0 == deltas[i].0) {
                    deltas[j].1 += deltas[i].1;
                    deltas[i].1 = 0;
                }
            }
            let mut live = 0;
            for i in 0..4 {
                if deltas[i].1 != 0 {
                    deltas[live] = deltas[i];
                    live += 1;
                }
            }
            let net = &deltas[..live];
            let mut identity_constant = 0i8;
            for &(a, da) in net {
                for &(b, db) in net {
                    if identity[a.index() * s + b.index()] {
                        identity_constant += da * db;
                    }
                }
                if identity[a.index() * (s + 1)] {
                    identity_constant -= da;
                }
            }
            let mirror = effects
                .get(slot[q.index() * s + p.index()] as usize)
                .filter(|m| {
                    let theirs = &m.deltas[..usize::from(m.len)];
                    theirs.len() == net.len() && net.iter().all(|d| theirs.contains(d))
                });
            let (marginals_start, marginals_len) = match mirror {
                Some(m) => (m.marginals_start, m.marginals_len),
                None => {
                    let start = marginals.len();
                    for w in 0..words {
                        push_marginals(&mut marginals, w, net, |a| {
                            (into[a.index() * words + w], from[a.index() * words + w])
                        });
                    }
                    let len = u16::try_from(marginals.len() - start)
                        .expect("a marginal list has at most one entry per state");
                    (start as u32, len)
                }
            };
            // Deltas inside the class meet no identity pair, so a flip's
            // K and marginal list are zero.
            let flip = (in_class[p.index()] || in_class[q.index()])
                && net.iter().all(|&(a, _)| in_class[a.index()]);
            debug_assert!(!flip || (identity_constant == 0 && marginals_len == 0));
            slot[pq] = effects.len() as u32;
            effects.push(PairEffect {
                p,
                q,
                p2,
                q2,
                deltas,
                len: live as u8,
                identity_constant,
                marginals_len,
                marginals_start,
                flip,
            });
        }
    }
    let class = (0..s)
        .filter(|&a| in_class[a])
        .map(|a| StateId(a as u16))
        .collect();
    (slot, effects, marginals, class)
}

/// Append the marginal entries of word `w` (states `64w..64w + 63`) for
/// the net deltas `net`, where `masks(a)` is state `a`'s `(into, from)`
/// bitset word.
///
/// A firing moves at most two agents out and two in, so for each state
/// `x` the positive part of `Δrow[x] = Σ_a d_a·[x ∈ into(a)]` is at most
/// 2, and so is the negative part (likewise `Δcol`). Each part is kept
/// bit-sliced as a `(twos, ones)` pair of words; `Δrow[x] ≠ 0` exactly
/// where the two parts' bits differ.
#[inline]
fn push_marginals(
    marginals: &mut Vec<MarginalDelta>,
    w: usize,
    net: &[(StateId, i8)],
    masks: impl Fn(StateId) -> (u64, u64),
) {
    // (twos, ones) planes of the plus and minus parts of Δrow and Δcol.
    let (mut rp, mut rn, mut cp, mut cn) = ((0u64, 0u64), (0, 0), (0, 0), (0, 0));
    for &(a, d) in net {
        let (into, from) = masks(a);
        let (r, c) = if d > 0 {
            (&mut rp, &mut cp)
        } else {
            (&mut rn, &mut cn)
        };
        if d.unsigned_abs() == 2 {
            r.0 |= into;
            c.0 |= from;
        } else {
            r.0 |= r.1 & into;
            r.1 ^= into;
            c.0 |= c.1 & from;
            c.1 ^= from;
        }
    }
    let mut touched = (rp.0 ^ rn.0) | (rp.1 ^ rn.1) | (cp.0 ^ cn.0) | (cp.1 ^ cn.1);
    while touched != 0 {
        let bit = touched.trailing_zeros();
        touched &= touched - 1;
        let value = |(twos, ones): (u64, u64)| (2 * (twos >> bit & 1) + (ones >> bit & 1)) as i8;
        marginals.push(MarginalDelta {
            state: StateId((w * 64) as u16 + bit as u16),
            row: value(rp) - value(rn),
            col: value(cp) - value(cn),
        });
    }
}

impl fmt::Debug for CompiledProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProtocol")
            .field("name", &self.name)
            .field("num_states", &self.num_states())
            .field("num_groups", &self.num_groups)
            .field("symmetric", &self.symmetric)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;

    fn toy() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("toy");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.compile().unwrap()
    }

    #[test]
    fn delta_defaults_to_identity() {
        let p = toy();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        assert_eq!(p.delta(a, b), (a, b));
        assert!(p.is_identity(a, b));
        assert!(!p.is_identity(a, a));
    }

    #[test]
    fn group_changing_mask() {
        let p = toy();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        assert!(p.is_group_changing(a, a)); // both move group 1 -> 2
        assert!(!p.is_group_changing(b, b));
        assert!(!p.is_group_changing(a, b));
    }

    #[test]
    fn symmetric_detection() {
        let p = toy();
        assert!(p.is_symmetric());

        let mut spec = ProtocolSpec::new("asym");
        let l = spec.add_state("L", 1);
        let f = spec.add_state("F", 1);
        spec.set_initial(l);
        spec.add_rule(l, l, l, f); // classic leader election: asymmetric
        let p = spec.compile().unwrap();
        assert!(!p.is_symmetric());
    }

    #[test]
    fn state_lookup_and_names() {
        let p = toy();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.state_name(StateId(0)), "a");
        assert_eq!(p.state_by_name("nope"), None);
    }

    #[test]
    fn non_identity_rules_listing() {
        let p = toy();
        let rules = p.non_identity_rules();
        assert_eq!(rules.len(), 1);
        let (pp, qq, p2, q2) = rules[0];
        assert_eq!(pp, StateId(0));
        assert_eq!(qq, StateId(0));
        assert_eq!(p2, StateId(1));
        assert_eq!(q2, StateId(1));
    }

    #[test]
    fn zero_group_rejected() {
        let mut spec = ProtocolSpec::new("bad");
        let a = spec.add_state_raw("a", 0);
        spec.set_initial(a);
        assert!(matches!(spec.compile(), Err(ProtocolError::ZeroGroup(_))));
    }
}
