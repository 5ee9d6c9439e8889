//! The uniform k-partition protocol of Yasumi et al. (Algorithm 1).
//!
//! ## The protocol
//!
//! State set `Q = I ∪ G ∪ M ∪ D` with
//!
//! * `I = {initial, initial'}` — *free* agents (all agents start in
//!   `initial`),
//! * `G = {g1, …, gk}` — settled members of groups `1..k`,
//! * `M = {m2, …, m(k−1)}` — an `m_i` agent is building a *chain*: it has
//!   already recruited agents into `g1..g(i−1)` and will settle the next
//!   free agent it meets into `g_i`,
//! * `D = {d1, …, d(k−2)}` — a `d_i` agent is *unwinding* an aborted
//!   chain: it will send one agent from each of `g_i, g(i−1), …, g1` back
//!   to `initial`, then return to `initial` itself.
//!
//! Output map `f`: `f(g_i) = f(m_i) = i`, `f(initial) = f(initial') =
//! f(d_i) = 1`. Transition rules (numbered as in the paper):
//!
//! ```text
//!  1. (initial , initial ) -> (initial', initial')
//!  2. (initial', initial') -> (initial , initial )
//!  3. (d_i, ini) -> (d_i, ini̅)                      d_i ∈ D, ini ∈ I
//!  4. (g_i, ini) -> (g_i, ini̅)                      g_i ∈ G, ini ∈ I
//!  5. (initial, initial') -> (g1, m2)                [-> (g1, g2) for k = 2]
//!  6. (ini, m_i) -> (g_i, m_{i+1})                   2 ≤ i ≤ k−2
//!  7. (ini, m_{k−1}) -> (g_{k−1}, g_k)
//!  8. (m_i, m_j) -> (d_{i−1}, d_{j−1})               2 ≤ i, j ≤ k−1
//!  9. (d_i, g_i) -> (d_{i−1}, initial)               2 ≤ i ≤ k−2
//! 10. (d_1, g_1) -> (initial, initial)
//! ```
//!
//! where `ini̅` flips `initial ↔ initial'`. Every pair not listed is a null
//! interaction. The protocol is symmetric (rule 1, 2 and the diagonal of
//! rule 8 send equal states to equal states) and uses `|Q| = 3k − 2`
//! states, which is asymptotically optimal.
//!
//! ## Why rules 8–10 (the `D` states) are needed
//!
//! With rules 1–7 alone, up to `⌈n/k⌉` chains can start concurrently and
//! strand the population: every free agent gets absorbed into some partial
//! chain and no chain can ever finish (§3.2). Rule 8 lets two colliding
//! chain-builders abort; the resulting `d` agents refund exactly the agents
//! their chains had settled, restoring the invariant of
//! [`UniformKPartition::lemma1_residual`].
//! The [`ablation`] module exposes the rules-1–7 protocol so this failure
//! is measurable.
//!
//! ## Stable configurations (Lemmas 4–6)
//!
//! Writing `q = ⌊n/k⌋` and `r = n mod k`, every execution stabilises at:
//! `#g_x = q + 1` for `x < r`, `#g_x = q` for `x ≥ r`, plus — if `r = 1` —
//! one agent free in `I`, or — if `r ≥ 2` — one agent in `m_r`. Group
//! sizes are `q + 1` for groups `1..r` and `q` for the rest
//! ([`UniformKPartition::expected_group_sizes`]). [`UniformKPartition::
//! stable_signature`] encodes this as an exact count predicate, which the
//! simulator checks in O(|Q|) after each effective interaction.
//!
//! This module is the only code that knows the layout above: the
//! derived families ([`ablation`], [`variant`], [`crate::ratio`]) copy
//! the compiled table, [`phase`] reads each state's role off the layout
//! accessors, and the Lemma 1 functionals pp-lint certifies and
//! pp-verify checks derive from [`UniformKPartition::lemma1_residual`].

pub mod ablation;
pub mod phase;
pub mod variant;

pub use phase::{Phase, PhaseMap, PhaseProbe};

use crate::OutOfRange;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Signature;
use pp_engine::Functional;

/// Builder/handle for the paper's uniform k-partition protocol.
///
/// Cheap to construct and copy; [`Self::compile`] produces the dense-table
/// protocol the engine runs.
///
/// ```
/// use pp_engine::population::{CountPopulation, Population};
/// use pp_engine::scheduler::UniformRandomScheduler;
/// use pp_engine::simulator::Simulator;
/// use pp_protocols::kpartition::UniformKPartition;
///
/// let kp = UniformKPartition::new(3);
/// let proto = kp.compile();
/// assert_eq!(proto.num_states(), 7); // 3k − 2
///
/// let mut pop = CountPopulation::new(&proto, 17);
/// let mut sched = UniformRandomScheduler::from_seed(1);
/// Simulator::new(&proto)
///     .run(&mut pop, &mut sched, &kp.stable_signature(17), 1_000_000)
///     .unwrap();
/// // 17 = 3·5 + 2: groups of 6, 6, 5.
/// assert_eq!(pop.group_sizes(&proto), vec![6, 6, 5]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformKPartition {
    k: usize,
}

impl UniformKPartition {
    /// Largest supported `k`: the `3k − 2` states must fit the `u16`
    /// state-id space with room to spare.
    pub const MAX_K: usize = u16::MAX as usize / 4;

    /// Protocol for `2 ≤ k ≤` [`Self::MAX_K`] groups (a 1-partition is
    /// trivial and the paper requires `k ≥ 2`).
    pub fn try_new(k: usize) -> Result<Self, OutOfRange> {
        OutOfRange::check("uniform k-partition", "k", k as u64, 2..=Self::MAX_K as u64)?;
        Ok(UniformKPartition { k })
    }

    /// [`Self::try_new`], panicking when `k` is out of range.
    pub fn new(k: usize) -> Self {
        Self::try_new(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The number of groups `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `|Q| = 3k − 2`.
    pub fn num_states(&self) -> usize {
        3 * self.k - 2
    }

    /// The designated initial state `initial`.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The symmetry-breaking partner state `initial'`.
    pub fn initial_prime(&self) -> StateId {
        StateId(1)
    }

    /// Settled-group state `g_i`, `1 ≤ i ≤ k`.
    pub fn g(&self, i: usize) -> StateId {
        assert!((1..=self.k).contains(&i), "g_{i} out of range");
        StateId((2 + i - 1) as u16)
    }

    /// Chain-builder state `m_i`, `2 ≤ i ≤ k − 1` (exists only for
    /// `k ≥ 3`).
    pub fn m(&self, i: usize) -> StateId {
        assert!(
            self.k >= 3 && (2..=self.k - 1).contains(&i),
            "m_{i} out of range for k = {}",
            self.k
        );
        StateId((2 + self.k + i - 2) as u16)
    }

    /// Chain-unwinder state `d_i`, `1 ≤ i ≤ k − 2` (exists only for
    /// `k ≥ 3`).
    pub fn d(&self, i: usize) -> StateId {
        assert!(
            self.k >= 3 && (1..=self.k - 2).contains(&i),
            "d_{i} out of range for k = {}",
            self.k
        );
        StateId((2 + self.k + (self.k - 2) + i - 1) as u16)
    }

    /// Whether `s` is a free state (`initial` or `initial'`).
    pub fn is_free(&self, s: StateId) -> bool {
        s.index() < 2
    }

    /// If `s = g_i`, returns `i`.
    pub fn g_index(&self, s: StateId) -> Option<usize> {
        let i = s.index();
        (2..2 + self.k).contains(&i).then(|| i - 1)
    }

    /// If `s = m_i`, returns `i`.
    pub fn m_index(&self, s: StateId) -> Option<usize> {
        if self.k < 3 {
            return None;
        }
        let base = 2 + self.k;
        let i = s.index();
        (base..base + self.k - 2).contains(&i).then(|| i - base + 2)
    }

    /// If `s = d_i`, returns `i`.
    pub fn d_index(&self, s: StateId) -> Option<usize> {
        if self.k < 3 {
            return None;
        }
        let base = 2 + self.k + (self.k - 2);
        let i = s.index();
        (base..base + self.k - 2).contains(&i).then(|| i - base + 1)
    }

    /// The convergence-phase role of every state of this layout.
    pub fn phase_map(&self) -> PhaseMap {
        PhaseMap::of_layout(self, self.num_states())
    }

    /// The rule labels Algorithm 1 compiles to at this `k`, sorted: all
    /// ten for `k ≥ 4`; without rules 6 and 9 at `k = 3` (no `m_i` with
    /// `2 ≤ i ≤ k − 2`); only rules 1, 2, 3 and 5 at `k = 2` (no `M`, no
    /// `D`).
    pub fn rule_labels(&self) -> Vec<String> {
        let mut labels: Vec<&str> = match self.k {
            2 => vec!["r1", "r2", "r3", "r5"],
            3 => vec!["r1", "r2", "r3", "r4", "r5", "r7", "r8", "r10"],
            _ => vec!["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10"],
        };
        labels.sort_unstable();
        labels.into_iter().map(String::from).collect()
    }

    /// Build the protocol description (states, `f`, all ten rules).
    pub fn spec(&self) -> ProtocolSpec {
        let k = self.k;
        let mut spec = ProtocolSpec::new(format!("uniform-{k}-partition"));

        // States, in the fixed layout the accessors assume.
        let ini = spec.add_state("initial", 1);
        let inip = spec.add_state("initial'", 1);
        debug_assert_eq!(ini, self.initial());
        debug_assert_eq!(inip, self.initial_prime());
        for i in 1..=k {
            let s = spec.add_state(format!("g{i}"), i as u16);
            debug_assert_eq!(s, self.g(i));
        }
        if k >= 3 {
            for i in 2..=k - 1 {
                let s = spec.add_state(format!("m{i}"), i as u16);
                debug_assert_eq!(s, self.m(i));
            }
            for i in 1..=k - 2 {
                let s = spec.add_state(format!("d{i}"), 1);
                debug_assert_eq!(s, self.d(i));
            }
        }
        spec.set_initial(ini);

        let flip = |s: StateId| if s == ini { inip } else { ini };

        // Rule 1 and 2: same-state free agents flip together.
        spec.add_rule_labelled(ini, ini, inip, inip, "r1");
        spec.add_rule_labelled(inip, inip, ini, ini, "r2");

        // Rule 5: the only symmetry-broken creation point.
        if k == 2 {
            // For k = 2 the chain is trivial: settle both agents at once.
            // This is exactly the 4-state bipartition protocol of [25].
            spec.add_rule_symmetric_labelled(ini, inip, self.g(1), self.g(2), "r5");
        } else {
            spec.add_rule_symmetric_labelled(ini, inip, self.g(1), self.m(2), "r5");
        }

        // Rules 3 and 4: d/g agents flip free agents (the mechanism that,
        // under global fairness, eventually co-locates an `initial` with an
        // `initial'` so rule 5 can fire).
        for x in [ini, inip] {
            for i in 1..=k {
                spec.add_rule_symmetric_labelled(self.g(i), x, self.g(i), flip(x), "r3");
            }
            if k >= 3 {
                for i in 1..=k - 2 {
                    spec.add_rule_symmetric_labelled(self.d(i), x, self.d(i), flip(x), "r4");
                }
            }
        }

        if k >= 3 {
            // Rule 6: the chain recruits a free agent into g_i and advances.
            for i in 2..=k.saturating_sub(2) {
                for x in [ini, inip] {
                    spec.add_rule_symmetric_labelled(x, self.m(i), self.g(i), self.m(i + 1), "r6");
                }
            }
            // Rule 7: the chain completes; the builder settles into g_k.
            for x in [ini, inip] {
                spec.add_rule_symmetric_labelled(x, self.m(k - 1), self.g(k - 1), self.g(k), "r7");
            }
            // Rule 8: two chains collide and both abort.
            for i in 2..=k - 1 {
                for j in 2..=k - 1 {
                    spec.add_rule_labelled(
                        self.m(i),
                        self.m(j),
                        self.d(i - 1),
                        self.d(j - 1),
                        "r8",
                    );
                }
            }
            // Rules 9 and 10: unwinding refunds one settled agent per level.
            for i in 2..=k.saturating_sub(2) {
                spec.add_rule_symmetric_labelled(self.d(i), self.g(i), self.d(i - 1), ini, "r9");
            }
            spec.add_rule_symmetric_labelled(self.d(1), self.g(1), ini, ini, "r10");
        }

        spec
    }

    /// Compile into the engine's dense-table form.
    ///
    /// # Panics
    /// Never for valid `k`; the spec is internally consistent by
    /// construction and compilation is infallible for it.
    pub fn compile(&self) -> CompiledProtocol {
        let proto = self
            .spec()
            .compile()
            .expect("uniform k-partition spec is internally consistent");
        debug_assert!(proto.is_symmetric());
        debug_assert_eq!(proto.num_states(), self.num_states());
        debug_assert_eq!(proto.num_groups(), self.k);
        proto
    }

    /// Group sizes of the stable configuration for population size `n`:
    /// groups `1..=(n mod k)` hold `⌊n/k⌋ + 1` agents, the rest `⌊n/k⌋`
    /// (Lemma 6 plus the output map: the leftover `m_r` agent counts
    /// toward group `r`, and the leftover free agent toward group 1).
    pub fn expected_group_sizes(&self, n: u64) -> Vec<u64> {
        let k = self.k as u64;
        let q = n / k;
        let r = n % k;
        (1..=k).map(|x| if x <= r { q + 1 } else { q }).collect()
    }

    /// The stable-configuration signature of Lemmas 4–6 for population
    /// size `n`, usable as the simulator's stopping criterion.
    ///
    /// The signature fixes every state count except, when `n mod k = 1`,
    /// the split of the lone free agent between `initial` and `initial'`
    /// (it keeps flipping by rules 3–4; both states map to group 1).
    ///
    /// Note the paper assumes `n ≥ 3`: for `n = 2` a symmetric protocol
    /// cannot separate the two agents and the signature, while well
    /// defined, is unreachable.
    pub fn stable_signature(&self, n: u64) -> Signature {
        let k = self.k as u64;
        let q = n / k;
        let r = n % k;
        let s = self.num_states();
        let mut fixed: Vec<Option<u64>> = vec![Some(0); s];
        for x in 1..=self.k {
            let want = if (x as u64) < r.max(1) { q + 1 } else { q };
            fixed[self.g(x).index()] = Some(want);
        }
        // Free agents: none, except exactly one (in either `initial` or
        // `initial'`) when r = 1.
        if r == 1 {
            fixed[self.initial().index()] = None;
            fixed[self.initial_prime().index()] = None;
            Signature::new(fixed, vec![(vec![self.initial(), self.initial_prime()], 1)])
        } else {
            if r >= 2 {
                fixed[self.m(r as usize).index()] = Some(1);
            }
            Signature::new(fixed, vec![])
        }
    }

    /// The Lemma 1 residual at configuration `counts`:
    ///
    /// `residual(x) = Σ_{p > x} #m_p + Σ_{q ≥ x} #d_q + #g_k − #g_x`
    ///
    /// Lemma 1 states `residual(x) = 0` for every `x` in every reachable
    /// configuration. Returns the vector of residuals (index 0 = `x = 1`);
    /// all-zero means the invariant holds. Tests and the model checker use
    /// this; it is also a useful corruption detector for fault-injection
    /// studies.
    pub fn lemma1_residual(&self, counts: &[u64]) -> Vec<i64> {
        assert_eq!(counts.len(), self.num_states());
        let k = self.k;
        let gk = counts[self.g(k).index()] as i64;
        (1..=k)
            .map(|x| {
                let mut rhs = gk;
                if k >= 3 {
                    for p in (x + 1)..=(k - 1) {
                        rhs += counts[self.m(p).index()] as i64;
                    }
                    for q in x..=(k - 2) {
                        rhs += counts[self.d(q).index()] as i64;
                    }
                }
                rhs - counts[self.g(x).index()] as i64
            })
            .collect()
    }

    /// Whether Lemma 1 holds at `counts`.
    pub fn lemma1_holds(&self, counts: &[u64]) -> bool {
        self.lemma1_residual(counts).iter().all(|&r| r == 0)
    }

    /// The Lemma 1 residuals as linear maps over counts, one per
    /// `x ∈ {1, .., k−1}` (`x = k` is identically zero and omitted).
    /// [`Self::lemma1_residual`] is linear with no constant term, so the
    /// coefficient of state `s` in row `x` is its value at the unit
    /// configuration `e_s`. pp-lint proves each is conserved by every
    /// rule and zero at the all-`initial` start — hence zero on every
    /// reachable configuration, for any population size.
    pub fn lemma1_functionals(&self) -> Vec<Functional> {
        let s = self.num_states();
        let unit = |i: usize| (0..s).map(|j| u64::from(i == j)).collect::<Vec<_>>();
        let columns: Vec<Vec<i64>> = (0..s).map(|i| self.lemma1_residual(&unit(i))).collect();
        (1..self.k)
            .map(|x| {
                let coeffs = columns.iter().map(|column| column[x - 1]).collect();
                Functional::new(format!("lemma1[x={x}]"), coeffs)
            })
            .collect()
    }

    /// A safe interaction budget for simulations: generous enough that a
    /// run hitting it indicates a bug rather than bad luck. Empirically the
    /// mean stabilisation time grows exponentially in `k` and mildly
    /// superlinearly in `n`; this bound stays ≥ 1000× the observed mean in
    /// the paper's parameter ranges.
    pub fn interaction_budget(&self, n: u64) -> u64 {
        let k = self.k as u64;
        // ~ n^2 · 4^k, saturating.
        n.saturating_mul(n)
            .saturating_mul(1u64.checked_shl((2 * k).min(40) as u32).unwrap_or(u64::MAX))
            .max(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;
    use pp_engine::stability::{GroupClosure, StabilityCriterion};

    #[test]
    fn state_count_is_3k_minus_2() {
        for k in 2..=12 {
            let p = UniformKPartition::new(k).compile();
            assert_eq!(p.num_states(), 3 * k - 2, "k = {k}");
        }
    }

    #[test]
    fn protocol_is_symmetric_and_deterministic() {
        for k in 2..=10 {
            let p = UniformKPartition::new(k).compile();
            assert!(p.is_symmetric(), "k = {k}");
        }
    }

    /// All ten Algorithm 1 rules carry labels, every non-identity pair
    /// attributes to one of them, and spot checks land on the right rule.
    #[test]
    fn all_ten_rules_are_labelled() {
        for k in 3..=8 {
            let kp = UniformKPartition::new(k);
            let p = kp.compile();
            let mut names: Vec<&str> = p.rule_names().iter().map(|s| s.as_str()).collect();
            names.sort_unstable();
            let mut expect = vec!["r1", "r10", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];
            // k = 3 has no m_i with 2 <= i <= k-2, so rule 6 (and the
            // matching r9 demolition level) never appears.
            if k == 3 {
                expect.retain(|n| *n != "r6" && *n != "r9");
            }
            assert_eq!(names, expect, "k = {k}");
            for (q1, q2, _, _) in p.non_identity_rules() {
                assert!(p.rule_of(q1, q2).is_some(), "unlabelled pair at k = {k}");
            }
            let ini = kp.initial();
            let inip = kp.initial_prime();
            let rule = |p2, q2| p.rule_name(p.rule_of(p2, q2).unwrap());
            assert_eq!(rule(ini, ini), "r1");
            assert_eq!(rule(inip, inip), "r2");
            assert_eq!(rule(kp.g(1), ini), "r3");
            assert_eq!(rule(kp.d(1), inip), "r4");
            assert_eq!(rule(ini, inip), "r5");
            assert_eq!(rule(inip, ini), "r5");
            assert_eq!(rule(ini, kp.m(k - 1)), "r7");
            assert_eq!(rule(kp.m(2), kp.m(k - 1)), "r8");
            assert_eq!(rule(kp.d(1), kp.g(1)), "r10");
        }
        // k = 2 degenerates to the bipartition protocol: r1, r2, r3, r5.
        let p = UniformKPartition::new(2).compile();
        let mut names: Vec<&str> = p.rule_names().iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["r1", "r2", "r3", "r5"]);
    }

    #[test]
    fn state_layout_roundtrips() {
        let kp = UniformKPartition::new(5);
        let p = kp.compile();
        assert_eq!(p.state_name(kp.initial()), "initial");
        assert_eq!(p.state_name(kp.initial_prime()), "initial'");
        for i in 1..=5 {
            assert_eq!(p.state_name(kp.g(i)), format!("g{i}"));
            assert_eq!(kp.g_index(kp.g(i)), Some(i));
        }
        for i in 2..=4 {
            assert_eq!(p.state_name(kp.m(i)), format!("m{i}"));
            assert_eq!(kp.m_index(kp.m(i)), Some(i));
        }
        for i in 1..=3 {
            assert_eq!(p.state_name(kp.d(i)), format!("d{i}"));
            assert_eq!(kp.d_index(kp.d(i)), Some(i));
        }
        assert_eq!(kp.m_index(kp.g(3)), None);
        assert_eq!(kp.d_index(kp.initial()), None);
        assert!(kp.is_free(kp.initial()) && kp.is_free(kp.initial_prime()));
        assert!(!kp.is_free(kp.g(1)));
    }

    #[test]
    fn group_map_matches_paper() {
        let kp = UniformKPartition::new(6);
        let p = kp.compile();
        assert_eq!(p.group_of(kp.initial()).number(), 1);
        assert_eq!(p.group_of(kp.initial_prime()).number(), 1);
        for i in 1..=6 {
            assert_eq!(p.group_of(kp.g(i)).number(), i);
        }
        for i in 2..=5 {
            assert_eq!(p.group_of(kp.m(i)).number(), i);
        }
        for i in 1..=4 {
            assert_eq!(p.group_of(kp.d(i)).number(), 1);
        }
    }

    #[test]
    fn all_ten_rules_present_for_k4() {
        let kp = UniformKPartition::new(4);
        let p = kp.compile();
        let ini = kp.initial();
        let inip = kp.initial_prime();
        // Rule 1, 2.
        assert_eq!(p.delta(ini, ini), (inip, inip));
        assert_eq!(p.delta(inip, inip), (ini, ini));
        // Rule 3.
        assert_eq!(p.delta(kp.d(1), ini), (kp.d(1), inip));
        assert_eq!(p.delta(inip, kp.d(2)), (ini, kp.d(2)));
        // Rule 4.
        assert_eq!(p.delta(kp.g(3), ini), (kp.g(3), inip));
        assert_eq!(p.delta(inip, kp.g(1)), (ini, kp.g(1)));
        // Rule 5.
        assert_eq!(p.delta(ini, inip), (kp.g(1), kp.m(2)));
        assert_eq!(p.delta(inip, ini), (kp.m(2), kp.g(1)));
        // Rule 6 (i = 2 = k − 2).
        assert_eq!(p.delta(ini, kp.m(2)), (kp.g(2), kp.m(3)));
        assert_eq!(p.delta(inip, kp.m(2)), (kp.g(2), kp.m(3)));
        // Rule 7.
        assert_eq!(p.delta(ini, kp.m(3)), (kp.g(3), kp.g(4)));
        assert_eq!(p.delta(kp.m(3), inip), (kp.g(4), kp.g(3)));
        // Rule 8, including the symmetric diagonal.
        assert_eq!(p.delta(kp.m(2), kp.m(3)), (kp.d(1), kp.d(2)));
        assert_eq!(p.delta(kp.m(3), kp.m(3)), (kp.d(2), kp.d(2)));
        // Rule 9.
        assert_eq!(p.delta(kp.d(2), kp.g(2)), (kp.d(1), ini));
        // Rule 10.
        assert_eq!(p.delta(kp.d(1), kp.g(1)), (ini, ini));
        // Null examples: settled agents never change.
        assert!(p.is_identity(kp.g(1), kp.g(2)));
        assert!(p.is_identity(kp.g(4), kp.m(2)));
        assert!(p.is_identity(kp.d(1), kp.d(2)));
        assert!(p.is_identity(kp.d(1), kp.g(2)));
    }

    #[test]
    fn k2_specialises_to_bipartition() {
        let kp = UniformKPartition::new(2);
        let p = kp.compile();
        assert_eq!(p.num_states(), 4);
        assert_eq!(
            p.delta(kp.initial(), kp.initial_prime()),
            (kp.g(1), kp.g(2))
        );
    }

    #[test]
    fn expected_group_sizes_balanced() {
        let kp = UniformKPartition::new(4);
        assert_eq!(kp.expected_group_sizes(12), vec![3, 3, 3, 3]);
        assert_eq!(kp.expected_group_sizes(13), vec![4, 3, 3, 3]);
        assert_eq!(kp.expected_group_sizes(14), vec![4, 4, 3, 3]);
        assert_eq!(kp.expected_group_sizes(15), vec![4, 4, 4, 3]);
        for n in 3..40 {
            let sizes = kp.expected_group_sizes(n);
            assert_eq!(sizes.iter().sum::<u64>(), n);
            let mx = *sizes.iter().max().unwrap();
            let mn = *sizes.iter().min().unwrap();
            assert!(mx - mn <= 1);
        }
    }

    /// End-to-end: random executions stabilise to the exact signature and
    /// the resulting group sizes are uniform. (Small n, several k, a few
    /// seeds; the heavyweight sweeps live in the bench harness.)
    #[test]
    fn stabilises_to_uniform_partition() {
        for k in [2usize, 3, 4, 5] {
            let kp = UniformKPartition::new(k);
            let p = kp.compile();
            for n in [3u64, 7, 12, 20] {
                if n < 3 {
                    continue;
                }
                for seed in 0..3 {
                    let mut pop = CountPopulation::new(&p, n);
                    let mut sched =
                        UniformRandomScheduler::from_seed((k as u64) << 32 | n << 8 | seed);
                    let sig = kp.stable_signature(n);
                    let res = Simulator::new(&p)
                        .run(&mut pop, &mut sched, &sig, kp.interaction_budget(n))
                        .unwrap();
                    assert!(res.interactions > 0);
                    assert_eq!(
                        pop.group_sizes(&p),
                        kp.expected_group_sizes(n),
                        "k={k} n={n} seed={seed}"
                    );
                    assert!(kp.lemma1_holds(pop.counts()));
                }
            }
        }
    }

    /// The protocol-specific signature must agree with the generic (sound
    /// and complete) group-closure criterion at the stable configuration.
    #[test]
    fn signature_agrees_with_group_closure_at_stability() {
        for (k, n) in [(3usize, 10u64), (4, 13), (5, 11), (2, 9)] {
            let kp = UniformKPartition::new(k);
            let p = kp.compile();
            let mut pop = CountPopulation::new(&p, n);
            let mut sched = UniformRandomScheduler::from_seed(99);
            let sig = kp.stable_signature(n);
            Simulator::new(&p)
                .run(&mut pop, &mut sched, &sig, kp.interaction_budget(n))
                .unwrap();
            assert!(
                GroupClosure::default().is_stable(&p, pop.counts()),
                "k={k} n={n}"
            );
        }
    }

    /// Conversely, group-closure must not fire *before* the signature: run
    /// with GroupClosure as the stopping criterion and check the final
    /// configuration satisfies the signature.
    #[test]
    fn group_closure_stops_exactly_at_signature() {
        for (k, n) in [(3usize, 9u64), (4, 10), (3, 7)] {
            let kp = UniformKPartition::new(k);
            let p = kp.compile();
            let mut pop = CountPopulation::new(&p, n);
            let mut sched = UniformRandomScheduler::from_seed(7);
            Simulator::new(&p)
                .run(
                    &mut pop,
                    &mut sched,
                    &GroupClosure::default(),
                    kp.interaction_budget(n),
                )
                .unwrap();
            assert!(
                kp.stable_signature(n).matches(pop.counts()),
                "k={k} n={n}: stopped at {:?}",
                pop.counts()
            );
        }
    }

    #[test]
    fn lemma1_residual_detects_corruption() {
        let kp = UniformKPartition::new(4);
        let p = kp.compile();
        let mut counts = vec![0u64; p.num_states()];
        counts[kp.initial().index()] = 5;
        assert!(kp.lemma1_holds(&counts)); // initial configuration
        counts[kp.g(1).index()] = 1;
        counts[kp.m(2).index()] = 1; // consistent partial chain
        assert!(kp.lemma1_holds(&counts));
        counts[kp.g(3).index()] = 1; // g3 with no builder: corrupt
        assert!(!kp.lemma1_holds(&counts));
    }

    /// The functional registry matches the runtime residual: evaluating
    /// the static functionals at a configuration equals
    /// `UniformKPartition::lemma1_residual` (minus the trivial x = k row).
    #[test]
    fn lemma1_functionals_match_runtime_residual() {
        for k in [3usize, 4, 5] {
            let kp = UniformKPartition::new(k);
            let fs = kp.lemma1_functionals();
            assert_eq!(fs.len(), k - 1);
            // An arbitrary (not necessarily reachable) configuration.
            let mut counts = vec![0u64; 3 * k - 2];
            for (i, c) in counts.iter_mut().enumerate() {
                *c = (7 * i + 3) as u64 % 5;
            }
            let runtime = kp.lemma1_residual(&counts);
            for (x, f) in (1..k).zip(&fs) {
                assert_eq!(f.value_at(&counts), runtime[x - 1], "k={k} x={x} mismatch");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k1_rejected() {
        UniformKPartition::new(1);
    }

    #[test]
    fn out_of_range_k_is_an_error() {
        assert!(UniformKPartition::try_new(1).is_err());
        let err = UniformKPartition::try_new(20_000).unwrap_err().to_string();
        assert!(err.ends_with("k <= 16383, got k = 20000"), "{err}");
        assert!(UniformKPartition::try_new(UniformKPartition::MAX_K).is_ok());
    }

    #[test]
    fn signature_shapes_by_remainder() {
        let kp = UniformKPartition::new(4);
        // r = 0: exact, no free agents.
        let sig = kp.stable_signature(8);
        let mut counts = vec![0u64; kp.num_states()];
        for i in 1..=4 {
            counts[kp.g(i).index()] = 2;
        }
        assert!(sig.matches(&counts));
        // r = 1: one free agent, either flavour.
        let sig = kp.stable_signature(9);
        counts[kp.initial().index()] = 1;
        assert!(sig.matches(&counts));
        counts[kp.initial().index()] = 0;
        counts[kp.initial_prime().index()] = 1;
        assert!(sig.matches(&counts));
        counts[kp.initial().index()] = 1; // two free agents: no
        assert!(!sig.matches(&counts));
        // r = 2: an m2 agent, no free agents.
        let sig = kp.stable_signature(10);
        let mut counts = vec![0u64; kp.num_states()];
        counts[kp.g(1).index()] = 3;
        for i in 2..=4 {
            counts[kp.g(i).index()] = 2;
        }
        counts[kp.m(2).index()] = 1;
        assert!(sig.matches(&counts));
    }
}
