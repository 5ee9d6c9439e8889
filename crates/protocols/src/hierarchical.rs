//! Recursive-bipartition protocols: the `k = 2^h` composition and the
//! approximate k-partition baseline.
//!
//! ## The composition the paper's introduction discusses
//!
//! "By repeating the uniform bipartition protocol `h` times, we can
//! construct a uniform k-partition protocol for `k = 2^h`" (§1.1). This
//! module implements that composition directly as a flat protocol: an
//! agent's state records the binary *prefix* it has committed to so far
//! and a `initial/initial'` flag for the bipartition it is currently
//! running among agents with the same prefix. Settling in level `ℓ`'s
//! bipartition appends one bit and enters level `ℓ + 1`; settling at level
//! `h` fixes the agent's leaf (= group).
//!
//! Interestingly, the state count is `2 + 4 + … + 2^h + 2^h = 3·2^h − 2 =
//! 3k − 2` — identical to the paper's protocol at `k = 2^h`.
//!
//! **Uniformity caveat (measured, not hidden):** the naive composition is
//! *not* exactly uniform. A cohort of odd size strands one agent mid-level
//! (its bipartition partner never arrives), and stranded agents pile up on
//! the leftmost leaf of their subtree, so leaf sizes can differ by up to
//! `h` rather than 1. When `n` is divisible by `2^h` every split is even
//! and the partition is exact. The `baselines` experiment quantifies this
//! deviation against the paper's protocol — which is precisely the
//! paper's point that the bipartition strategy "is not easily extended to
//! the general k-partition case".
//!
//! ## The approximate baseline (substitution for Delporte-Gallet et al.)
//!
//! The paper's only general-`k` comparator guarantees each group at least
//! `n/(2k)` agents (with `k(k+3)/2` states). The original transition table
//! is not reproduced in the paper, so — per the substitution policy in
//! DESIGN.md — [`HierarchicalPartition::approx`] provides a baseline with
//! the *same interface and guarantee*: run the recursive bipartition with
//! `h = ⌈log₂ k⌉` levels and fold leaf `j` onto group `(j mod k) + 1`.
//! Each group receives `⌊2^h / k⌋ ≥ 1` leaves of `≈ n/2^h > n/(2k)`
//! agents each, so the `n/(2k)` bound holds for `n ≫ h·2^h` (stranded
//! agents cost at most `h` per leaf). State count: `3·2^h − 2 < 6k`,
//! comfortably within the `k(k+3)/2` budget for `k ≥ 9`.

use crate::OutOfRange;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::StabilityCriterion;

/// A recursive-bipartition partition protocol with `h` levels and a
/// configurable leaf → group map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalPartition {
    h: u32,
    /// `leaf_groups[j]` is the 1-based group of leaf `j` (`2^h` entries).
    leaf_groups: Vec<u16>,
}

impl HierarchicalPartition {
    /// The `k = 2^h` composition for `1 ≤ h ≤ 8`: leaf `j` is group
    /// `j + 1`. (`h = 0` is no partition; beyond 8 the state count
    /// `3·2^h − 2` explodes, and the paper's comparison range is `k ≤ 16`.)
    pub fn try_composed(h: u32) -> Result<Self, OutOfRange> {
        OutOfRange::check("the composed bipartition", "h", u64::from(h), 1..=8)?;
        let leaves = 1usize << h;
        Ok(HierarchicalPartition {
            h,
            leaf_groups: (0..leaves).map(|j| (j + 1) as u16).collect(),
        })
    }

    /// [`Self::try_composed`], panicking when `h` is out of range.
    pub fn composed(h: u32) -> Self {
        Self::try_composed(h).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Approximate k-partition for `2 ≤ k ≤ 256`: `h = ⌈log₂ k⌉` levels,
    /// leaf `j` folded onto group `(j mod k) + 1`. Guarantees each group
    /// ≥ `n/(2k)` for large `n` (see module docs).
    pub fn try_approx(k: usize) -> Result<Self, OutOfRange> {
        OutOfRange::check("the approximate partition", "k", k as u64, 2..=256)?;
        let h = (usize::BITS - (k - 1).leading_zeros()).max(1);
        let leaves = 1usize << h;
        Ok(HierarchicalPartition {
            h,
            leaf_groups: (0..leaves).map(|j| (j % k + 1) as u16).collect(),
        })
    }

    /// [`Self::try_approx`], panicking when `k` is out of range.
    pub fn approx(k: usize) -> Self {
        Self::try_approx(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of levels `h`.
    pub fn levels(&self) -> u32 {
        self.h
    }

    /// Number of leaves `2^h`.
    pub fn num_leaves(&self) -> usize {
        1 << self.h
    }

    /// Number of groups (max of the leaf map).
    pub fn num_groups(&self) -> usize {
        *self.leaf_groups.iter().max().unwrap() as usize
    }

    /// `|Q| = 3·2^h − 2`.
    pub fn num_states(&self) -> usize {
        3 * self.num_leaves() - 2
    }

    /// Unsettled state `u(level, prefix, sub)`: the agent has committed to
    /// `prefix` (`level − 1` bits) and is running level `level`'s
    /// bipartition with flag `sub ∈ {0, 1}`.
    pub fn unsettled(&self, level: u32, prefix: usize, sub: usize) -> StateId {
        assert!((1..=self.h).contains(&level));
        assert!(prefix < (1 << (level - 1)));
        assert!(sub < 2);
        // Level ℓ's block starts at 2^ℓ − 2.
        let off = (1usize << level) - 2;
        StateId((off + 2 * prefix + sub) as u16)
    }

    /// Settled leaf state `leaf(j)`, `j ∈ 0..2^h`.
    pub fn leaf(&self, j: usize) -> StateId {
        assert!(j < self.num_leaves());
        StateId((2 * self.num_leaves() - 2 + j) as u16)
    }

    /// Decompose a state: `Ok((level, prefix, sub))` for unsettled states,
    /// `Err(leaf_index)` for leaves.
    pub fn decode(&self, s: StateId) -> Result<(u32, usize, usize), usize> {
        let i = s.index();
        let unsettled_total = 2 * self.num_leaves() - 2;
        if i < unsettled_total {
            // Level is the ℓ with 2^ℓ − 2 ≤ i < 2^{ℓ+1} − 2.
            let level = usize::BITS - (i + 2).leading_zeros() - 1;
            let off = (1usize << level) - 2;
            Ok((level, (i - off) / 2, (i - off) % 2))
        } else {
            Err(i - unsettled_total)
        }
    }

    /// Group (1-based) of the leftmost leaf under the subtree of
    /// `(level, prefix)` — the provisional group of an unsettled agent.
    fn provisional_group(&self, level: u32, prefix: usize) -> u16 {
        let leftmost = prefix << (self.h - level + 1);
        self.leaf_groups[leftmost]
    }

    /// Build the protocol description.
    pub fn spec(&self) -> ProtocolSpec {
        let h = self.h;
        let mut spec = ProtocolSpec::new(format!(
            "hierarchical-partition-h{h}-k{}",
            self.num_groups()
        ));
        // States in layout order: unsettled by level, then leaves.
        for level in 1..=h {
            for prefix in 0..(1usize << (level - 1)) {
                for sub in 0..2 {
                    let s = spec.add_state(
                        format!("u{level}.{prefix}.{}", if sub == 0 { "i" } else { "i'" }),
                        self.provisional_group(level, prefix),
                    );
                    debug_assert_eq!(s, self.unsettled(level, prefix, sub));
                }
            }
        }
        for j in 0..self.num_leaves() {
            let s = spec.add_state(format!("leaf{j}"), self.leaf_groups[j]);
            debug_assert_eq!(s, self.leaf(j));
        }
        spec.set_initial(self.unsettled(1, 0, 0));

        // Settle results for cohort (level, prefix).
        let settle = |level: u32, prefix: usize| -> (StateId, StateId) {
            if level == h {
                (self.leaf(2 * prefix), self.leaf(2 * prefix + 1))
            } else {
                (
                    self.unsettled(level + 1, 2 * prefix, 0),
                    self.unsettled(level + 1, 2 * prefix + 1, 0),
                )
            }
        };

        // Within-cohort rules: flip together on equal flags, settle on
        // opposite flags.
        for level in 1..=h {
            for prefix in 0..(1usize << (level - 1)) {
                let u0 = self.unsettled(level, prefix, 0);
                let u1 = self.unsettled(level, prefix, 1);
                spec.add_rule(u0, u0, u1, u1);
                spec.add_rule(u1, u1, u0, u0);
                let (l, r) = settle(level, prefix);
                spec.add_rule_symmetric(u0, u1, l, r);
            }
        }

        // Cross-cohort rules: any unsettled agent flips its flag when it
        // meets an agent outside its cohort (the analogue of the paper's
        // rules 3–4, giving global fairness traction to co-locate opposite
        // flags).
        let all_states: Vec<StateId> = (0..self.num_states() as u16).map(StateId).collect();
        for level in 1..=h {
            for prefix in 0..(1usize << (level - 1)) {
                for sub in 0..2 {
                    let u = self.unsettled(level, prefix, sub);
                    let flipped = self.unsettled(level, prefix, 1 - sub);
                    for &other in &all_states {
                        // Skip within-cohort pairs (handled above).
                        if other == u || other == self.unsettled(level, prefix, 1 - sub) {
                            continue;
                        }
                        // The partner keeps its state — unless it is itself
                        // unsettled, in which case its own rule instance
                        // flips it; emitting the joint rule from the
                        // lower-indexed side only avoids conflicts.
                        match self.decode(other) {
                            Ok((ol, op, os)) if (ol, op) != (level, prefix) => {
                                if u < other {
                                    let oflipped = self.unsettled(ol, op, 1 - os);
                                    spec.add_rule_symmetric(u, other, flipped, oflipped);
                                }
                            }
                            Ok(_) => {}
                            Err(_) => {
                                spec.add_rule_symmetric(u, other, flipped, other);
                            }
                        }
                    }
                }
            }
        }
        spec
    }

    /// Compile into the engine's dense-table form.
    pub fn compile(&self) -> CompiledProtocol {
        let p = self
            .spec()
            .compile()
            .expect("hierarchical spec is internally consistent");
        debug_assert!(p.is_symmetric());
        debug_assert_eq!(p.num_states(), self.num_states());
        p
    }

    /// The exact stability criterion: a configuration is stable iff every
    /// cohort `(level, prefix)` holds at most one unsettled agent.
    ///
    /// *Why exact:* cohorts only gain members when the parent cohort
    /// settles a pair, which itself requires two agents in the parent
    /// cohort; so if every cohort has ≤ 1 member, no settle is reachable
    /// anywhere and group assignments are frozen (only flag flips remain,
    /// which preserve the provisional group). Conversely a cohort with two
    /// agents can always reach a settle under global fairness, changing a
    /// group.
    pub fn stability(&self) -> HierarchicalStable {
        HierarchicalStable {
            proto: self.clone(),
        }
    }

    /// Upper bound on `max − min` group size at stability: one stranded
    /// agent per cohort on a root-to-leaf path, all mapped to the same
    /// leftmost leaf.
    pub fn max_imbalance(&self) -> u64 {
        u64::from(self.h) + 1
    }
}

/// Stability criterion for [`HierarchicalPartition`] (see
/// [`HierarchicalPartition::stability`]).
#[derive(Clone, Debug)]
pub struct HierarchicalStable {
    proto: HierarchicalPartition,
}

impl StabilityCriterion for HierarchicalStable {
    fn is_stable(&self, _proto: &pp_engine::protocol::CompiledProtocol, counts: &[u64]) -> bool {
        let h = self.proto.h;
        for level in 1..=h {
            for prefix in 0..(1usize << (level - 1)) {
                let c = counts[self.proto.unsettled(level, prefix, 0).index()]
                    + counts[self.proto.unsettled(level, prefix, 1).index()];
                if c > 1 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;

    #[test]
    fn state_count_matches_3k_minus_2_for_composed() {
        for h in 1..=4 {
            let p = HierarchicalPartition::composed(h);
            assert_eq!(p.num_states(), 3 * (1 << h) - 2);
            assert_eq!(p.compile().num_states(), p.num_states());
        }
    }

    #[test]
    fn decode_roundtrips() {
        let hp = HierarchicalPartition::composed(3);
        for level in 1..=3 {
            for prefix in 0..(1usize << (level - 1)) {
                for sub in 0..2 {
                    let s = hp.unsettled(level, prefix, sub);
                    assert_eq!(hp.decode(s), Ok((level, prefix, sub)));
                }
            }
        }
        for j in 0..8 {
            assert_eq!(hp.decode(hp.leaf(j)), Err(j));
        }
    }

    #[test]
    fn compiled_protocol_is_symmetric() {
        for h in 1..=3 {
            assert!(HierarchicalPartition::composed(h).compile().is_symmetric());
        }
        assert!(HierarchicalPartition::approx(5).compile().is_symmetric());
    }

    #[test]
    fn h1_behaves_like_bipartition() {
        let hp = HierarchicalPartition::composed(1);
        let p = hp.compile();
        assert_eq!(p.num_states(), 4);
        let mut pop = CountPopulation::new(&p, 10);
        let mut sched = UniformRandomScheduler::from_seed(3);
        Simulator::new(&p)
            .run(&mut pop, &mut sched, &hp.stability(), 10_000_000)
            .unwrap();
        assert_eq!(pop.group_sizes(&p), vec![5, 5]);
    }

    #[test]
    fn exact_partition_when_n_divisible_by_2h() {
        // Even splits at every level: the composition is exactly uniform.
        for h in [2u32, 3] {
            let hp = HierarchicalPartition::composed(h);
            let p = hp.compile();
            let k = 1u64 << h;
            for seed in 0..3 {
                let n = 8 * k;
                let mut pop = CountPopulation::new(&p, n);
                let mut sched = UniformRandomScheduler::from_seed(seed);
                Simulator::new(&p)
                    .run(&mut pop, &mut sched, &hp.stability(), 1_000_000_000)
                    .unwrap();
                assert_eq!(
                    pop.group_sizes(&p),
                    vec![8u64; k as usize],
                    "h={h} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn imbalance_bounded_but_can_exceed_one() {
        // The paper's point: naive composition is not (±1)-uniform. With n
        // not divisible by 2^h, stranded agents accumulate; imbalance stays
        // within h + 1 but exceeds 1 for some seeds.
        let hp = HierarchicalPartition::composed(2);
        let p = hp.compile();
        let mut saw_violation = false;
        for seed in 0..20 {
            let n = 7u64; // odd cohorts at every level
            let mut pop = CountPopulation::new(&p, n);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run(&mut pop, &mut sched, &hp.stability(), 100_000_000)
                .unwrap();
            let sizes = pop.group_sizes(&p);
            assert_eq!(sizes.iter().sum::<u64>(), n);
            let mx = *sizes.iter().max().unwrap();
            let mn = *sizes.iter().min().unwrap();
            assert!(mx - mn <= hp.max_imbalance(), "{sizes:?}");
            if mx - mn > 1 {
                saw_violation = true;
            }
        }
        assert!(
            saw_violation,
            "expected some seed to break ±1 uniformity at n = 7, k = 4"
        );
    }

    #[test]
    fn approx_fold_covers_all_groups() {
        let hp = HierarchicalPartition::approx(5);
        assert_eq!(hp.num_groups(), 5);
        assert_eq!(hp.num_leaves(), 8);
        let p = hp.compile();
        // n large relative to k: every group must get at least n/(2k).
        let n = 400u64;
        let mut pop = CountPopulation::new(&p, n);
        let mut sched = UniformRandomScheduler::from_seed(11);
        Simulator::new(&p)
            .run(&mut pop, &mut sched, &hp.stability(), 1_000_000_000)
            .unwrap();
        let sizes = pop.group_sizes(&p);
        assert_eq!(sizes.iter().sum::<u64>(), n);
        for (g, &s) in sizes.iter().enumerate() {
            assert!(
                s >= n / (2 * 5),
                "group {} has {s} < n/(2k) = {}",
                g + 1,
                n / 10
            );
        }
    }

    #[test]
    fn approx_power_of_two_equals_composed() {
        let a = HierarchicalPartition::approx(4);
        let c = HierarchicalPartition::composed(2);
        assert_eq!(a, c);
    }

    #[test]
    fn stability_criterion_rejects_two_agent_cohorts() {
        let hp = HierarchicalPartition::composed(2);
        let p = hp.compile();
        let mut counts = vec![0u64; p.num_states()];
        counts[hp.unsettled(2, 1, 0).index()] = 1;
        counts[hp.unsettled(2, 1, 1).index()] = 1; // two in one cohort
        counts[hp.leaf(0).index()] = 2;
        assert!(!hp.stability().is_stable(&p, &counts));
        counts[hp.unsettled(2, 1, 1).index()] = 0;
        assert!(hp.stability().is_stable(&p, &counts));
    }
}
