//! Property tests for the recursive-bipartition protocols: the subtree
//! balance invariant, state-count identities, and fold coverage.

use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::StateId;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::{RunError, Simulator};
use pp_engine::stability::Never;
use pp_protocols::hierarchical::HierarchicalPartition;
use proptest::prelude::*;

/// Number of agents committed to the subtree rooted at `(level, prefix)`:
/// unsettled members of descendant cohorts plus settled leaves below.
fn subtree_population(
    hp: &HierarchicalPartition,
    counts: &[u64],
    level: u32,
    prefix: usize,
) -> u64 {
    let h = hp.levels();
    let mut total = 0;
    // Descendant cohorts (including (level, prefix) itself).
    for l in level..=h {
        let shift = l - level;
        let base = prefix << shift;
        for p in base..base + (1usize << shift) {
            for sub in 0..2 {
                total += counts[hp.unsettled(l, p, sub).index()];
            }
        }
    }
    // Leaves below.
    let shift = h - level + 1;
    let base = prefix << shift;
    for j in base..base + (1usize << shift) {
        total += counts[hp.leaf(j).index()];
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Subtree balance: every settle sends exactly one agent to each
    /// child subtree and agents never leave a subtree, so at *any* point
    /// of *any* execution the two children of a cohort hold equally many
    /// committed agents — up to the agents still unsettled at the parent
    /// level or above.
    ///
    /// Precisely: for every internal node `(level, prefix)` with children
    /// `c0 = (level+1, 2·prefix)`, `c1 = (level+1, 2·prefix+1)`,
    /// `|subtree(c0)| == |subtree(c1)|` always.
    #[test]
    fn children_subtrees_stay_balanced(
        h in 2u32..4,
        n in 4u64..40,
        steps in 0u64..4000,
        seed in any::<u64>(),
    ) {
        let hp = HierarchicalPartition::composed(h);
        let proto = hp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let res = Simulator::new(&proto).run_observed(
            &mut pop,
            &mut sched,
            &Never,
            steps,
            &mut pp_engine::observer::NullObserver,
        );
        prop_assert_eq!(res, Err(RunError::InteractionLimit { limit: steps }));
        for level in 1..h {
            for prefix in 0..(1usize << (level - 1)) {
                let left = subtree_population(&hp, pop.counts(), level + 1, 2 * prefix);
                let right = subtree_population(&hp, pop.counts(), level + 1, 2 * prefix + 1);
                prop_assert_eq!(
                    left, right,
                    "subtree imbalance under ({}, {}) after {} steps",
                    level, prefix, steps
                );
            }
        }
        // Conservation: the root subtree is the whole population.
        prop_assert_eq!(subtree_population(&hp, pop.counts(), 1, 0), n);
    }

    /// State-count identity 3·2^h − 2 = 3k − 2 at k = 2^h, and decode is
    /// a bijection over the state space.
    #[test]
    fn state_space_shape(h in 1u32..6) {
        let hp = HierarchicalPartition::composed(h);
        prop_assert_eq!(hp.num_states(), 3 * (1usize << h) - 2);
        let mut seen_unsettled = 0;
        let mut seen_leaves = 0;
        for i in 0..hp.num_states() {
            match hp.decode(StateId(i as u16)) {
                Ok((l, p, s)) => {
                    prop_assert_eq!(hp.unsettled(l, p, s), StateId(i as u16));
                    seen_unsettled += 1;
                }
                Err(j) => {
                    prop_assert_eq!(hp.leaf(j), StateId(i as u16));
                    seen_leaves += 1;
                }
            }
        }
        prop_assert_eq!(seen_leaves, 1usize << h);
        prop_assert_eq!(seen_unsettled, 2 * (1usize << h) - 2);
    }

    /// The approx fold covers every group 1..=k and distributes leaves as
    /// evenly as possible (⌊2^h/k⌋ or ⌈2^h/k⌉ leaves per group).
    #[test]
    fn approx_fold_is_balanced(k in 2usize..33) {
        let hp = HierarchicalPartition::approx(k);
        let proto = hp.compile();
        let leaves = hp.num_leaves();
        let mut per_group = vec![0usize; k];
        for j in 0..leaves {
            prop_assert!(hp.decode(hp.leaf(j)).is_err(), "leaf decodes as leaf");
            per_group[proto.group_of(hp.leaf(j)).number() - 1] += 1;
        }
        let lo = leaves / k;
        let hi = leaves.div_ceil(k);
        for (g, &c) in per_group.iter().enumerate() {
            prop_assert!(c == lo || c == hi, "group {} has {} leaves", g + 1, c);
            prop_assert!(c >= 1);
        }
    }

    /// Running the protocol never creates agents out of thin air and the
    /// stability criterion is monotone along executions once reached
    /// (run further with Never, recheck the criterion still holds).
    #[test]
    fn stability_is_absorbing(h in 1u32..3, n in 4u64..24, seed in any::<u64>()) {
        use pp_engine::stability::StabilityCriterion;
        let hp = HierarchicalPartition::composed(h);
        let proto = hp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let crit = hp.stability();
        let res = Simulator::new(&proto)
            .run(&mut pop, &mut sched, &crit, 100_000_000);
        prop_assert!(res.is_ok());
        // Keep going: stability must persist.
        let _ = Simulator::new(&proto).run(&mut pop, &mut sched, &Never, 2000);
        prop_assert!(crit.is_stable(&proto, pop.counts()));
        prop_assert_eq!(pop.counts().iter().sum::<u64>(), n);
    }
}
