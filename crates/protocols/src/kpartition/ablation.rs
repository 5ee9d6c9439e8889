//! The "basic strategy" ablation: Algorithm 1 with rules 1–7 only.
//!
//! §3.2 of the paper motivates the `D` states with a failure scenario:
//! without rules 8–10, several chain-builder (`m`) agents can start
//! concurrently and between them absorb every free agent, leaving partial
//! chains that can never complete. The resulting configuration is *silent*
//! — no rule applies — but not a uniform k-partition: low-numbered groups
//! (`g1, g2, …`) are overfull and high-numbered groups are empty.
//!
//! [`BasicStrategyKPartition`] implements exactly that truncated rule set
//! (on the state set `I ∪ G ∪ M`, `2k` states) so the failure is
//! measurable. The experiment harness (`ablation_d_states`) reports, per
//! `(n, k)`, how often random executions end in a deadlocked non-uniform
//! configuration, and the worst group imbalance observed — the
//! quantitative counterpart of the paper's Figure 2 narrative.

use crate::kpartition::{PhaseMap, UniformKPartition};
use crate::OutOfRange;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;

/// Algorithm 1 truncated to rules 1–7 (no chain abort/unwind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasicStrategyKPartition {
    paper: UniformKPartition,
}

impl BasicStrategyKPartition {
    /// Basic strategy for `3 ≤ k ≤` [`UniformKPartition::MAX_K`] groups.
    /// (For `k = 2` the basic strategy and the full protocol coincide;
    /// use [`UniformKPartition`].)
    pub fn try_new(k: usize) -> Result<Self, OutOfRange> {
        let range = 3..=UniformKPartition::MAX_K as u64;
        OutOfRange::check("the basic-strategy ablation", "k", k as u64, range)?;
        Ok(BasicStrategyKPartition {
            paper: UniformKPartition::new(k),
        })
    }

    /// [`Self::try_new`], panicking when `k` is out of range.
    pub fn new(k: usize) -> Self {
        Self::try_new(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of groups `k`.
    pub fn k(&self) -> usize {
        self.paper.k()
    }

    /// `|Q| = 2k`: the paper's layout without its last `k − 2` states,
    /// `D`.
    pub fn num_states(&self) -> usize {
        2 * self.k()
    }

    /// The designated initial state.
    pub fn initial(&self) -> StateId {
        self.paper.initial()
    }

    /// The `initial'` state.
    pub fn initial_prime(&self) -> StateId {
        self.paper.initial_prime()
    }

    /// Settled-group state `g_i`, `1 ≤ i ≤ k`.
    pub fn g(&self, i: usize) -> StateId {
        self.paper.g(i)
    }

    /// Chain-builder state `m_i`, `2 ≤ i ≤ k − 1`.
    pub fn m(&self, i: usize) -> StateId {
        self.paper.m(i)
    }

    /// The convergence-phase role of every state: the paper's, on the
    /// `I ∪ G ∪ M` prefix this protocol keeps.
    pub fn phase_map(&self) -> PhaseMap {
        PhaseMap::of_layout(&self.paper, self.num_states())
    }

    /// Build the truncated protocol description: the paper's first `2k`
    /// states and every rule whose four states all lie among them — the
    /// free-agent flips, the `g_i` flips and rules 5–7. Rules 8–10 touch
    /// `D`, so `(m_i, m_j)` is a null interaction.
    pub fn spec(&self) -> ProtocolSpec {
        let paper = self.paper.compile();
        let kept = self.num_states();
        let mut spec = ProtocolSpec::new(format!("basic-strategy-{}-partition", self.k()));
        for s in paper.states().take(kept) {
            spec.add_state(paper.state_name(s), paper.group_of(s).0);
        }
        spec.set_initial(paper.initial_state());
        for (p, q, p2, q2) in paper.non_identity_rules() {
            if [p, q, p2, q2].iter().all(|s| s.index() < kept) {
                spec.add_rule(p, q, p2, q2);
            }
        }
        spec
    }

    /// Compile into the engine's dense-table form.
    pub fn compile(&self) -> CompiledProtocol {
        let p = self
            .spec()
            .compile()
            .expect("basic-strategy spec is internally consistent");
        debug_assert!(p.is_symmetric());
        debug_assert_eq!(p.num_states(), self.num_states());
        p
    }

    /// Whether `counts` is a *deadlocked* configuration: at least one
    /// chain-builder remains but no free agents, so no rule can ever fire
    /// again (the failure mode of §3.2).
    pub fn is_deadlocked(&self, counts: &[u64]) -> bool {
        let free: u64 = counts[self.initial().index()] + counts[self.initial_prime().index()];
        let builders: u64 = (2..self.k()).map(|i| counts[self.m(i).index()]).sum();
        free == 0 && builders > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::{GreedyPriorityScheduler, UniformRandomScheduler};
    use pp_engine::simulator::Simulator;
    use pp_engine::stability::{Silent, StabilityCriterion};

    #[test]
    fn m_collision_is_null() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        assert!(p.is_identity(bp.m(2), bp.m(3)));
        assert!(p.is_identity(bp.m(2), bp.m(2)));
    }

    /// Deterministically reproduce §3.2's failure (n = 12, k = 4): four
    /// chains start, each recruits two agents, and the population
    /// deadlocks at g1×4 g2×4 m3×4.
    #[test]
    fn adversarial_schedule_deadlocks() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        let mut pop = CountPopulation::new(&p, 12);
        // Priority: start chains first (rule 5 via flips), then feed each
        // chain exactly up to m3 — encoded as "prefer interactions that
        // advance the lowest chain"; a greedy schedule that always performs
        // some enabled non-null interaction suffices here because with this
        // priority order chains are created before being fed.
        let ini = bp.initial();
        let inip = bp.initial_prime();
        let m2 = bp.m(2);
        let m3 = bp.m(3);
        let mut sched = GreedyPriorityScheduler::new(
            move |a: StateId, b: StateId| {
                // Highest: create new chains. Then advance m2 -> m3.
                if (a, b) == (ini, inip) || (a, b) == (inip, ini) {
                    3
                } else if (a == m2 && (b == ini || b == inip))
                    || (b == m2 && (a == ini || a == inip))
                {
                    2
                } else if (a, b) == (ini, ini) || (a, b) == (inip, inip) {
                    1
                } else {
                    0
                }
            },
            1,
        );
        let res = Simulator::new(&p).run(&mut pop, &mut sched, &Silent, 10_000);
        assert!(res.is_ok(), "greedy schedule should reach a silent sink");
        assert!(bp.is_deadlocked(pop.counts()));
        assert_eq!(pop.count(bp.g(1)), 4);
        assert_eq!(pop.count(bp.g(2)), 4);
        assert_eq!(pop.count(m3), 4);
        assert_eq!(pop.count(bp.g(4)), 0);
        // Non-uniform: group 4 is empty while group 1 has 4 agents.
        let sizes = pop.group_sizes(&p);
        assert_eq!(sizes, vec![4, 4, 4, 0]);
    }

    /// Under the uniform random scheduler the basic strategy always ends
    /// in a silent configuration — sometimes uniform, sometimes
    /// deadlocked. Either way it terminates, and when it deadlocks group
    /// sizes are imbalanced by more than 1.
    #[test]
    fn random_runs_end_silent_and_sometimes_fail() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        let mut deadlocks = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut pop = CountPopulation::new(&p, 12);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run(&mut pop, &mut sched, &Silent, 100_000_000)
                .expect("basic strategy always reaches a silent configuration");
            if bp.is_deadlocked(pop.counts()) {
                deadlocks += 1;
                let sizes = pop.group_sizes(&p);
                let mx = *sizes.iter().max().unwrap();
                let mn = *sizes.iter().min().unwrap();
                assert!(mx - mn > 1, "deadlock but balanced? {sizes:?}");
            } else {
                assert_eq!(pop.group_sizes(&p), vec![3, 3, 3, 3]);
            }
        }
        // With n = 12, k = 4 deadlocks are common; at least one in 40
        // seeded trials is a safe deterministic expectation.
        assert!(
            deadlocks > 0,
            "expected at least one deadlock in {trials} trials"
        );
    }

    #[test]
    fn silent_check_matches_deadlock_predicate() {
        let bp = BasicStrategyKPartition::new(5);
        let p = bp.compile();
        // g1 g2 m3 ×3 with no free agents: silent and deadlocked.
        let mut counts = vec![0u64; p.num_states()];
        counts[bp.g(1).index()] = 3;
        counts[bp.g(2).index()] = 3;
        counts[bp.m(3).index()] = 3;
        assert!(Silent.is_stable(&p, &counts));
        assert!(bp.is_deadlocked(&counts));
        // Add one free agent: no longer silent (rule 6 applies).
        counts[bp.initial().index()] = 1;
        assert!(!Silent.is_stable(&p, &counts));
        assert!(!bp.is_deadlocked(&counts));
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn k2_rejected() {
        BasicStrategyKPartition::new(2);
    }
}
