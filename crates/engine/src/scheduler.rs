//! Interaction schedulers.
//!
//! The population protocol model leaves the choice of interacting pair to a
//! scheduler constrained by a fairness assumption. The paper proves
//! correctness under **global fairness** (every configuration reachable
//! from one occurring infinitely often itself occurs infinitely often) and
//! evaluates time complexity under the **uniform random scheduler** (two
//! distinct agents chosen uniformly at random each step), which produces
//! globally fair executions with probability 1.
//!
//! A [`PairScheduler`] picks an ordered *state* pair from a
//! [`CountPopulation`] (weighted by counts, without replacement) for the
//! naive kernel. Per-agent runs schedule agent pairs on an interaction
//! graph, which pp-topo's edge schedulers do;
//! [`UniformRandomScheduler::select_agents`] is the complete-graph draw
//! they are checked against.

use crate::population::{AgentPopulation, CountPopulation, Population};
use crate::protocol::StateId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Chooses the ordered state pair for the next interaction of a
/// count-vector population.
pub trait PairScheduler {
    /// Select an ordered pair of states `(p, q)` of two *distinct* agents.
    /// Requires `pop.num_agents() ≥ 2`.
    fn select_pair(&mut self, pop: &CountPopulation) -> (StateId, StateId);
}

/// The paper's scheduler: each step, an ordered pair of distinct agents is
/// chosen uniformly at random.
///
/// On an infinite execution this scheduler is globally fair with
/// probability 1 (every reachable configuration has positive probability of
/// being reached from any configuration that recurs infinitely often).
#[derive(Clone, Debug)]
pub struct UniformRandomScheduler {
    rng: SmallRng,
}

impl UniformRandomScheduler {
    /// Deterministic scheduler from an explicit seed. All experiment
    /// harnesses pass recorded seeds so results are bit-reproducible.
    pub fn from_seed(seed: u64) -> Self {
        UniformRandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Access the underlying RNG (used by fault-injection examples to draw
    /// correlated randomness).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Select an ordered pair of distinct agent indices of `pop`,
    /// uniformly. Requires `pop.num_agents() ≥ 2`.
    #[inline]
    pub fn select_agents(&mut self, pop: &AgentPopulation) -> (usize, usize) {
        let n = pop.num_agents() as usize;
        debug_assert!(n >= 2, "need at least two agents to interact");
        let i = self.rng.gen_range(0..n);
        let mut j = self.rng.gen_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        (i, j)
    }
}

impl PairScheduler for UniformRandomScheduler {
    #[inline]
    fn select_pair(&mut self, pop: &CountPopulation) -> (StateId, StateId) {
        let n = pop.num_agents();
        debug_assert!(n >= 2, "need at least two agents to interact");
        let p = pop.state_of_rank(self.rng.gen_range(0..n));
        let q = pop.state_of_rank_excluding(self.rng.gen_range(0..n - 1), p);
        (p, q)
    }
}

/// An adversarial scheduler that greedily picks, among the currently
/// enabled *non-identity* ordered state pairs, the one maximising a
/// user-supplied priority; falls back to uniform random among agents when
/// every enabled pair is an identity (so executions remain infinite).
///
/// This scheduler is not fair in general. It exists to construct worst-case
/// executions — e.g. to drive the "basic strategy" ablation of §3.2 into
/// configurations with too many chain-builder (`m`) agents.
pub struct GreedyPriorityScheduler<F> {
    priority: F,
    rng: SmallRng,
}

impl<F> GreedyPriorityScheduler<F>
where
    F: FnMut(StateId, StateId) -> i64,
{
    /// Build from a priority function and a seed for tie-breaking fallback.
    pub fn new(priority: F, seed: u64) -> Self {
        GreedyPriorityScheduler {
            priority,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<F> PairScheduler for GreedyPriorityScheduler<F>
where
    F: FnMut(StateId, StateId) -> i64,
{
    fn select_pair(&mut self, pop: &CountPopulation) -> (StateId, StateId) {
        let counts = pop.counts();
        let mut best: Option<(i64, StateId, StateId)> = None;
        for (pi, &cp) in counts.iter().enumerate() {
            if cp == 0 {
                continue;
            }
            let p = StateId(pi as u16);
            for (qi, &cq) in counts.iter().enumerate() {
                let need = if pi == qi { 2 } else { 1 };
                if cq < need {
                    continue;
                }
                let q = StateId(qi as u16);
                let pr = (self.priority)(p, q);
                if best.is_none_or(|(b, _, _)| pr > b) {
                    best = Some((pr, p, q));
                }
            }
        }
        match best {
            Some((_, p, q)) => (p, q),
            None => {
                // Fewer than two agents of any state: fall back to uniform.
                let n = pop.num_agents();
                let p = pop.state_of_rank(self.rng.gen_range(0..n));
                let q = pop.state_of_rank_excluding(self.rng.gen_range(0..n - 1), p);
                (p, q)
            }
        }
    }
}

/// A *deterministic* scheduler whose infinite executions are globally
/// fair: among the currently enabled ordered pairs it always performs the
/// one whose successor configuration has been visited least often
/// (ties broken by pair order).
///
/// Global fairness demands that every configuration reachable from one
/// occurring infinitely often itself occurs infinitely often. Randomness
/// delivers that with probability 1; this scheduler delivers it by
/// construction on finite configuration spaces — if some configuration
/// `C` recurs forever, each of its successors has unboundedly growing
/// visit deficit and is eventually the minimum, hence taken. It exists to
/// demonstrate (and test) that the paper's correctness claim is about
/// fairness, not about probability: the k-partition protocol stabilises
/// under this scheduler too, with *zero* randomness.
///
/// Cost: a hash-map lookup per enabled pair per step — fine for the
/// small populations it is meant for.
#[derive(Debug, Default)]
pub struct LeastVisitedScheduler {
    visits: std::collections::HashMap<Vec<u64>, u64>,
}

impl LeastVisitedScheduler {
    /// Fresh scheduler with an empty visit table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PairScheduler for LeastVisitedScheduler {
    fn select_pair(&mut self, pop: &CountPopulation) -> (StateId, StateId) {
        let counts = pop.counts();
        let mut best: Option<(u64, StateId, StateId)> = None;
        for (pi, &cp) in counts.iter().enumerate() {
            if cp == 0 {
                continue;
            }
            for (qi, &cq) in counts.iter().enumerate() {
                if cq < if pi == qi { 2 } else { 1 } {
                    continue;
                }
                let (p, q) = (StateId(pi as u16), StateId(qi as u16));
                // Successor under an arbitrary protocol is unknown here;
                // the scheduler tracks *pair histories* keyed by the
                // configuration instead: visit count of (config, pair).
                let mut key: Vec<u64> = counts.to_vec();
                key.push(pi as u64);
                key.push(qi as u64);
                let v = self.visits.get(&key).copied().unwrap_or(0);
                if best.is_none_or(|(b, _, _)| v < b) {
                    best = Some((v, p, q));
                }
            }
        }
        let (_, p, q) = best.expect("population has at least two agents");
        let mut key: Vec<u64> = counts.to_vec();
        key.push(p.index() as u64);
        key.push(q.index() as u64);
        *self.visits.entry(key).or_insert(0) += 1;
        (p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;

    fn two_state() -> crate::protocol::CompiledProtocol {
        let mut spec = ProtocolSpec::new("t");
        let a = spec.add_state("a", 1);
        let _b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.compile().unwrap()
    }

    #[test]
    fn uniform_pair_never_overdraws() {
        let p = two_state();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        let mut pop = CountPopulation::new(&p, 2);
        pop.set_count(a, 1);
        pop.set_count(b, 1);
        let mut sched = UniformRandomScheduler::from_seed(1);
        for _ in 0..200 {
            let (x, y) = sched.select_pair(&pop);
            // With one agent of each state, the pair must be {a, b}.
            assert_ne!(x, y);
        }
    }

    #[test]
    fn uniform_pair_distribution_is_roughly_proportional() {
        let p = two_state();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        let mut pop = CountPopulation::new(&p, 100);
        pop.set_count(a, 75);
        pop.set_count(b, 25);
        let mut sched = UniformRandomScheduler::from_seed(42);
        let trials = 40_000;
        let mut first_a = 0u32;
        for _ in 0..trials {
            let (x, _) = sched.select_pair(&pop);
            if x == a {
                first_a += 1;
            }
        }
        let frac = f64::from(first_a) / f64::from(trials);
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn uniform_agents_distinct() {
        let p = two_state();
        let pop = AgentPopulation::new(&p, 5);
        let mut sched = UniformRandomScheduler::from_seed(3);
        for _ in 0..1000 {
            let (i, j) = sched.select_agents(&pop);
            assert_ne!(i, j);
            assert!(i < 5 && j < 5);
        }
    }

    #[test]
    fn uniform_agents_second_is_uniform_over_others() {
        let p = two_state();
        let pop = AgentPopulation::new(&p, 4);
        let mut sched = UniformRandomScheduler::from_seed(9);
        let mut hits = [0u32; 4];
        let trials = 48_000;
        for _ in 0..trials {
            let (_, j) = sched.select_agents(&pop);
            hits[j] += 1;
        }
        for h in hits {
            let frac = f64::from(h) / f64::from(trials);
            assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
        }
    }

    #[test]
    fn least_visited_cycles_through_enabled_pairs() {
        let p = two_state();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        let mut pop = CountPopulation::new(&p, 4);
        pop.set_count(a, 2);
        pop.set_count(b, 2);
        let mut sched = LeastVisitedScheduler::new();
        // With a static configuration, four ordered pairs are enabled;
        // 8 selections must visit each exactly twice.
        let mut hits = std::collections::HashMap::new();
        for _ in 0..8 {
            let pair = sched.select_pair(&pop);
            *hits.entry(pair).or_insert(0) += 1;
        }
        assert_eq!(hits.len(), 4);
        assert!(hits.values().all(|&v| v == 2), "{hits:?}");
    }

    #[test]
    fn greedy_scheduler_picks_max_priority() {
        let p = two_state();
        let a = p.state_by_name("a").unwrap();
        let b = p.state_by_name("b").unwrap();
        let mut pop = CountPopulation::new(&p, 4);
        pop.set_count(a, 2);
        pop.set_count(b, 2);
        let mut sched = GreedyPriorityScheduler::new(
            |p: StateId, q: StateId| i64::from(p.0) * 10 + i64::from(q.0),
            0,
        );
        assert_eq!(sched.select_pair(&pop), (b, b));
    }
}
