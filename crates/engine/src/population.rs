//! Population representations.
//!
//! Agents in the population protocol model are anonymous and, on a complete
//! interaction graph, exchangeable: the future of an execution under the
//! uniform-random scheduler depends only on the *multiset* of states. The
//! engine therefore offers two representations:
//!
//! * [`CountPopulation`] — a count vector over `Q`. Memory O(|Q|),
//!   interaction O(|Q|) (dominated by sampling a weighted pair). This is
//!   exact for all of the paper's experiments and is what the figure
//!   harnesses use.
//! * [`AgentPopulation`] — one state per agent. Supports per-agent group
//!   tracking, scripted interaction sequences (Figures 1–2), fault
//!   injection, and restricted interaction graphs. Scheduled runs on it
//!   go through pp-topo's dynamics loop (`pp_topo::run_dynamics`).
//!
//! Both implement [`Population`], and
//! [`AgentPopulation::count_view`] projects the per-agent form onto the
//! count form so results can be cross-checked in tests.

use crate::protocol::{CompiledProtocol, GroupId, StateId};

/// Common interface over population representations.
pub trait Population {
    /// Number of agents `n`.
    fn num_agents(&self) -> u64;

    /// Count of agents currently in state `s`.
    fn count(&self, s: StateId) -> u64;

    /// Count vector over all states (indexed by `StateId::index`).
    fn counts(&self) -> &[u64];

    /// Number of agents in each group under the output map `f`
    /// (index 0 = group 1, matching the paper's 1-based numbering).
    fn group_sizes(&self, proto: &CompiledProtocol) -> Vec<u64> {
        let mut sizes = vec![0u64; proto.num_groups()];
        for s in proto.states() {
            sizes[proto.group_of(s).number() - 1] += self.count(s);
        }
        sizes
    }
}

/// Count-vector population: the state multiset of an anonymous population.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountPopulation {
    counts: Vec<u64>,
    n: u64,
}

impl CountPopulation {
    /// A population of `n` agents, all in the protocol's initial state.
    pub fn new(proto: &CompiledProtocol, n: u64) -> Self {
        let mut counts = vec![0u64; proto.num_states()];
        counts[proto.initial_state().index()] = n;
        CountPopulation { counts, n }
    }

    /// A population with explicit counts (sum = `n`).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let n = counts.iter().sum();
        CountPopulation { counts, n }
    }

    /// Overwrite the count of `s` (adjusts `n` accordingly).
    pub fn set_count(&mut self, s: StateId, c: u64) {
        let old = self.counts[s.index()];
        self.n = self.n - old + c;
        self.counts[s.index()] = c;
    }

    /// Overwrite the whole count vector with `counts`, a configuration of
    /// the same `n` agents (a kernel's detached count vector, written
    /// back at the end of a run).
    pub(crate) fn set_counts(&mut self, counts: &[u64]) {
        debug_assert_eq!(counts.len(), self.counts.len());
        debug_assert_eq!(counts.iter().sum::<u64>(), self.n);
        self.counts.copy_from_slice(counts);
    }

    /// Apply one interaction: an agent leaves `p` for `p2` and an agent
    /// leaves `q` for `q2`.
    ///
    /// # Panics
    /// In debug builds, panics if the population does not contain the
    /// required agents (`count(p) ≥ 1`, and `≥ 2` when `p == q`).
    #[inline]
    pub fn apply(&mut self, p: StateId, q: StateId, p2: StateId, q2: StateId) {
        debug_assert!(self.counts[p.index()] >= 1);
        self.counts[p.index()] -= 1;
        debug_assert!(self.counts[q.index()] >= 1);
        self.counts[q.index()] -= 1;
        self.counts[p2.index()] += 1;
        self.counts[q2.index()] += 1;
    }

    /// Map the `i`-th agent (in an arbitrary but fixed per-configuration
    /// order: agents sorted by state index) to its state. `i < n`.
    ///
    /// This is the weighted-sampling kernel: picking `i` uniformly from
    /// `0..n` and mapping through this function selects a state with
    /// probability proportional to its count. Resolves by a linear scan
    /// of the count vector, O(|Q|).
    #[inline]
    pub fn state_of_rank(&self, i: u64) -> StateId {
        state_at_rank(self.counts.iter().copied(), i)
    }

    /// Like [`Self::state_of_rank`] but with one agent of state `skip`
    /// removed — used to sample the second member of an ordered pair
    /// without replacement. The removed agent is the last one in state
    /// `skip`, so every rank at or past its position moves up by one.
    #[inline]
    pub fn state_of_rank_excluding(&self, i: u64, skip: StateId) -> StateId {
        debug_assert!(self.counts[skip.index()] >= 1);
        let skipped = |(idx, &c): (usize, &u64)| if idx == skip.index() { c - 1 } else { c };
        state_at_rank(self.counts.iter().enumerate().map(skipped), i)
    }

    /// True if the count vector exactly equals `target`.
    pub fn matches(&self, target: &[u64]) -> bool {
        self.counts == target
    }
}

/// The state owning rank `i` (`i` < the total) when agents are sorted
/// by state index and state `idx` holds `counts[idx]` of them. A linear
/// scan: protocols have few states (3k − 2 for Algorithm 1).
#[inline]
fn state_at_rank(counts: impl Iterator<Item = u64>, mut i: u64) -> StateId {
    for (idx, c) in counts.enumerate() {
        if i < c {
            return StateId(idx as u16);
        }
        i -= c;
    }
    unreachable!("rank out of range")
}

impl Population for CountPopulation {
    #[inline(always)]
    fn num_agents(&self) -> u64 {
        self.n
    }

    #[inline(always)]
    fn count(&self, s: StateId) -> u64 {
        self.counts[s.index()]
    }

    #[inline(always)]
    fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Per-agent population: explicit state for each of `n` agents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgentPopulation {
    states: Vec<StateId>,
    counts: Vec<u64>,
}

impl AgentPopulation {
    /// A population of `n` agents, all in the protocol's initial state.
    pub fn new(proto: &CompiledProtocol, n: usize) -> Self {
        let mut counts = vec![0u64; proto.num_states()];
        counts[proto.initial_state().index()] = n as u64;
        AgentPopulation {
            states: vec![proto.initial_state(); n],
            counts,
        }
    }

    /// A population with explicit per-agent states. `num_states` sizes the
    /// count cache and must exceed every state index used.
    pub fn from_states(states: Vec<StateId>, num_states: usize) -> Self {
        let mut counts = vec![0u64; num_states];
        for s in &states {
            counts[s.index()] += 1;
        }
        AgentPopulation { states, counts }
    }

    /// State of agent `i`.
    #[inline(always)]
    pub fn state_of(&self, i: usize) -> StateId {
        self.states[i]
    }

    /// All agent states, in agent order.
    pub fn states(&self) -> &[StateId] {
        &self.states
    }

    /// Forcibly set the state of agent `i` (fault injection / scripted
    /// setups). Keeps the count cache consistent.
    pub fn set_state(&mut self, i: usize, s: StateId) {
        self.counts[self.states[i].index()] -= 1;
        self.counts[s.index()] += 1;
        self.states[i] = s;
    }

    /// Remove agent `i` from the population (models agent failure, as in
    /// the fault-tolerance application the paper's introduction cites).
    /// Order of the remaining agents is not preserved: the last agent is
    /// swapped into slot `i` (callers tracking agent identity — e.g. a
    /// topology — must apply the same remapping).
    pub fn remove_agent(&mut self, i: usize) -> StateId {
        let s = self.states.swap_remove(i);
        self.counts[s.index()] -= 1;
        s
    }

    /// Add a new agent in state `s` (models an agent joining mid-run, as
    /// in churn scenarios). Returns the new agent's index, which is always
    /// the current highest index.
    pub fn add_agent(&mut self, s: StateId) -> usize {
        self.states.push(s);
        self.counts[s.index()] += 1;
        self.states.len() - 1
    }

    /// Apply one interaction between the ordered agent pair `(i, j)`,
    /// `i ≠ j`, updating both states through `δ`. Returns the transition
    /// `(p, q, p2, q2)` that occurred.
    #[inline]
    pub fn interact(
        &mut self,
        proto: &CompiledProtocol,
        i: usize,
        j: usize,
    ) -> (StateId, StateId, StateId, StateId) {
        assert_ne!(i, j, "an agent cannot interact with itself");
        let p = self.states[i];
        let q = self.states[j];
        let (p2, q2) = proto.delta(p, q);
        if p2 != p {
            self.counts[p.index()] -= 1;
            self.counts[p2.index()] += 1;
            self.states[i] = p2;
        }
        if q2 != q {
            self.counts[q.index()] -= 1;
            self.counts[q2.index()] += 1;
            self.states[j] = q2;
        }
        (p, q, p2, q2)
    }

    /// Project onto the count representation.
    pub fn count_view(&self) -> CountPopulation {
        CountPopulation::from_counts(self.counts.clone())
    }

    /// Group of agent `i` under the output map.
    pub fn group_of(&self, proto: &CompiledProtocol, i: usize) -> GroupId {
        proto.group_of(self.states[i])
    }
}

impl Population for AgentPopulation {
    #[inline(always)]
    fn num_agents(&self) -> u64 {
        self.states.len() as u64
    }

    #[inline(always)]
    fn count(&self, s: StateId) -> u64 {
        self.counts[s.index()]
    }

    #[inline(always)]
    fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn count_population_init_and_apply() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 10);
        assert_eq!(pop.count(s), 10);
        pop.set_count(s, 9);
        pop.set_count(i, 1);
        assert_eq!(pop.num_agents(), 10);
        pop.apply(i, s, i, i);
        assert_eq!(pop.count(i), 2);
        assert_eq!(pop.count(s), 8);
        assert_eq!(pop.num_agents(), 10);
    }

    #[test]
    fn rank_sampling_covers_all_agents() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 5);
        pop.set_count(s, 3);
        pop.set_count(i, 2);
        let ranks: Vec<StateId> = (0..5).map(|r| pop.state_of_rank(r)).collect();
        assert_eq!(ranks.iter().filter(|&&x| x == s).count(), 3);
        assert_eq!(ranks.iter().filter(|&&x| x == i).count(), 2);
    }

    #[test]
    fn rank_sampling_excluding() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 5);
        pop.set_count(s, 3);
        pop.set_count(i, 2);
        // Excluding one S agent: 2 S and 2 I remain.
        let ranks: Vec<StateId> = (0..4).map(|r| pop.state_of_rank_excluding(r, s)).collect();
        assert_eq!(ranks.iter().filter(|&&x| x == s).count(), 2);
        assert_eq!(ranks.iter().filter(|&&x| x == i).count(), 2);
    }

    #[test]
    fn agent_population_interact_updates_counts() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = AgentPopulation::new(&p, 4);
        pop.set_state(0, i);
        let (p0, q0, p2, q2) = pop.interact(&p, 0, 1);
        assert_eq!((p0, q0, p2, q2), (i, s, i, i));
        assert_eq!(pop.count(i), 2);
        assert_eq!(pop.count_view().counts(), pop.counts());
    }

    #[test]
    fn agent_population_remove_agent() {
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        let mut pop = AgentPopulation::new(&p, 4);
        pop.set_state(2, i);
        let removed = pop.remove_agent(2);
        assert_eq!(removed, i);
        assert_eq!(pop.num_agents(), 3);
        assert_eq!(pop.count(i), 0);
    }

    #[test]
    fn group_sizes_projection() {
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        let mut pop = AgentPopulation::new(&p, 6);
        pop.set_state(0, i);
        pop.set_state(1, i);
        assert_eq!(pop.group_sizes(&p), vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn self_interaction_panics() {
        let p = epidemic();
        let mut pop = AgentPopulation::new(&p, 4);
        pop.interact(&p, 1, 1);
    }
}
