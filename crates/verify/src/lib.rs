//! # pp-verify — exhaustive verification under global fairness
//!
//! Sampling random executions can never *prove* a population protocol
//! correct under global fairness: fairness is a property of infinite
//! schedules. This crate verifies correctness mechanically for concrete
//! `(protocol, n)` instances by exhausting the configuration space.
//!
//! ## The reduction
//!
//! Configurations of an anonymous population on a complete interaction
//! graph are count vectors over `Q` summing to `n`; transitions are the
//! enabled non-identity rule applications. The key semantic fact (see
//! [`ConfigGraph::terminal_sccs`]) is:
//!
//! > Under global fairness, every infinite execution eventually visits
//! > exactly the configurations of one **terminal strongly connected
//! > component** of the reachable-configuration digraph, each infinitely
//! > often.
//!
//! Hence a protocol *stably solves* a partition problem iff every terminal
//! SCC reachable from the initial configuration is **good**: all its
//! configurations satisfy the target predicate, and no transition inside
//! it changes any agent's output group.
//! [`ConfigGraph::verify_stable_partition`] checks exactly this, and
//! [`ConfigGraph::check_invariant`] validates state invariants (such as
//! the paper's Lemma 1) over *every* reachable configuration — the
//! mechanical counterpart of the paper's Theorem 1 and Lemma 1 for small
//! instances.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod hitting;
pub mod oracle;

use pp_engine::population::Population;
use pp_engine::protocol::{CompiledProtocol, StateId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The verifier's series in the process-wide telemetry registry:
///
/// | name                      | kind    | meaning |
/// |---------------------------|---------|---------|
/// | `verify.explorations`     | counter | configuration-space explorations started |
/// | `verify.configs_explored` | counter | configurations discovered (incl. aborted runs) |
/// | `verify.frontier_peak`    | gauge   | max BFS/DFS frontier length seen (high-water) |
/// | `verify.sccs`             | counter | strongly connected components found |
/// | `verify.terminal_sccs`    | counter | of those, terminal |
struct VerifyMetrics {
    explorations: Arc<pp_telemetry::Counter>,
    configs_explored: Arc<pp_telemetry::Counter>,
    frontier_peak: Arc<pp_telemetry::Gauge>,
    sccs: Arc<pp_telemetry::Counter>,
    terminal_sccs: Arc<pp_telemetry::Counter>,
}

fn verify_metrics() -> &'static VerifyMetrics {
    static GLOBAL: OnceLock<VerifyMetrics> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = pp_telemetry::global();
        VerifyMetrics {
            explorations: reg.counter("verify.explorations"),
            configs_explored: reg.counter("verify.configs_explored"),
            frontier_peak: reg.gauge("verify.frontier_peak"),
            sccs: reg.counter("verify.sccs"),
            terminal_sccs: reg.counter("verify.terminal_sccs"),
        }
    })
}

/// Errors during configuration-space exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The reachable space exceeded the supplied configuration budget.
    TooManyConfigs {
        /// The budget that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyConfigs { limit } => {
                write!(f, "more than {limit} reachable configurations")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// The reachable-configuration digraph of `(protocol, n)`.
pub struct ConfigGraph<'a> {
    // (Debug intentionally omitted: graphs can hold 10^5+ configs; use
    // `num_configs`/`config` for inspection.)
    proto: &'a CompiledProtocol,
    n: u64,
    configs: Vec<Box<[u32]>>,
    /// `succs[i]` — successor config ids of config `i`, sorted, deduped.
    succs: Vec<Vec<u32>>,
}

impl<'a> ConfigGraph<'a> {
    /// Explore all configurations reachable from the all-`initial`
    /// configuration of `n` agents, with a budget guard.
    ///
    /// Budget guidance: the whole space has `C(n + |Q| − 1, |Q| − 1)`
    /// configurations; reachable subsets are usually far smaller. The
    /// paper-scale instances used in tests (`k ≤ 4`, `n ≤ 12`) stay under
    /// a few hundred thousand.
    pub fn explore(
        proto: &'a CompiledProtocol,
        n: u64,
        max_configs: usize,
    ) -> Result<Self, ExploreError> {
        let mut init = vec![0u32; proto.num_states()];
        init[proto.initial_state().index()] = u32::try_from(n).expect("n fits in u32");
        Self::explore_from(proto, init, max_configs)
    }

    /// Explore from an arbitrary starting configuration.
    pub fn explore_from(
        proto: &'a CompiledProtocol,
        start: Vec<u32>,
        max_configs: usize,
    ) -> Result<Self, ExploreError> {
        assert_eq!(start.len(), proto.num_states());
        let n = start.iter().map(|&c| u64::from(c)).sum();
        let metrics = verify_metrics();
        metrics.explorations.inc();
        let mut configs: Vec<Box<[u32]>> = Vec::new();
        let mut index: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut succs: Vec<Vec<u32>> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();

        let start: Box<[u32]> = start.into();
        index.insert(start.clone(), 0);
        configs.push(start);
        succs.push(Vec::new());
        frontier.push(0);
        let mut frontier_peak = frontier.len();

        while let Some(id) = frontier.pop() {
            let cfg = configs[id as usize].clone();
            let mut out: Vec<u32> = Vec::new();
            for (pi, &cp) in cfg.iter().enumerate() {
                if cp == 0 {
                    continue;
                }
                let p = StateId(pi as u16);
                for (qi, &cq) in cfg.iter().enumerate() {
                    if cq < if pi == qi { 2 } else { 1 } {
                        continue;
                    }
                    let q = StateId(qi as u16);
                    if proto.is_identity(p, q) {
                        continue;
                    }
                    let (p2, q2) = proto.delta(p, q);
                    let mut next: Box<[u32]> = cfg.clone();
                    next[p.index()] -= 1;
                    next[q.index()] -= 1;
                    next[p2.index()] += 1;
                    next[q2.index()] += 1;
                    let nid = match index.get(&next) {
                        Some(&nid) => nid,
                        None => {
                            if configs.len() >= max_configs {
                                // Account for the aborted run too, so an
                                // export after TooManyConfigs still shows
                                // how far exploration got.
                                metrics.configs_explored.add(configs.len() as u64);
                                metrics.frontier_peak.set_max(frontier_peak as u64);
                                return Err(ExploreError::TooManyConfigs { limit: max_configs });
                            }
                            let nid = configs.len() as u32;
                            index.insert(next.clone(), nid);
                            configs.push(next);
                            succs.push(Vec::new());
                            frontier.push(nid);
                            frontier_peak = frontier_peak.max(frontier.len());
                            nid
                        }
                    };
                    out.push(nid);
                }
            }
            out.sort_unstable();
            out.dedup();
            succs[id as usize] = out;
        }
        metrics.configs_explored.add(configs.len() as u64);
        metrics.frontier_peak.set_max(frontier_peak as u64);
        Ok(ConfigGraph {
            proto,
            n,
            configs,
            succs,
        })
    }

    /// The protocol this graph was built for.
    pub fn protocol(&self) -> &CompiledProtocol {
        self.proto
    }

    /// Population size `n`.
    pub fn population_size(&self) -> u64 {
        self.n
    }

    /// Number of reachable configurations.
    pub fn num_configs(&self) -> usize {
        self.configs.len()
    }

    /// The count vector of configuration `id`.
    pub fn config(&self, id: u32) -> &[u32] {
        &self.configs[id as usize]
    }

    /// Successor ids of configuration `id`.
    pub fn successors(&self, id: u32) -> &[u32] {
        &self.succs[id as usize]
    }

    /// Check a predicate over every reachable configuration; returns the
    /// id of the first violating configuration, or `None` if the
    /// invariant holds everywhere.
    pub fn check_invariant<F: FnMut(&[u32]) -> bool>(&self, mut inv: F) -> Option<u32> {
        (0..self.configs.len() as u32).find(|&id| !inv(self.config(id)))
    }

    /// Strongly connected components (Tarjan, iterative), returned as
    /// `(scc_id_of_config, number_of_sccs)`.
    fn sccs(&self) -> (Vec<u32>, usize) {
        let n = self.configs.len();
        const UNVISITED: u32 = u32::MAX;
        let mut idx = vec![UNVISITED; n]; // discovery index
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![UNVISITED; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut counter: u32 = 0;
        let mut scc_count: usize = 0;
        // Explicit DFS stack: (node, next-successor-position).
        let mut dfs: Vec<(u32, usize)> = Vec::new();

        for root in 0..n as u32 {
            if idx[root as usize] != UNVISITED {
                continue;
            }
            dfs.push((root, 0));
            idx[root as usize] = counter;
            low[root as usize] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
                if *pos < self.succs[v as usize].len() {
                    let w = self.succs[v as usize][*pos];
                    *pos += 1;
                    if idx[w as usize] == UNVISITED {
                        idx[w as usize] = counter;
                        low[w as usize] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        dfs.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(idx[w as usize]);
                    }
                } else {
                    dfs.pop();
                    if let Some(&mut (parent, _)) = dfs.last_mut() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == idx[v as usize] {
                        // v roots an SCC: pop it.
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            scc_of[w as usize] = scc_count as u32;
                            if w == v {
                                break;
                            }
                        }
                        scc_count += 1;
                    }
                }
            }
        }
        verify_metrics().sccs.add(scc_count as u64);
        (scc_of, scc_count)
    }

    /// The terminal SCCs (no edge leaving the component), as lists of
    /// configuration ids.
    ///
    /// **Semantics.** Under global fairness every infinite execution ends
    /// up in one terminal SCC: in a finite graph some configuration `C`
    /// recurs infinitely often; global fairness then forces every
    /// configuration reachable from `C` to recur infinitely often, so the
    /// infinitely-recurring set is successor-closed; configurations
    /// outside it stop occurring after finitely many steps, so the
    /// execution's tail walks inside the set, and mutual reachability
    /// within the tail makes it strongly connected — i.e. a terminal SCC.
    /// Conversely, for every terminal SCC there are globally fair
    /// executions settling in it. A property therefore holds for *all*
    /// globally fair executions iff it holds for all terminal SCCs.
    pub fn terminal_sccs(&self) -> Vec<Vec<u32>> {
        let (scc_of, scc_count) = self.sccs();
        let mut terminal = vec![true; scc_count];
        for (v, out) in self.succs.iter().enumerate() {
            for &w in out {
                if scc_of[v] != scc_of[w as usize] {
                    terminal[scc_of[v] as usize] = false;
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); scc_count];
        for v in 0..self.configs.len() as u32 {
            let s = scc_of[v as usize];
            if terminal[s as usize] {
                groups[s as usize].push(v);
            }
        }
        groups.retain(|g| !g.is_empty());
        verify_metrics().terminal_sccs.add(groups.len() as u64);
        groups
    }

    /// Verify that the protocol stably solves a partition problem: every
    /// terminal SCC must (a) consist of configurations whose group counts
    /// satisfy `good_groups`, and (b) contain no transition that changes
    /// the group of a participating agent (so each agent's output is
    /// constant on the execution's tail).
    pub fn verify_stable_partition<F>(&self, mut good_groups: F) -> VerifyReport
    where
        F: FnMut(&[u64]) -> bool,
    {
        let terminals = self.terminal_sccs();
        let mut report = VerifyReport {
            num_configs: self.num_configs(),
            num_terminal_sccs: terminals.len(),
            failure: None,
        };
        for scc in &terminals {
            for &id in scc {
                let cfg = self.config(id);
                let groups = self.group_sizes(cfg);
                if !good_groups(&groups) {
                    report.failure = Some(VerifyFailure::BadGroupSizes { config: id, groups });
                    return report;
                }
                // Any transition enabled in a terminal-SCC configuration
                // stays in the SCC; it must not move an agent's group.
                for (pi, &cp) in cfg.iter().enumerate() {
                    if cp == 0 {
                        continue;
                    }
                    let p = StateId(pi as u16);
                    for (qi, &cq) in cfg.iter().enumerate() {
                        if cq < if pi == qi { 2 } else { 1 } {
                            continue;
                        }
                        let q = StateId(qi as u16);
                        if self.proto.is_group_changing(p, q) {
                            report.failure =
                                Some(VerifyFailure::GroupChangeInTail { config: id, p, q });
                            return report;
                        }
                    }
                }
            }
        }
        report
    }

    /// Group-size vector (1-based groups at index `g − 1`) of a
    /// configuration.
    pub fn group_sizes(&self, cfg: &[u32]) -> Vec<u64> {
        let mut sizes = vec![0u64; self.proto.num_groups()];
        for (si, &c) in cfg.iter().enumerate() {
            sizes[self.proto.group_of(StateId(si as u16)).number() - 1] += u64::from(c);
        }
        sizes
    }

    /// Ids of configurations satisfying a predicate.
    pub fn matching_configs<F: FnMut(&[u32]) -> bool>(&self, mut pred: F) -> Vec<u32> {
        (0..self.configs.len() as u32)
            .filter(|&id| pred(self.config(id)))
            .collect()
    }

    /// Convert a configuration into the engine's `u64` count form.
    pub fn to_counts(&self, id: u32) -> Vec<u64> {
        self.config(id).iter().map(|&c| u64::from(c)).collect()
    }

    /// For every configuration, the maximum value of `score` over all
    /// configurations reachable from it (including itself) — computed in
    /// O(V + E) by dynamic programming over the SCC condensation in
    /// reverse topological order.
    ///
    /// This turns the paper's progress lemmas into mechanical checks:
    /// Lemma 2/3 state that from any configuration with
    /// `n − k·#g_k ≥ k`, a configuration with one more `g_k` agent is
    /// reachable — i.e. `max_reachable(#g_k)` exceeds the local `#g_k`
    /// everywhere except where the partition is already complete.
    pub fn max_reachable<F>(&self, mut score: F) -> Vec<u64>
    where
        F: FnMut(&[u32]) -> u64,
    {
        let (scc_of, scc_count) = self.sccs();
        // Tarjan emits SCCs in reverse topological order (an SCC is
        // completed only after everything reachable from it), so
        // scc id 0, 1, … is already a valid processing order.
        let mut best = vec![0u64; scc_count];
        for v in 0..self.configs.len() as u32 {
            let s = scc_of[v as usize] as usize;
            best[s] = best[s].max(score(self.config(v)));
        }
        // Tarjan pops an SCC only after every SCC reachable from it, so
        // cross edges always point to strictly smaller SCC ids and one
        // ascending-id pass propagates successor maxima correctly.
        let mut scc_members: Vec<Vec<u32>> = vec![Vec::new(); scc_count];
        for v in 0..self.configs.len() as u32 {
            scc_members[scc_of[v as usize] as usize].push(v);
        }
        for s in 0..scc_count {
            let mut b = best[s];
            for &v in &scc_members[s] {
                for &w in &self.succs[v as usize] {
                    let sw = scc_of[w as usize] as usize;
                    if sw != s {
                        debug_assert!(sw < s, "tarjan emission order violated");
                        b = b.max(best[sw]);
                    }
                }
            }
            best[s] = b;
        }
        (0..self.configs.len())
            .map(|v| best[scc_of[v] as usize])
            .collect()
    }

    /// Length of the *shortest* interaction sequence from the root
    /// configuration to one satisfying `stable` — the stabilisation time
    /// under an optimal (omniscient) scheduler, i.e. the best case global
    /// fairness must eventually realise. `None` if no stable
    /// configuration is reachable.
    ///
    /// The gap between this and [`crate::hitting::expected_interactions`]
    /// quantifies what the *uniform random* scheduler costs relative to
    /// the constructive schedules in the paper's Lemmas 2–3.
    pub fn min_interactions_to<F>(&self, mut stable: F) -> Option<u64>
    where
        F: FnMut(&[u32]) -> bool,
    {
        let mut dist: Vec<u64> = vec![u64::MAX; self.num_configs()];
        let mut queue = std::collections::VecDeque::new();
        dist[0] = 0;
        queue.push_back(0u32);
        if stable(self.config(0)) {
            return Some(0);
        }
        while let Some(v) = queue.pop_front() {
            for &w in self.successors(v) {
                if dist[w as usize] == u64::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    if stable(self.config(w)) {
                        return Some(dist[w as usize]);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// Render the configuration graph as GraphViz DOT, highlighting
    /// configurations in terminal SCCs. Practical for graphs up to a few
    /// hundred configurations (render with `dot -Tsvg`).
    pub fn to_dot(&self, name: &str) -> String {
        let labels: Vec<String> = (0..self.num_configs() as u32)
            .map(|id| pp_engine::trace::counts_pretty(self.proto, &self.to_counts(id)))
            .collect();
        let mut edges = Vec::new();
        for v in 0..self.num_configs() as u32 {
            for &w in self.successors(v) {
                edges.push((v, w));
            }
        }
        let mut stable = vec![false; self.num_configs()];
        for scc in self.terminal_sccs() {
            for id in scc {
                stable[id as usize] = true;
            }
        }
        pp_engine::dot::config_graph_dot(name, &labels, &edges, &stable)
    }
}

/// Why a stable-partition verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyFailure {
    /// A terminal-SCC configuration has wrong group sizes.
    BadGroupSizes {
        /// Offending configuration id.
        config: u32,
        /// Its group-size vector.
        groups: Vec<u64>,
    },
    /// A transition enabled on the execution's tail changes a group.
    GroupChangeInTail {
        /// Offending configuration id.
        config: u32,
        /// First state of the offending pair.
        p: StateId,
        /// Second state of the offending pair.
        q: StateId,
    },
}

/// Result of [`ConfigGraph::verify_stable_partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total reachable configurations explored.
    pub num_configs: usize,
    /// Number of terminal SCCs found.
    pub num_terminal_sccs: usize,
    /// `None` iff verification succeeded.
    pub failure: Option<VerifyFailure>,
}

impl VerifyReport {
    /// Whether the protocol was verified correct on this instance.
    pub fn verified(&self) -> bool {
        self.failure.is_none()
    }
}

/// Convenience: verify a protocol against an expected stable group-size
/// vector (order-sensitive, as in the paper's Lemma 6).
pub fn verify_partition_sizes(
    proto: &CompiledProtocol,
    n: u64,
    expected: &[u64],
    max_configs: usize,
) -> Result<VerifyReport, ExploreError> {
    let graph = ConfigGraph::explore(proto, n, max_configs)?;
    Ok(graph.verify_stable_partition(|groups| groups == expected))
}

/// Sanity cross-check between the simulator and the model checker:
/// whether a count population's configuration appears in the graph.
pub fn contains_population(
    graph: &ConfigGraph<'_>,
    pop: &pp_engine::population::CountPopulation,
) -> bool {
    let as_u32: Vec<u32> = pop.counts().iter().map(|&c| c as u32).collect();
    !graph
        .matching_configs(|cfg| cfg == as_u32.as_slice())
        .is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    /// Epidemic from all-S: nothing is reachable (no infected agent), so
    /// the space is the single initial configuration, which is terminal.
    #[test]
    fn epidemic_from_all_susceptible_is_inert() {
        let p = epidemic();
        let g = ConfigGraph::explore(&p, 5, 1000).unwrap();
        assert_eq!(g.num_configs(), 1);
        let t = g.terminal_sccs();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], vec![0]);
    }

    #[test]
    fn epidemic_from_one_infected_reaches_all_infection_levels() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![4, 1], 1000).unwrap();
        // Configurations: (4,1), (3,2), (2,3), (1,4), (0,5).
        assert_eq!(g.num_configs(), 5);
        let t = g.terminal_sccs();
        assert_eq!(t.len(), 1);
        assert_eq!(g.config(t[0][0]), &[0, 5]);
        // All-infected is the unique stable outcome.
        let report = g.verify_stable_partition(|groups| groups == [0, 5]);
        assert!(report.verified(), "{report:?}");
        // A wrong target is rejected.
        let report = g.verify_stable_partition(|groups| groups == [1, 4]);
        assert!(!report.verified());
    }

    #[test]
    fn invariant_checking_reports_violations() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![4, 1], 1000).unwrap();
        // Total population is invariant.
        assert_eq!(g.check_invariant(|c| c[0] + c[1] == 5), None);
        // "Never more than 3 infected" is violated somewhere.
        assert!(g.check_invariant(|c| c[1] <= 3).is_some());
    }

    /// A flip cycle forms one terminal SCC of two configurations.
    #[test]
    fn flip_cycle_is_single_terminal_scc() {
        let mut spec = ProtocolSpec::new("flip");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, a, a);
        let p = spec.compile().unwrap();
        let g = ConfigGraph::explore(&p, 2, 100).unwrap();
        assert_eq!(g.num_configs(), 2);
        let t = g.terminal_sccs();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].len(), 2);
        // Both states are group 1, so the partition {2} is stable.
        let report = g.verify_stable_partition(|groups| groups == [2]);
        assert!(report.verified());
    }

    /// Group-changing flip cycles must be caught by condition (b).
    #[test]
    fn group_changing_tail_is_rejected() {
        let mut spec = ProtocolSpec::new("badflip");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2); // different group!
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, a, a);
        let p = spec.compile().unwrap();
        let g = ConfigGraph::explore(&p, 2, 100).unwrap();
        let report = g.verify_stable_partition(|_| true);
        assert!(matches!(
            report.failure,
            Some(VerifyFailure::GroupChangeInTail { .. })
        ));
    }

    #[test]
    fn budget_guard_fires() {
        let p = epidemic();
        let err = match ConfigGraph::explore_from(&p, vec![50, 1], 3) {
            Err(e) => e,
            Ok(_) => panic!("expected budget error"),
        };
        assert_eq!(err, ExploreError::TooManyConfigs { limit: 3 });
    }

    #[test]
    fn multiple_terminal_sccs_detected() {
        // Two distinct sinks reachable from 4 agents:
        // (a,a) -> (b,b) and (a,b) -> (c,c). From (2,2,0) the execution
        // can go to the sink (0,4,0) via (a,a), or via (a,b) twice to the
        // sink (0,0,4).
        let mut spec = ProtocolSpec::new("forks");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 1);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule_symmetric(a, b, c, c);
        let p = spec.compile().unwrap();
        let g = ConfigGraph::explore(&p, 4, 1000).unwrap();
        let t = g.terminal_sccs();
        assert!(t.len() >= 2, "{t:?}");
        for scc in &t {
            assert_eq!(scc.len(), 1);
            assert!(g.successors(scc[0]).is_empty());
        }
        let _ = c;
    }

    #[test]
    fn max_reachable_propagates_through_sccs() {
        // Flip loop (a <-> b) that can escape to an absorbing c:
        // (a,a)->(b,b), (b,b)->(a,a), (a,c)->(c,c).
        let mut spec = ProtocolSpec::new("escape");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, a, a);
        spec.add_rule_symmetric(a, c, c, c);
        let p = spec.compile().unwrap();
        let g = ConfigGraph::explore_from(&p, vec![2, 0, 1], 100).unwrap();
        // Score = number of c agents; every configuration can reach all-c.
        let best = g.max_reachable(|cfg| u64::from(cfg[2]));
        assert!(best.iter().all(|&x| x == 3), "{best:?}");
        // Score = number of b agents: only configurations that still hold
        // two free (a/b) agents can reach b = 2; once an agent has been
        // absorbed by c the flip pair is gone forever.
        let best_b = g.max_reachable(|cfg| u64::from(cfg[1]));
        for id in 0..g.num_configs() as u32 {
            let cfg = g.config(id);
            let expect = if cfg[0] + cfg[1] >= 2 { 2 } else { 0 };
            assert_eq!(best_b[id as usize], expect, "config {cfg:?}");
        }
    }

    #[test]
    fn min_interactions_bfs() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![4, 1], 1000).unwrap();
        // Infections are forced one per effective interaction: 4 needed.
        assert_eq!(g.min_interactions_to(|c| c[0] == 0), Some(4));
        assert_eq!(g.min_interactions_to(|c| c[1] >= 2), Some(1));
        assert_eq!(g.min_interactions_to(|c| c[1] == 1), Some(0)); // start
        assert_eq!(g.min_interactions_to(|c| c[0] == 9), None); // impossible
    }

    #[test]
    fn dot_export_highlights_terminals() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![2, 1], 100).unwrap();
        let dot = g.to_dot("epidemic3");
        assert!(dot.contains("digraph \"epidemic3\""));
        // The all-infected sink is highlighted.
        assert!(dot.contains("I×3"));
        assert!(dot.contains("lightgreen"));
        // Three configurations, two infection edges.
        assert_eq!(dot.matches("->").count(), 2);
    }

    #[test]
    fn to_counts_roundtrip() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![2, 1], 100).unwrap();
        assert_eq!(g.to_counts(0), vec![2, 1]);
        assert_eq!(g.population_size(), 3);
    }
}
