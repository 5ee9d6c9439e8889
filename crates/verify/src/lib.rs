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

use pp_engine::protocol::{CompiledProtocol, StateId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// The verifier's series in the process-wide telemetry registry:
///
/// | name                      | kind    | meaning |
/// |---------------------------|---------|---------|
/// | `verify.explorations`     | counter | configuration-space explorations started |
/// | `verify.configs_explored` | counter | configurations discovered (incl. aborted runs) |
/// | `verify.frontier_peak`    | gauge   | max BFS/DFS frontier length seen (high-water) |
/// | `verify.sccs`             | counter | strongly connected components found (by terminal-SCC checks, `max_reachable` and every hitting-time solve) |
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
    /// The population does not fit the graph's `u32` state counts.
    PopulationTooLarge {
        /// The requested population size.
        n: u64,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyConfigs { limit } => {
                write!(f, "more than {limit} reachable configurations")
            }
            ExploreError::PopulationTooLarge { n } => {
                write!(f, "population of {n} agents exceeds u32 counts")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// End of a same-key chain.
const NO_CONFIG: u32 = u32::MAX;

/// The reachable-configuration digraph of `(protocol, n)`.
///
/// Storage is flat. Configuration `i`'s count vector is the `i`-th
/// stride-`|Q|` row of one `Vec<u32>`. Its successors sit in one
/// compressed sparse row array, sorted, each once, with an integer
/// weight: the number of ordered agent pairs, `c_p·(c_q − [p = q])`
/// summed over the pairs `(p, q)` whose rule leads there. Those pairs
/// share one net count change (a *move*), so each successor is one
/// move of the protocol's compiled pair table. Identity rules produce no
/// edge; a non-identity rule that maps a configuration onto itself, such
/// as a swap `(p, q) → (q, p)`, produces a self-edge. A configuration's
/// edge weights plus its identity pairs therefore sum to `n(n − 1)`.
///
/// Every SCC analysis ([`terminal_sccs`](Self::terminal_sccs),
/// [`max_reachable`](Self::max_reachable) and each solve in
/// [`hitting`]) runs one Tarjan pass and adds the components it finds
/// to the `verify.sccs` counter.
pub struct ConfigGraph<'a> {
    // (Debug intentionally omitted: graphs can hold 10^5+ configs; use
    // `num_configs`/`config` for inspection.)
    proto: &'a CompiledProtocol,
    n: u64,
    /// `|Q|`, the row length of `counts`.
    stride: usize,
    /// Row `i` is configuration `i`'s count vector.
    counts: Vec<u32>,
    /// Configuration `i`'s edges are `succ[edges[i].0..edges[i].1]`. Rows
    /// are laid out in expansion order, which is not id order.
    edges: Vec<(usize, usize)>,
    succ: Vec<u32>,
    /// `weight[e]`: ordered agent pairs producing edge `succ[e]`.
    weight: Vec<u64>,
}

/// The fixed per-state key constants `z_s` of [`ConfigGraph`]'s
/// incremental key `Σ c_s·z_s`.
fn key_constants(states: usize) -> Vec<u64> {
    (0..states as u64)
        .map(pp_engine::seeds::splitmix64)
        .collect()
}

fn key_of(cfg: &[u32], z: &[u64]) -> u64 {
    cfg.iter().zip(z).fold(0, |key, (&c, &z)| {
        key.wrapping_add(u64::from(c).wrapping_mul(z))
    })
}

/// Hashes a configuration key as itself. A key is a sum of the
/// splitmix64 outputs [`key_constants`] fixes, mixed already, so SipHash
/// would only mix it again; and since no key comes from outside the
/// program, its guard against crafted collisions buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("configuration keys are hashed as u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// One net move: the count change `d` that one or more non-identity
/// ordered pairs make.
struct Move {
    /// The net count deltas `(s, d_s)`, zeros dropped. A swap rule
    /// `(p, q) → (q, p)` has none.
    deltas: Vec<(usize, i32)>,
    /// `Σ d_s·z_s`: the move's change of the configuration key.
    key_delta: u64,
}

/// A protocol's compiled pairs ([`CompiledProtocol::pair_effects`])
/// grouped into net moves. Pairs with the same net deltas, such as a
/// symmetric rule's two orders or Algorithm 1's rule 3/4 flips through
/// every `g_i` and `d_i`, turn any configuration into the same
/// successor; distinct moves turn it into distinct successors.
struct Moves {
    /// `(p, lo, hi)`: row `p`'s pairs are `pairs[lo..hi]`. Only rows
    /// holding a non-identity pair are listed, in state order.
    rows: Vec<(usize, usize, usize)>,
    /// `(q, m)` for every non-identity pair `(p, q)`, in row-major
    /// order: the second state, and the pair's move as an index into
    /// `moves`.
    pairs: Vec<(usize, usize)>,
    moves: Vec<Move>,
}

impl Moves {
    fn new(proto: &CompiledProtocol, z: &[u64]) -> Self {
        let mut rows: Vec<(usize, usize, usize)> = Vec::new();
        let mut pairs = Vec::with_capacity(proto.pair_effects().len());
        let mut moves: Vec<Move> = Vec::new();
        let mut move_of: HashMap<Vec<(usize, i32)>, usize> = HashMap::new();
        for e in proto.pair_effects() {
            let mut deltas: Vec<(usize, i32)> =
                e.deltas().map(|(s, d)| (s.index(), d as i32)).collect();
            deltas.sort_unstable();
            let m = *move_of.entry(deltas).or_insert_with_key(|deltas| {
                let key_delta = deltas.iter().fold(0u64, |key, &(s, d)| {
                    key.wrapping_add(z[s].wrapping_mul(i64::from(d) as u64))
                });
                moves.push(Move {
                    deltas: deltas.clone(),
                    key_delta,
                });
                moves.len() - 1
            });
            let p = e.p.index();
            match rows.last_mut() {
                Some((row, _, hi)) if *row == p => *hi += 1,
                _ => rows.push((p, pairs.len(), pairs.len() + 1)),
            }
            pairs.push((e.q.index(), m));
        }
        Moves { rows, pairs, moves }
    }
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
        let count = u32::try_from(n).map_err(|_| ExploreError::PopulationTooLarge { n })?;
        let mut init = vec![0u32; proto.num_states()];
        init[proto.initial_state().index()] = count;
        Self::explore_from(proto, init, max_configs)
    }

    /// Explore from an arbitrary starting configuration.
    pub fn explore_from(
        proto: &'a CompiledProtocol,
        start: Vec<u32>,
        max_configs: usize,
    ) -> Result<Self, ExploreError> {
        let z = key_constants(proto.num_states());
        Self::explore_keyed(proto, start, max_configs, &z)
    }

    /// Depth-first exploration with the key constants `z`. Ids are
    /// assigned in discovery order and configurations are expanded in
    /// stack (LIFO) order.
    ///
    /// The candidate successors are the protocol's net moves ([`Moves`]).
    /// Expanding a configuration walks its enabled non-identity pairs in
    /// row-major order and adds each pair's weight to its move; a move's
    /// successor is looked up (and, if new, numbered) once, at the move's
    /// first enabled pair, which is where a pair-by-pair walk first meets
    /// it. So there is one lookup per distinct successor, and ids follow
    /// the order in which the ordered pairs first reach them.
    ///
    /// A configuration is found by its key `Σ c_s·z_s`, which a move
    /// changes by its precomputed `Σ d_s·z_s`. Configurations sharing a
    /// key form a chain (`same_key`), and a candidate matches only on
    /// equal counts, so a key collision costs time but never merges two
    /// configurations.
    fn explore_keyed(
        proto: &'a CompiledProtocol,
        start: Vec<u32>,
        max_configs: usize,
        z: &[u64],
    ) -> Result<Self, ExploreError> {
        let stride = proto.num_states();
        assert_eq!(start.len(), stride);
        let n: u64 = start.iter().map(|&c| u64::from(c)).sum();
        if u32::try_from(n).is_err() {
            return Err(ExploreError::PopulationTooLarge { n });
        }
        let metrics = verify_metrics();
        metrics.explorations.inc();
        let mut index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut same_key: Vec<u32> = vec![NO_CONFIG];
        let mut edges: Vec<(usize, usize)> = vec![(0, 0)];
        let mut succ: Vec<u32> = Vec::new();
        let mut weight: Vec<u64> = Vec::new();
        index.insert(key_of(&start, z), 0);
        let mut counts = start;
        let mut frontier: Vec<u32> = vec![0];
        let mut frontier_peak = frontier.len();
        let Moves { rows, pairs, moves } = Moves::new(proto, z);
        // The configuration being expanded; each move's successor is
        // formed in place and undone after its lookup.
        let mut cfg = vec![0u32; stride];
        // Per move, the weight summed so far; 0 until its first enabled
        // pair.
        let mut pending = vec![0u64; moves.len()];
        // `(successor id, move)` of every move met so far.
        let mut out: Vec<(u32, usize)> = Vec::new();

        while let Some(id) = frontier.pop() {
            let row = id as usize * stride;
            cfg.copy_from_slice(&counts[row..row + stride]);
            let key = key_of(&cfg, z);
            out.clear();
            for &(p, lo, hi) in &rows {
                let cp = cfg[p];
                if cp == 0 {
                    continue;
                }
                for &(q, m) in &pairs[lo..hi] {
                    let partners = cfg[q] - u32::from(p == q);
                    if partners == 0 {
                        continue;
                    }
                    let w = u64::from(cp) * u64::from(partners);
                    if pending[m] > 0 {
                        pending[m] += w;
                        continue;
                    }
                    let mv = &moves[m];
                    let next_key = key.wrapping_add(mv.key_delta);
                    for &(s, d) in &mv.deltas {
                        cfg[s] = cfg[s].wrapping_add_signed(d);
                    }
                    let head = index.get(&next_key).copied();
                    let mut found = head.unwrap_or(NO_CONFIG);
                    while found != NO_CONFIG {
                        let at = found as usize * stride;
                        if counts[at..at + stride] == cfg[..] {
                            break;
                        }
                        found = same_key[found as usize];
                    }
                    let nid = if found != NO_CONFIG {
                        found
                    } else {
                        if same_key.len() >= max_configs {
                            // Account for the aborted run too, so an
                            // export after TooManyConfigs still shows
                            // how far exploration got.
                            metrics.configs_explored.add(same_key.len() as u64);
                            metrics.frontier_peak.set_max(frontier_peak as u64);
                            return Err(ExploreError::TooManyConfigs { limit: max_configs });
                        }
                        let nid = same_key.len() as u32;
                        index.insert(next_key, nid);
                        same_key.push(head.unwrap_or(NO_CONFIG));
                        counts.extend_from_slice(&cfg);
                        edges.push((0, 0));
                        frontier.push(nid);
                        frontier_peak = frontier_peak.max(frontier.len());
                        nid
                    };
                    for &(s, d) in &mv.deltas {
                        cfg[s] = cfg[s].wrapping_add_signed(-d);
                    }
                    out.push((nid, m));
                    pending[m] = w;
                }
            }
            // Distinct moves lead to distinct successors: no id repeats.
            out.sort_unstable_by_key(|&(nid, _)| nid);
            let first = succ.len();
            for &(nid, m) in &out {
                succ.push(nid);
                weight.push(std::mem::take(&mut pending[m]));
            }
            edges[id as usize] = (first, succ.len());
        }
        metrics.configs_explored.add(same_key.len() as u64);
        metrics.frontier_peak.set_max(frontier_peak as u64);
        // Free the lookup state and the growth slack before handing the
        // graph out: it lives on while later phases allocate.
        drop((index, same_key, frontier));
        counts.shrink_to_fit();
        edges.shrink_to_fit();
        succ.shrink_to_fit();
        weight.shrink_to_fit();
        Ok(ConfigGraph {
            proto,
            n,
            stride,
            counts,
            edges,
            succ,
            weight,
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
        self.edges.len()
    }

    /// The count vector of configuration `id`.
    pub fn config(&self, id: u32) -> &[u32] {
        let row = id as usize * self.stride;
        &self.counts[row..row + self.stride]
    }

    /// Successor ids of configuration `id`, sorted.
    pub fn successors(&self, id: u32) -> &[u32] {
        let (lo, hi) = self.edges[id as usize];
        &self.succ[lo..hi]
    }

    /// Edge weights of configuration `id`, parallel to
    /// [`successors`](Self::successors): `weights(id)[i]` ordered agent
    /// pairs turn `id` into `successors(id)[i]`.
    pub fn weights(&self, id: u32) -> &[u64] {
        let (lo, hi) = self.edges[id as usize];
        &self.weight[lo..hi]
    }

    /// Check a predicate over every reachable configuration; returns the
    /// id of the first violating configuration, or `None` if the
    /// invariant holds everywhere.
    pub fn check_invariant<F: FnMut(&[u32]) -> bool>(&self, mut inv: F) -> Option<u32> {
        (0..self.num_configs() as u32).find(|&id| !inv(self.config(id)))
    }

    /// Strongly connected components (Tarjan, iterative), returned as
    /// `(scc_id_of_config, number_of_sccs)`.
    fn sccs(&self) -> (Vec<u32>, usize) {
        let n = self.num_configs();
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
                let out = self.successors(v);
                if *pos < out.len() {
                    let w = out[*pos];
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
        for v in 0..self.num_configs() as u32 {
            for &w in self.successors(v) {
                if scc_of[v as usize] != scc_of[w as usize] {
                    terminal[scc_of[v as usize] as usize] = false;
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); scc_count];
        for v in 0..self.num_configs() as u32 {
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
        (0..self.num_configs() as u32)
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
        for v in 0..self.num_configs() as u32 {
            let s = scc_of[v as usize] as usize;
            best[s] = best[s].max(score(self.config(v)));
        }
        // Tarjan pops an SCC only after every SCC reachable from it, so
        // cross edges always point to strictly smaller SCC ids and one
        // ascending-id pass propagates successor maxima correctly.
        let mut scc_members: Vec<Vec<u32>> = vec![Vec::new(); scc_count];
        for v in 0..self.num_configs() as u32 {
            scc_members[scc_of[v as usize] as usize].push(v);
        }
        for s in 0..scc_count {
            let mut b = best[s];
            for &v in &scc_members[s] {
                for &w in self.successors(v) {
                    let sw = scc_of[w as usize] as usize;
                    if sw != s {
                        debug_assert!(sw < s, "tarjan emission order violated");
                        b = b.max(best[sw]);
                    }
                }
            }
            best[s] = b;
        }
        (0..self.num_configs())
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

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;
    use std::collections::BTreeMap;

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

    /// With every key constant equal, all configurations share one key:
    /// the same-key chains and the exact count comparison alone must
    /// still give the identical graph.
    #[test]
    fn colliding_keys_yield_the_identical_graph() {
        for k in 2..=4 {
            let proto = pp_protocols::kpartition::UniformKPartition::new(k).compile();
            let states = proto.num_states();
            for n in [k as u32 + 1, 9] {
                let mut start = vec![0u32; states];
                start[proto.initial_state().index()] = n;
                let keyed = ConfigGraph::explore_from(&proto, start.clone(), 10_000).unwrap();
                let colliding =
                    ConfigGraph::explore_keyed(&proto, start, 10_000, &vec![7; states]).unwrap();
                assert_eq!(colliding.num_configs(), keyed.num_configs());
                for id in 0..keyed.num_configs() as u32 {
                    assert_eq!(colliding.config(id), keyed.config(id));
                    assert_eq!(colliding.successors(id), keyed.successors(id));
                    assert_eq!(colliding.weights(id), keyed.weights(id));
                }
            }
        }
    }

    /// The successors of `cfg` with their weights, counted agent by
    /// agent: every ordered pair of two distinct agents whose rule is not
    /// the identity adds one to the configuration it leads to.
    fn brute_force_edges(proto: &CompiledProtocol, cfg: &[u32]) -> BTreeMap<Vec<u32>, u64> {
        let agents: Vec<StateId> = proto
            .states()
            .flat_map(|s| std::iter::repeat_n(s, cfg[s.index()] as usize))
            .collect();
        let mut edges = BTreeMap::new();
        for (i, &p) in agents.iter().enumerate() {
            for (j, &q) in agents.iter().enumerate() {
                if i == j || proto.is_identity(p, q) {
                    continue;
                }
                let (p2, q2) = proto.delta(p, q);
                let mut next = cfg.to_vec();
                next[p.index()] -= 1;
                next[q.index()] -= 1;
                next[p2.index()] += 1;
                next[q2.index()] += 1;
                *edges.entry(next).or_default() += 1;
            }
        }
        edges
    }

    /// Every configuration of `g` lists each successor once, with the
    /// weight the agent-by-agent count gives it.
    fn assert_brute_force_edges(g: &ConfigGraph<'_>) {
        for id in 0..g.num_configs() as u32 {
            let edges: BTreeMap<Vec<u32>, u64> = g
                .successors(id)
                .iter()
                .zip(g.weights(id))
                .map(|(&s, &w)| (g.config(s).to_vec(), w))
                .collect();
            assert_eq!(edges.len(), g.successors(id).len(), "config {id}");
            assert_eq!(edges, brute_force_edges(g.protocol(), g.config(id)));
        }
    }

    /// Six ordered pairs make two moves. `(a, x)`, `(b, x)` and their
    /// mirrors all turn an `x` into a `y`; `(a, b)` and `(b, a)` both
    /// turn an `a` and a `b` into two `x`, though their compiled deltas
    /// list the states in different orders. Each move is one edge
    /// carrying its pairs' summed weight.
    #[test]
    fn pairs_sharing_a_net_move_make_one_edge() {
        let mut spec = ProtocolSpec::new("shared-moves");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let x = spec.add_state("x", 1);
        let y = spec.add_state("y", 2);
        spec.set_initial(x);
        spec.add_rule_symmetric(a, x, a, y);
        spec.add_rule_symmetric(b, x, b, y);
        spec.add_rule_symmetric(a, b, x, x);
        let p = spec.compile().unwrap();
        let moves = Moves::new(&p, &key_constants(p.num_states()));
        assert_eq!((moves.pairs.len(), moves.moves.len()), (6, 2));
        let g = ConfigGraph::explore_from(&p, vec![2, 1, 3, 0], 1000).unwrap();
        let succ: Vec<&[u32]> = g.successors(0).iter().map(|&s| g.config(s)).collect();
        assert_eq!(succ, [&[1, 0, 5, 0][..], &[2, 1, 2, 1][..]]);
        // (a, b) and (b, a): 2·1 each; (a, x) and (x, a): 2·3 each;
        // (b, x) and (x, b): 1·3 each.
        assert_eq!(g.weights(0), &[4, 18]);
        assert_brute_force_edges(&g);
    }

    /// `(a, b) → (c, c)` and its mirror `(b, a) → (b, b)` change the
    /// counts differently: two moves, two edges.
    #[test]
    fn a_pair_and_a_mirror_with_other_deltas_make_two_edges() {
        let mut spec = ProtocolSpec::new("split-mirror");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 2);
        spec.set_initial(a);
        spec.add_rule(a, b, c, c);
        spec.add_rule(b, a, b, b);
        let p = spec.compile().unwrap();
        let moves = Moves::new(&p, &key_constants(p.num_states()));
        assert_eq!((moves.pairs.len(), moves.moves.len()), (2, 2));
        let g = ConfigGraph::explore_from(&p, vec![2, 1, 0], 100).unwrap();
        let succ: Vec<&[u32]> = g.successors(0).iter().map(|&s| g.config(s)).collect();
        assert_eq!(succ, [&[1, 0, 2][..], &[1, 2, 0][..]]);
        assert_eq!(g.weights(0), &[2, 2]);
        assert_brute_force_edges(&g);
    }

    /// A swap `(a, b) → (b, a)` changes no count: both orders make one
    /// self-edge of weight `2·c_a·c_b`.
    #[test]
    fn a_swap_rule_makes_a_self_edge() {
        let mut spec = ProtocolSpec::new("swap");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule_symmetric(a, b, b, a);
        spec.add_rule(a, a, b, b);
        let p = spec.compile().unwrap();
        let g = ConfigGraph::explore_from(&p, vec![2, 3], 100).unwrap();
        assert_eq!(g.num_configs(), 2);
        // (a, a) first reaches all-b; the swaps then lead back to 0.
        assert_eq!(g.successors(0), &[0, 1]);
        assert_eq!(g.weights(0), &[2 * 2 * 3, 2]);
        assert_eq!(g.config(1), &[0, 5]);
        assert!(g.successors(1).is_empty());
        assert_brute_force_edges(&g);
    }

    #[test]
    fn population_beyond_u32_is_an_error() {
        let p = epidemic();
        let n = u64::from(u32::MAX) + 1;
        assert_eq!(
            ConfigGraph::explore(&p, n, 10).err(),
            Some(ExploreError::PopulationTooLarge { n })
        );
        // A start whose counts each fit but whose total does not.
        assert_eq!(
            ConfigGraph::explore_from(&p, vec![u32::MAX, 1], 10).err(),
            Some(ExploreError::PopulationTooLarge { n })
        );
    }

    #[test]
    fn to_counts_roundtrip() {
        let p = epidemic();
        let g = ConfigGraph::explore_from(&p, vec![2, 1], 100).unwrap();
        assert_eq!(g.to_counts(0), vec![2, 1]);
        assert_eq!(g.population_size(), 3);
    }
}
