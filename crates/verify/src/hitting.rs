//! Exact expected stabilisation times.
//!
//! Under the uniform random scheduler, an execution is a Markov chain on
//! the configuration space: from configuration `c` with `n` agents, the
//! ordered state pair `(p, q)` is drawn with probability
//! `c_p · (c_q − [p = q]) / (n(n − 1))`. The paper *simulates* this chain
//! and reports sample means; for small instances we can instead solve the
//! first-step equations exactly:
//!
//! ```text
//! T(c) = 0                                   if c is stable
//! T(c) = 1 + Σ_{c'} P(c → c') · T(c')        otherwise
//! ```
//!
//! where identity interactions contribute a self-loop `P(c → c)`. The
//! graph's integer edge weights `w` (ordered agent pairs per edge) give
//! the same equations with the self-loop factored out analytically:
//!
//! ```text
//! T(c) = (n(n − 1) + Σ_{c' ≠ c} w(c → c') · T(c')) / Σ_{c' ≠ c} w(c → c')
//! ```
//!
//! **Solve order.** The solver works through the strongly connected
//! components of the configuration graph in the order Tarjan's algorithm
//! emits them, sinks first, so every edge that leaves a block points to a
//! block already solved. A single-configuration block needs one update
//! (its self-edges are factored out). A larger block runs Gauss–Seidel
//! passes, visiting its configurations in order of backward-BFS distance
//! to the stable set (the same BFS proves the stable set reachable).
//! Once the contraction between passes has settled, the block jumps to
//! the limit of its slowest mode (Aitken extrapolation, at most once per
//! tenfold drop of the update). It stops once a pass moves no value by
//! `tolerance` (relative) and the error left, estimated from the last
//! update and the contraction, is below `tolerance` divided by the number
//! of such blocks, since the errors of the blocks on a path add up. A
//! whole-graph Gauss–Seidel loop over every non-stable configuration then
//! runs until one full sweep moves no value by `tolerance`: that is the
//! stopping rule [`SolverOptions`] documents. [`HittingTime::sweeps`]
//! counts the slowest block's passes plus the whole-graph sweeps, so an
//! all-stable graph takes one sweep. The graph's SCC pass runs once per
//! solve and counts into `verify.sccs`.
//!
//! This gives an *exact* (up to solver tolerance) reference value for the
//! paper's §5 metric, against which the simulation harness is
//! cross-validated in `exact_vs_sim` and the test suite.

use crate::ConfigGraph;
use std::collections::VecDeque;
use std::ops::Range;

/// Result of an exact hitting-time computation.
#[derive(Clone, Debug)]
pub struct HittingTime {
    /// Expected interactions from the all-`initial` configuration to the
    /// first stable configuration.
    pub expected_from_initial: f64,
    /// Expected interactions from every configuration (indexed by
    /// configuration id; 0 for stable configurations).
    pub expected: Vec<f64>,
    /// Gauss–Seidel passes: the slowest SCC block's plus the whole-graph
    /// sweeps (see the [module docs](self)).
    pub sweeps: usize,
    /// Final maximum relative update (convergence residual).
    pub residual: f64,
}

/// First two moments of the hitting time, from the initial configuration.
///
/// The second moment satisfies its own first-step equations
/// `M₂(c) = Σ P(c→c')·E[(1 + T_{c'})²] = 1 + 2·Σ P·T(c') + Σ P·M₂(c')`,
/// solved by the same block-ordered Gauss–Seidel once `T` is known. The
/// standard deviation lets `exact_vs_sim` check the simulator's *spread*,
/// not just its mean.
#[derive(Clone, Debug)]
pub struct HittingMoments {
    /// `E[T]` from the initial configuration.
    pub mean: f64,
    /// Standard deviation of T from the initial configuration.
    pub std_dev: f64,
}

/// Errors from the hitting-time solver.
#[derive(Debug, Clone, PartialEq)]
pub enum HittingError {
    /// No configuration satisfies the stable predicate: the expectation
    /// is infinite.
    NoStableConfigs,
    /// Some configuration cannot reach the stable set (the expectation
    /// from it — and possibly from the initial configuration — is
    /// infinite). Carries one such configuration id.
    StableSetUnreachable(u32),
    /// The sweep budget was exhausted before reaching the tolerance.
    NotConverged {
        /// Residual at the last sweep.
        residual: f64,
    },
    /// Fewer than two agents: no interaction can ever happen, so the
    /// scheduler is undefined.
    TooFewAgents {
        /// The graph's population size.
        n: u64,
    },
}

impl HittingError {
    /// A stable snake-case name for the variant, for machine-readable
    /// reports (e.g. `BENCH_verify.json`'s `gap_omitted`).
    pub fn kind(&self) -> &'static str {
        match self {
            HittingError::NoStableConfigs => "no_stable_configs",
            HittingError::StableSetUnreachable(_) => "stable_set_unreachable",
            HittingError::NotConverged { .. } => "not_converged",
            HittingError::TooFewAgents { .. } => "too_few_agents",
        }
    }
}

impl std::fmt::Display for HittingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HittingError::NoStableConfigs => write!(f, "no stable configurations reachable"),
            HittingError::StableSetUnreachable(id) => {
                write!(f, "configuration {id} cannot reach the stable set")
            }
            HittingError::NotConverged { residual } => {
                write!(f, "solver did not converge (residual {residual:e})")
            }
            HittingError::TooFewAgents { n } => {
                write!(f, "hitting times need at least two agents, got {n}")
            }
        }
    }
}

impl std::error::Error for HittingError {}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Stop when the maximum relative update falls below this.
    pub tolerance: f64,
    /// Maximum Gauss–Seidel sweeps.
    pub max_sweeps: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-10,
            max_sweeps: 200_000,
        }
    }
}

/// Expected interactions from the graph's root configuration (index 0,
/// the all-`initial` one) until the first configuration satisfying
/// `stable`, under the uniform random scheduler.
pub fn expected_interactions<F>(
    graph: &ConfigGraph<'_>,
    stable: F,
    opts: SolverOptions,
) -> Result<HittingTime, HittingError>
where
    F: FnMut(&[u32]) -> bool,
{
    let chain = Chain::new(graph, stable)?;
    let pairs = chain.pairs;
    let solved = chain.solve(|_| pairs, opts)?;
    let expected = chain.by_id(&solved.x);
    Ok(HittingTime {
        expected_from_initial: expected[0],
        expected,
        sweeps: solved.sweeps,
        residual: solved.residual,
    })
}

/// Compute the exact mean *and standard deviation* of the hitting time
/// from the initial configuration.
pub fn hitting_moments<F>(
    graph: &ConfigGraph<'_>,
    stable: F,
    opts: SolverOptions,
) -> Result<HittingMoments, HittingError>
where
    F: FnMut(&[u32]) -> bool,
{
    let chain = Chain::new(graph, stable)?;
    let pairs = chain.pairs;
    let t = chain.solve(|_| pairs, opts)?.x;
    // Second moment, in pair weights: W_out(c)·M2(c) = n(n − 1)
    //   + Σ_{c'≠c} w·(2·T(c') + M2(c')) + 2·W_self(c)·T(c),
    // with W_self = n(n − 1) − W_out the identity and self-edge pairs —
    // E[(1 + T_next)²] expanded, the self-loop term moved to the left
    // (T(c) appears because a self-loop re-enters c).
    let rhs: Vec<f64> = (0..t.len())
        .map(|i| {
            let (to, w) = chain.edges(i);
            let others: f64 = to.iter().zip(w).map(|(&j, &w)| w * t[j as usize]).sum();
            pairs + 2.0 * others + 2.0 * (pairs - chain.leave[i]) * t[i]
        })
        .collect();
    let m2 = chain.solve(|i| rhs[i], opts)?.x;
    let (mean, second) = match chain.root {
        Some(root) => (t[root], m2[root]),
        None => (0.0, 0.0),
    };
    let var = (second - mean * mean).max(0.0);
    Ok(HittingMoments {
        mean,
        std_dev: var.sqrt(),
    })
}

/// The absorbing chain the solver iterates: the non-stable
/// configurations, renumbered in solve order, with their edges to each
/// other as `f64` weights read off the graph. Edges into the stable set
/// (where `T = 0`) count only towards `leave`.
struct Chain {
    /// `n(n − 1)`: every configuration's total pair weight.
    pairs: f64,
    /// Graph id per solve index: SCC blocks, sinks first, each block in
    /// backward-BFS order from the stable set.
    order: Vec<u32>,
    /// Solve-index range of each SCC block.
    blocks: Vec<Range<usize>>,
    /// Solve index of the graph's root, if it is not stable.
    root: Option<usize>,
    /// Graph size, for [`Chain::by_id`].
    num_configs: usize,
    /// Solve index `i`'s edges are `to[start[i]..start[i + 1]]`, weighted
    /// by the same range of `w`.
    start: Vec<usize>,
    to: Vec<u32>,
    w: Vec<f64>,
    /// Weight of the edges leaving each configuration for another one.
    leave: Vec<f64>,
}

/// A solved linear system, indexed by solve index, and its sweep count.
struct Solved {
    x: Vec<f64>,
    sweeps: usize,
    residual: f64,
}

impl Chain {
    fn new<F>(graph: &ConfigGraph<'_>, mut stable: F) -> Result<Self, HittingError>
    where
        F: FnMut(&[u32]) -> bool,
    {
        let n = graph.population_size();
        if n < 2 {
            return Err(HittingError::TooFewAgents { n });
        }
        let num = graph.num_configs();
        let is_stable: Vec<bool> = (0..num as u32).map(|id| stable(graph.config(id))).collect();
        if !is_stable.iter().any(|&s| s) {
            return Err(HittingError::NoStableConfigs);
        }

        // Backward BFS from the stable set over the predecessor lists
        // (CSR, self-edges dropped): proves every configuration can reach
        // it (otherwise its expectation is infinite and Gauss–Seidel
        // would diverge silently), and yields the in-block update order.
        let mut pred_start = vec![0usize; num + 1];
        for v in 0..num as u32 {
            for &s in graph.successors(v) {
                if s != v {
                    pred_start[s as usize + 1] += 1;
                }
            }
        }
        for i in 0..num {
            pred_start[i + 1] += pred_start[i];
        }
        let mut fill = pred_start.clone();
        let mut preds = vec![0u32; pred_start[num]];
        for v in 0..num as u32 {
            for &s in graph.successors(v) {
                if s != v {
                    preds[fill[s as usize]] = v;
                    fill[s as usize] += 1;
                }
            }
        }
        let mut reached = is_stable.clone();
        let mut queue: VecDeque<u32> = (0..num as u32).filter(|&v| is_stable[v as usize]).collect();
        let mut bfs: Vec<u32> = Vec::with_capacity(num);
        while let Some(v) = queue.pop_front() {
            bfs.push(v);
            for &p in &preds[pred_start[v as usize]..pred_start[v as usize + 1]] {
                if !reached[p as usize] {
                    reached[p as usize] = true;
                    queue.push_back(p);
                }
            }
        }
        if let Some(bad) = reached.iter().position(|&r| !r) {
            return Err(HittingError::StableSetUnreachable(bad as u32));
        }

        // Group the non-stable configurations by SCC; the stable sort
        // keeps BFS order inside each group. Tarjan numbers SCCs in
        // emission order, sinks first, so an edge leaving a block points
        // into a block sorted before it.
        let (scc_of, _) = graph.sccs();
        let mut order: Vec<u32> = bfs
            .into_iter()
            .filter(|&v| !is_stable[v as usize])
            .collect();
        order.sort_by_key(|&v| scc_of[v as usize]);
        let mut blocks = Vec::new();
        let mut begin = 0;
        for end in 1..=order.len() {
            if end == order.len() || scc_of[order[end] as usize] != scc_of[order[begin] as usize] {
                blocks.push(begin..end);
                begin = end;
            }
        }

        let mut index = vec![u32::MAX; num];
        for (i, &v) in order.iter().enumerate() {
            index[v as usize] = i as u32;
        }
        let mut start = Vec::with_capacity(order.len() + 1);
        start.push(0);
        let (mut to, mut w) = (Vec::new(), Vec::new());
        let mut leave = Vec::with_capacity(order.len());
        for &v in &order {
            let mut out = 0.0;
            for (&s, &weight) in graph.successors(v).iter().zip(graph.weights(v)) {
                if s == v {
                    continue;
                }
                let weight = weight as f64;
                out += weight;
                if !is_stable[s as usize] {
                    to.push(index[s as usize]);
                    w.push(weight);
                }
            }
            leave.push(out);
            start.push(to.len());
        }
        Ok(Chain {
            pairs: (n * (n - 1)) as f64,
            root: (!is_stable[0]).then(|| index[0] as usize),
            order,
            blocks,
            num_configs: num,
            start,
            to,
            w,
            leave,
        })
    }

    /// Solve index `i`'s edges: target solve indices and weights.
    fn edges(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.start[i]..self.start[i + 1];
        (&self.to[range.clone()], &self.w[range])
    }

    /// Values per graph id, 0 on stable configurations.
    fn by_id(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_configs];
        for (&v, &value) in self.order.iter().zip(x) {
            out[v as usize] = value;
        }
        out
    }

    /// Gauss–Seidel update of solve index `i`; returns its relative change.
    fn update(&self, i: usize, rhs: f64, x: &mut [f64]) -> f64 {
        let (to, w) = self.edges(i);
        let mut sum = rhs;
        for (&j, &w) in to.iter().zip(w) {
            sum += w * x[j as usize];
        }
        let new = sum / self.leave[i];
        let delta = (new - x[i]).abs() / new.max(1.0);
        x[i] = new;
        delta
    }

    /// Solve `leave(c)·x(c) = rhs(c) + Σ_{c'≠c} w·x(c')` over the
    /// non-stable configurations (`x = 0` on stable ones): block by block,
    /// then whole-graph sweeps until one moves no value by `tolerance`.
    fn solve<R: Fn(usize) -> f64>(
        &self,
        rhs: R,
        opts: SolverOptions,
    ) -> Result<Solved, HittingError> {
        let mut x = vec![0.0f64; self.order.len()];
        // Each pass's change per configuration, for extrapolation.
        let mut step = vec![0.0f64; self.order.len()];
        let mut block_sweeps = 0;
        // Each block's error reaches the blocks upstream of it, so the
        // errors of the cyclic blocks on a path add up: give each a share.
        let cyclic = self.blocks.iter().filter(|block| block.len() > 1).count();
        let target = opts.tolerance / cyclic.max(1) as f64;
        for block in &self.blocks {
            if block.len() == 1 {
                // No edge inside a one-configuration block (self-edges
                // are factored out), so one update is final.
                self.update(block.start, rhs(block.start), &mut x);
                block_sweeps = block_sweeps.max(1);
                continue;
            }
            let mut passes = 0;
            // The previous pass's residual and contraction; `None` after
            // the start and after an extrapolation.
            let (mut last, mut last_rho): (Option<f64>, Option<f64>) = (None, None);
            let mut extrapolated_at = f64::INFINITY;
            loop {
                passes += 1;
                let mut residual = 0.0f64;
                for i in block.clone() {
                    let before = x[i];
                    residual = residual.max(self.update(i, rhs(i), &mut x));
                    step[i] = x[i] - before;
                }
                if residual == 0.0 {
                    // An exact fixed point (extrapolation can land on one).
                    break;
                }
                let rho = last.map(|last| residual / last);
                // With the observed contraction `rho` per pass, the
                // remaining error is about residual·rho/(1 − rho): stop
                // when that, not only the last update, is below target.
                if rho.is_some_and(|rho| {
                    residual < opts.tolerance && rho < 1.0 && residual * rho < target * (1.0 - rho)
                }) {
                    break;
                }
                if passes >= opts.max_sweeps {
                    return Err(HittingError::NotConverged { residual });
                }
                // Once `rho` has settled, the error is mostly the slowest
                // mode, which shrinks by `rho` per pass along the last
                // step: jump to its limit (Aitken extrapolation). Only
                // after a tenfold drop of the residual since the last jump,
                // so a poor jump cannot stall convergence.
                match (rho, last_rho) {
                    (Some(rho), Some(prev))
                        if rho < 1.0
                            && (rho - prev).abs() < 0.01 * (1.0 - rho)
                            && residual < 0.1 * extrapolated_at =>
                    {
                        let f = rho / (1.0 - rho);
                        for i in block.clone() {
                            x[i] += f * step[i];
                        }
                        extrapolated_at = residual;
                        (last, last_rho) = (None, None);
                    }
                    _ => (last, last_rho) = (Some(residual), rho),
                }
            }
            block_sweeps = block_sweeps.max(passes);
        }
        let mut sweeps = block_sweeps;
        let mut residual = f64::INFINITY;
        while sweeps < opts.max_sweeps {
            sweeps += 1;
            residual = 0.0;
            for i in 0..x.len() {
                residual = residual.max(self.update(i, rhs(i), &mut x));
            }
            if residual < opts.tolerance {
                return Ok(Solved {
                    x,
                    sweeps,
                    residual,
                });
            }
        }
        Err(HittingError::NotConverged { residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;

    /// Two-agent pairing: (a, a) -> (b, b). From n agents in `a`, each
    /// interaction is an (a, a) meeting with probability 1 while ≥ 2 a's
    /// remain… actually every pair *is* (a, a) until fewer than two
    /// remain, so the hitting time to all-paired is exactly ⌊n/2⌋ when
    /// only (a, a) pairs are non-null — but (a, b) null interactions also
    /// consume steps. Compute the closed form for n = 3 and check.
    #[test]
    fn closed_form_three_agents() {
        let mut spec = ProtocolSpec::new("pairing");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore(&proto, 3, 100).unwrap();
        // Configurations: (3,0) -> (1,2) -> stuck at (1,2) since only one
        // `a` remains. Stable predicate: fewer than two a's.
        let ht = expected_interactions(&graph, |cfg| cfg[0] < 2, SolverOptions::default()).unwrap();
        // From (3,0): P(pick an (a,a) ordered pair) = 3·2/(3·2) = 1, so
        // exactly one interaction.
        assert!((ht.expected_from_initial - 1.0).abs() < 1e-9);
    }

    /// n = 4: from (4,0), the first interaction always pairs two agents
    /// -> (2,2). From (2,2): P((a,a)) = 2·1/12 = 1/6, other pairs null.
    /// E = 1 + 6 = 7.
    #[test]
    fn closed_form_four_agents() {
        let mut spec = ProtocolSpec::new("pairing");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore(&proto, 4, 100).unwrap();
        let ht = expected_interactions(&graph, |cfg| cfg[0] < 2, SolverOptions::default()).unwrap();
        assert!(
            (ht.expected_from_initial - 7.0).abs() < 1e-8,
            "got {}",
            ht.expected_from_initial
        );
    }

    /// Epidemic with one seed on n agents: classic coupon-like sum
    /// E = Σ_{i=1..n−1} n(n−1)/(2·i·(n−i)).
    #[test]
    fn epidemic_matches_closed_form() {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        let proto = spec.compile().unwrap();
        for n in [3u64, 5, 8] {
            let mut start = vec![0u32; 2];
            start[0] = n as u32 - 1;
            start[1] = 1;
            let graph = ConfigGraph::explore_from(&proto, start, 1000).unwrap();
            let ht =
                expected_interactions(&graph, |cfg| cfg[0] == 0, SolverOptions::default()).unwrap();
            let exact: f64 = (1..n)
                .map(|inf| (n * (n - 1)) as f64 / (2.0 * inf as f64 * (n - inf) as f64))
                .sum();
            assert!(
                (ht.expected_from_initial - exact).abs() < 1e-7,
                "n={n}: solver {} vs closed form {exact}",
                ht.expected_from_initial
            );
        }
    }

    /// Moments of a geometric tail: pairing on n = 4 is one deterministic
    /// step then Geometric(1/6), so T = 1 + G with E[G] = 6 and
    /// Std[G] = √(1 − p)/p = √30 ≈ 5.4772; the +1 shift leaves the
    /// standard deviation unchanged.
    #[test]
    fn moments_match_geometric_tail() {
        let mut spec = ProtocolSpec::new("pairing");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore(&proto, 4, 100).unwrap();
        let m = hitting_moments(&graph, |cfg| cfg[0] < 2, SolverOptions::default()).unwrap();
        assert!((m.mean - 7.0).abs() < 1e-7);
        let expected_std = (30.0f64).sqrt();
        assert!(
            (m.std_dev - expected_std).abs() < 1e-6,
            "std {} vs {}",
            m.std_dev,
            expected_std
        );
    }

    /// A deterministic chain has zero variance: single-path epidemic on
    /// n = 2 from one infected — exactly one possible interaction, the
    /// infection, each step with probability 1.
    #[test]
    fn deterministic_chain_has_zero_variance() {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore_from(&proto, vec![1, 1], 100).unwrap();
        let m = hitting_moments(&graph, |cfg| cfg[0] == 0, SolverOptions::default()).unwrap();
        assert!((m.mean - 1.0).abs() < 1e-9);
        assert!(m.std_dev < 1e-6, "std = {}", m.std_dev);
    }

    #[test]
    fn unreachable_stable_set_is_detected() {
        // No rules at all: the start config is the only one; a stable
        // predicate that rejects it must error.
        let mut spec = ProtocolSpec::new("inert");
        let a = spec.add_state("a", 1);
        spec.set_initial(a);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore(&proto, 3, 10).unwrap();
        let err = expected_interactions(&graph, |_| false, SolverOptions::default()).unwrap_err();
        assert_eq!(err, HittingError::NoStableConfigs);
    }

    #[test]
    fn trap_configuration_is_detected() {
        // (a, a) -> (b, b) and (a, c) -> (c, c). From (2, 0, 1) the
        // all-c stable configuration is reachable via two (a, c) steps,
        // but the (a, a) step leads to the trap (0, 2, 1), from which
        // nothing fires: the expectation is infinite and the solver must
        // say so rather than diverge.
        let mut spec = ProtocolSpec::new("trap");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule_symmetric(a, c, c, c);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore_from(&proto, vec![2, 0, 1], 100).unwrap();
        let err =
            expected_interactions(&graph, |cfg| cfg[2] == 3, SolverOptions::default()).unwrap_err();
        assert!(
            matches!(err, HittingError::StableSetUnreachable(_)),
            "{err:?}"
        );
        let _ = b;
    }

    /// One agent never interacts: a typed error, not a panic.
    #[test]
    fn fewer_than_two_agents_is_an_error() {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore_from(&proto, vec![1, 0], 10).unwrap();
        let opts = SolverOptions::default();
        let err = expected_interactions(&graph, |cfg| cfg[0] == 0, opts).unwrap_err();
        assert_eq!(err, HittingError::TooFewAgents { n: 1 });
        let err = hitting_moments(&graph, |cfg| cfg[0] == 0, opts).unwrap_err();
        assert_eq!(err, HittingError::TooFewAgents { n: 1 });
        assert_eq!(err.kind(), "too_few_agents");
    }

    #[test]
    fn stable_start_is_zero() {
        let mut spec = ProtocolSpec::new("inert");
        let a = spec.add_state("a", 1);
        spec.set_initial(a);
        let proto = spec.compile().unwrap();
        let graph = ConfigGraph::explore(&proto, 3, 10).unwrap();
        let ht = expected_interactions(&graph, |_| true, SolverOptions::default()).unwrap();
        assert_eq!(ht.expected_from_initial, 0.0);
        assert_eq!(ht.sweeps, 1);
    }
}
