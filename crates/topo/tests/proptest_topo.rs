//! Property tests for the dynamics subsystem's scheduler layer.
//!
//! The load-bearing property: restricting the paper's uniform random
//! scheduler to a *complete* topology must not change the interaction
//! distribution — `UniformEdgeScheduler` on `CompleteTopology(n)` is the
//! same process as `pp_engine`'s `UniformRandomScheduler`, both exactly
//! (equal seeds give byte-identical pair sequences, by shared RNG
//! consumption) and statistically (a chi-square test over ordered-pair
//! frequencies cannot tell independently seeded runs of the two apart).

use pp_engine::population::AgentPopulation;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_protocols::kpartition::UniformKPartition;
use pp_topo::scheduler::{EdgeScheduler, UniformEdgeScheduler};
use pp_topo::topology::{CompleteTopology, EdgeListTopology};
use proptest::prelude::*;

/// Two-sample chi-square statistic over ordered-pair counts:
/// `Σ (aᵢ − bᵢ)² / (aᵢ + bᵢ)` over cells with any mass. Under the null
/// (same distribution) it is ~χ² with `cells − 1` degrees of freedom.
fn two_sample_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
    let mut stat = 0.0;
    let mut df = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let total = x + y;
        if total == 0 {
            continue;
        }
        let d = x as f64 - y as f64;
        stat += d * d / total as f64;
        df += 1;
    }
    (stat, df.saturating_sub(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On the complete graph, the uniform edge scheduler's ordered-pair
    /// distribution is indistinguishable from `UniformRandomScheduler`'s
    /// by a two-sample chi-square test, at every small n and any seeds.
    #[test]
    fn uniform_edge_scheduler_matches_engine_on_complete(
        n in 3usize..8,
        seed in any::<u64>(),
    ) {
        let proto = UniformKPartition::new(3).compile();
        let pop = AgentPopulation::new(&proto, n);
        let topo = CompleteTopology::new(n);
        let cells = n * n; // ordered (i, j) flattened; diagonal stays 0
        let draws = 60 * n * (n - 1);

        let mut edge = UniformEdgeScheduler::from_seed(seed);
        // Independent seed: the statistical claim must not lean on the
        // byte-identity fast path.
        let mut base = UniformRandomScheduler::from_seed(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut edge_counts = vec![0u64; cells];
        let mut base_counts = vec![0u64; cells];
        for _ in 0..draws {
            let (i, j) = edge.next_pair(&topo, &pop);
            prop_assert_ne!(i, j);
            edge_counts[i * n + j] += 1;
            let (i, j) = base.select_agents(&pop);
            prop_assert_ne!(i, j);
            base_counts[i * n + j] += 1;
        }

        let (stat, df) = two_sample_chi_square(&edge_counts, &base_counts);
        prop_assert_eq!(df, n * (n - 1) - 1);
        // Accept out to ~6 sigma of the χ²(df) mean: far beyond any
        // plausible quantile, so only a genuinely different distribution
        // (or broken sampling) trips it.
        let bound = df as f64 + 6.0 * (2.0 * df as f64).sqrt();
        prop_assert!(
            stat < bound,
            "chi-square {stat:.1} over df={df} exceeds {bound:.1} at n={n}"
        );
    }

    /// Equal seeds: the two schedulers consume their RNGs identically on
    /// the complete graph, so the pair sequences coincide byte for byte.
    #[test]
    fn equal_seeds_give_identical_sequences(
        n in 3usize..16,
        seed in any::<u64>(),
    ) {
        let proto = UniformKPartition::new(3).compile();
        let pop = AgentPopulation::new(&proto, n);
        let topo = CompleteTopology::new(n);
        let mut edge = UniformEdgeScheduler::from_seed(seed);
        let mut base = UniformRandomScheduler::from_seed(seed);
        for step in 0..200 {
            let e = edge.next_pair(&topo, &pop);
            let b = base.select_agents(&pop);
            prop_assert_eq!(e, b, "sequences diverge at step {}", step);
        }
    }

    /// On any ring, the uniform edge scheduler only ever returns
    /// adjacent agents — restriction to the graph's edges is real.
    #[test]
    fn edge_scheduler_respects_ring_adjacency(
        n in 4usize..12,
        seed in any::<u64>(),
    ) {
        let proto = UniformKPartition::new(3).compile();
        let pop = AgentPopulation::new(&proto, n);
        let topo = EdgeListTopology::ring(n);
        let mut edge = UniformEdgeScheduler::from_seed(seed);
        for _ in 0..300 {
            let (i, j) = edge.next_pair(&topo, &pop);
            let adjacent = (i + 1) % n == j || (j + 1) % n == i;
            prop_assert!(adjacent, "({}, {}) is not a ring edge at n={}", i, j, n);
        }
    }
}
