//! End-to-end: pp-lint's statically derived invariants drive pp-verify's
//! pruned invariant checks, and the pruning is (a) measurably cheaper
//! than exhaustive exploration and (b) verdict-identical to it.
//!
//! The chain under test:
//!
//! 1. pp-lint extracts the integer P-invariant basis of Algorithm 1 from
//!    the displacement matrix and proves the paper's Lemma 1 residuals
//!    lie in its span (a static derivation, independent of `n`).
//! 2. The same functionals, handed to `pp_verify::oracle` as plain
//!    coefficient vectors, are certified inductively — so checking
//!    "Lemma 1 holds at every reachable configuration" explores **zero**
//!    configurations, versus the thousands the exhaustive
//!    `ConfigGraph::check_invariant` path visits.
//! 3. On a deliberately broken protocol the certificate is refused and
//!    the oracle transparently falls back to exhaustive exploration,
//!    agreeing with the direct path and producing a counterexample.

use pp_lint::registry;
use pp_protocols::kpartition::UniformKPartition;
use pp_verify::oracle;
use pp_verify::ConfigGraph;

const MAX_CONFIGS: usize = 400_000;

#[test]
fn lemma1_lies_in_the_derived_invariant_span() {
    for k in [2usize, 3, 4, 5] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let basis = pp_lint::invariant::extract(&proto);
        assert!(
            basis.rank() >= k - 1,
            "k={k}: rank {} too small",
            basis.rank()
        );
        for f in UniformKPartition::lemma1_functionals(&kp) {
            assert!(basis.implies(&f), "k={k}: {} not implied", f.name);
        }
    }
}

#[test]
fn pruned_lemma1_check_explores_zero_configs_and_matches_exhaustive() {
    for (k, n, min_baseline) in [(2usize, 8u64, 10usize), (3, 10, 50), (4, 8, 100)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();

        // Exhaustive path: build the graph, evaluate every residual at
        // every reachable configuration.
        let graph = ConfigGraph::explore(&proto, n, MAX_CONFIGS).unwrap();
        let exhaustive_configs = graph.num_configs();
        assert!(exhaustive_configs > 1, "k={k} n={n}: trivial graph");
        let exhaustive_holds = graph
            .check_invariant(|cfg| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                kp.lemma1_holds(&counts)
            })
            .is_none();

        // Pruned path: the statically derived functionals certify
        // inductively, so no configuration is ever visited.
        let mut pruned_configs = 0usize;
        let mut pruned_holds = true;
        for f in UniformKPartition::lemma1_functionals(&kp) {
            let check = oracle::check_conserved(&proto, n, MAX_CONFIGS, &f).unwrap();
            assert!(check.pruned, "k={k}: {} fell back to exploration", f.name);
            pruned_configs += check.configs_explored;
            pruned_holds &= check.holds;
        }

        assert_eq!(
            pruned_holds, exhaustive_holds,
            "k={k} n={n}: verdicts differ"
        );
        assert!(
            exhaustive_holds,
            "Lemma 1 must hold (Theorem 1 precondition)"
        );
        assert_eq!(
            pruned_configs, 0,
            "k={k} n={n}: pruned path explored configs"
        );
        // The measured reduction the oracle exists for: N → 0.
        assert!(
            exhaustive_configs > min_baseline,
            "k={k} n={n}: exhaustive baseline suspiciously small ({exhaustive_configs})"
        );
    }
}

#[test]
fn registry_entries_certify_end_to_end() {
    // Every declared invariant of every sweep-facing registry entry is
    // inductively certifiable by the verify oracle — the exact property
    // the pp-sweep lint gate relies on.
    for entry in [
        registry::ukp(3),
        registry::ukp(5),
        registry::oneside(4),
        registry::bipartition(),
    ] {
        let invs = &entry.expect.declared_invariants;
        assert!(
            oracle::certify_all(&entry.proto, invs).is_ok(),
            "{}: declared invariants not certifiable",
            entry.slug
        );
    }
}

#[test]
fn broken_protocol_falls_back_and_both_paths_agree() {
    // Reuse the conservation-breaking mutation from the lint tests:
    // rule 10 releases (g1, initial) instead of (initial, initial).
    let k = 3usize;
    let n = 8u64;
    let kp = UniformKPartition::new(k);
    let mut spec = kp.spec();
    spec.retain_rules(|_, _, _, _, label| label != Some("r10"));
    spec.add_rule_symmetric_labelled(kp.d(1), kp.g(1), kp.g(1), kp.initial(), "r10");
    let proto = spec.compile().unwrap();

    let broken = UniformKPartition::lemma1_functionals(&kp)
        .into_iter()
        .find(|inv| oracle::certify(&proto, inv).is_err())
        .expect("the mutation must refute at least one residual");

    // Oracle path: certificate refused, exhaustive fallback engaged.
    let check = oracle::check_conserved(&proto, n, MAX_CONFIGS, &broken).unwrap();
    assert!(!check.pruned);
    assert!(check.configs_explored > 0);
    assert!(check.refutation.is_some());

    // Direct exhaustive path must reach the same verdict.
    let graph = ConfigGraph::explore(&proto, n, MAX_CONFIGS).unwrap();
    let expected = broken.initial_value(&proto, n);
    let direct_holds = graph
        .check_invariant(|cfg| broken.value_at(cfg) == expected)
        .is_none();
    assert_eq!(check.holds, direct_holds);

    // The leak is real: the residual actually drifts somewhere reachable.
    assert!(!check.holds, "mutated rule 10 must break Lemma 1");
    let cx = check.counterexample.expect("fallback provides a witness");
    assert_ne!(broken.value_at(&cx), expected);
}

#[test]
fn pruning_telemetry_counters_advance() {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let before = pp_telemetry::Snapshot::capture_global()
        .value("verify.pruned_checks")
        .unwrap_or(0);
    for f in UniformKPartition::lemma1_functionals(&kp) {
        let check = oracle::check_conserved(&proto, 6, MAX_CONFIGS, &f).unwrap();
        assert!(check.pruned);
    }
    let after = pp_telemetry::Snapshot::capture_global()
        .value("verify.pruned_checks")
        .unwrap_or(0);
    assert!(
        after >= before + 2,
        "pruned_checks counter did not advance ({before} -> {after})"
    );
}
