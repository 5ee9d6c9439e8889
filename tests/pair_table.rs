//! The compiled pair table against its definitions.
//!
//! Every protocol compiles, once, the net effect of each non-identity
//! ordered pair: its count deltas and the changes they make to the leap
//! kernel's identity marginals. The leap and batch kernels trust that
//! table on every step, so it is checked here for every protocol in the
//! pp-lint registry plus an asymmetric one:
//!
//! * the recorded deltas are the non-zeros of `displacement(p, q)`;
//! * folding one firing with `IdentityWeights::apply_pair` leaves exactly
//!   the weights `IdentityWeights::new` computes on the updated counts
//!   (`W_id`, `row` and `col` all compared), on drawn count vectors;
//! * Algorithm 1's free-agent flips (rules 1–4), most of its effective
//!   interactions, touch no marginal, so applying them is O(1), and they
//!   are exactly the pairs the table compiles as flips;
//! * the flip class the batch kernel lumps, read off the compiled table,
//!   is what each registry family's layout says it is.

use proptest::prelude::*;

use pp_lint::registry;
use uniform_k_partition::engine::leap::IdentityWeights;
use uniform_k_partition::prelude::*;

/// A protocol with asymmetric transitions (`δ(a, a)` splits the pair)
/// and identity pairs on and off the diagonal, so the marginal lists
/// have entries of every shape.
fn asymmetric() -> CompiledProtocol {
    let mut spec = ProtocolSpec::new("asymmetric");
    let a = spec.add_state("a", 1);
    let b = spec.add_state("b", 1);
    let c = spec.add_state("c", 2);
    spec.set_initial(a);
    spec.add_rule(a, a, a, b);
    spec.add_rule(a, b, b, c);
    spec.add_rule(c, a, c, c);
    spec.add_rule(b, b, c, a);
    spec.add_rule(c, b, b, b);
    let proto = spec.compile().unwrap();
    assert!(!proto.is_symmetric());
    proto
}

/// Every protocol under test, by name.
fn protocols() -> Vec<(String, CompiledProtocol)> {
    let mut all: Vec<(String, CompiledProtocol)> = registry::all()
        .into_iter()
        .map(|e| (e.slug, e.proto))
        .collect();
    all.push(("asymmetric".into(), asymmetric()));
    all
}

#[test]
fn recorded_deltas_are_the_displacement_non_zeros() {
    for (name, proto) in protocols() {
        let mut listed = 0;
        for p in proto.states() {
            for q in proto.states() {
                let Some(e) = proto.pair_effect(p, q) else {
                    assert!(proto.is_identity(p, q), "{name}: ({p:?}, {q:?})");
                    continue;
                };
                assert!(!proto.is_identity(p, q), "{name}: ({p:?}, {q:?})");
                assert_eq!((e.p, e.q), (p, q), "{name}");
                assert_eq!((e.p2, e.q2), proto.delta(p, q), "{name}");
                let want: Vec<(StateId, i64)> = proto
                    .displacement(p, q)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, d)| d != 0)
                    .map(|(s, d)| (StateId(s as u16), d))
                    .collect();
                let mut got: Vec<(StateId, i64)> = e.deltas().collect();
                got.sort();
                assert_eq!(got, want, "{name}: ({p:?}, {q:?})");
                // Row-major order: the table lists this pair next.
                assert_eq!(&proto.pair_effects()[listed], e, "{name}");
                listed += 1;
            }
        }
        assert_eq!(listed, proto.pair_effects().len(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a drawn configuration, every enabled non-identity pair folds
    /// into the weights exactly as a rebuild on the updated counts.
    #[test]
    fn apply_pair_matches_a_rebuild(draw in proptest::collection::vec(0u64..40, 64)) {
        for (name, proto) in protocols() {
            let counts = &draw[..proto.num_states()];
            let before = IdentityWeights::new(&proto, counts);
            for e in proto.pair_effects() {
                let need = 1 + u64::from(e.p == e.q);
                if counts[e.p.index()] < 1 || counts[e.q.index()] < need {
                    continue;
                }
                let mut after: Vec<u64> = counts.to_vec();
                for (s, d) in proto.displacement(e.p, e.q).into_iter().enumerate() {
                    after[s] = after[s].checked_add_signed(d).unwrap();
                }
                let mut w = before.clone();
                w.apply_pair(&proto, e.p, e.q);
                prop_assert_eq!(
                    &w,
                    &IdentityWeights::new(&proto, &after),
                    "{}: ({:?}, {:?}) at {:?}",
                    name,
                    e.p,
                    e.q,
                    counts
                );
            }
        }
    }
}

#[test]
fn free_agent_flips_touch_no_marginal() {
    for k in 2..=16 {
        let proto = UniformKPartition::new(k).compile();
        let flip_rules: Vec<_> = ["r1", "r2", "r3", "r4"]
            .iter()
            .filter_map(|label| proto.rule_by_name(label))
            .collect();
        let mut flips = 0;
        for e in proto.pair_effects() {
            let labelled = proto
                .rule_of(e.p, e.q)
                .is_some_and(|r| flip_rules.contains(&r));
            assert_eq!(
                e.is_flip(),
                labelled,
                "k={k}: ({}, {}) compiled flip bit against the r1–r4 labels",
                proto.state_name(e.p),
                proto.state_name(e.q)
            );
            if !labelled {
                continue;
            }
            flips += 1;
            assert!(
                proto.pair_marginals(e).is_empty(),
                "k={k}: ({}, {})",
                proto.state_name(e.p),
                proto.state_name(e.q)
            );
            assert_eq!(e.identity_constant(), 0, "k={k}");
        }
        // Rules 1–2 are one pair each; rules 3–4 pair each of the k
        // group states g_i and the k − 2 demolishers d_i with either
        // free state, in both orders.
        assert_eq!(flips, 2 + 4 * (2 * k - 2), "k={k}");
    }
}

/// The flip class (states no identity pair involves) of every registry
/// protocol: `{initial, initial'}` for the k-partition families, the
/// unsettled states of the hierarchical partitions (2, 6 or 14 of them
/// for h = 1, 2, 3), and none for the classic protocols.
#[test]
fn flip_classes_come_from_the_table() {
    for e in registry::all() {
        let class: Vec<&str> = e
            .proto
            .flip_class()
            .iter()
            .map(|&s| e.proto.state_name(s))
            .collect();
        let slug = e.slug.as_str();
        if ["ukp-", "basic-", "oneside-", "ratio-", "bipartition"]
            .iter()
            .any(|family| slug.starts_with(family))
        {
            assert_eq!(class, ["initial", "initial'"], "{slug}");
        } else if slug.starts_with("composed-") || slug.starts_with("approx-k") {
            let want = match slug {
                "composed-h1" => 2,
                "composed-h2" | "approx-k3" => 6,
                _ => 14,
            };
            assert_eq!(class.len(), want, "{slug}: {class:?}");
            assert!(
                class.iter().all(|s| s.starts_with('u')),
                "{slug}: {class:?}"
            );
        } else {
            assert!(class.is_empty(), "{slug}: {class:?}");
        }
    }
}
