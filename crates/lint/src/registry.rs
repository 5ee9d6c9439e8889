//! The built-in protocol zoo as lintable entries: each family paired
//! with the [`Expectations`] it promises.
//!
//! The paper's protocol (Algorithm 1) declares everything pp-lint can
//! check: symmetry, the full rule-label set, the `3k − 2` state budget,
//! and — centrally — the Lemma 1 residual functionals as conserved
//! invariants, which the lint pass then *proves* from the rule table
//! (inductive conservation plus membership in the derived P-invariant
//! basis). The labels and functionals come from `UniformKPartition`
//! itself, which owns Algorithm 1's layout. Every other family declares
//! its own weaker contract, so the whole zoo lints clean under
//! `--deny warnings` without suppressions.

use crate::checks::Expectations;
use crate::invariant::Functional;
use pp_engine::protocol::CompiledProtocol;
use pp_protocols::bipartition::UniformBipartition;
use pp_protocols::classics;
use pp_protocols::hierarchical::HierarchicalPartition;
use pp_protocols::kpartition::ablation::BasicStrategyKPartition;
use pp_protocols::kpartition::variant::OneSidedAbortKPartition;
use pp_protocols::kpartition::UniformKPartition;
use pp_protocols::ratio::RatioPartition;

/// A lintable protocol: slug, compiled rules, and declared contract.
pub struct Entry {
    /// Stable identifier used by the CLI (`pp-lint --protocol <slug>`).
    pub slug: String,
    /// The compiled protocol.
    pub proto: CompiledProtocol,
    /// The family's declared contract.
    pub expect: Expectations,
}

impl Entry {
    fn new(slug: impl Into<String>, proto: CompiledProtocol, expect: Expectations) -> Self {
        Entry {
            slug: slug.into(),
            proto,
            expect,
        }
    }
}

/// Total-population functional — conserved by every population protocol.
fn population(num_states: usize) -> Functional {
    Functional::new("population", vec![1; num_states])
}

/// The paper's protocol at a given `k`.
pub fn ukp(k: usize) -> Entry {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let mut declared = kp.lemma1_functionals();
    declared.push(population(proto.num_states()));
    Entry::new(
        format!("ukp-k{k}"),
        proto,
        Expectations {
            labelled: true,
            expected_labels: Some(kp.rule_labels()),
            state_budget: Some(3 * k - 2),
            declared_invariants: declared,
            ..Expectations::default()
        },
    )
}

/// The §3.2 basic-strategy ablation (rules 1–7 only, `2k` states).
pub fn basic(k: usize) -> Entry {
    let proto = BasicStrategyKPartition::new(k).compile();
    Entry::new(
        format!("basic-k{k}"),
        proto,
        Expectations {
            state_budget: Some(2 * k),
            declared_invariants: vec![population(2 * k)],
            ..Expectations::default()
        },
    )
}

/// The one-sided-abort variant (`k ≥ 3`). Shares the paper's state
/// layout, so the Lemma 1 functionals apply verbatim — and pp-lint
/// proves they survive the modified rule 8, confirming the variant
/// module's invariant claim statically.
pub fn oneside(k: usize) -> Entry {
    let variant = OneSidedAbortKPartition::new(k);
    let proto = variant.compile();
    let mut declared = variant.base().lemma1_functionals();
    declared.push(population(proto.num_states()));
    Entry::new(
        format!("oneside-k{k}"),
        proto,
        Expectations {
            state_budget: Some(3 * k - 2),
            declared_invariants: declared,
            ..Expectations::default()
        },
    )
}

/// The OPODIS 2017 4-state uniform bipartition.
pub fn bipartition() -> Entry {
    let proto = UniformBipartition::new().compile();
    Entry::new(
        "bipartition",
        proto,
        Expectations {
            state_budget: Some(4),
            declared_invariants: vec![population(4)],
            ..Expectations::default()
        },
    )
}

/// Recursive bipartition composition with `h` levels (`k = 2^h`).
pub fn composed(h: u32) -> Entry {
    let hp = HierarchicalPartition::composed(h);
    let n = hp.num_states();
    Entry::new(
        format!("composed-h{h}"),
        hp.compile(),
        Expectations {
            declared_invariants: vec![population(n)],
            ..Expectations::default()
        },
    )
}

/// Approximate k-partition baseline (Delporte-Gallet et al. style).
pub fn approx(k: usize) -> Entry {
    let hp = HierarchicalPartition::approx(k);
    let n = hp.num_states();
    Entry::new(
        format!("approx-k{k}"),
        hp.compile(),
        Expectations {
            declared_invariants: vec![population(n)],
            ..Expectations::default()
        },
    )
}

/// R-generalized ratio partition over the given ratios.
pub fn ratio(ratios: Vec<u32>) -> Entry {
    let slug = format!(
        "ratio-{}",
        ratios
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("-")
    );
    let rp = RatioPartition::new(ratios);
    let proto = rp.compile();
    let n = proto.num_states();
    // Slot folding only relabels groups; the rule table is the paper's,
    // so the slot-level Lemma 1 functionals still apply.
    let mut declared = rp.slots().lemma1_functionals();
    declared.push(population(n));
    Entry::new(
        slug,
        proto,
        Expectations {
            declared_invariants: declared,
            ..Expectations::default()
        },
    )
}

/// The classics (engine demonstrations). Asymmetric by design and
/// seeded (executions start from explicit mixtures, not all-`s0`).
pub fn classics_entries() -> Vec<Entry> {
    let seeded_asym = || Expectations {
        symmetric: false,
        seeded: true,
        ..Expectations::default()
    };
    vec![
        Entry::new(
            "epidemic",
            classics::epidemic(),
            Expectations {
                seeded: true,
                declared_invariants: vec![population(2)],
                ..Expectations::default()
            },
        ),
        Entry::new("leader-election", classics::leader_election(), {
            let mut e = seeded_asym();
            e.declared_invariants.push(population(2));
            e
        }),
        Entry::new("approx-majority", classics::approximate_majority().0, {
            let mut e = seeded_asym();
            e.declared_invariants.push(population(3));
            e
        }),
    ]
}

/// Every built-in protocol at the sizes CI lints (`--all-protocols`).
pub fn all() -> Vec<Entry> {
    let mut entries = vec![
        ukp(2),
        ukp(3),
        ukp(4),
        ukp(5),
        ukp(8),
        basic(3),
        basic(4),
        oneside(3),
        oneside(4),
        bipartition(),
        composed(1),
        composed(2),
        composed(3),
        approx(3),
        approx(5),
        ratio(vec![1, 2]),
        ratio(vec![2, 3, 1]),
    ];
    entries.extend(classics_entries());
    entries
}

/// Look up a single family by slug prefix and size parameter.
///
/// `slug` is a family name (`ukp`, `basic`, `oneside`, `bipartition`,
/// `composed`, `approx`) with the size given separately; `classics`
/// slugs are exact. A size outside the family's range (as its fallible
/// constructor states it) finds nothing.
pub fn by_name(family: &str, size: Option<usize>) -> Option<Entry> {
    match (family, size) {
        ("ukp", Some(k)) => UniformKPartition::try_new(k).ok().map(|_| ukp(k)),
        ("ukp", None) => Some(ukp(3)),
        ("basic", Some(k)) => BasicStrategyKPartition::try_new(k).ok().map(|_| basic(k)),
        ("basic", None) => Some(basic(3)),
        ("oneside", Some(k)) => OneSidedAbortKPartition::try_new(k).ok().map(|_| oneside(k)),
        ("oneside", None) => Some(oneside(3)),
        ("bipartition", None) => Some(bipartition()),
        ("composed", Some(h)) => {
            let h = u32::try_from(h).ok()?;
            HierarchicalPartition::try_composed(h)
                .ok()
                .map(|_| composed(h))
        }
        ("composed", None) => Some(composed(2)),
        ("approx", Some(k)) => HierarchicalPartition::try_approx(k).ok().map(|_| approx(k)),
        ("approx", None) => Some(approx(3)),
        (name, None) => classics_entries().into_iter().find(|e| e.slug == name),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::lint;
    use crate::findings::{FindingKind, Severity};

    /// The acceptance bar: the whole zoo is clean under `--deny warnings`.
    #[test]
    fn zoo_is_warning_free() {
        for entry in all() {
            let report = lint(&entry.proto, &entry.expect);
            assert!(
                report.max_severity() <= Some(Severity::Info),
                "{} not clean:\n{}",
                entry.slug,
                report.render_text(&entry.proto)
            );
        }
    }

    /// Lemma 1 is implied by the auto-derived basis at every k — the
    /// paper's invariant falls out of the rule table statically.
    #[test]
    fn lemma1_certified_for_all_k() {
        for k in [2, 3, 4, 5, 8] {
            let entry = ukp(k);
            let report = lint(&entry.proto, &entry.expect);
            assert!(
                report.has(FindingKind::InvariantCertified),
                "ukp-k{k} lemma1 not certified"
            );
            assert!(!report.has(FindingKind::InvariantNotImplied));
            // k − 1 residuals + population, all certified.
            let certified = report
                .findings
                .iter()
                .filter(|f| f.kind == FindingKind::InvariantCertified)
                .count();
            assert_eq!(certified, k, "ukp-k{k}: {certified} certified");
        }
    }

    /// The one-sided-abort variant conserves Lemma 1 too — the module's
    /// docstring claim, proven statically here.
    #[test]
    fn oneside_preserves_lemma1() {
        for k in [3, 4, 5] {
            let entry = oneside(k);
            let report = lint(&entry.proto, &entry.expect);
            assert!(!report.has(FindingKind::ConservationViolation));
            assert!(!report.has(FindingKind::InvariantNotImplied));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("ukp", Some(4)).is_some());
        assert!(by_name("ukp", Some(1)).is_none());
        assert!(by_name("bipartition", None).is_some());
        assert!(by_name("epidemic", None).is_some());
        assert!(by_name("nope", None).is_none());
    }

    /// Out-of-range sizes are "not found", never a panic.
    #[test]
    fn lookup_rejects_out_of_range_sizes() {
        assert!(by_name("ukp", Some(20_000)).is_none());
        assert!(by_name("basic", Some(2)).is_none());
        assert!(by_name("oneside", Some(2)).is_none());
        assert!(by_name("composed", Some(9)).is_none());
        assert!(by_name("composed", Some(1 << 40)).is_none());
        assert!(by_name("approx", Some(20_000)).is_none());
    }
}
