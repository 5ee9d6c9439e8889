//! Invariant-guided pruning: certify linear invariants inductively
//! instead of exploring the configuration space.
//!
//! A *linear invariant* is a functional `y` over state counts whose
//! value is constant along every execution. The model checker's
//! historical way to check one — [`crate::ConfigGraph::check_invariant`]
//! over the full reachable graph — costs one configuration visit per
//! reachable configuration (hundreds of thousands at paper-scale
//! `(k, n)`). This module implements the sound shortcut: if `y` has
//! zero drift on **every rule** of the table (an `O(|Q|²)` algebraic
//! check), then its value is conserved by induction on execution length,
//! so it holds at every reachable configuration of *every* population
//! size — with zero exploration. [`check_conserved`] tries that
//! certificate first and only falls back to exhaustive exploration when
//! the inductive proof fails (e.g. deliberately broken protocols in the
//! mutation tests), reporting how many configurations each path visited
//! so the pruning is measurable.
//!
//! Invariants are the engine's [`Functional`]s — the same values
//! pp-lint extracts and the protocol families declare (e.g.
//! `UniformKPartition::lemma1_functionals`) — and a rule's effect on one
//! is [`Functional::drift`]; pp-verify deliberately does not depend on
//! the analyzer.

use crate::{ConfigGraph, ExploreError};
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::Functional;
use std::sync::{Arc, OnceLock};

/// | name                      | kind    | meaning |
/// |---------------------------|---------|---------|
/// | `verify.pruned_checks`    | counter | invariant checks settled by inductive certificate (0 configs) |
/// | `verify.fallback_checks`  | counter | invariant checks that fell back to exhaustive exploration |
struct OracleMetrics {
    pruned_checks: Arc<pp_telemetry::Counter>,
    fallback_checks: Arc<pp_telemetry::Counter>,
}

fn oracle_metrics() -> &'static OracleMetrics {
    static GLOBAL: OnceLock<OracleMetrics> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = pp_telemetry::global();
        OracleMetrics {
            pruned_checks: reg.counter("verify.pruned_checks"),
            fallback_checks: reg.counter("verify.fallback_checks"),
        }
    })
}

/// Why an inductive certificate failed: the first rule with drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refutation {
    /// First state of the drifting ordered pair.
    pub p: StateId,
    /// Second state of the drifting ordered pair.
    pub q: StateId,
    /// The (non-zero) net change the rule applies to the functional.
    pub drift: i64,
}

/// Try to prove `inv` conserved by induction: zero drift on every
/// non-identity rule. Returns the first drifting rule on failure.
///
/// Soundness: the initial configuration trivially has the initial value,
/// and each interaction changes the value by the fired rule's drift, so
/// zero drift everywhere ⇒ the value is constant along every execution —
/// for any population size, without enumerating configurations.
pub fn certify(proto: &CompiledProtocol, inv: &Functional) -> Result<(), Refutation> {
    assert_eq!(inv.coeffs.len(), proto.num_states());
    for e in proto.rule_entries() {
        let drift = inv.drift(proto, e.p, e.q);
        if drift != 0 {
            return Err(Refutation {
                p: e.p,
                q: e.q,
                drift,
            });
        }
    }
    Ok(())
}

/// Result of [`check_conserved`].
#[derive(Clone, Debug)]
pub struct InvariantCheck {
    /// Whether `inv` keeps its initial value on every reachable
    /// configuration of `(proto, n)`.
    pub holds: bool,
    /// Whether the verdict came from the inductive certificate (true) or
    /// exhaustive exploration (false).
    pub pruned: bool,
    /// Configurations visited to reach the verdict: 0 when pruned, the
    /// reachable-set size otherwise.
    pub configs_explored: usize,
    /// A reachable configuration violating the invariant, when one
    /// exists (exhaustive path only).
    pub counterexample: Option<Vec<u32>>,
    /// The refutation that disabled the certificate, if any.
    pub refutation: Option<Refutation>,
}

/// Check that `inv` holds (keeps its all-`s0` initial value) on every
/// configuration of `(proto, n)` reachable from all-`s0`.
///
/// Tries [`certify`] first — success settles the check with **zero**
/// exploration. On refutation, falls back to building the full
/// [`ConfigGraph`] and checking every reachable configuration, which
/// also produces a concrete counterexample when the invariant fails.
/// Both paths agree on the verdict whenever the certificate succeeds
/// (certification is sound, not complete: a refuted functional may still
/// hold on the reachable subset, which only the fallback can decide).
pub fn check_conserved(
    proto: &CompiledProtocol,
    n: u64,
    max_configs: usize,
    inv: &Functional,
) -> Result<InvariantCheck, ExploreError> {
    match certify(proto, inv) {
        Ok(()) => {
            oracle_metrics().pruned_checks.inc();
            Ok(InvariantCheck {
                holds: true,
                pruned: true,
                configs_explored: 0,
                counterexample: None,
                refutation: None,
            })
        }
        Err(refutation) => {
            oracle_metrics().fallback_checks.inc();
            let graph = ConfigGraph::explore(proto, n, max_configs)?;
            let expected = inv.initial_value(proto, n);
            let bad = graph.check_invariant(|cfg| inv.value_at(cfg) == expected);
            Ok(InvariantCheck {
                holds: bad.is_none(),
                pruned: false,
                configs_explored: graph.num_configs(),
                counterexample: bad.map(|id| graph.config(id).to_vec()),
                refutation: Some(refutation),
            })
        }
    }
}

/// Certify a batch of invariants; returns `Ok` only if every one is
/// conserved by every rule (the "all Lemma 1 residuals at once" form).
pub fn certify_all(
    proto: &CompiledProtocol,
    invs: &[Functional],
) -> Result<(), (usize, Refutation)> {
    for (i, inv) in invs.iter().enumerate() {
        certify(proto, inv).map_err(|r| (i, r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;

    fn flip() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("flip");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, a, a);
        spec.compile().unwrap()
    }

    #[test]
    fn certified_invariant_needs_no_exploration() {
        let p = flip();
        let total = Functional::new("total", vec![1, 1]);
        assert_eq!(certify(&p, &total), Ok(()));
        let check = check_conserved(&p, 64, 10_000, &total).unwrap();
        assert!(check.holds);
        assert!(check.pruned);
        assert_eq!(check.configs_explored, 0);
    }

    #[test]
    fn refuted_invariant_falls_back_and_finds_counterexample() {
        let p = flip();
        let count_a = Functional::new("a", vec![1, 0]);
        let refutation = certify(&p, &count_a).unwrap_err();
        assert_eq!(refutation.drift, -2);
        let check = check_conserved(&p, 6, 10_000, &count_a).unwrap();
        assert!(!check.holds);
        assert!(!check.pruned);
        assert!(check.configs_explored > 0);
        let cx = check.counterexample.unwrap();
        assert_ne!(count_a.value_at(&cx), count_a.initial_value(&p, 6));
    }

    #[test]
    fn fallback_agrees_with_certificate_when_invariant_actually_holds() {
        // A functional conserved on the reachable set but refuted by a
        // *dead* rule: certification is sound but incomplete, and the
        // fallback gives the sharper (still correct) verdict.
        let mut spec = ProtocolSpec::new("deadrule");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let z = spec.add_state("z", 2);
        spec.set_initial(a);
        spec.add_rule_symmetric(a, a, a, b); // reachable churn, conserves z
        spec.add_rule_symmetric(z, b, z, z); // dead: z never appears
        let p = spec.compile().unwrap();
        let count_z = Functional::new("z", vec![0, 0, 1]);
        assert!(certify(&p, &count_z).is_err());
        let check = check_conserved(&p, 5, 10_000, &count_z).unwrap();
        assert!(check.holds, "z stays 0 on the reachable set");
        assert!(!check.pruned);
    }

    #[test]
    fn batch_certification_reports_offending_index() {
        let p = flip();
        let invs = vec![
            Functional::new("total", vec![1, 1]),
            Functional::new("a", vec![1, 0]),
        ];
        let (idx, r) = certify_all(&p, &invs).unwrap_err();
        assert_eq!(idx, 1);
        assert_ne!(r.drift, 0);
    }

    #[test]
    fn budget_error_propagates_on_fallback() {
        let p = flip();
        let count_a = Functional::new("a", vec![1, 0]);
        assert!(matches!(
            check_conserved(&p, 100, 3, &count_a),
            Err(ExploreError::TooManyConfigs { limit: 3 })
        ));
    }
}
