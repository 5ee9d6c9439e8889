//! A one-sided-abort variant of the protocol — an exploration of the
//! paper's third open question ("is there a protocol whose time
//! complexity is polynomial in n and k?").
//!
//! The paper's §5.2 identifies chain collisions as the source of the
//! exponential-in-k cost: a chain must recruit `k − 2` free agents
//! *without meeting another chain-builder*, and rule 8 destroys **both**
//! chains on contact. This variant keeps rule 8 only on the symmetric
//! diagonal (where symmetry forces it) and otherwise sacrifices only the
//! *shorter* chain:
//!
//! ```text
//!  8a. (m_i, m_j) -> (m_i, d_{j−1})      i > j   (shorter chain aborts)
//!  8b. (m_i, m_i) -> (d_{i−1}, d_{i−1})          (tie: both abort)
//! ```
//!
//! All other rules are unchanged, so the state count stays `3k − 2` and
//! the protocol stays symmetric (8a pairs are distinct states; 8b keeps
//! the diagonal symmetric). The Lemma 1 invariant survives: 8a removes
//! one `m_j` and adds one `d_{j−1}`, which contribute to exactly the same
//! residuals `x ≤ j − 1`.
//!
//! Correctness is *not* proved in the paper (it is our extension); the
//! test suite model-checks it exhaustively for small `(k, n)` — every
//! terminal SCC is a correct frozen partition — and the `variants`
//! experiment measures the speedup, which grows with `k` exactly where
//! the paper's Figure 6 hurts.

use crate::kpartition::UniformKPartition;
use crate::OutOfRange;
use pp_engine::protocol::CompiledProtocol;
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Signature;

/// The one-sided-abort variant. Shares the state layout, output map,
/// stable signature, and Lemma 1 machinery with [`UniformKPartition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneSidedAbortKPartition {
    base: UniformKPartition,
}

impl OneSidedAbortKPartition {
    /// Variant protocol for `3 ≤ k ≤` [`UniformKPartition::MAX_K`]
    /// groups (for `k = 2` there are no chains and the variant coincides
    /// with the paper's protocol).
    pub fn try_new(k: usize) -> Result<Self, OutOfRange> {
        let range = 3..=UniformKPartition::MAX_K as u64;
        OutOfRange::check("the one-sided-abort variant", "k", k as u64, range)?;
        Ok(OneSidedAbortKPartition {
            base: UniformKPartition::new(k),
        })
    }

    /// [`Self::try_new`], panicking when `k` is out of range.
    pub fn new(k: usize) -> Self {
        Self::try_new(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The shared state layout and helpers (accessors `g`, `m`, `d`,
    /// `lemma1_holds`, `expected_group_sizes`, …).
    pub fn base(&self) -> &UniformKPartition {
        &self.base
    }

    /// Number of groups `k`.
    pub fn k(&self) -> usize {
        self.base.k()
    }

    /// Build the variant's rules: the paper's spec with rule 8 replaced.
    pub fn spec(&self) -> ProtocolSpec {
        let k = self.base.k();
        let kp = &self.base;
        // Start from the paper's full spec and *overwrite* the off-diagonal
        // rule-8 entries. ProtocolSpec rejects conflicting duplicates, so
        // rebuild from the rule list instead: copy every compiled rule
        // except off-diagonal (m, m) pairs, then add 8a.
        let paper = kp.compile();
        let mut spec = ProtocolSpec::new(format!("one-sided-abort-{k}-partition"));
        for s in paper.states() {
            spec.add_state(paper.state_name(s), paper.group_of(s).0);
        }
        spec.set_initial(paper.initial_state());
        for (p, q, p2, q2) in paper.non_identity_rules() {
            match (kp.m_index(p), kp.m_index(q)) {
                (Some(i), Some(j)) if i != j => {
                    // Replace with one-sided abort: the larger survives.
                    if i > j {
                        spec.add_rule(p, q, p, kp.d(j - 1));
                    } else {
                        spec.add_rule(p, q, kp.d(i - 1), q);
                    }
                }
                _ => spec.add_rule(p, q, p2, q2),
            }
        }
        spec
    }

    /// Compile the variant.
    pub fn compile(&self) -> CompiledProtocol {
        let p = self
            .spec()
            .compile()
            .expect("variant spec is internally consistent");
        debug_assert!(p.is_symmetric());
        debug_assert_eq!(p.num_states(), self.base.num_states());
        p
    }

    /// Stable signature — identical to the paper's protocol (Lemmas 4–6
    /// hold unchanged: the variant's reachable set is a subset of
    /// configurations satisfying the same invariant with the same
    /// terminal structure, as the model-check tests confirm).
    pub fn stable_signature(&self, n: u64) -> Signature {
        self.base.stable_signature(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;

    #[test]
    fn variant_rule8_is_one_sided() {
        let v = OneSidedAbortKPartition::new(5);
        let p = v.compile();
        let kp = v.base();
        // Off-diagonal: larger chain survives.
        assert_eq!(p.delta(kp.m(4), kp.m(2)), (kp.m(4), kp.d(1)));
        assert_eq!(p.delta(kp.m(2), kp.m(4)), (kp.d(1), kp.m(4)));
        // Diagonal: both abort (symmetry requires it).
        assert_eq!(p.delta(kp.m(3), kp.m(3)), (kp.d(2), kp.d(2)));
        // Everything else matches the paper.
        let paper = kp.compile();
        assert_eq!(
            p.delta(kp.initial(), kp.m(2)),
            paper.delta(kp.initial(), kp.m(2))
        );
        assert_eq!(p.delta(kp.d(1), kp.g(1)), paper.delta(kp.d(1), kp.g(1)));
        assert!(p.is_symmetric());
        assert_eq!(p.num_states(), 3 * 5 - 2);
    }

    #[test]
    fn variant_stabilises_to_uniform_partition() {
        for (k, n) in [(3usize, 10u64), (4, 14), (5, 17), (6, 24)] {
            let v = OneSidedAbortKPartition::new(k);
            let p = v.compile();
            for seed in 0..4 {
                let mut pop = CountPopulation::new(&p, n);
                let mut sched = UniformRandomScheduler::from_seed(seed);
                Simulator::new(&p)
                    .run(
                        &mut pop,
                        &mut sched,
                        &v.stable_signature(n),
                        v.base().interaction_budget(n),
                    )
                    .unwrap_or_else(|e| panic!("k={k} n={n} seed={seed}: {e}"));
                assert_eq!(
                    pop.group_sizes(&p),
                    v.base().expected_group_sizes(n),
                    "k={k} n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn variant_preserves_lemma1_along_runs() {
        let v = OneSidedAbortKPartition::new(4);
        let p = v.compile();
        let kp = *v.base();
        struct Check {
            kp: UniformKPartition,
            ok: bool,
        }
        impl pp_engine::observer::Observer for Check {
            fn on_interaction(
                &mut self,
                _s: u64,
                _p: pp_engine::protocol::StateId,
                _q: pp_engine::protocol::StateId,
                _p2: pp_engine::protocol::StateId,
                _q2: pp_engine::protocol::StateId,
                counts: &[u64],
            ) {
                if !self.kp.lemma1_holds(counts) {
                    self.ok = false;
                }
            }
        }
        let mut chk = Check { kp, ok: true };
        let mut pop = CountPopulation::new(&p, 19);
        let mut sched = UniformRandomScheduler::from_seed(9);
        Simulator::new(&p)
            .run_observed(
                &mut pop,
                &mut sched,
                &v.stable_signature(19),
                kp.interaction_budget(19),
                &mut chk,
            )
            .unwrap();
        assert!(chk.ok, "Lemma 1 violated by the variant");
    }
}
