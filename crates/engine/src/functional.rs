//! Linear functionals over state counts. A [`Functional`] with zero
//! [drift](Functional::drift) on every rule is conserved along every
//! execution (a P-invariant): pp-lint certifies such functionals,
//! pp-verify checks them, and protocol families declare theirs (e.g. the
//! paper's Lemma 1).

use crate::protocol::{CompiledProtocol, StateId};

/// A linear functional over state counts: `value(c) = Σ coeffs[s] · c[s]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Functional {
    /// Human-readable name (e.g. `"lemma1[x=2]"`).
    pub name: String,
    /// One coefficient per state, indexed by `StateId`.
    pub coeffs: Vec<i64>,
}

impl Functional {
    /// Build a named functional.
    pub fn new(name: impl Into<String>, coeffs: Vec<i64>) -> Self {
        Functional {
            name: name.into(),
            coeffs,
        }
    }

    /// Evaluate at a count vector — the simulator's `u64` counts or the
    /// model checker's `u32` configurations.
    pub fn value_at<C: Copy>(&self, counts: &[C]) -> i64
    where
        i128: From<C>,
    {
        assert_eq!(counts.len(), self.coeffs.len());
        let terms = self.coeffs.iter().zip(counts);
        terms.map(|(&y, &c)| y * i128::from(c) as i64).sum()
    }

    /// The conserved value on executions from all-`s0` with `n` agents:
    /// `n · coeffs[s0]`.
    pub fn initial_value(&self, proto: &CompiledProtocol, n: u64) -> i64 {
        self.coeffs[proto.initial_state().index()] * n as i64
    }

    /// Net change of the functional when the rule on ordered pair
    /// `(p, q)` fires: `y · displacement(p, q)`.
    pub fn drift(&self, proto: &CompiledProtocol, p: StateId, q: StateId) -> i64 {
        let (p2, q2) = proto.delta(p, q);
        self.coeffs[p2.index()] + self.coeffs[q2.index()]
            - self.coeffs[p.index()]
            - self.coeffs[q.index()]
    }

    /// Whether the functional is the zero map.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_evaluation() {
        let f = Functional::new("f", vec![2, -1, 0]);
        assert_eq!(f.value_at(&[3, 4, 5]), 2);
        assert!(!f.is_zero());
        assert!(Functional::new("z", vec![0, 0]).is_zero());
    }
}
