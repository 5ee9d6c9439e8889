//! Linear invariant extraction from the rule displacement matrix.
//!
//! A compiled protocol is a vector addition system: firing the rule on
//! ordered pair `(p, q) → (p', q')` adds the *displacement* vector
//! `d = −e_p − e_q + e_{p'} + e_{q'}` to the configuration's count
//! vector. A functional `y ∈ ℤ^{|Q|}` is a **P-invariant** iff `y · d = 0`
//! for every rule displacement — then `y · c` is conserved along every
//! execution, and since the initial configuration is `n · e_{s0}`, every
//! reachable configuration satisfies `y · c = n · y[s0]`.
//!
//! [`extract`] computes an integer basis of the full left-nullspace by
//! fraction-free Gaussian elimination over ℤ (Bareiss-style row
//! reduction on the transposed displacement matrix), so *every* linear
//! invariant of the protocol is a rational combination of the returned
//! basis. [`InvariantBasis::implies`] decides that span membership —
//! which is how pp-lint proves the paper's Lemma 1 follows from the rule
//! table alone — and [`conservation_violations`] pinpoints the rules
//! breaking a declared invariant, anchored for the findings model.

use pp_engine::protocol::{CompiledProtocol, StateId};
pub use pp_engine::Functional;

/// An integer basis of the protocol's P-invariant space.
#[derive(Clone, Debug)]
pub struct InvariantBasis {
    /// Basis functionals (content-reduced: each divided by its gcd).
    pub basis: Vec<Functional>,
    /// Number of states (the ambient dimension).
    pub num_states: usize,
    /// Number of *distinct* rule displacements the basis annihilates.
    pub num_displacements: usize,
}

impl InvariantBasis {
    /// Dimension of the invariant space.
    pub fn rank(&self) -> usize {
        self.basis.len()
    }

    /// Whether `target` lies in the rational span of the basis — i.e.
    /// whether it is itself conserved by every rule. Decided exactly
    /// over ℚ: adjoining `target` to the basis leaves the rank unchanged
    /// iff `target` is a rational combination of basis vectors.
    pub fn implies(&self, target: &Functional) -> bool {
        if target.is_zero() {
            return true;
        }
        let rows: Vec<Vec<i128>> = self
            .basis
            .iter()
            .map(|b| b.coeffs.iter().map(|&c| c as i128).collect())
            .collect();
        let mut with_target = rows.clone();
        with_target.push(target.coeffs.iter().map(|&c| c as i128).collect());
        row_echelon(rows).1.len() == row_echelon(with_target).1.len()
    }
}

/// Fraction-free row reduction over ℤ. Returns the reduced matrix
/// (echelon rows first, then zero rows) and the pivot column of each
/// echelon row in order; the pivot count is the matrix rank.
fn row_echelon(mut mat: Vec<Vec<i128>>) -> (Vec<Vec<i128>>, Vec<usize>) {
    let width = mat.first().map_or(0, Vec::len);
    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut row = 0usize;
    for col in 0..width {
        let Some(pr) = (row..mat.len()).find(|&r| mat[r][col] != 0) else {
            continue;
        };
        mat.swap(row, pr);
        let (head, rest) = mat.split_at_mut(row + 1);
        let pivot_row = &head[row];
        let p = pivot_row[col];
        for r in rest.iter_mut() {
            if r[col] == 0 {
                continue;
            }
            let t = r[col];
            for (x, &pv) in r.iter_mut().zip(pivot_row.iter()) {
                *x = *x * p - t * pv;
            }
            reduce_content(r);
        }
        pivot_cols.push(col);
        row += 1;
        if row == mat.len() {
            break;
        }
    }
    (mat, pivot_cols)
}

/// The distinct non-zero displacement vectors of the rule table. Mirror
/// registrations and distinct rules with equal net effect collapse to
/// one column.
pub fn displacements(proto: &CompiledProtocol) -> Vec<Vec<i64>> {
    let mut cols: Vec<Vec<i64>> = Vec::new();
    for e in proto.rule_entries() {
        let d = proto.displacement(e.p, e.q);
        if d.iter().all(|&x| x == 0) {
            continue; // swap-only transitions conserve everything
        }
        if !cols.contains(&d) {
            cols.push(d);
        }
    }
    cols
}

/// Compute an integer basis of the left-nullspace of the displacement
/// matrix: all `y` with `y · d = 0` for every rule displacement `d`.
///
/// Method: assemble the displacement vectors as rows of an
/// `m × |Q|` matrix `D` and row-reduce (fraction-free) to find the
/// nullspace of `Dᵀ y = 0`, i.e. the kernel of the matrix whose rows are
/// displacements. Free columns yield one basis vector each, so
/// `rank(basis) = |Q| − rank(D)`.
pub fn extract(proto: &CompiledProtocol) -> InvariantBasis {
    let s = proto.num_states();
    let cols = displacements(proto);
    let m = cols.len();

    // Row-echelon form of the m × s displacement matrix, exact integers.
    let (mut mat, pivot_col_of_row) = row_echelon(
        cols.iter()
            .map(|d| d.iter().map(|&x| x as i128).collect())
            .collect(),
    );
    let rank = pivot_col_of_row.len();
    mat.truncate(rank);

    // Back-substitute one basis vector per free column: set the free
    // coordinate to a value clearing denominators, solve pivots bottom-up.
    let pivot_cols: std::collections::HashSet<usize> = pivot_col_of_row.iter().copied().collect();
    let mut basis: Vec<Functional> = Vec::new();
    for free in (0..s).filter(|c| !pivot_cols.contains(c)) {
        let mut y: Vec<i128> = vec![0; s];
        y[free] = 1;
        // Solve rows bottom-up; keep exact by rescaling the whole vector
        // when a pivot does not divide the accumulated sum.
        for r in (0..rank).rev() {
            let pc = pivot_col_of_row[r];
            let sum: i128 = (0..s).filter(|&c| c != pc).map(|c| mat[r][c] * y[c]).sum();
            // y[pc] must satisfy  mat[r][pc]·y[pc] + sum = 0.
            let p = mat[r][pc];
            let g = gcd(p.unsigned_abs(), sum.unsigned_abs()).max(1);
            let scale = (p.unsigned_abs() / g) as i128;
            if scale != 1 {
                for v in y.iter_mut() {
                    *v *= scale;
                }
            }
            let sum: i128 = (0..s).filter(|&c| c != pc).map(|c| mat[r][c] * y[c]).sum();
            debug_assert_eq!(sum % p, 0);
            y[pc] = -sum / p;
        }
        reduce_content(&mut y);
        // Normalise sign: first non-zero coefficient positive.
        if y.iter().find(|&&v| v != 0).is_some_and(|&v| v < 0) {
            for v in y.iter_mut() {
                *v = -*v;
            }
        }
        let coeffs: Vec<i64> = y
            .iter()
            .map(|&v| i64::try_from(v).expect("invariant coefficients fit i64"))
            .collect();
        basis.push(Functional::new(format!("inv{}", basis.len()), coeffs));
    }

    let out = InvariantBasis {
        basis,
        num_states: s,
        num_displacements: m,
    };
    debug_assert!(out
        .basis
        .iter()
        .all(|y| conservation_violations(proto, y).is_empty()));
    out
}

/// The rules that fail to conserve `target`: each violating ordered pair
/// with the (non-zero) drift `target · displacement`.
pub fn conservation_violations(
    proto: &CompiledProtocol,
    target: &Functional,
) -> Vec<(StateId, StateId, i64)> {
    proto
        .rule_entries()
        .filter_map(|e| {
            let drift = target.drift(proto, e.p, e.q);
            (drift != 0).then_some((e.p, e.q, drift))
        })
        .collect()
}

/// Divide a vector by the gcd of its entries (no-op for zero vectors).
fn reduce_content(v: &mut [i128]) {
    let mut g: u128 = 0;
    for &x in v.iter() {
        g = gcd(g, x.unsigned_abs());
    }
    if g > 1 {
        for x in v.iter_mut() {
            *x /= g as i128;
        }
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::spec::ProtocolSpec;

    /// Epidemic (S, I): only rule flips S→I, so the conserved functionals
    /// are spanned by the total count... plus nothing else: rank 1.
    #[test]
    fn epidemic_invariants_are_total_count_only() {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        let p = spec.compile().unwrap();
        let b = extract(&p);
        assert_eq!(b.rank(), 1);
        // The total population functional is (in the span of) the basis.
        assert!(b.implies(&Functional::new("total", vec![1, 1])));
        // The infected count is not conserved.
        assert!(!b.implies(&Functional::new("infected", vec![0, 1])));
    }

    /// A pure renaming protocol (a, a) → (b, b) conserves total count and
    /// nothing finer; adding the reverse rule changes nothing (same
    /// displacement, negated — still rank 1... no: negated is a distinct
    /// column but spans the same line, so the nullspace is identical).
    #[test]
    fn flip_cycle_nullspace() {
        let mut spec = ProtocolSpec::new("flip");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        spec.add_rule(b, b, a, a);
        let p = spec.compile().unwrap();
        let basis = extract(&p);
        assert_eq!(basis.rank(), 1);
        assert!(basis.implies(&Functional::new("total", vec![1, 1])));
        let _ = (a, b);
    }

    /// Two independent populations (no interaction between them) conserve
    /// each side separately: rank 2.
    #[test]
    fn independent_components_give_rank_two() {
        let mut spec = ProtocolSpec::new("pair");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 1);
        let c = spec.add_state("c", 2);
        let d = spec.add_state("d", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b); // a-side churn
        spec.add_rule(c, c, d, d); // c-side churn
        let p = spec.compile().unwrap();
        let basis = extract(&p);
        assert_eq!(basis.rank(), 2);
        assert!(basis.implies(&Functional::new("ab", vec![1, 1, 0, 0])));
        assert!(basis.implies(&Functional::new("cd", vec![0, 0, 1, 1])));
        assert!(!basis.implies(&Functional::new("mix", vec![1, 0, 1, 0])));
        let _ = (a, b, c, d);
    }

    /// Swap-style rules have zero displacement and constrain nothing:
    /// the invariant space is all of ℤ^{|Q|}.
    #[test]
    fn swap_only_protocol_conserves_everything() {
        let mut spec = ProtocolSpec::new("swap");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, b, b, a);
        let p = spec.compile().unwrap();
        let basis = extract(&p);
        assert_eq!(basis.num_displacements, 0);
        assert_eq!(basis.rank(), 2);
        assert!(basis.implies(&Functional::new("a", vec![1, 0])));
        assert!(basis.implies(&Functional::new("b", vec![0, 1])));
    }

    /// Violations are anchored at the offending pairs with their drift.
    #[test]
    fn conservation_violations_are_anchored() {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        let p = spec.compile().unwrap();
        let infected = Functional::new("infected", vec![0, 1]);
        let v = conservation_violations(&p, &infected);
        assert_eq!(v.len(), 2); // both orders of the symmetric rule
        assert!(v.iter().all(|&(_, _, drift)| drift == 1));
        let total = Functional::new("total", vec![1, 1]);
        assert!(conservation_violations(&p, &total).is_empty());
        let _ = (s, i);
    }
}
