//! The block-ordered Gauss–Seidel hitting-time solver against a dense
//! reference: the first-step equations of every small k-partition graph,
//! built from the count vectors alone (not from the graph's edge
//! weights) and solved by Gaussian elimination with partial pivoting.

use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_protocols::kpartition::UniformKPartition;
use pp_verify::hitting::{expected_interactions, hitting_moments, SolverOptions};
use pp_verify::ConfigGraph;
use std::collections::HashMap;

/// Graphs up to this many configurations are solved densely.
const DENSE_MAX: usize = 300;

/// Solve `a·x = b` in place (Gaussian elimination, partial pivoting).
fn gauss(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let m = b.len();
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..m {
            let f = a[row][col] / a[col][col];
            if f != 0.0 {
                let (above, below) = a.split_at_mut(row);
                for (x, &p) in below[0][col..].iter_mut().zip(&above[col][col..]) {
                    *x -= f * p;
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let tail: f64 = (row + 1..m).map(|c| a[row][c] * x[c]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    x
}

/// Exact hitting-time mean and second moment from every configuration:
/// `(I − Q)·T = 1` and `(I − Q)·M₂ = 1 + 2·Q·T` over the non-stable
/// configurations, `Q` their transition probabilities (self-loops
/// included).
fn dense_moments(
    graph: &ConfigGraph<'_>,
    proto: &CompiledProtocol,
    stable: &dyn Fn(&[u32]) -> bool,
) -> (Vec<f64>, Vec<f64>) {
    let num = graph.num_configs();
    let n = graph.population_size();
    let pairs = (n * (n - 1)) as f64;
    let index: HashMap<&[u32], u32> = (0..num as u32).map(|id| (graph.config(id), id)).collect();
    let transient: Vec<u32> = (0..num as u32)
        .filter(|&id| !stable(graph.config(id)))
        .collect();
    let row_of: HashMap<u32, usize> = transient
        .iter()
        .enumerate()
        .map(|(r, &id)| (id, r))
        .collect();
    let m = transient.len();
    let mut q = vec![vec![0.0f64; m]; m];
    for (r, &id) in transient.iter().enumerate() {
        let cfg = graph.config(id);
        for (pi, &cp) in cfg.iter().enumerate() {
            for (qi, &cq) in cfg.iter().enumerate() {
                let partners = if pi == qi { cq.saturating_sub(1) } else { cq };
                if cp == 0 || partners == 0 {
                    continue;
                }
                let prob = (u64::from(cp) * u64::from(partners)) as f64 / pairs;
                let (p2, q2) = proto.delta(StateId(pi as u16), StateId(qi as u16));
                let mut next = cfg.to_vec();
                next[pi] -= 1;
                next[qi] -= 1;
                next[p2.index()] += 1;
                next[q2.index()] += 1;
                if let Some(&c) = row_of.get(&index[next.as_slice()]) {
                    q[r][c] += prob;
                }
            }
        }
    }
    let i_minus_q: Vec<Vec<f64>> = (0..m)
        .map(|r| {
            (0..m)
                .map(|c| f64::from(u8::from(r == c)) - q[r][c])
                .collect()
        })
        .collect();
    let t = gauss(i_minus_q.clone(), vec![1.0; m]);
    let b2: Vec<f64> = (0..m)
        .map(|r| 1.0 + 2.0 * (0..m).map(|c| q[r][c] * t[c]).sum::<f64>())
        .collect();
    let m2 = gauss(i_minus_q, b2);
    let mut mean = vec![0.0; num];
    let mut second = vec![0.0; num];
    for (r, &id) in transient.iter().enumerate() {
        mean[id as usize] = t[r];
        second[id as usize] = m2[r];
    }
    (mean, second)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

#[test]
fn solver_matches_dense_elimination_on_small_kpartition_graphs() {
    let mut checked = 0;
    for k in 2..=5usize {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        for n in (k as u64).max(3).. {
            let graph = ConfigGraph::explore(&proto, n, 10_000).unwrap();
            if graph.num_configs() > DENSE_MAX {
                break;
            }
            let sig = kp.stable_signature(n);
            let stable = |cfg: &[u32]| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                sig.matches(&counts)
            };
            let (mean, second) = dense_moments(&graph, &proto, &stable);
            let ht = expected_interactions(&graph, stable, SolverOptions::default()).unwrap();
            for (id, (&got, &want)) in ht.expected.iter().zip(&mean).enumerate() {
                assert!(close(got, want), "k={k} n={n} config {id}: {got} vs {want}");
            }
            let moments = hitting_moments(&graph, stable, SolverOptions::default()).unwrap();
            let std_dev = (second[0] - mean[0] * mean[0]).max(0.0).sqrt();
            assert!(
                close(moments.mean, mean[0]),
                "k={k} n={n}: mean {}",
                moments.mean
            );
            assert!(
                close(moments.std_dev, std_dev),
                "k={k} n={n}: std {} vs {std_dev}",
                moments.std_dev
            );
            checked += 1;
        }
    }
    // k = 2 reaches n ≈ 32 under the cap, k = 5 stops near n = 10.
    assert!(checked >= 40, "only {checked} graphs checked");
}

/// Near machine precision the block solver still converges: it
/// extrapolates at most once per tenfold drop of the update, so a poor
/// jump cannot hold the residual up. (Without that rationing these two
/// graphs stop converging at this tolerance.)
#[test]
fn tolerance_near_machine_precision_still_converges() {
    let tight = SolverOptions {
        tolerance: 1e-15,
        ..SolverOptions::default()
    };
    for (k, n) in [(5usize, 17u64), (8, 15)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let graph = ConfigGraph::explore(&proto, n, 10_000).unwrap();
        let sig = kp.stable_signature(n);
        let stable = |cfg: &[u32]| {
            let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
            sig.matches(&counts)
        };
        let want = expected_interactions(&graph, stable, SolverOptions::default())
            .unwrap()
            .expected_from_initial;
        let got = expected_interactions(&graph, stable, tight).unwrap();
        assert!(
            (got.expected_from_initial - want).abs() <= 1e-9 * want,
            "k={k} n={n}: {} vs {want}",
            got.expected_from_initial
        );
        let moments = hitting_moments(&graph, stable, tight).unwrap();
        assert_eq!(moments.mean, got.expected_from_initial, "k={k} n={n}");
    }
}
