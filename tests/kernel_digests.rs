//! Per-seed trajectory digests of the leap and batch kernels.
//!
//! Each cell runs a few seeds of Algorithm 1 from the all-`initial`
//! configuration and hashes, with `seeds::fnv1a64`, every run's outcome
//! (interactions and effective interactions, or the censoring limit)
//! followed by its final count vector. The grid covers the leap kernel
//! at k = 3, 4, 8 and 16 from the smallest population up to n = 960, the batch
//! kernel's default configuration on cells that take tau-leaps as well
//! as exact bursts, runs censored at their budget (whose final counts
//! are the configuration at the cut), and one trial fleet.
//!
//! A kernel change meant as a pure speed-up moves no RNG draw, counter
//! or count, so it must leave every pinned digest unchanged.

use uniform_k_partition::engine::observer::NullObserver;
use uniform_k_partition::engine::seeds::{derive, fnv1a64};
use uniform_k_partition::engine::simulator::RunError;
use uniform_k_partition::engine::{run_batch_fleet, Kernel};
use uniform_k_partition::prelude::*;

/// Master seed the per-cell trial seeds derive from.
const MASTER: u64 = 20180725;

/// Append one run's outcome to `bytes`.
fn push_outcome(bytes: &mut Vec<u8>, res: &Result<RunResult, RunError>) {
    match res {
        Ok(r) => {
            bytes.push(0);
            bytes.extend_from_slice(&r.interactions.to_le_bytes());
            bytes.extend_from_slice(&r.effective_interactions.to_le_bytes());
        }
        Err(RunError::InteractionLimit { limit }) => {
            bytes.push(1);
            bytes.extend_from_slice(&limit.to_le_bytes());
        }
        Err(e) => panic!("unexpected run error: {e}"),
    }
}

/// Digest of `trials` seeds of Algorithm 1 at `(k, n)` on `kernel`, each
/// with the given interaction `budget`.
fn cell_digest(kernel: Kernel, k: usize, n: u64, trials: u64, budget: u64) -> u64 {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let sig = kp.stable_signature(n);
    let sim = Simulator::new(&proto);
    let mut bytes = Vec::new();
    for t in 0..trials {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(derive(MASTER, t));
        let res = sim.run_kernel(
            kernel,
            &mut pop,
            &mut sched,
            &sig,
            budget,
            &mut NullObserver,
        );
        push_outcome(&mut bytes, &res);
        for c in pop.counts() {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Check every `(label, got, want)` row, printing the full table so a
/// deliberate trajectory change can re-pin the values in one pass.
fn check(rows: &[(String, u64, u64)]) {
    for (label, got, want) in rows {
        println!("{label}: 0x{got:016x} (pinned 0x{want:016x})");
    }
    let wrong: Vec<&str> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, _, _)| label.as_str())
        .collect();
    assert!(wrong.is_empty(), "trajectories moved in: {wrong:?}");
}

#[test]
fn leap_trajectories_match_their_pinned_digests() {
    // (k, n, trials, digest)
    // k = 16 stops at n = 96: one k = 16, n = 960 run alone takes
    // ~20 s in a debug build.
    let cells: [(usize, u64, u64, u64); 11] = [
        (3, 5, 4, 0xfb0697a598e072cc),
        (3, 96, 4, 0x3bd099f4fa301ef5),
        (3, 960, 3, 0xcb16f144f39bcd45),
        (4, 6, 4, 0x4b5f76d726df7721),
        (4, 96, 4, 0x2343b63ac237a736),
        (4, 960, 3, 0x8a32efb5ce0cdf25),
        (8, 10, 4, 0xdbc80dcd2d6dc332),
        (8, 96, 4, 0x4891c430d1a7fbc6),
        (8, 960, 1, 0xd4f76d8dcd9f7cda),
        (16, 18, 4, 0x3a5a46c2f1e29c39),
        (16, 96, 1, 0x214e2bcd276de535),
    ];
    let rows: Vec<(String, u64, u64)> = cells
        .iter()
        .map(|&(k, n, trials, want)| {
            let got = cell_digest(Kernel::Leap, k, n, trials, u64::MAX);
            (format!("leap k={k} n={n}"), got, want)
        })
        .collect();
    check(&rows);
}

#[test]
fn batch_trajectories_match_their_pinned_digests() {
    // (k, n, trials, digest), default BatchConfig.
    let cells: [(usize, u64, u64, u64); 2] = [
        (3, 20_000, 2, 0x4d137538cd0cf4d3),
        (8, 10_000, 1, 0xb236edc9de6deb8f),
    ];
    let rows: Vec<(String, u64, u64)> = cells
        .iter()
        .map(|&(k, n, trials, want)| {
            let got = cell_digest(Kernel::Batch, k, n, trials, u64::MAX);
            (format!("batch k={k} n={n}"), got, want)
        })
        .collect();
    check(&rows);
}

#[test]
fn censored_trajectories_match_their_pinned_digests() {
    // Budgets far below the stabilisation time: each run ends on the
    // limit path, and the digest pins the configuration it stopped in.
    // (kernel, k, n, trials, budget, digest)
    let cells: [(Kernel, usize, u64, u64, u64, u64); 2] = [
        (Kernel::Leap, 8, 960, 3, 200_000, 0xb16c57e663f2237a),
        (Kernel::Batch, 3, 20_000, 2, 50_000_000, 0x77a1804cf3851c93),
    ];
    let rows: Vec<(String, u64, u64)> = cells
        .iter()
        .map(|&(kernel, k, n, trials, budget, want)| {
            let got = cell_digest(kernel, k, n, trials, budget);
            (format!("{kernel} k={k} n={n} budget={budget}"), got, want)
        })
        .collect();
    check(&rows);
}

#[test]
fn fleet_trajectories_match_their_pinned_digest() {
    let (k, n) = (3usize, 4_000u64);
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let mut initial = vec![0u64; proto.num_states()];
    initial[proto.initial_state().index()] = n;
    let seeds: Vec<u64> = (0..4).map(|t| derive(MASTER, t)).collect();
    let fleet = run_batch_fleet(
        &proto,
        &initial,
        &seeds,
        &kp.stable_signature(n),
        u64::MAX,
        &BatchConfig::default(),
    );
    let mut bytes = Vec::new();
    for res in &fleet.results {
        push_outcome(&mut bytes, res);
    }
    for total in [
        fleet.leap_batches,
        fleet.batch_fallbacks,
        fleet.interactions,
        fleet.effective_interactions,
    ] {
        bytes.extend_from_slice(&total.to_le_bytes());
    }
    check(&[(
        format!("fleet k={k} n={n}"),
        fnv1a64(&bytes),
        0x72c420ea0cc680dc,
    )]);
}
