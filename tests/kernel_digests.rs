//! Per-seed trajectory digests of the naive, leap and batch kernels.
//!
//! Each cell runs a few seeds of Algorithm 1 from the all-`initial`
//! configuration and hashes, with `seeds::fnv1a64`, every run's outcome
//! (interactions and effective interactions, or the censoring limit)
//! followed by its final count vector. The grid covers the naive kernel
//! at k = 3, 4 and 8 at n = k + 2 and n = 96, the leap kernel
//! at k = 3, 4, 8 and 16 from the smallest population up to n = 960, the batch
//! kernel's default configuration on cells that take tau-leaps as well
//! as exact bursts of lumped stretches, runs censored at their budget
//! (whose final counts are the configuration at the cut), and one batch
//! cell's observer tallies.
//!
//! The leap grid also covers the shapes of the stability query after a
//! free-agent flip: n = 97 (≡ 1 mod k), where the k-partition signature
//! pools `{initial, initial'}`; the basic strategy under `Silent`, whose
//! rescanning tracker ignores moves within the flip class; and the
//! composed bipartition under its hierarchical criterion, whose tracker
//! does not.
//!
//! A kernel change meant as a pure speed-up moves no RNG draw, counter
//! or count, so it must leave every pinned digest unchanged.

use uniform_k_partition::engine::observer::{FallbackReason, NullObserver, Observer};
use uniform_k_partition::engine::seeds::{derive, fnv1a64};
use uniform_k_partition::engine::simulator::RunError;
use uniform_k_partition::engine::Kernel;
use uniform_k_partition::prelude::*;
use uniform_k_partition::protocols::hierarchical::HierarchicalPartition;
use uniform_k_partition::protocols::kpartition::ablation::BasicStrategyKPartition;

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
    run_digest(
        &kp.compile(),
        &kp.stable_signature(n),
        kernel,
        n,
        trials,
        budget,
    )
}

/// Digest of `trials` seeds of `proto` from all agents in its initial
/// state, `n` agents, on `kernel` under `criterion`, each with the given
/// interaction `budget`.
fn run_digest<C: StabilityCriterion>(
    proto: &CompiledProtocol,
    criterion: &C,
    kernel: Kernel,
    n: u64,
    trials: u64,
    budget: u64,
) -> u64 {
    let sim = Simulator::new(proto);
    let mut bytes = Vec::new();
    for t in 0..trials {
        let mut pop = CountPopulation::new(proto, n);
        let mut sched = UniformRandomScheduler::from_seed(derive(MASTER, t));
        let res = sim.run_kernel(
            kernel,
            &mut pop,
            &mut sched,
            criterion,
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
fn naive_trajectories_match_their_pinned_digests() {
    // (k, n, trials, digest)
    let cells: [(usize, u64, u64, u64); 6] = [
        (3, 5, 4, 0xe2034de4f0e87a63),
        (3, 96, 4, 0x646dd554fb81ea57),
        (4, 6, 4, 0x1a1c6988e98b82ca),
        (4, 96, 4, 0x981abaf088d80f91),
        (8, 10, 4, 0x6700d5679e76a8c0),
        (8, 96, 4, 0xc528519a8af32870),
    ];
    let rows: Vec<(String, u64, u64)> = cells
        .iter()
        .map(|&(k, n, trials, want)| {
            let got = cell_digest(Kernel::Naive, k, n, trials, u64::MAX);
            (format!("naive k={k} n={n}"), got, want)
        })
        .collect();
    check(&rows);
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
fn leap_flip_shapes_match_their_pinned_digests() {
    // n = 97 ≡ 1 (mod k): the stable signature pools the lone free
    // agent's `{initial, initial'}`. (k, n, trials, digest)
    let cells: [(usize, u64, u64, u64); 3] = [
        (3, 97, 4, 0x18392af298796201),
        (4, 97, 4, 0xb384904cb1e1aca1),
        (8, 97, 4, 0x8381ac900c7f5b61),
    ];
    let mut rows: Vec<(String, u64, u64)> = cells
        .iter()
        .map(|&(k, n, trials, want)| {
            let got = cell_digest(Kernel::Leap, k, n, trials, u64::MAX);
            (format!("leap k={k} n={n}"), got, want)
        })
        .collect();
    // The basic strategy under `Silent`: at n = 97 a lone free agent
    // flips forever, so a run ends on the budget (seed 0) or in a silent
    // deadlock (seeds 1–3).
    let (n, trials, budget) = (97, 4, 2_000_000);
    let basic = BasicStrategyKPartition::new(3).compile();
    rows.push((
        format!("leap basic-k3 silent n={n} budget={budget}"),
        run_digest(&basic, &Silent, Kernel::Leap, n, trials, budget),
        0x2214528fdff7b137,
    ));
    // The composed bipartition (h = 2) under its hierarchical criterion.
    let (n, trials) = (96, 4);
    let composed = HierarchicalPartition::composed(2);
    rows.push((
        format!("leap composed-h2 n={n}"),
        run_digest(
            &composed.compile(),
            &composed.stability(),
            Kernel::Leap,
            n,
            trials,
            u64::MAX,
        ),
        0x2fd7ce4572b7dab0,
    ));
    check(&rows);
}

#[test]
fn batch_trajectories_match_their_pinned_digests() {
    // (k, n, trials, digest), default safety threshold.
    let cells: [(usize, u64, u64, u64); 3] = [
        (3, 4_000, 4, 0xaf5e873ab9f5c579),
        (3, 20_000, 2, 0x9725769977749b06),
        (8, 10_000, 1, 0xae8867e311bc5fbd),
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
    // Both batch runs end inside a lumped stretch of an exact burst.
    // (kernel, k, n, trials, budget, digest)
    let cells: [(Kernel, usize, u64, u64, u64, u64); 2] = [
        (Kernel::Leap, 8, 960, 3, 200_000, 0xb16c57e663f2237a),
        (Kernel::Batch, 3, 20_000, 2, 50_000_000, 0xfde99c158409fc85),
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

/// Tallies the batch kernel's batches (tau-leaps and lumped stretches)
/// and fallbacks.
#[derive(Default)]
struct BatchTally {
    leap_batches: u64,
    batch_fallbacks: u64,
}

impl Observer for BatchTally {
    fn on_interaction(
        &mut self,
        _step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        _counts: &[u64],
    ) {
    }

    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, _effective: u64, _counts: &[u64]) {
        self.leap_batches += 1;
    }

    fn on_batch_fallback(&mut self, _reason: FallbackReason) {
        self.batch_fallbacks += 1;
    }
}

/// Four seeds of the batch kernel on a k = 3, n = 4000 cell (the cell a
/// trial fleet, since deleted, was first pinned on): each run's outcome,
/// then the cell's totals of batches as observers see them
/// ([`Observer::on_leap_batch`], tau-leaps and lumped stretches alike),
/// fallbacks, interactions and effective interactions. It pins the
/// kernel's step sequence, not only its endpoints.
#[test]
fn fleet_trajectories_match_their_pinned_digest() {
    let (k, n) = (3usize, 4_000u64);
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let sig = kp.stable_signature(n);
    let sim = Simulator::new(&proto);
    let mut tally = BatchTally::default();
    let (mut interactions, mut effective) = (0u64, 0u64);
    let mut bytes = Vec::new();
    for t in 0..4 {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(derive(MASTER, t));
        let res = sim.run_kernel(
            Kernel::Batch,
            &mut pop,
            &mut sched,
            &sig,
            u64::MAX,
            &mut tally,
        );
        push_outcome(&mut bytes, &res);
        let r = res.expect("an unlimited budget never censors");
        interactions += r.interactions;
        effective += r.effective_interactions;
    }
    for total in [
        tally.leap_batches,
        tally.batch_fallbacks,
        interactions,
        effective,
    ] {
        bytes.extend_from_slice(&total.to_le_bytes());
    }
    check(&[(
        format!("fleet k={k} n={n}"),
        fnv1a64(&bytes),
        0x186f2ee409121722,
    )]);
}
