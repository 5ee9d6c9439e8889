//! Criterion benchmarks, one group per paper artifact.
//!
//! These measure the *wall-clock cost of regenerating* each figure's data
//! points (the full-fidelity runs live in the `fig3..fig6` binaries;
//! here each group benches representative cells at reduced trial counts
//! so `cargo bench` finishes in minutes). Regressions here mean the
//! reproduction pipeline — protocol table, sampler, stability check —
//! got slower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_analysis::experiments::{kpartition_cell, kpartition_grouping_cell};
use pp_analysis::runner::{run_trials_with, TrialConfig};
use pp_engine::observer::NullObserver;
use pp_engine::stability::Silent;
use pp_engine::Kernel;
use pp_protocols::hierarchical::HierarchicalPartition;
use pp_protocols::kpartition::ablation::BasicStrategyKPartition;

const TRIALS: usize = 5;
const SEED: u64 = 20_180_725;

/// Figure 3 cells: n-sweep at k ∈ {4, 6, 8} (one low, one high n each).
fn fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    for &(k, n) in &[(4usize, 24u64), (4, 96), (6, 96), (8, 96)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &(k, n),
            |b, &(k, n)| b.iter(|| kpartition_cell(k, n, TRIALS, SEED)),
        );
    }
    g.finish();
}

/// Figure 4 cells: the instrumented (observer-carrying) variant.
fn fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    for &(k, n) in &[(4usize, 48u64), (6, 48)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &(k, n),
            |b, &(k, n)| b.iter(|| kpartition_grouping_cell(k, n, TRIALS, SEED)),
        );
    }
    g.finish();
}

/// Figure 5 cells: large-n, n mod k = 0.
fn fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    for &(k, n) in &[(3usize, 120u64), (6, 120), (3, 360)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &(k, n),
            |b, &(k, n)| b.iter(|| kpartition_cell(k, n, TRIALS, SEED)),
        );
    }
    g.finish();
}

/// Figure 6 cells: fixed n = 960, growing k (the exponential axis).
/// Trials reduced further — these are the heaviest points.
fn fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    for &k in &[2usize, 4, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, &k| {
            b.iter(|| kpartition_cell(k, 960, 2, SEED))
        });
    }
    g.finish();
}

/// Ablation + baseline pipelines (the non-figure experiment binaries).
fn ablation_and_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_baselines");
    g.sample_size(10);
    g.bench_function("basic_strategy_k4_n24", |b| {
        let bp = BasicStrategyKPartition::new(4);
        let proto = bp.compile();
        b.iter(|| {
            run_trials_with(
                &proto,
                24,
                &Silent,
                TrialConfig {
                    trials: TRIALS,
                    master_seed: SEED,
                    max_interactions: 1_000_000_000,
                },
                Kernel::Leap,
                || NullObserver,
            )
        })
    });
    g.bench_function("hierarchical_k8_n96", |b| {
        let hp = HierarchicalPartition::composed(3);
        let proto = hp.compile();
        let crit = hp.stability();
        b.iter(|| {
            run_trials_with(
                &proto,
                96,
                &crit,
                TrialConfig {
                    trials: TRIALS,
                    master_seed: SEED,
                    max_interactions: 1_000_000_000,
                },
                Kernel::Leap,
                || NullObserver,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, fig3, fig4, fig5, fig6, ablation_and_baselines);
criterion_main!(benches);
