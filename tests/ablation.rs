//! A1: the basic-strategy ablation (rules 1–7 without the D states) fails
//! on random executions with measurable probability, while the full
//! protocol succeeds on every one — the quantitative form of §3.2.

use pp_engine::population::{CountPopulation, Population};
use pp_sweep::exec::{run_cell, ExecOptions, TrialOutcome};
use pp_sweep::observer::NullObserver;
use pp_sweep::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};
use pp_sweep::store::ResultStore;
use uniform_k_partition::prelude::*;
use uniform_k_partition::protocols::kpartition::ablation::BasicStrategyKPartition;

/// Every trial's outcome, final configuration included, on the leap
/// kernel: trial `i` runs with `derive(seed, i)`. The basic strategy
/// stops at silence within a 10⁹-interaction budget, the full protocol
/// at its stable signature within its own budget.
fn full_outcomes(protocol: ProtocolId, n: u64, trials: usize, seed: u64) -> Vec<TrialOutcome> {
    let (criterion, budget) = match protocol {
        ProtocolId::BasicStrategy { .. } => (CriterionKind::Silent, 1_000_000_000),
        ProtocolId::UniformKPartition { k } => (
            CriterionKind::Stable,
            UniformKPartition::new(k).interaction_budget(n),
        ),
        other => panic!("no ablation cell for {other:?}"),
    };
    let spec = CellSpec {
        protocol,
        n,
        trials,
        seed,
        criterion,
        budget,
        mode: CellMode::Full,
        kernel: KernelChoice::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    };
    run_cell(
        &spec,
        &ResultStore::in_memory(),
        &NullObserver,
        &ExecOptions::default(),
    )
    .expect("no trial fails")
    .expect_complete()
    .outcomes()
}

#[test]
fn basic_strategy_deadlocks_with_positive_probability() {
    let bp = BasicStrategyKPartition::new(4);
    let proto = bp.compile();
    let n = 12u64;
    let outcomes = full_outcomes(ProtocolId::BasicStrategy { k: 4 }, n, 60, 2);
    let mut deadlocks = 0;
    for o in &outcomes {
        assert!(
            o.interactions.is_some(),
            "basic strategy must always reach a silent configuration"
        );
        let pop = CountPopulation::from_counts(o.final_counts.clone());
        let sizes = pop.group_sizes(&proto);
        if bp.is_deadlocked(&o.final_counts) {
            deadlocks += 1;
            // Deadlocked runs are non-uniform…
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() > 1);
        } else {
            // …and non-deadlocked runs are perfectly uniform.
            assert_eq!(sizes, vec![3, 3, 3, 3]);
        }
    }
    // At n = 12, k = 4 concurrent chains are common; over 60 seeded trials
    // the deadlock count is deterministic and comfortably positive.
    assert!(
        deadlocks >= 5,
        "expected frequent deadlocks, saw {deadlocks}/60"
    );
}

#[test]
fn full_protocol_never_deadlocks_on_same_cells() {
    for (k, n) in [(4usize, 12u64), (5, 20), (6, 24)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let outcomes = full_outcomes(ProtocolId::UniformKPartition { k }, n, 30, 3);
        for o in &outcomes {
            assert!(o.interactions.is_some(), "k={k} n={n}: censored run");
            let pop = CountPopulation::from_counts(o.final_counts.clone());
            assert_eq!(
                pop.group_sizes(&proto),
                kp.expected_group_sizes(n),
                "k={k} n={n}"
            );
        }
    }
}

/// The D states cost something: on cells where the basic strategy
/// *happens* to succeed it can be cheaper than the full protocol, but the
/// full protocol's price buys certainty. This test just documents that
/// both protocols produce comparable interaction scales (within 100x) so
/// the ablation table is meaningful.
#[test]
fn ablation_costs_are_comparable() {
    let mean = |protocol| {
        let out = full_outcomes(protocol, 12, 20, 4);
        out.iter().map(|o| o.interactions.unwrap()).sum::<u64>() as f64 / 20.0
    };
    let full = mean(ProtocolId::UniformKPartition { k: 4 });
    let basic = mean(ProtocolId::BasicStrategy { k: 4 });
    assert!(basic > 0.0 && full > 0.0);
    assert!(full / basic < 100.0 && basic / full < 100.0);
}
