//! Cross-representation and cross-scheduler consistency: the count-vector
//! population (used for all figures) and the per-agent population run by
//! pp-topo's dynamics loop must be statistically interchangeable, and the
//! loop's uniform edge scheduler on the complete graph must match the
//! uniform-pair scheduler.

use pp_engine::observer::NullObserver;
use pp_topo::{run_dynamics, DynRunOutcome, Dynamics, TopoSpec};
use uniform_k_partition::prelude::*;

/// One per-agent run of `proto` on `n` agents under `dynamics`.
fn agent_run<C: StabilityCriterion>(
    proto: &CompiledProtocol,
    n: usize,
    dynamics: &Dynamics,
    criterion: &C,
    budget: u64,
    seed: u64,
) -> DynRunOutcome {
    run_dynamics(
        proto,
        n,
        dynamics,
        criterion,
        budget,
        seed,
        &mut NullObserver,
    )
    .expect("the population and topology are valid")
}

/// Mean interactions to stability of the naive count-vector kernel at
/// `(kp, n)` over `seeds`, checking every run ends uniform.
fn count_mean(kp: &UniformKPartition, n: u64, seeds: std::ops::Range<u64>) -> f64 {
    let proto = kp.compile();
    let sig = kp.stable_signature(n);
    let trials = seeds.end - seeds.start;
    let mut sum = 0u64;
    for seed in seeds {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        sum += Simulator::new(&proto)
            .run(&mut pop, &mut sched, &sig, kp.interaction_budget(n))
            .unwrap()
            .interactions;
        assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n));
    }
    sum as f64 / trials as f64
}

/// Means of interactions-to-stability from the two representations agree
/// within sampling error (they implement the same Markov chain).
#[test]
fn count_and_agent_representations_agree_statistically() {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let n = 24u64;
    let trials = 60u64;
    let sig = kp.stable_signature(n);

    let count_mean = count_mean(&kp, n, 0..trials);

    let mut agent_sum = 0u64;
    for seed in 0..trials {
        let out = agent_run(
            &proto,
            n as usize,
            &Dynamics::default_dynamics(),
            &sig,
            kp.interaction_budget(n),
            1_000_000 + seed,
        );
        agent_sum += out.interactions.expect("stabilises");
        assert_eq!(out.pop.group_sizes(&proto), kp.expected_group_sizes(n));
    }

    let agent_mean = agent_sum as f64 / trials as f64;
    let ratio = count_mean / agent_mean;
    assert!(
        (0.6..1.67).contains(&ratio),
        "means diverge: count {count_mean} vs agent {agent_mean}"
    );
}

/// pp-topo's complete graph under its uniform edge scheduler is the same
/// process as the uniform-pair scheduler: identical stable outcomes,
/// comparable cost.
#[test]
fn complete_graph_scheduler_equivalent_to_uniform() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let n = 20usize;
    let sig = kp.stable_signature(n as u64);
    let complete = Dynamics {
        topo: TopoSpec::Complete,
        ..Dynamics::default_dynamics()
    };
    let mut sum = 0u64;
    for seed in 0..30 {
        let out = agent_run(
            &proto,
            n,
            &complete,
            &sig,
            kp.interaction_budget(n as u64),
            seed,
        );
        sum += out.interactions.expect("stabilises");
        assert_eq!(
            out.pop.group_sizes(&proto),
            kp.expected_group_sizes(n as u64)
        );
    }
    let agent_mean = sum as f64 / 30.0;
    let count_mean = count_mean(&kp, n as u64, 0..30);
    assert!(
        (0.6..1.67).contains(&(count_mean / agent_mean)),
        "means diverge: count {count_mean} vs complete graph {agent_mean}"
    );
}

/// Per-agent stability semantics: once the run stops, every agent's
/// group is frozen — continue interacting at random and confirm no agent
/// ever changes its group again (the paper's §2.2 stability definition,
/// checked per agent rather than per count).
#[test]
fn per_agent_groups_frozen_after_stability() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let n = 21usize; // r = 1: the lone free agent keeps flipping states
    let sig = kp.stable_signature(n as u64);
    let out = agent_run(
        &proto,
        n,
        &Dynamics::default_dynamics(),
        &sig,
        kp.interaction_budget(n as u64),
        5,
    );
    assert!(out.stabilised());
    let mut pop = out.pop;
    let groups_before: Vec<usize> = (0..n).map(|i| pop.group_of(&proto, i).number()).collect();

    // Keep scheduling long after stability.
    let mut sched = UniformRandomScheduler::from_seed(5);
    let mut flips = 0u64;
    for _ in 0..50_000 {
        let (i, j) = sched.select_agents(&pop);
        let (p, q, p2, q2) = pop.interact(&proto, i, j);
        if p != p2 || q != q2 {
            flips += 1;
        }
    }
    let groups_after: Vec<usize> = (0..n).map(|i| pop.group_of(&proto, i).number()).collect();
    assert_eq!(
        groups_before, groups_after,
        "a group changed post-stability"
    );
    // With r = 1 the free agent's initial/initial' flips continue forever
    // (rules 3–4) — state changes happen, group changes don't.
    assert!(flips > 0, "expected the lone free agent to keep flipping");
}

/// The complete-graph assumption is load-bearing: on a star, once the
/// hub settles (the first rule-5 firing always involves the hub), leaves
/// can only ever meet the settled hub and flip — no further agent can
/// settle, so the uniform partition is unreachable. The dynamics loop
/// makes this failure observable.
#[test]
fn star_graph_cannot_partition() {
    let kp = UniformKPartition::new(2);
    let proto = kp.compile();
    let n = 9usize;
    let sig = kp.stable_signature(n as u64);
    let star = Dynamics {
        topo: TopoSpec::Star,
        ..Dynamics::default_dynamics()
    };
    let out = agent_run(&proto, n, &star, &sig, 200_000, 8);
    assert!(!out.stabilised(), "bipartition cannot stabilise on a star");
    // Exactly one pair (hub + one leaf) ever settles: one agent in g2.
    let sizes = out.pop.group_sizes(&proto);
    assert_eq!(
        sizes[1], 1,
        "only the hub's partner reaches group 2: {sizes:?}"
    );
}
