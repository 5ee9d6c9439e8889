//! Application: repartitioning after agent failures ("when birds die").
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```
//!
//! The paper's introduction cites fault tolerance (Delporte-Gallet et al.,
//! "When birds die") as a use of uniform k-partition. This example
//! demonstrates the failure mode and the recovery path:
//!
//! 1. A swarm of 40 sensors partitions into 4 groups of 10.
//! 2. A storm knocks out a quarter of the swarm — disproportionately
//!    from group 1 —
//!    leaving the partition badly skewed (the protocol has designated
//!    initial states and is *not* self-stabilizing, so it cannot repair
//!    itself: the survivors' states are frozen).
//! 3. A reset wave re-initialises the survivors (in practice a broadcast
//!    or epidemic reset), and the protocol re-partitions them from
//!    scratch into 4 groups whose sizes differ by at most one.
//!
//! The per-agent [`AgentPopulation`] representation is what makes step 2
//! expressible: we remove specific agents, not just counts. Per-agent
//! runs go through pp-topo's dynamics loop, which on the default
//! dynamics is the paper's model (complete graph, uniform scheduler).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uniform_k_partition::engine::observer::NullObserver;
use uniform_k_partition::prelude::*;
use uniform_k_partition::topo::{run_dynamics, Dynamics, TopoSpec};

fn main() {
    let k = 4;
    let n = 40usize;
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let complete = Dynamics::default_dynamics();

    // Phase 1: partition the healthy swarm.
    let run = run_dynamics(
        &proto,
        n,
        &complete,
        &kp.stable_signature(n as u64),
        kp.interaction_budget(n as u64),
        13,
        &mut NullObserver,
    )
    .expect("the swarm is large enough to run");
    let mut pop = run.pop;
    println!(
        "phase 1: {} sensors -> groups {:?} after {} interactions",
        n,
        pop.group_sizes(&proto),
        run.interactions.expect("initial partition stabilises")
    );

    // Phase 2: the storm. Kill 8 of group 1's sensors and 3 others.
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut group1: Vec<usize> = (0..pop.num_agents() as usize)
        .filter(|&i| pop.group_of(&proto, i).number() == 1)
        .collect();
    group1.shuffle(&mut rng);
    let mut doomed: Vec<usize> = group1.into_iter().take(8).collect();
    let extra: Vec<usize> = [0, 1, 2]
        .into_iter()
        .filter(|i| !doomed.contains(i))
        .take(3)
        .collect();
    doomed.extend(extra);
    doomed.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back first
    for i in doomed {
        pop.remove_agent(i);
    }
    let skewed = pop.group_sizes(&proto);
    println!(
        "phase 2: storm leaves {} survivors, groups {:?} — imbalance {}",
        pop.num_agents(),
        skewed,
        skewed.iter().max().unwrap() - skewed.iter().min().unwrap()
    );
    assert!(
        skewed.iter().max().unwrap() - skewed.iter().min().unwrap() > 1,
        "the partition is no longer uniform"
    );

    // The frozen survivors cannot repair themselves: their configuration
    // is already group-stable (settled g-agents never interact usefully).
    let survivors = pop.num_agents();

    // Phase 3: the reset wave puts every survivor back in the initial
    // state, which is the population a fresh run starts from; re-partition.
    let run = run_dynamics(
        &proto,
        survivors as usize,
        &complete,
        &kp.stable_signature(survivors),
        kp.interaction_budget(survivors),
        14,
        &mut NullObserver,
    )
    .expect("the survivors are enough to run");
    let healed = run.pop.group_sizes(&proto);
    println!(
        "phase 3: re-partitioned {survivors} survivors -> {:?} after {} interactions",
        healed,
        run.interactions.expect("re-partition stabilises")
    );
    assert_eq!(healed, kp.expected_group_sizes(survivors));
    println!("uniformity restored  ✓");

    // Bonus: the same loop runs on restricted interaction graphs. On a
    // ring the chain-builder can still meet everyone eventually, but
    // scheduling is graph-limited; this is outside the paper's model
    // (complete graphs) and shown here only as an engine capability.
    let ring = Dynamics {
        topo: TopoSpec::Ring,
        ..Dynamics::default_dynamics()
    };
    let run = run_dynamics(
        &proto,
        survivors as usize,
        &ring,
        &kp.stable_signature(survivors),
        5_000_000,
        15,
        &mut NullObserver,
    )
    .expect("a ring of survivors is a valid topology");
    match run.interactions {
        Some(i) => println!("ring topology: stabilised anyway after {i} interactions (slower mixing)"),
        None => println!(
            "ring topology: no stable configuration within 5000000 interactions — the complete-graph assumption matters"
        ),
    }
}
