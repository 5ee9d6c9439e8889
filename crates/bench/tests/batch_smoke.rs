//! CI smoke test for the batch kernel's headline claim: in the giant-n
//! regime the tau-leap kernel must stabilise a population no other
//! kernel can touch, inside a wall-clock budget, and with throughput far
//! beyond the leap kernel's. Timing-sensitive, so it is `#[ignore]`d by
//! default and run in release mode by the CI step
//! `cargo test --release -p pp-bench -- --ignored`.

use pp_bench::kernelbench::measure;
use pp_engine::Kernel;
use pp_protocols::kpartition::UniformKPartition;

/// Giant-n batch smoke: k = 8, n = 10⁷ to stability. The wall budget is
/// deliberately loose — 300 s for a run that takes ~90 s on a dev box,
/// since CI machines vary; the throughput floor is the
/// ISSUE's acceptance bar — at least 50× the leap kernel's scheduler
/// interactions per second measured on an n = 10⁵ cell in the same
/// process. The expected margin is orders of magnitude, so the factor-50
/// assertion has huge slack against machine noise.
#[test]
#[ignore = "timing-sensitive; CI runs it in release mode via -- --ignored"]
fn batch_stabilises_ten_million_agents_within_wall_budget() {
    const WALL_BUDGET_SECS: f64 = 300.0;
    let (k, seed) = (8usize, 20180725u64);

    let leap_n = 100_000u64;
    let leap_budget = UniformKPartition::new(k).interaction_budget(leap_n);
    let leap = measure(Kernel::Leap, k, leap_n, leap_budget, seed);
    assert!(leap.stabilised, "leap reference cell must stabilise");

    let n = 10_000_000u64;
    let budget = UniformKPartition::new(k).interaction_budget(n);
    let batch = measure(Kernel::Batch, k, n, budget, seed);

    println!(
        "leap@1e5:  {:.3e} interactions/s ({} in {:.3}s)",
        leap.interactions_per_sec(),
        leap.interactions,
        leap.seconds
    );
    println!(
        "batch@1e7: {:.3e} interactions/s ({} in {:.3}s, {} effective, stabilised={})",
        batch.interactions_per_sec(),
        batch.interactions,
        batch.seconds,
        batch.effective_interactions,
        batch.stabilised
    );

    assert!(
        batch.stabilised,
        "batch must stabilise n=1e7 within the protocol budget"
    );
    assert!(
        batch.seconds <= WALL_BUDGET_SECS,
        "batch took {:.1}s, over the {WALL_BUDGET_SECS}s wall budget",
        batch.seconds
    );
    assert!(
        batch.interactions_per_sec() >= 50.0 * leap.interactions_per_sec(),
        "batch ({:.3e}/s) under 50x leap reference ({:.3e}/s)",
        batch.interactions_per_sec(),
        leap.interactions_per_sec()
    );
}
