//! CI smoke test for the leap kernel's headline claim: at a reduced
//! population it must already be at least as fast as the naive loop in
//! scheduler interactions per second. Timing-sensitive, so it is
//! `#[ignore]`d by default and run in release mode by the CI step
//! `cargo test --release -p pp-bench -- --ignored`.

use pp_bench::kernelbench::measure;
use pp_engine::Kernel;
use pp_protocols::kpartition::UniformKPartition;

#[test]
#[ignore = "timing-sensitive; CI runs it in release mode via -- --ignored"]
fn leap_not_slower_than_naive_at_reduced_n() {
    let (k, n, seed) = (8usize, 10_000u64, 20180725u64);
    let budget = UniformKPartition::new(k).interaction_budget(n);
    // Cap the naive run so the smoke test stays fast; per-interaction
    // cost is flat, so the censored throughput is representative.
    let naive = measure(Kernel::Naive, k, n, 5_000_000, seed);
    let leap = measure(Kernel::Leap, k, n, budget, seed);

    println!(
        "naive: {:.0} interactions/s ({} in {:.3}s, stabilised={})",
        naive.interactions_per_sec(),
        naive.interactions,
        naive.seconds,
        naive.stabilised
    );
    println!(
        "leap:  {:.0} interactions/s ({} in {:.3}s, {} effective, stabilised={})",
        leap.interactions_per_sec(),
        leap.interactions,
        leap.seconds,
        leap.effective_interactions,
        leap.stabilised
    );

    assert!(
        leap.stabilised,
        "leap must stabilise within the protocol budget"
    );
    assert!(
        leap.interactions_per_sec() >= naive.interactions_per_sec(),
        "leap ({:.0}/s) slower than naive ({:.0}/s)",
        leap.interactions_per_sec(),
        naive.interactions_per_sec()
    );
}
