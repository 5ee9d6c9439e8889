//! Regenerate `BENCH_engine.json`: kernel throughput cells for the
//! naive / leap / batch kernels, including the giant-n batch cell.
//!
//! ```text
//! kernelbench [--giant N] [--wall-budget-secs S] [--out PATH]
//! ```
//!
//! Cells (k = 8, seed fixed):
//!
//! * n = 10³ — all three kernels run to stability (uncensored; the cell
//!   carries a wall-clock naive-vs-leap speedup).
//! * n = 10⁵ — naive capped at 20M interactions (censored), leap and
//!   batch run to stability; the cell-level speedup downgrades to the
//!   `interactions_per_sec` basis (see `pp_bench::kernelbench`).
//! * n = `--giant` (default 10⁸) — batch kernel only: neither the naive
//!   loop nor the leap kernel finishes such a cell in sane wall time,
//!   which is the point of the tau-leap kernel. The run goes to
//!   stability (uncensored) and the document records its throughput
//!   ratio against the leap kernel's n = 10⁵ cell as
//!   `giant_batch_vs_leap_ref` (basis: interactions per second — the
//!   cells do different total work, so wall clocks are not comparable).
//!
//! `--wall-budget-secs` makes the giant cell a CI gate: exit non-zero if
//! the batch run takes longer (or fails to stabilise). CI runs this with
//! `--giant 10000000` and uploads the refreshed JSON as an artifact; the
//! committed file at the workspace root is generated with the default
//! giant n = 10⁸.

#![forbid(unsafe_code)]

use pp_bench::kernelbench::{cell_json, measure};
use pp_engine::Kernel;
use pp_protocols::kpartition::UniformKPartition;
use pp_sweep::json::Value;

const K: usize = 8;
const SEED: u64 = 20180725;

fn parse_args() -> (u64, Option<f64>, Option<String>) {
    let mut giant: u64 = 100_000_000;
    let mut budget: Option<f64> = None;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--giant" => {
                giant = need(i).parse().expect("--giant: integer");
                i += 2;
            }
            "--wall-budget-secs" => {
                budget = Some(need(i).parse().expect("--wall-budget-secs: number"));
                i += 2;
            }
            "--out" => {
                out = Some(need(i).clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    (giant, budget, out)
}

fn main() {
    let (giant_n, wall_budget, out) = parse_args();
    let mut cells = Vec::new();

    // n = 10³: everything runs to stability.
    let n = 1_000u64;
    let budget = UniformKPartition::new(K).interaction_budget(n);
    let small: Vec<_> = Kernel::ALL
        .into_iter()
        .map(|kern| measure(kern, K, n, budget, SEED))
        .collect();
    for m in &small {
        println!(
            "n={n}: {} {:.3e} interactions/s (stabilised={})",
            m.kernel.name(),
            m.interactions_per_sec(),
            m.stabilised
        );
    }
    cells.push(cell_json(n, &small));

    // n = 10⁵: naive is censored at 20M interactions (representative
    // per-interaction throughput at a fraction of the cost), leap and
    // batch go to stability.
    let n = 100_000u64;
    let budget = UniformKPartition::new(K).interaction_budget(n);
    let mid = vec![
        measure(Kernel::Naive, K, n, 20_000_000, SEED),
        measure(Kernel::Leap, K, n, budget, SEED),
        measure(Kernel::Batch, K, n, budget, SEED),
    ];
    let leap_ref = mid[1].interactions_per_sec();
    for m in &mid {
        println!(
            "n={n}: {} {:.3e} interactions/s (stabilised={})",
            m.kernel.name(),
            m.interactions_per_sec(),
            m.stabilised
        );
    }
    cells.push(cell_json(n, &mid));

    // Giant n: batch only.
    let budget = UniformKPartition::new(K).interaction_budget(giant_n);
    let giant = measure(Kernel::Batch, K, giant_n, budget, SEED);
    println!(
        "n={giant_n}: batch {:.3e} interactions/s in {:.1}s (stabilised={})",
        giant.interactions_per_sec(),
        giant.seconds,
        giant.stabilised
    );
    let giant_vs_leap = giant.interactions_per_sec() / leap_ref.max(1e-12);
    println!("giant batch vs leap@n=100000: {giant_vs_leap:.0}x interactions/s");
    cells.push(cell_json(giant_n, &[giant]));

    let doc = Value::obj([
        ("bench", Value::Str("kernel_throughput".to_string())),
        ("k", Value::U64(K as u64)),
        ("seed", Value::U64(SEED)),
        ("cells", Value::Arr(cells)),
        ("giant_batch_vs_leap_ref", Value::U64(giant_vs_leap as u64)),
        (
            "giant_batch_vs_leap_ref_basis",
            Value::Str("interactions_per_sec".to_string()),
        ),
    ]);
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let path = out.unwrap_or_else(|| default_path.to_string());
    std::fs::write(&path, doc.encode() + "\n").expect("write BENCH_engine.json");
    println!("wrote {path}");

    if !giant.stabilised {
        eprintln!("kernelbench: giant batch cell censored at the interaction budget");
        std::process::exit(1);
    }
    if let Some(limit) = wall_budget {
        if giant.seconds > limit {
            eprintln!(
                "kernelbench: giant batch cell took {:.1}s, over the {limit:.1}s wall budget",
                giant.seconds
            );
            std::process::exit(1);
        }
    }
}
