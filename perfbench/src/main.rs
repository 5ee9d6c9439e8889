//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload <sweep_fig|giant_batch|serve_mixed|verify_ladder>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--tmp-dir <dir>]
//! ```
//!
//! Prints a human-readable summary on standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when every check passed, 1 when one
//! failed (naming it on standard error), 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Ctx, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <sweep_fig|giant_batch|serve_mixed|verify_ladder> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--tmp-dir <dir>]"
    );
    ExitCode::from(2)
}

/// Make the run independent of ambient experiment knobs: library code
/// below the CLIs still reads a few of them.
fn hermetic_env(results: &std::path::Path) {
    for knob in [
        "PP_KERNEL",
        "PP_TRIALS",
        "PP_SEED",
        "PP_STORE_BACKEND",
        "PP_FLIGHT_CAPACITY",
        "PP_FLIGHT_DUMP",
        "PP_FIG6_KMAX",
    ] {
        std::env::remove_var(knob);
    }
    // Report CSVs land in the run's scratch directory, never in results/.
    std::env::set_var("PP_RESULTS_DIR", results);
    std::env::set_var("RAYON_NUM_THREADS", perfbench::WORKERS.to_string());
}

fn main() -> ExitCode {
    perfbench::ledger::epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut tmp_dir = PathBuf::from(".perfbench_tmp");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--size" => match value.as_str() {
                "full" => tiny = false,
                "tiny" => tiny = true,
                _ => return usage(&format!("unknown size {value}")),
            },
            "--tmp-dir" => tmp_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let dir = tmp_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(dir.join("results")) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    hermetic_env(&dir.join("results"));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        tiny,
        spans_path: tmp_dir.join(format!("{}-seed{seed}.spans.ndjson", workload.name())),
        dir: dir.clone(),
    };
    let mut report = perfbench::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&dir);

    let line = report.to_json(trace);
    eprintln!(
        "perfbench {} seed={seed} trace={}: {} ops attempted, {} failed",
        workload.name(),
        u8::from(trace),
        report.checks.attempted,
        report.checks.failed
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for (name, value) in &report.values {
        eprintln!("  {name} = {value}");
    }
    for (check, count) in &report.checks.failures {
        eprintln!("  FAILED {check} ({count}x)");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
