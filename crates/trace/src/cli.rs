//! The `pp-trace` command-line interface.
//!
//! ```text
//! pp-trace record --k K --n N --seed S [--kernel naive|leap|batch] [--budget B] --out FILE
//! pp-trace info FILE            header + size summary
//! pp-trace events FILE [--limit L]   lifecycle events + per-rule firings
//! pp-trace replay FILE [--at STEP]   deterministic replay (and config at a step)
//! pp-trace verify FILE          replay + live re-run bit-identity proof
//! pp-trace lemma1 FILE          online Lemma-1 invariant check
//! ```
//!
//! `record` runs the leap kernel unless `--kernel` names another one.
//! The batch kernel reports tau-leaps only in bulk, so a batch request
//! records on its stand-in, the exact leap kernel — as `pp-sweep run
//! --trace` does — and the header says `leap`.

use crate::classify::{check_lemma1, classify, Event, Lemma1Report};
use crate::format::{TraceError, TraceKernel};
use crate::live::{record_kpartition, verify_against_live};
use crate::replay::Trace;
use pp_engine::simulator::Kernel;
use pp_protocols::kpartition::UniformKPartition;
use std::path::Path;

/// Entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("pp-trace: {msg}");
            1
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "record" => cmd_record(rest),
        "info" => cmd_info(rest),
        "events" => cmd_events(rest),
        "replay" => cmd_replay(rest),
        "verify" => cmd_verify(rest),
        "lemma1" => cmd_lemma1(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `pp-trace help`)")),
    }
}

fn print_usage() {
    println!(
        "pp-trace: record, replay, and diagnose population-protocol executions

usage:
  pp-trace record --k K --n N --seed S [--kernel naive|leap|batch] [--budget B] --out FILE
  pp-trace info FILE
  pp-trace events FILE [--limit L]
  pp-trace replay FILE [--at STEP]
  pp-trace verify FILE
  pp-trace lemma1 FILE"
    );
}

/// Parsed `--flag value` pairs, last occurrence winning (see [`opt`]).
type Opts = Vec<(String, String)>;

/// Parse `--flag value` pairs and positionals from `args`.
fn parse_opts(args: &[String]) -> Result<(Opts, Vec<String>), String> {
    let mut opts = Vec::new();
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let v = it
                .next()
                .ok_or_else(|| format!("--{flag} requires a value"))?;
            opts.push((flag.to_string(), v.clone()));
        } else {
            pos.push(a.clone());
        }
    }
    Ok((opts, pos))
}

fn opt<'a>(opts: &'a [(String, String)], name: &str) -> Option<&'a str> {
    opts.iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_u64(opts: &[(String, String)], name: &str) -> Result<Option<u64>, String> {
    opt(opts, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} expects an integer, got `{v}`"))
        })
        .transpose()
}

/// The trace kernel that records the kernel `--kernel` names
/// (case-insensitive; leap when absent).
fn kernel_from(opts: &[(String, String)]) -> Result<TraceKernel, String> {
    let kernel = match opt(opts, "kernel") {
        None => Kernel::Leap,
        Some(name) => Kernel::parse(&name.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown kernel `{name}` (naive|leap|batch)"))?,
    };
    Ok(TraceKernel::recording(kernel))
}

fn load(path: &str) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn one_file(pos: &[String], cmd: &str) -> Result<String, String> {
    match pos {
        [f] => Ok(f.clone()),
        _ => Err(format!("`pp-trace {cmd}` takes exactly one trace file")),
    }
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    if !pos.is_empty() {
        return Err("`pp-trace record` takes only --flag options".into());
    }
    let k = parse_u64(&opts, "k")?.ok_or("--k is required")? as usize;
    let n = parse_u64(&opts, "n")?.ok_or("--n is required")?;
    let seed = parse_u64(&opts, "seed")?.unwrap_or(20_180_725);
    let budget = parse_u64(&opts, "budget")?;
    let kernel = kernel_from(&opts)?;
    let out_path = opt(&opts, "out").ok_or("--out is required")?;
    UniformKPartition::try_new(k).map_err(|e| e.to_string())?;
    let out = record_kpartition(k, n, seed, kernel, budget)
        .map_err(|e| format!("cannot record uniform-{k}-partition n={n}: {e}"))?;
    write_atomic(Path::new(out_path), &out.bytes)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "recorded uniform-{k}-partition n={n} seed={seed} kernel={kernel}: \
         {} interactions ({} effective){} -> {out_path} ({} bytes)",
        out.interactions,
        out.effective,
        if out.censored { " [censored]" } else { "" },
        out.bytes.len()
    );
    Ok(())
}

/// Write via a temp file + rename so readers never see a torn trace.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("trace.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    if !opts.is_empty() {
        return Err("`pp-trace info` takes no options".into());
    }
    let path = one_file(&pos, "info")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let h = &trace.header;
    println!("trace     {path} ({} bytes)", bytes.len());
    println!("protocol  {} ({} states)", h.protocol, h.state_names.len());
    println!("n         {}", h.n);
    println!("seed      {}", h.seed);
    println!("kernel    {}", h.kernel);
    println!(
        "records   {} effective + {} identity-run (covering {} identities)",
        trace.effective_len(),
        trace.records.len() as u64 - trace.effective_len(),
        trace.identity_total()
    );
    println!("last step {}", trace.last_step());
    let nonzero: Vec<String> = trace
        .final_counts
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, c)| format!("{}:{c}", h.state_names[i]))
        .collect();
    println!("final     {}", nonzero.join(" "));
    Ok(())
}

fn cmd_events(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    let limit = parse_u64(&opts, "limit")?.unwrap_or(u64::MAX) as usize;
    let path = one_file(&pos, "events")?;
    let trace = load(&path)?;
    let diag = classify(&trace).map_err(|e| format!("{path}: {e}"))?;
    println!("rule firings:");
    for (rule, count) in &diag.rule_firings {
        println!("  {rule:<4} {count}");
    }
    if diag.unattributed > 0 {
        println!("  (unattributed: {})", diag.unattributed);
    }
    println!(
        "lifecycle: {} births, {} advances, {} completions, {} aborts, \
         {} demolition steps, {} demolitions finished",
        diag.births,
        diag.advances,
        diag.completions,
        diag.aborts,
        diag.demolition_steps,
        diag.demolitions
    );
    for ev in diag.events.iter().take(limit) {
        match *ev {
            Event::ChainBirth { step } => println!("{step:>10}  chain birth"),
            Event::BuilderAdvance { step, level } => {
                println!("{step:>10}  builder advance -> m{level}")
            }
            Event::ChainCompletion { step } => println!("{step:>10}  chain completion"),
            Event::ChainAbort { step, i, j } => {
                println!("{step:>10}  chain abort (m{i} vs m{j})")
            }
            Event::DemolitionStep { step, level } => {
                println!("{step:>10}  demolition step at d{level}")
            }
            Event::DemolitionComplete { step } => {
                println!("{step:>10}  demolition complete")
            }
        }
    }
    if diag.events.len() > limit {
        println!("... {} more events", diag.events.len() - limit);
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    let at = parse_u64(&opts, "at")?;
    let path = one_file(&pos, "replay")?;
    let trace = load(&path)?;
    let summary = trace.replay().map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replayed {} interactions ({} effective, {} identity): final counts match footer",
        summary.interactions, summary.effective, summary.identity
    );
    if let Some(t) = at {
        let config = trace.config_at(t).map_err(|e| format!("{path}: {e}"))?;
        let pretty: Vec<String> = config
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| format!("{}:{c}", trace.header.state_names[i]))
            .collect();
        println!("config at step {t}: {}", pretty.join(" "));
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    if !opts.is_empty() {
        return Err("`pp-trace verify` takes no options".into());
    }
    let path = one_file(&pos, "verify")?;
    let trace = load(&path)?;
    let report = verify_against_live(&trace).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "verified: replay of {} effective interactions is bit-identical to the live \
         {} run ({} interactions{})",
        report.replay.effective,
        trace.header.kernel,
        report.live_interactions,
        if report.censored { ", censored" } else { "" }
    );
    Ok(())
}

fn cmd_lemma1(args: &[String]) -> Result<(), String> {
    let (opts, pos) = parse_opts(args)?;
    if !opts.is_empty() {
        return Err("`pp-trace lemma1` takes no options".into());
    }
    let path = one_file(&pos, "lemma1")?;
    let trace = load(&path)?;
    match check_lemma1(&trace).map_err(|e| format!("{path}: {e}"))? {
        Lemma1Report::Holds { checked } => {
            println!("lemma 1 holds at all {checked} recorded configurations");
            Ok(())
        }
        Lemma1Report::ViolatedAt { step, residual } => Err(format!(
            "lemma 1 violated at step {step}: residual {residual:?}"
        )),
    }
}

/// Convert an I/O-free [`TraceError`] into the CLI's error string.
pub fn describe(err: &TraceError) -> String {
    err.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_opts_splits_flags_and_positionals() {
        let args: Vec<String> = ["--k", "4", "file.trace", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, pos) = parse_opts(&args).unwrap();
        assert_eq!(opt(&opts, "k"), Some("4"));
        assert_eq!(opt(&opts, "seed"), Some("7"));
        assert_eq!(pos, vec!["file.trace"]);
        assert!(parse_opts(&["--k".to_string()]).is_err());
    }

    #[test]
    fn kernel_names_resolve_to_their_recording_kernel() {
        let kernel = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            kernel_from(&parse_opts(&args).unwrap().0)
        };
        assert_eq!(kernel(&["--kernel", "naive"]), Ok(TraceKernel::Naive));
        assert_eq!(kernel(&["--kernel", "leap"]), Ok(TraceKernel::Leap));
        assert_eq!(kernel(&["--kernel", "batch"]), Ok(TraceKernel::Leap));
        assert_eq!(kernel(&["--kernel", "BATCH"]), Ok(TraceKernel::Leap));
        assert_eq!(kernel(&[]), Ok(TraceKernel::Leap));
        assert!(kernel(&["--kernel", "auto"]).is_err());
        assert!(kernel(&["--kernel", "fleet"]).is_err());
    }

    #[test]
    fn record_verify_lemma1_end_to_end() {
        let dir = std::env::temp_dir().join("pp-trace-cli-test");
        let path = dir.join("cell.trace");
        let _ = std::fs::remove_file(&path);
        let args: Vec<String> = [
            "record", "--k", "3", "--n", "8", "--seed", "11", "--kernel", "naive", "--out",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([path.to_string_lossy().into_owned()])
        .collect();
        assert_eq!(main_with_args(&args), 0);
        for cmd in ["info", "events", "replay", "verify", "lemma1"] {
            let args = vec![cmd.to_string(), path.to_string_lossy().into_owned()];
            assert_eq!(main_with_args(&args), 0, "pp-trace {cmd} failed");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_records_on_the_leap_stand_in() {
        let dir = std::env::temp_dir().join("pp-trace-cli-test");
        let path = dir.join("batch.trace");
        let _ = std::fs::remove_file(&path);
        let args: Vec<String> = [
            "record", "--k", "3", "--n", "9", "--seed", "1", "--kernel", "batch", "--out",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([path.to_string_lossy().into_owned()])
        .collect();
        assert_eq!(main_with_args(&args), 0);
        let trace = load(&path.to_string_lossy()).unwrap();
        assert_eq!(trace.header.kernel, TraceKernel::Leap);
        let args = vec!["verify".to_string(), path.to_string_lossy().into_owned()];
        assert_eq!(main_with_args(&args), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_run_that_cannot_start_fails_without_writing() {
        // n = 2³² + 1: the leap kernel (batch's stand-in) refuses before
        // any draw, so nothing is recorded.
        let dir = std::env::temp_dir().join("pp-trace-cli-test");
        for kernel in ["leap", "batch"] {
            let path = dir.join(format!("too-large-{kernel}.trace"));
            let _ = std::fs::remove_file(&path);
            let args: Vec<String> = ["record", "--k", "3", "--n", "4294967297", "--kernel"]
                .iter()
                .map(|s| s.to_string())
                .chain([kernel.to_string(), "--out".to_string()])
                .chain([path.to_string_lossy().into_owned()])
                .collect();
            assert_eq!(main_with_args(&args), 1, "{kernel}");
            assert!(!path.exists(), "{kernel}: a trace was written");
        }
    }
}
