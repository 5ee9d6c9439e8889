//! Tiny-size smoke run of all four workloads, untraced and traced,
//! through the real command line: every run must pass its correctness
//! gate (and, traced, its ledger check) and print every metric.

use std::process::Command;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Workload;

#[test]
fn every_workload_passes_its_gate_at_tiny_size() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload.name(), "--seed", "3"])
                .args(["--seconds", "0", "--trace", trace, "--size", "tiny"])
                .arg("--tmp-dir")
                .arg(&tmp)
                .output()
                .expect("spawn perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let context = format!("{} trace={trace}\n{stderr}", workload.name());
            assert!(out.status.success(), "{context}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{context}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{context}");
            let names = if trace == "1" { PER_LAYER } else { END_TO_END };
            for (name, unit) in names {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{name} missing: {context}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{context}");
            }
        }
    }
    // The benchmark writes only under its scratch directory, and leaves
    // nothing but the traced runs' span dumps behind.
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        left.iter().all(|f| f.ends_with(".spans.ndjson")),
        "{left:?}"
    );
}

/// `BENCHMARK.json` declares exactly the metrics the binary prints, with
/// the same units and in the same order, and exactly its workloads. The
/// file keeps one entry per line; the repository's JSON reader has no
/// floats, so the entries are read line by line.
#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    let metrics: Vec<(String, String)> = text
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect();
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(metrics, printed);
    let workloads: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| field(l, "name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
