//! Flight-recorder integration tests: concurrent writers racing a
//! drain (also exercised under the CI TSan lane), wrap-around ordering
//! under contention, and the panic-hook dump producing parseable NDJSON
//! (checked in a child process so the panic doesn't fail the test).

use pp_obs::{FlightRecorder, RecordKind};
use pp_telemetry::json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_writers_vs_drain_yields_consistent_snapshots() {
    let rec = Arc::new(FlightRecorder::with_capacity(64));
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 4;
    let per_writer = 2_000u64;
    // Writers start after the drainer's first snapshot, so the drainer
    // drains at least once however the threads are scheduled.
    let start = Arc::new(Barrier::new(writers as usize + 1));
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..writers {
            let rec = Arc::clone(&rec);
            let start = Arc::clone(&start);
            handles.push(scope.spawn(move || {
                start.wait();
                for i in 0..per_writer {
                    // Payload encodes (writer, i) so a torn slot that
                    // slipped past the seqlock would be detectable.
                    rec.record(
                        RecordKind::Event,
                        0,
                        0,
                        "stress.tick",
                        "",
                        i,
                        i,
                        w * per_writer + i,
                    );
                }
            }));
        }
        let drainer = {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            scope.spawn(move || {
                let mut drains = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = rec.snapshot();
                    // Every snapshot must be strictly ordered and
                    // internally consistent regardless of racing writers.
                    for pair in snap.windows(2) {
                        assert!(pair[0].seq < pair[1].seq, "unsorted snapshot");
                    }
                    for r in &snap {
                        assert_eq!(r.name, "stress.tick");
                        assert_eq!(r.start_micros, r.end_micros);
                        assert_eq!(r.start_micros, r.value % per_writer);
                    }
                    drains += 1;
                    if drains == 1 {
                        start.wait();
                    }
                }
                drains
            })
        };
        // The drainer hammers snapshots until every writer is done.
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(drainer.join().unwrap() >= 1);
    });
    // Quiescent state: all writes counted, the ring holds the newest 64.
    assert_eq!(rec.written(), writers * per_writer);
    let snap = rec.snapshot();
    assert_eq!(snap.len(), 64);
    let lo = writers * per_writer - 64;
    assert_eq!(
        snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
        (lo..writers * per_writer).collect::<Vec<_>>()
    );
}

#[test]
fn wraparound_under_contention_keeps_only_the_newest() {
    let rec = Arc::new(FlightRecorder::with_capacity(8));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let rec = Arc::clone(&rec);
            scope.spawn(move || {
                for i in 0..500u64 {
                    rec.record(RecordKind::Event, 0, 0, "wrap", "", i, i, i);
                }
            });
        }
    });
    let total = rec.written();
    assert_eq!(total, 2_000);
    let snap = rec.snapshot();
    assert_eq!(snap.len(), 8);
    for (offset, r) in snap.iter().enumerate() {
        assert_eq!(r.seq, total - 8 + offset as u64);
    }
}

/// Child-process half of `panic_hook_dumps_parseable_ndjson`: records a
/// span tree, installs the hook, panics.
#[test]
#[ignore = "helper: runs only as a child of panic_hook_dumps_parseable_ndjson"]
fn panic_hook_child() {
    if std::env::var("PP_FLIGHT_DUMP").is_err() {
        return; // invoked by a bare `--ignored` sweep, not by the parent
    }
    pp_obs::install_panic_hook();
    let outer = pp_obs::span_labelled("child.outer", "boom");
    let _inner = pp_obs::span("child.inner");
    pp_obs::event("child.event", 99);
    let _keep = outer;
    panic!("deliberate crash for the flight-recorder dump");
}

#[test]
fn panic_hook_dumps_parseable_ndjson() {
    let exe = std::env::current_exe().unwrap();
    let dump = std::env::temp_dir().join(format!("pp-obs-panic-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let out = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "panic_hook_child"])
        .env("PP_FLIGHT_DUMP", &dump)
        .env("RUST_BACKTRACE", "0")
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "child was expected to die by panic: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = std::fs::read_to_string(&dump).expect("panic hook should have written the dump");
    let _ = std::fs::remove_file(&dump);
    let mut names = Vec::new();
    let mut opens = 0;
    for line in text.lines() {
        let v = Value::parse(line).expect("every dump line parses as JSON");
        let name = v.get("name").and_then(Value::as_str).unwrap().to_string();
        if v.get("kind").and_then(Value::as_str) == Some("span_open") {
            opens += 1;
        }
        names.push(name);
    }
    // The spans were still open when the process died, so the dump shows
    // the opens (that is the post-mortem value of the recorder) plus the
    // event, and the event is attached under the inner span.
    assert!(opens >= 2, "expected both span_open records:\n{text}");
    assert!(names.iter().any(|n| n == "child.outer"));
    assert!(names.iter().any(|n| n == "child.inner"));
    let event_line = text
        .lines()
        .map(|l| Value::parse(l).unwrap())
        .find(|v| v.get("name").and_then(Value::as_str) == Some("child.event"))
        .expect("child.event present");
    assert_eq!(event_line.get("value").and_then(Value::as_u64), Some(99));
    assert_ne!(event_line.get("parent").and_then(Value::as_u64), Some(0));
}
