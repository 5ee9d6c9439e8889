//! `pp-trace` ends quietly when the reader of its standard output has
//! gone (`pp-trace events FILE | head -1`): exit 0, no panic.
#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

#[test]
fn info_and_events_into_a_closed_pipe_exit_zero_without_a_panic() {
    let trace = std::env::temp_dir().join(format!(
        "pp-trace-closed-stdout-{}.trace",
        std::process::id()
    ));
    let recorded = Command::new(env!("CARGO_BIN_EXE_pp-trace"))
        .args(["record", "--k", "3", "--n", "8", "--seed", "11", "--out"])
        .arg(&trace)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(recorded.success());
    for cmd in ["info", "events"] {
        // A stream whose peer is closed fails every write with EPIPE, as
        // a pipe without a reader does; closing it before the spawn makes
        // the child's first write fail.
        let (reader, writer) = UnixStream::pair().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pp-trace"))
            .arg(cmd)
            .arg(&trace)
            .stdout(Stdio::from(OwnedFd::from(writer)))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmd}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: stderr: {stderr}");
    }
    let _ = std::fs::remove_file(&trace);
}
