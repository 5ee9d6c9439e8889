//! `pp-lint` ends quietly when the reader of its standard output has
//! gone (`pp-lint --all-protocols | head -1`): exit 0, no panic.
#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

#[test]
fn all_protocols_into_a_closed_pipe_exits_zero_without_a_panic() {
    // A stream whose peer is closed fails every write with EPIPE, as a
    // pipe without a reader does; closing it before the spawn makes the
    // child's first write fail.
    let (reader, writer) = UnixStream::pair().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pp-lint"))
        .arg("--all-protocols")
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
