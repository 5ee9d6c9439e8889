//! `pp-sweep` ends quietly when the reader of its standard output has
//! gone (`pp-sweep list | head -1`): exit 0, no panic. Any other failed
//! write ends it with exit 1 and a message.
#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Output, Stdio};

fn list_into(stdout: Stdio) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pp-sweep"));
    for var in ["PP_TRIALS", "PP_SEED", "PP_RESULTS_DIR"] {
        cmd.env_remove(var);
    }
    cmd.arg("list").stdout(stdout).output().unwrap()
}

#[test]
fn list_into_a_closed_pipe_exits_zero_without_a_panic() {
    // A stream whose peer is closed fails every write with EPIPE, as a
    // pipe without a reader does; closing it before the spawn makes the
    // child's first write fail.
    let (reader, writer) = UnixStream::pair().unwrap();
    drop(reader);
    let out = list_into(Stdio::from(OwnedFd::from(writer)));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn list_into_a_full_device_exits_one_with_a_message() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let out = list_into(Stdio::from(full));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot write to standard output"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
