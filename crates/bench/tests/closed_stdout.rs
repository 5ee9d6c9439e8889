//! `exact_vs_sim` ends quietly when the reader of its standard output has
//! gone (`exact_vs_sim | head -3`): exit 0, no panic.
#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

#[test]
fn exact_vs_sim_into_a_closed_pipe_exits_zero_without_a_panic() {
    // A stream whose peer is closed fails every write with EPIPE, as a
    // pipe without a reader does; closing it before the spawn makes the
    // child's first write fail.
    let (reader, writer) = UnixStream::pair().unwrap();
    drop(reader);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exact_vs_sim"));
    for var in ["PP_TRIALS", "PP_SEED", "PP_RESULTS_DIR"] {
        cmd.env_remove(var);
    }
    let out = cmd
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
