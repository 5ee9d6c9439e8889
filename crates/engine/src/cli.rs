//! What the workspace's command-line tools share: `pp-sweep`,
//! `pp-verify`, `pp-lint`, `pp-trace` and `exact_vs_sim` all depend on
//! this crate.

use std::io::{self, ErrorKind};

/// The exit code for a failed write to standard output. A reader that
/// closed the pipe has read all it wanted, so `BrokenPipe` exits 0
/// without a message; any other error is reported and exits 1.
/// (`println!` panics on both.) The tools write their standard output
/// through an [`io::Write`] and end with this code at the first write
/// that fails.
pub fn stdout_failed(e: &io::Error) -> u8 {
    if e.kind() == ErrorKind::BrokenPipe {
        return 0;
    }
    eprintln!("cannot write to standard output: {e}");
    1
}
