//! `pp-trace`: recordable, replayable execution traces with
//! protocol-semantic convergence diagnostics.
//!
//! pp-telemetry (the workspace's metrics tier) answers *how much*; this
//! crate answers *why*. It records executions of either simulation
//! kernel through the engine's `Observer` hook into a compact
//! varint/delta on-disk format, replays them deterministically against
//! the initial configuration (verifying bit-identity with the live run,
//! which makes replay a correctness oracle for the leap kernel), and —
//! for the paper's k-partition protocol — classifies every effective
//! interaction into one of Algorithm 1's ten rules, folding the stream
//! into chain-lifecycle events (births, advances, completions, aborts,
//! demolition walk-backs) and checking Lemma 1's invariant online.
//!
//! * [`format`](mod@format) — the byte-level trace format: varints, header, records,
//!   checksummed footer, typed decode errors.
//! * [`recorder`] — [`TraceRecorder`], an `Observer` that encodes a live
//!   run without touching the simulator's hot loops.
//! * [`replay`] — [`Trace`]: decode, deterministic replay, δ-checked
//!   replay, and the configuration at any step t.
//! * [`classify`](mod@classify) — rule attribution, lifecycle [`Event`]s, and the
//!   online Lemma-1 checker.
//! * [`live`] — record a live k-partition run; verify a trace against a
//!   bit-identical re-run.
//! * [`export`] — trace/rule/lifecycle series in the pp-telemetry
//!   registry.
//! * [`cli`] — the `pp-trace` binary (`record`, `info`, `events`,
//!   `replay`, `verify`, `lemma1`).

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod classify;
pub mod cli;
pub mod export;
pub mod format;
pub mod live;
pub mod recorder;
pub mod replay;

pub use classify::{check_lemma1, classify, Diagnostics, Event, Lemma1Report};
pub use format::{TraceError, TraceHeader, TraceKernel, TraceRecord};
pub use live::{record_kpartition, verify_against_live, RecordOutcome, VerifyReport};
pub use recorder::TraceRecorder;
pub use replay::{ReplaySummary, Trace};
