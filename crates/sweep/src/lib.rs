//! `pp-sweep`: checkpointed, cached, sharded experiment orchestration.
//!
//! The paper's experiments (§5) are sweeps over `(protocol, k, n)` cells
//! of 100 trials each; at the far end of the grids (Figure 6's large `k`)
//! a single sweep runs for hours. This crate turns the ad-hoc figure
//! binaries into one subsystem with three guarantees:
//!
//! * **Declarative plans** ([`plan`]) — each experiment states its cell
//!   grid up front ([`spec::CellSpec`]); reporters render tables and CSVs
//!   from stored results, separate from execution.
//! * **Content-addressed caching** ([`store`]) — a completed cell is
//!   stored under a stable hash of everything that determines its output;
//!   re-running a finished plan is a no-op and figures regenerate
//!   incrementally when only part of a grid changed. Storage is
//!   pluggable ([`backend`]): the historical file store (the CLI's
//!   store), an in-memory store for tests and ephemeral serving, and a
//!   compacting append-only log sized for millions of cells (`pp-serve`'s
//!   cache tier; select with `pp-serve --backend`).
//! * **Crash-safe resume** ([`journal`], [`exec`]) — every finished trial
//!   is appended to a per-cell JSONL journal; after an interruption the
//!   next run replays the journal and simulates only the missing trials.
//!   Because trial `i`'s seed is `derive(cell_seed, i)` independent of
//!   history, a resumed sweep is **bit-identical** to an uninterrupted
//!   one.
//!
//! Execution ([`runner`]) shards cells across the worker pool with live
//! progress via a metrics hook ([`observer`]) modeled on
//! `pp_engine::observer`. The [`cli`] module backs the `pp-sweep` binary
//! (`run`, `resume`, `status`, `gc`, `list`). The three settings the
//! process environment holds — `PP_TRIALS`, `PP_SEED` and
//! `PP_RESULTS_DIR` — are read in [`plan`] and nowhere else.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod backend;
// The CLI surface prints to stdout by design.
#[allow(clippy::print_stdout)]
pub mod cli;
pub mod exec;
pub mod journal;
pub mod json;
pub mod lintgate;
// Console progress writes to stdout by design.
#[allow(clippy::print_stdout)]
pub mod observer;
pub mod plan;
pub mod plans;
pub mod runner;
pub mod spec;
pub mod store;
pub mod telemetry;
pub mod timeline;
pub mod trace;
