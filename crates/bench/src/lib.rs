//! # pp-bench — cross-checks and kernel measurements
//!
//! The paper's figures are `pp-sweep` plans (`pp-sweep run fig3`, …).
//! This crate holds what is not a sweep plan:
//!
//! * `exact_vs_sim` — exact expected stabilisation times against
//!   simulated means on instances small enough to solve exactly;
//! * [`kernelbench`] — one timed kernel run, the measurement the gates
//!   share;
//! * the release-mode gates in `tests/` (`cargo test --release -p
//!   pp-bench -- --ignored`): the batch kernel stabilises n = 10⁷ within
//!   its wall and throughput bounds (printing leap and batch at equal
//!   n = 10⁵ beside it), leap against naive, and the phase probe's 2%
//!   overhead bound.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

pub mod kernelbench;
