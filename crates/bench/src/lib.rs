//! # pp-bench — cross-checks and kernel measurements
//!
//! The paper's figures are `pp-sweep` plans (`pp-sweep run fig3`, …).
//! This crate holds what is not a sweep plan:
//!
//! * `exact_vs_sim` — exact expected stabilisation times against
//!   simulated means on instances small enough to solve exactly;
//! * `kernelbench` and `toposcan` ([`kernelbench`], [`toposcan`]) —
//!   the writers of `BENCH_engine.json`;
//! * the release-mode gates in `tests/` (`cargo test --release -p
//!   pp-bench -- --ignored`): batch at n = 10⁷ against leap at n = 10⁵,
//!   leap against naive, and the phase probe's 2% overhead bound.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

pub mod kernelbench;
pub mod toposcan;
