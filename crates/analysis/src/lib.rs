//! # pp-analysis — statistics and tables
//!
//! Everything between "a batch of trial outcomes" and "the rows of the
//! paper's figures": streaming statistics ([`stats`]), the Figure 4
//! grouping-time decomposition ([`grouping`]), growth-law fitting for
//! the paper's scaling claims ([`fit`]), histograms ([`histogram`]),
//! CSV/markdown emission ([`table`]) and the environment knobs every
//! experiment reads ([`config`]).
//!
//! The trials themselves run in `pp-sweep`'s cell executor, which
//! reproduces the paper's methodology (§5: 100 seeded runs per data
//! point under the uniform random scheduler). This crate depends on no
//! other workspace crate.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod config;
pub mod fit;
pub mod grouping;
pub mod histogram;
pub mod stats;
pub mod table;
