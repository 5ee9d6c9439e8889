//! # pp-protocols — protocol implementations
//!
//! The protocols reproduced or built for the paper *"A Population Protocol
//! for Uniform k-partition under Global Fairness"* (Yasumi et al., IJNC
//! 2019), plus classic textbook protocols exercising the engine:
//!
//! * [`kpartition`] — **the paper's contribution**: the symmetric
//!   `3k − 2`-state uniform k-partition protocol (Algorithm 1), its stable
//!   configuration characterisation (Lemmas 4–6), the Lemma 1 invariant
//!   and its functionals, the convergence phases read off its state
//!   layout, and the rules-1–7 "basic strategy" ablation of §3.2. This is
//!   the only code that knows Algorithm 1's layout.
//! * [`bipartition`] — the 4-state uniform bipartition protocol of Yasumi
//!   et al. (OPODIS 2017), which the paper's protocol specialises to at
//!   `k = 2`.
//! * [`hierarchical`] — recursive bipartition protocols: the `k = 2^h`
//!   composition the paper's introduction discusses, and the approximate
//!   k-partition baseline in the spirit of Delporte-Gallet et al. (2006)
//!   (every group at least `n/(2k)` agents for large `n`).
//! * [`ratio`] — the R-generalized (ratio) partition extension the paper's
//!   related-work section mentions (Umino et al., BDA 2018), built by slot
//!   folding over the uniform Σrᵢ-partition protocol.
//! * [`classics`] — epidemic, leader election, and 3-state approximate
//!   majority; engine demonstrations and related-work context (§1.2).

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod bipartition;
pub mod classics;
pub mod hierarchical;
pub mod kpartition;
pub mod ratio;

pub use kpartition::UniformKPartition;

use std::fmt;
use std::ops::RangeInclusive;

/// A family parameter outside the range the family is defined for:
/// what each fallible constructor (`try_new`, `try_composed`, …)
/// returns instead of panicking. Displays as e.g. "uniform k-partition
/// requires k >= 2 and k <= 16383, got k = 1".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfRange(String);

impl OutOfRange {
    /// `Ok(())` when `range` holds `value`, else the error naming the
    /// family, the parameter and the range.
    fn check(
        family: &str,
        param: &str,
        value: u64,
        range: RangeInclusive<u64>,
    ) -> Result<(), Self> {
        if range.contains(&value) {
            return Ok(());
        }
        let (min, max) = (range.start(), range.end());
        Err(OutOfRange(format!(
            "{family} requires {param} >= {min} and {param} <= {max}, got {param} = {value}"
        )))
    }
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for OutOfRange {}
