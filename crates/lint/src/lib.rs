//! # pp-lint — static protocol analysis
//!
//! A static analyzer for compiled population protocols. Where pp-verify
//! explores the configuration space of one `(protocol, n)` instance,
//! pp-lint analyses the *rule table itself*, so its facts hold for every
//! population size at once:
//!
//! * [`invariant`] — extracts an integer basis of the protocol's linear
//!   P-invariants (the left-nullspace of the rule displacement matrix,
//!   computed by fraction-free Gaussian elimination over ℤ) and decides
//!   whether a declared functional — e.g. the paper's Lemma 1 residuals —
//!   is conserved, with per-rule violation anchors when it is not.
//! * [`reach`] — a sound support-abstraction fixpoint flagging states no
//!   reachable configuration can contain and rules that can never fire.
//! * [`checks`] — the expectation-gated lint pass: mirror closure and
//!   diagonal symmetry, rule-label coverage against Algorithm 1's
//!   `r1`–`r10`, group-map sanity, state budgets, and the invariant
//!   checks above, producing a [`findings::LintReport`].
//! * [`registry`] — the built-in protocol zoo paired with each family's
//!   declared contract, so `pp-lint --all-protocols --deny warnings`
//!   gates CI without suppressions.
//! * [`topo`] — topology-aware strand-risk heuristics: warns when a
//!   protocol's chain-building progression is deeper than a declared
//!   graph degree bound can serve (the caller — e.g. `pp-sweep`'s lint
//!   gate — supplies the bound, keeping pp-lint graph-library-free).
//!
//! The derived invariants are exported as plain coefficient vectors
//! (see [`invariant::Functional`]) that pp-verify consumes as a
//! certified pruning oracle: an invariant proven inductively here needs
//! *zero* state exploration to check there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]

pub mod checks;
pub mod cli;
pub mod findings;
pub mod invariant;
pub mod reach;
pub mod registry;
pub mod topo;

pub use checks::{lint, Expectations};
pub use findings::{Finding, FindingKind, LintReport, Severity};
pub use invariant::{Functional, InvariantBasis};
