//! # pp-topo — population dynamics for population protocols
//!
//! The paper's model fixes three environmental choices: every pair of
//! agents may interact (complete graph), the scheduler picks pairs
//! uniformly at random, and the population never changes. This crate
//! makes each choice a first-class, declarative axis:
//!
//! * **[`topology`]** — interaction graphs behind the [`Topology`] trait:
//!   complete, ring, star, torus, random-regular, Chung–Lu power-law, and
//!   explicit edge lists, all with O(1)-amortised enabled-edge sampling
//!   maintained incrementally under mutation.
//! * **[`scheduler`]** — the [`EdgeScheduler`] family: uniform-over-edges
//!   (distribution-identical to the engine's `UniformRandomScheduler` on
//!   the complete graph), Zipf-skewed activation, and an
//!   adversarial-but-fair scheduler carrying a machine-checkable
//!   [`FairnessCertificate`].
//! * **[`churn`]** — seeded, replayable join/leave/crash event streams
//!   mutating the population and graph mid-run.
//! * **[`spec`]** — the integer-parameterised, `Hash`/`Eq`, string
//!   round-trippable description ([`Dynamics`]) that sweep cells embed in
//!   their content-addressed keys.
//! * **[`dynamics`]** — the runner wiring it all together, with typed
//!   refusals ([`DynamicsError`]) when a kernel's assumptions do not hold
//!   (the batch kernel is only sound on the complete graph).
//!
//! Under global fairness the paper's protocol stabilises on any connected
//! static graph eventually — but *randomised* schedulers on sparse graphs
//! and populations under departure churn can fail to stabilise within any
//! budget, so censored trials are a first-class outcome throughout
//! (`interactions: None`), and the `topo-*` sweep plans report convergence
//! *fractions* alongside stabilisation-time gaps versus the complete
//! graph.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod churn;
pub mod dynamics;
pub mod metrics;
pub mod scheduler;
pub mod spec;
pub mod topology;

pub use churn::{ChurnEvent, ChurnPlan};
pub use dynamics::{
    ensure_kernel_compatible, run_dynamics, run_dynamics_with_plan, DynRunOutcome, DynamicsError,
};
pub use metrics::{topo_metrics, TopoMetrics};
pub use scheduler::{
    AdversarialFairScheduler, EdgeScheduler, FairnessCertificate, UniformEdgeScheduler,
    ZipfScheduler,
};
pub use spec::{ChurnSpec, Dynamics, SchedSpec, SpecError, TopoSpec};
pub use topology::{CompleteTopology, EdgeListTopology, Topology};
