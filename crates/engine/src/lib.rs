//! # pp-engine — a population protocol simulation engine
//!
//! This crate implements the computational substrate used by the paper
//! *"A Population Protocol for Uniform k-partition under Global Fairness"*
//! (Yasumi, Kitamura, Ooshita, Izumi, Inoue; IJNC 9(1), 2019): a simulator
//! for population protocols in the model of Angluin et al., where a
//! population of `n` anonymous, finite-state agents repeatedly performs
//! pairwise interactions chosen by a scheduler, and each interaction updates
//! the two participants' states through a deterministic transition function
//! `δ : Q × Q → Q × Q`.
//!
//! ## Architecture
//!
//! * [`spec`] — declarative protocol descriptions: named states, transition
//!   rules, an output map `f : Q → {1..k}` assigning each state to a group.
//! * [`protocol`] — [`protocol::CompiledProtocol`], a dense `|Q| × |Q|`
//!   transition table with precomputed identity/group-changing masks and
//!   structural property checks (determinism is structural, symmetry is
//!   verified).
//! * [`population`] — two interchangeable population representations:
//!   [`population::CountPopulation`] (a count vector over states; exact for
//!   complete interaction graphs because agents are anonymous) and
//!   [`population::AgentPopulation`] (one state per agent; supports
//!   per-agent traces, fault injection, and arbitrary interaction graphs).
//! * [`scheduler`] — interaction schedulers. The paper's evaluation uses the
//!   uniform-random-pair scheduler, which satisfies global fairness with
//!   probability 1 on infinite executions.
//! * [`stability`] — criteria deciding when a configuration is *stable*
//!   (the paper's convergence metric is "number of interactions until a
//!   stable configuration").
//! * [`simulator`] — the execution driver, with an [`observer`] hook for
//!   recording events such as group-completion times. Offers a naive
//!   one-interaction-per-step loop, a [`leap`] kernel that skips identity
//!   interactions in closed form, and a tau-leap [`batch`] kernel that
//!   fires whole batches of rules per step (with a [`fleet`] runner
//!   advancing many trials in lockstep). [`simulator::Kernel`] names the
//!   three kernels as a value.
//! * [`trace`] — scripted executions and human-readable configuration
//!   pretty-printing (used to replay the paper's Figures 1 and 2).
//! * [`functional`] — linear functionals over state counts and their
//!   per-rule drift, the shared currency of invariant checks.
//! * [`seeds`] — deterministic seed derivation for reproducible experiment
//!   fan-out, and the FNV-1a hash behind persisted content addresses.
//!
//! ## Quick example
//!
//! ```
//! use pp_engine::spec::ProtocolSpec;
//! use pp_engine::population::{CountPopulation, Population};
//! use pp_engine::scheduler::UniformRandomScheduler;
//! use pp_engine::simulator::Simulator;
//! use pp_engine::stability::Silent;
//!
//! // A toy 2-state "epidemic" protocol: (S, I) -> (I, I).
//! let mut spec = ProtocolSpec::new("epidemic");
//! let s = spec.add_state("S", 1);
//! let i = spec.add_state("I", 2);
//! spec.set_initial(s);
//! spec.add_rule(i, s, i, i);
//! spec.add_rule(s, i, i, i);
//! let proto = spec.compile().unwrap();
//!
//! let mut pop = CountPopulation::new(&proto, 50);
//! pop.set_count(s, 49);
//! pop.set_count(i, 1);
//! let mut sched = UniformRandomScheduler::from_seed(7);
//! let result = Simulator::new(&proto)
//!     .run(&mut pop, &mut sched, &Silent, 1_000_000)
//!     .unwrap();
//! assert_eq!(pop.count(i), 50);
//! assert!(result.interactions > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod batch;
pub mod dot;
pub mod fleet;
pub mod functional;
pub mod leap;
pub mod metrics;
pub mod observer;
pub mod population;
pub mod protocol;
pub mod scheduler;
pub mod seeds;
pub mod simulator;
pub mod spec;
pub mod stability;
pub mod trace;

pub use batch::{BatchConfig, BatchTrial, Scratch};
pub use fleet::{run_batch_fleet, FleetSummary};
pub use functional::Functional;
pub use leap::StepOutcome;
pub use metrics::{engine_metrics, EngineMetrics, TelemetryObserver};
pub use population::{AgentPopulation, CountPopulation, Population};
pub use protocol::{CompiledProtocol, GroupId, RuleId, StateId};
pub use scheduler::UniformRandomScheduler;
pub use simulator::{FixedRunSummary, Kernel, RunError, RunResult, Simulator};
pub use spec::ProtocolSpec;
