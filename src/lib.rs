//! # uniform-k-partition
//!
//! A full reproduction of *"A Population Protocol for Uniform k-partition
//! under Global Fairness"* (Yasumi, Kitamura, Ooshita, Izumi, Inoue;
//! IJNC 9(1), 2019 — journal version of the IPPS 2018 paper): the paper's
//! symmetric `3k − 2`-state protocol, the simulation substrate its
//! evaluation runs on, baselines, an exhaustive model checker for global
//! fairness, and harnesses regenerating every figure of §5.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`engine`] — population-protocol simulation engine ([`pp_engine`]).
//! * [`protocols`] — the k-partition protocol and companions
//!   ([`pp_protocols`]).
//! * [`verify`] — exhaustive correctness checking under global fairness
//!   ([`pp_verify`]).
//! * [`analysis`] — statistics, grouping-time decomposition, and table
//!   output ([`pp_analysis`]).
//! * [`telemetry`] — zero-dependency metrics registry and JSONL export
//!   ([`pp_telemetry`]).
//! * [`trace`] — recordable, replayable execution traces with
//!   protocol-semantic convergence diagnostics ([`pp_trace`]).
//! * [`topo`] — graph-structured populations, churn, and
//!   adversarial-but-fair schedulers ([`pp_topo`]).
//!
//! ## Quickstart
//!
//! ```
//! use uniform_k_partition::prelude::*;
//!
//! // Partition 30 agents into 4 groups of sizes {8, 8, 7, 7}.
//! let proto = UniformKPartition::new(4).compile();
//! let mut pop = CountPopulation::new(&proto, 30);
//! let mut sched = UniformRandomScheduler::from_seed(2024);
//! let criterion = UniformKPartition::new(4).stable_signature(30);
//! let result = Simulator::new(&proto)
//!     .run(&mut pop, &mut sched, &criterion, u64::MAX)
//!     .unwrap();
//! assert_eq!(pop.group_sizes(&proto), vec![8, 8, 7, 7]);
//! println!("stabilised after {} interactions", result.interactions);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]

pub use pp_analysis as analysis;
pub use pp_engine as engine;
pub use pp_protocols as protocols;
pub use pp_telemetry as telemetry;
pub use pp_topo as topo;
pub use pp_trace as trace;
pub use pp_verify as verify;

/// The most common imports, bundled.
pub mod prelude {
    pub use pp_engine::population::{AgentPopulation, CountPopulation, Population};
    pub use pp_engine::protocol::{CompiledProtocol, GroupId, StateId};
    pub use pp_engine::scheduler::{PairScheduler, UniformRandomScheduler};
    pub use pp_engine::simulator::{RunResult, Simulator};
    pub use pp_engine::spec::ProtocolSpec;
    pub use pp_engine::stability::{GroupClosure, Signature, Silent, StabilityCriterion};
    pub use pp_engine::BatchConfig;
    pub use pp_protocols::kpartition::UniformKPartition;
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    /// The doc-quickstart, kept compiling and correct as a test.
    #[test]
    fn quickstart_flow() {
        let kp = UniformKPartition::new(4);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, 30);
        let mut sched = UniformRandomScheduler::from_seed(2024);
        let result = Simulator::new(&proto)
            .run(&mut pop, &mut sched, &kp.stable_signature(30), u64::MAX)
            .unwrap();
        assert_eq!(pop.group_sizes(&proto), vec![8, 8, 7, 7]);
        assert!(result.interactions > 0);
    }

    /// All six crates are reachable through the facade.
    #[test]
    fn reexports_resolve() {
        let _ = crate::engine::seeds::derive(1, 2);
        let _ = crate::protocols::bipartition::UniformBipartition::new();
        let _ = crate::analysis::stats::RunningStats::new();
        let proto = crate::protocols::classics::epidemic();
        let g = crate::verify::ConfigGraph::explore(&proto, 3, 100).unwrap();
        assert_eq!(g.num_configs(), 1);
        assert_eq!(crate::telemetry::bucket_of(0), 0);
        assert_eq!(crate::trace::TraceKernel::Leap.name(), "leap");
        assert!(crate::topo::Dynamics::default_dynamics().is_default());
    }
}
