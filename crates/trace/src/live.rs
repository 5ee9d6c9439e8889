//! Recording live k-partition runs and verifying traces against re-runs.
//!
//! [`record_kpartition`] runs the paper's protocol to stability (or the
//! interaction budget) with a [`TraceRecorder`] attached and returns the
//! sealed trace bytes. [`verify_against_live`] closes the loop: it
//! re-runs the simulation the header describes (same protocol, n, seed,
//! kernel) and demands the trace replay be *bit-identical* to the live
//! run — same final counts, same interaction count. Determinism holds
//! because observers never touch the scheduler's RNG.

use crate::format::{TraceError, TraceKernel};
use crate::recorder::TraceRecorder;
use crate::replay::{ReplaySummary, Trace};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::{RunError, Simulator};
use pp_protocols::kpartition::UniformKPartition;

/// Outcome of recording one live run.
#[derive(Clone, Debug)]
pub struct RecordOutcome {
    /// The complete sealed trace stream.
    pub bytes: Vec<u8>,
    /// Interactions performed by the live run (budget if censored).
    pub interactions: u64,
    /// Effective interactions performed.
    pub effective: u64,
    /// Whether the run hit its interaction budget before stabilising.
    pub censored: bool,
    /// The live run's final configuration.
    pub final_counts: Vec<u64>,
}

/// Record a live uniform-k-partition run (all agents starting in
/// `initial`) under the given kernel. `budget` defaults to the
/// protocol's [`UniformKPartition::interaction_budget`].
///
/// A run that hits its budget is a censored recording. A run that
/// cannot start ([`RunError::PopulationTooSmall`],
/// [`RunError::PopulationTooLarge`]) records nothing and returns the
/// error.
pub fn record_kpartition(
    k: usize,
    n: u64,
    seed: u64,
    kernel: TraceKernel,
    budget: Option<u64>,
) -> Result<RecordOutcome, RunError> {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    let criterion = kp.stable_signature(n);
    let budget = budget.unwrap_or_else(|| kp.interaction_budget(n));
    let mut rec = TraceRecorder::for_run(&proto, &pop, seed, kernel);
    let outcome = Simulator::new(&proto).run_kernel(
        kernel.into(),
        &mut pop,
        &mut sched,
        &criterion,
        budget,
        &mut rec,
    );
    let (interactions, censored) = match outcome {
        Ok(res) => (res.interactions, false),
        Err(RunError::InteractionLimit { limit }) => (limit, true),
        Err(e) => return Err(e),
    };
    let effective = rec.effective_recorded();
    Ok(RecordOutcome {
        bytes: rec.finish(pop.counts()),
        interactions,
        effective,
        censored,
        final_counts: pop.counts().to_vec(),
    })
}

/// A successful live verification.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The replay summary (δ-checked against the compiled protocol).
    pub replay: ReplaySummary,
    /// Interactions of the live re-run.
    pub live_interactions: u64,
    /// Whether the live re-run hit the budget (censored trace).
    pub censored: bool,
}

/// Re-run the simulation described by the trace header and verify the
/// trace replays to the *bit-identical* outcome: replayed final counts
/// equal both the footer's and the live run's, and (for uncensored runs)
/// the live interaction count equals the trace's last recorded step.
///
/// Only k-partition traces can be re-run (the header names the protocol;
/// rebuilding arbitrary protocols from a name is not possible).
pub fn verify_against_live(trace: &Trace) -> Result<VerifyReport, TraceError> {
    let kp = crate::classify::kpartition_of(&trace.header)?;
    let proto = kp.compile();
    // Replay first: structural validity + δ conformance + footer match.
    let replay = trace.replay_checked(&proto)?;

    let n = trace.header.n;
    // Traces may start from non-default configurations; reproduce exactly
    // the header's initial counts.
    let mut pop = CountPopulation::from_counts(trace.header.initial_counts.clone());
    let mut sched = UniformRandomScheduler::from_seed(trace.header.seed);
    let criterion = kp.stable_signature(n);
    let budget = kp.interaction_budget(n);
    let outcome = Simulator::new(&proto).run_kernel(
        trace.header.kernel.into(),
        &mut pop,
        &mut sched,
        &criterion,
        budget,
        &mut pp_engine::observer::NullObserver,
    );
    let (live_interactions, censored) = match outcome {
        Ok(res) => (res.interactions, false),
        Err(RunError::InteractionLimit { limit }) => (limit, true),
        Err(RunError::PopulationTooSmall) => {
            return Err(TraceError::BadHeader {
                what: "population too small to re-run",
            })
        }
        Err(RunError::PopulationTooLarge { .. }) => {
            return Err(TraceError::BadHeader {
                what: "population too large to re-run",
            })
        }
    };
    if pop.counts() != trace.final_counts.as_slice() {
        return Err(TraceError::LiveDiverged {
            what: "final counts",
        });
    }
    if !censored && live_interactions != trace.last_step() {
        return Err(TraceError::LiveDiverged {
            what: "interaction count",
        });
    }
    Ok(VerifyReport {
        replay,
        live_interactions,
        censored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_verify_both_kernels() {
        for kernel in [TraceKernel::Naive, TraceKernel::Leap] {
            let out = record_kpartition(3, 9, 12345, kernel, None).unwrap();
            assert!(!out.censored);
            let trace = Trace::decode(&out.bytes).unwrap();
            assert_eq!(trace.header.kernel, kernel);
            assert_eq!(trace.last_step(), out.interactions, "{kernel}");
            assert_eq!(trace.final_counts, out.final_counts);
            let report = verify_against_live(&trace).unwrap();
            assert_eq!(report.live_interactions, out.interactions);
            assert_eq!(report.replay.effective, out.effective);
        }
    }

    #[test]
    fn tampered_record_fails_verification() {
        let out = record_kpartition(3, 9, 99, TraceKernel::Naive, None).unwrap();
        let mut trace = Trace::decode(&out.bytes).unwrap();
        // Tamper with a decoded record: swap the results of the first
        // effective interaction with distinct result states (swapping a
        // symmetric result like rule 1's would change nothing).
        use crate::format::TraceRecord;
        for rec in &mut trace.records {
            if let TraceRecord::Effective { p2, q2, .. } = rec {
                if p2 != q2 {
                    std::mem::swap(p2, q2);
                    break;
                }
            }
        }
        assert!(
            verify_against_live(&trace).is_err(),
            "tampered trace verified"
        );
    }
}
