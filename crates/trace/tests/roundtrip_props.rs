//! Property tests of the trace round trip: encode → decode → replay is
//! the identity on final configurations, for both kernels, over arbitrary
//! protocols and over the paper's k-partition family with live-run
//! bit-identity verification.

use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::{RunError, Simulator};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Silent;
use pp_trace::{
    check_lemma1, record_kpartition, verify_against_live, Lemma1Report, Trace, TraceKernel,
    TraceRecorder,
};
use proptest::prelude::*;

/// A random small protocol, derived entirely from the seed so failing
/// cases reproduce.
fn arb_protocol() -> impl Strategy<Value = CompiledProtocol> {
    (2usize..6, 0usize..12, any::<u64>()).prop_map(|(num_states, num_rules, seed)| {
        let mut z = seed;
        let mut next = move || {
            z = z
                .wrapping_add(0x9E3779B97F4A7C15)
                .rotate_left(17)
                .wrapping_mul(0x2545F4914F6CDD1D);
            z
        };
        let mut spec = ProtocolSpec::new("random");
        for i in 0..num_states {
            spec.add_state(format!("s{i}"), (next() % 3 + 1) as u16);
        }
        spec.set_initial(StateId(0));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..num_rules {
            let s = |v: u64| StateId((v % num_states as u64) as u16);
            let (p, q, p2, q2) = (s(next()), s(next()), s(next()), s(next()));
            if seen.insert((p, q)) {
                spec.add_rule(p, q, p2, q2);
            }
        }
        spec.compile().expect("deduped rules always compile")
    })
}

fn kernel_of(leap: bool) -> TraceKernel {
    if leap {
        TraceKernel::Leap
    } else {
        TraceKernel::Naive
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record an arbitrary protocol under either kernel, then decode and
    /// δ-checked-replay the trace: the replayed configuration must equal
    /// the live run's, record for record, and random access at the last
    /// step must agree.
    #[test]
    fn replay_reproduces_live_final_counts(
        proto in arb_protocol(),
        n in 2u64..30,
        seed in any::<u64>(),
        leap in any::<bool>(),
    ) {
        let kernel = kernel_of(leap);
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let mut rec = TraceRecorder::for_run(&proto, &pop, seed, kernel);
        // Arbitrary protocols may never silence; a budget keeps the runs
        // bounded and exercises the censored encode path too.
        let budget = 5_000;
        let res = Simulator::new(&proto).run_kernel(
            kernel.into(),
            &mut pop,
            &mut sched,
            &Silent,
            budget,
            &mut rec,
        );
        match res {
            Ok(_) | Err(RunError::InteractionLimit { .. }) => {}
            Err(e) => panic!("run failed: {e}"),
        }
        let bytes = rec.finish(pop.counts());
        let trace = Trace::decode(&bytes).unwrap();
        let summary = trace.replay_checked(&proto).unwrap();
        prop_assert_eq!(summary.final_counts.as_slice(), pop.counts());
        prop_assert_eq!(trace.final_counts.as_slice(), pop.counts());
        prop_assert_eq!(
            trace.config_at(trace.last_step()).unwrap().as_slice(),
            pop.counts()
        );
    }

    /// For the paper's protocol, close the full loop: the trace verifies
    /// bit-identical against an independent live re-run, and Lemma 1
    /// holds at every recorded configuration of a genuine execution.
    #[test]
    fn kpartition_traces_verify_and_satisfy_lemma1(
        k in 2usize..6,
        n in 2u64..40,
        seed in any::<u64>(),
        leap in any::<bool>(),
    ) {
        let kernel = kernel_of(leap);
        let out = record_kpartition(k, n, seed, kernel, None);
        let trace = Trace::decode(&out.bytes).unwrap();
        let report = verify_against_live(&trace).unwrap();
        prop_assert_eq!(report.live_interactions, out.interactions);
        prop_assert_eq!(report.censored, out.censored);
        prop_assert_eq!(trace.final_counts.as_slice(), out.final_counts.as_slice());
        match check_lemma1(&trace).unwrap() {
            Lemma1Report::Holds { checked } => {
                prop_assert_eq!(checked, trace.effective_len() + 1);
            }
            Lemma1Report::ViolatedAt { step, residual } => {
                panic!("lemma 1 violated at step {step}: {residual:?}")
            }
        }
    }
}
