//! Engine micro-benchmarks: the hot-loop primitives whose cost
//! multiplies into every experiment — weighted pair sampling, the
//! interaction step for both population representations, the stability
//! criteria, and the kernel comparison (naive / leap / batch).
//! `BENCH_engine.json` at the workspace root is regenerated by the
//! `kernelbench` binary (`cargo run --release -p pp-bench --bin
//! kernelbench`), not by this harness.

use criterion::{criterion_group, BenchmarkId, Criterion};
use pp_bench::kernelbench::measure;
use pp_engine::population::{AgentPopulation, CountPopulation, Population};
use pp_engine::scheduler::{AgentScheduler, PairScheduler, UniformRandomScheduler};
use pp_engine::simulator::Simulator;
use pp_engine::stability::{GroupClosure, Never, Signature, Silent, StabilityCriterion};
use pp_engine::Kernel;
use pp_protocols::kpartition::UniformKPartition;
use std::hint::black_box;

/// 10k interactions of the k-partition protocol on the count
/// representation, across k (state-count scaling of the sampler's O(|Q|)
/// scan).
fn count_population_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("count_steps_10k");
    for &k in &[4usize, 8, 16] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        g.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, _| {
            b.iter(|| {
                let mut pop = CountPopulation::new(&proto, 960);
                let mut sched = UniformRandomScheduler::from_seed(1);
                Simulator::new(&proto).run_fixed(
                    &mut pop,
                    &mut sched,
                    10_000,
                    &mut pp_engine::observer::NullObserver,
                );
                black_box(pop.counts()[0])
            })
        });
    }
    g.finish();
}

/// The same 10k interactions on the per-agent representation.
fn agent_population_steps(c: &mut Criterion) {
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    c.bench_function("agent_steps_10k_k8", |b| {
        b.iter(|| {
            let mut pop = AgentPopulation::new(&proto, 960);
            let mut sched = UniformRandomScheduler::from_seed(1);
            let _ = Simulator::new(&proto).run_agents(&mut pop, &mut sched, &Never, 10_000);
            black_box(pop.counts()[0])
        })
    });
}

/// Raw sampling cost (no transition application).
fn pair_sampling(c: &mut Criterion) {
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, 960);
    // Spread agents over several states so the scan does real work.
    pop.set_count(kp.initial(), 300);
    pop.set_count(kp.g(1), 200);
    pop.set_count(kp.g(8), 200);
    pop.set_count(kp.m(2), 260);
    let apop = AgentPopulation::new(&proto, 960);
    c.bench_function("sample_pair_count", |b| {
        let mut sched = UniformRandomScheduler::from_seed(2);
        b.iter(|| black_box(sched.select_pair(&pop)))
    });
    c.bench_function("sample_pair_agent", |b| {
        let mut sched = UniformRandomScheduler::from_seed(2);
        b.iter(|| black_box(sched.select_agents(&apop)))
    });
}

/// Stability criteria on a mid-run configuration: the Signature check is
/// the per-effective-interaction cost of every figure run; Silent and
/// GroupClosure are the generic alternatives.
fn stability_checks(c: &mut Criterion) {
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, 960);
    pop.set_count(kp.initial(), 400);
    pop.set_count(kp.g(1), 280);
    pop.set_count(kp.m(2), 280);
    let sig = kp.stable_signature(960);
    c.bench_function("criterion_signature", |b| {
        b.iter(|| black_box(sig.is_stable(&proto, pop.counts())))
    });
    c.bench_function("criterion_silent", |b| {
        b.iter(|| black_box(Silent.is_stable(&proto, pop.counts())))
    });
    c.bench_function("criterion_group_closure", |b| {
        let gc = GroupClosure::default();
        b.iter(|| black_box(gc.is_stable(&proto, pop.counts())))
    });
    // And at the stable configuration, where the closure search actually
    // runs (r = 0 here, so the closure is a single configuration).
    let mut stable = CountPopulation::new(&proto, 0);
    for x in 1..=8 {
        stable.set_count(kp.g(x), 120);
    }
    c.bench_function("criterion_group_closure_at_stable", |b| {
        let gc = GroupClosure::default();
        b.iter(|| black_box(gc.is_stable(&proto, stable.counts())))
    });
    let _ = Signature::exact(vec![0; proto.num_states()]);
}

/// Protocol compilation cost (table construction), across k.
fn compilation(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    for &k in &[4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, &k| {
            b.iter(|| black_box(UniformKPartition::new(k).compile()))
        });
    }
    g.finish();
}

/// Naive vs leap vs batch, whole runs to stability (k = 8). The naive
/// loop pays for every scheduler draw, the leap kernel skips identity
/// runs in O(1), the batch kernel fires whole tau-leaps in O(|rules|);
/// at n = 1000 all three stabilise in bench-friendly time.
fn kernel_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_to_stability_k8");
    g.sample_size(3);
    let budget = UniformKPartition::new(8).interaction_budget(1_000);
    g.bench_function("naive/n1000", |b| {
        b.iter(|| black_box(measure(Kernel::Naive, 8, 1_000, budget, 1)))
    });
    g.bench_function("leap/n1000", |b| {
        b.iter(|| black_box(measure(Kernel::Leap, 8, 1_000, budget, 1)))
    });
    let budget_big = UniformKPartition::new(8).interaction_budget(100_000);
    g.bench_function("leap/n100000", |b| {
        b.iter(|| black_box(measure(Kernel::Leap, 8, 100_000, budget_big, 1)))
    });
    g.bench_function("batch/n100000", |b| {
        b.iter(|| black_box(measure(Kernel::Batch, 8, 100_000, budget_big, 1)))
    });
    g.finish();
}

/// Overhead guard for the telemetry subsystem: a leap run to stability
/// with a [`pp_engine::TelemetryObserver`] attached must stay within
/// noise of the [`NullObserver`] baseline. The observer keeps plain
/// (non-atomic) tallies during the run and flushes to the shared
/// registry once on drop, so the difference should be unmeasurable; if
/// these two bars diverge, the overhead contract in DESIGN.md is broken.
fn telemetry_overhead(c: &mut Criterion) {
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    let criterion = kp.stable_signature(1_000);
    let budget = kp.interaction_budget(1_000);
    let mut g = c.benchmark_group("telemetry_overhead_leap_k8_n1000");
    g.sample_size(10);
    g.bench_function("null_observer", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let r = Simulator::new(&proto)
                .run_leap_observed(
                    &mut pop,
                    &mut sched,
                    &criterion,
                    budget,
                    &mut pp_engine::observer::NullObserver,
                )
                .expect("bench cell stabilises");
            black_box(r.interactions)
        })
    });
    g.bench_function("telemetry_observer", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let mut tel = pp_engine::TelemetryObserver::new();
            let r = Simulator::new(&proto)
                .run_leap_observed(&mut pop, &mut sched, &criterion, budget, &mut tel)
                .expect("bench cell stabilises");
            black_box(r.interactions)
        })
    });
    g.finish();
}

/// Same contract as `telemetry_overhead`: the trace recorder must stay
/// cheap enough to leave on during sweeps. `disabled` measures the
/// one-branch-per-callback cost of a recorder that is present but off;
/// `trace_recorder` measures full encoding (the final `finish` +
/// checksum included, since that is what a traced cell pays).
fn trace_overhead(c: &mut Criterion) {
    use pp_trace::{TraceKernel, TraceRecorder};
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    let criterion = kp.stable_signature(1_000);
    let budget = kp.interaction_budget(1_000);
    let mut g = c.benchmark_group("trace_overhead_leap_k8_n1000");
    g.sample_size(10);
    g.bench_function("null_observer", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let r = Simulator::new(&proto)
                .run_leap_observed(
                    &mut pop,
                    &mut sched,
                    &criterion,
                    budget,
                    &mut pp_engine::observer::NullObserver,
                )
                .expect("bench cell stabilises");
            black_box(r.interactions)
        })
    });
    g.bench_function("disabled", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let mut rec = TraceRecorder::disabled();
            let r = Simulator::new(&proto)
                .run_leap_observed(&mut pop, &mut sched, &criterion, budget, &mut rec)
                .expect("bench cell stabilises");
            black_box(r.interactions)
        })
    });
    g.bench_function("trace_recorder", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let mut rec = TraceRecorder::for_run(&proto, &pop, 5, TraceKernel::Leap);
            let r = Simulator::new(&proto)
                .run_leap_observed(&mut pop, &mut sched, &criterion, budget, &mut rec)
                .expect("bench cell stabilises");
            black_box((r.interactions, rec.finish(pop.counts()).len()))
        })
    });
    g.finish();
}

/// Overhead guard for the convergence-phase probe: a leap run with a
/// [`pp_engine::PhaseProbe`] sampling at log-spaced checkpoints must
/// stay within 2% of the [`NullObserver`] baseline (the `--timelines`
/// contract in DESIGN.md). The probe classifies counts only at
/// interaction numbers 1, 2, 4, 8, …, so its per-interaction cost is
/// one branch; the asserting version of this guard is
/// `obs_overhead::phase_probe_overhead_within_two_percent` (release
/// mode, `-- --ignored`).
fn phase_probe_overhead(c: &mut Criterion) {
    let kp = UniformKPartition::new(8);
    let proto = kp.compile();
    let criterion = kp.stable_signature(1_000);
    let budget = kp.interaction_budget(1_000);
    let mut g = c.benchmark_group("phase_probe_overhead_leap_k8_n1000");
    g.sample_size(10);
    g.bench_function("null_observer", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let r = Simulator::new(&proto)
                .run_leap_observed(
                    &mut pop,
                    &mut sched,
                    &criterion,
                    budget,
                    &mut pp_engine::observer::NullObserver,
                )
                .expect("bench cell stabilises");
            black_box(r.interactions)
        })
    });
    g.bench_function("phase_probe", |b| {
        b.iter(|| {
            let mut pop = CountPopulation::new(&proto, 1_000);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let mut probe = pp_engine::PhaseProbe::for_protocol(&proto).expect("ukp classifies");
            let r = Simulator::new(&proto)
                .run_leap_observed(&mut pop, &mut sched, &criterion, budget, &mut probe)
                .expect("bench cell stabilises");
            probe.finish(r.interactions, pop.counts());
            black_box((r.interactions, probe.segments().len()))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    count_population_steps,
    agent_population_steps,
    pair_sampling,
    stability_checks,
    compilation,
    kernel_throughput,
    telemetry_overhead,
    trace_overhead,
    phase_probe_overhead
);

fn main() {
    benches();
}
