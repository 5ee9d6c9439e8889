//! The execution driver.
//!
//! A [`Simulator`] repeatedly asks a scheduler for an interaction pair,
//! applies the protocol's transition, notifies an observer, and — after
//! every *count-changing* interaction — consults a stability criterion.
//! (Identity interactions cannot alter stability, so skipping the check on
//! them is an exact optimisation, not an approximation; the criterion is
//! also evaluated once on the initial configuration.)
//!
//! The returned [`RunResult::interactions`] is precisely the paper's §5
//! metric: the number of interactions performed strictly before the first
//! stable configuration (a population that starts stable reports 0).
//!
//! Three kernels drive count-vector populations under the uniform random
//! scheduler:
//!
//! * [`Simulator::run`] — the naive loop: one sampled pair per iteration.
//! * [`Simulator::run_leap`] — the leap kernel: skips each maximal run of
//!   identity interactions in closed form (see [`crate::leap`]), paying
//!   per *effective* interaction instead of per interaction. Same
//!   distribution over outcomes, orders of magnitude faster near
//!   stabilisation where identity interactions dominate.
//! * [`Simulator::run_batch`] — the tau-leap batch kernel: fires whole
//!   batches of rule applications per step with bounded propensity drift
//!   and exact-leap fallback near convergence (see [`crate::batch`]).
//!   Bounded-error in the bulk, exact in the endgame; the giant-`n`
//!   workhorse.
//!
//! [`Kernel`] names the three as a value, and [`Simulator::run_kernel`]
//! is the one place that dispatches on it. Each kernel has an observed
//! form and an unobserved wrapper; the batch kernel also takes an explicit
//! safety threshold through [`Simulator::run_batch_configured`].
//!
//! Under the [`crate::stability::Never`] criterion a run never stops
//! early, so the naive kernel with `Never` is a fixed-length run of
//! exactly `max_interactions` interactions (warm-ups, property tests).
//! Per-agent populations run through pp-topo's dynamics loop
//! (`pp_topo::run_dynamics`), which also covers restricted interaction
//! graphs and churn.

use crate::batch::{BatchTrial, SAFETY_THRESHOLD};
use crate::leap::{LeapRun, StepOutcome};
use crate::observer::{NullObserver, Observer};
use crate::population::{CountPopulation, Population};
use crate::protocol::CompiledProtocol;
use crate::scheduler::{PairScheduler, UniformRandomScheduler};
use crate::stability::StabilityCriterion;
use std::fmt;

/// Outcome of a completed (stabilised) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Interactions performed before the first stable configuration,
    /// including identity (null) interactions — the paper's time metric.
    pub interactions: u64,
    /// Of those, interactions whose transition changed at least one state.
    pub effective_interactions: u64,
}

/// A run failed to reach stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The interaction limit was reached before stabilisation. Carries the
    /// limit so callers can report the censoring point.
    InteractionLimit {
        /// The limit that was exhausted.
        limit: u64,
    },
    /// Fewer than two agents: no interaction is possible and the
    /// configuration is not stable under the supplied criterion.
    PopulationTooSmall,
    /// The `n(n−1)` ordered agent pairs the leap and batch kernels draw
    /// from do not fit in `u64` (`n > 2³²`).
    PopulationTooLarge {
        /// The number of agents.
        n: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InteractionLimit { limit } => {
                write!(f, "no stable configuration within {limit} interactions")
            }
            RunError::PopulationTooSmall => {
                write!(f, "population has fewer than two agents")
            }
            RunError::PopulationTooLarge { n } => {
                write!(
                    f,
                    "population of {n} agents is too large: its n(n-1) ordered pairs overflow 64 bits"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Which kernel drives a count-vector population under the uniform
/// random scheduler; see [`Simulator::run_kernel`].
///
/// The kernels agree in distribution (the batch kernel up to its
/// bounded tau-leap error) but consume randomness differently, so one
/// seed yields a different, equally valid run under each. Anything that
/// caches runs by seed must therefore key on the kernel too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The naive loop: one scheduler draw per interaction
    /// ([`Simulator::run_observed`]).
    Naive,
    /// The leap kernel: identity runs skipped in closed form
    /// ([`Simulator::run_leap_observed`]).
    Leap,
    /// The tau-leap batch kernel: whole batches of rule firings per
    /// step, exact fallback near convergence
    /// ([`Simulator::run_batch_observed`]).
    Batch,
}

impl Kernel {
    /// Every kernel.
    pub const ALL: [Kernel; 3] = [Kernel::Naive, Kernel::Leap, Kernel::Batch];

    /// The kernel's name. It is persisted: sweep cache keys, pp-serve's
    /// wire JSON and `pp-trace --kernel` all spell kernels this way.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Naive => "naive",
            Kernel::Leap => "leap",
            Kernel::Batch => "batch",
        }
    }

    /// The kernel named `name` (exact match), if any.
    pub fn parse(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The kernel to run when an observer must see every interaction
    /// (traces, phase probes, trajectory samples). The batch kernel
    /// reports each tau-leap only in bulk, so the exact leap kernel
    /// stands in for it; the other kernels run as themselves.
    pub fn per_interaction(self) -> Kernel {
        match self {
            Kernel::Batch => Kernel::Leap,
            exact => exact,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Drives executions of one compiled protocol.
#[derive(Clone, Copy, Debug)]
pub struct Simulator<'a> {
    proto: &'a CompiledProtocol,
}

impl<'a> Simulator<'a> {
    /// A simulator for `proto`.
    pub fn new(proto: &'a CompiledProtocol) -> Self {
        Simulator { proto }
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &'a CompiledProtocol {
        self.proto
    }

    /// Run a count-vector population until stability on `kernel`,
    /// reporting to `observer`. This is the only dispatch from a
    /// [`Kernel`] value to [`Simulator::run_observed`],
    /// [`Simulator::run_leap_observed`] or
    /// [`Simulator::run_batch_observed`], whose contract it shares.
    pub fn run_kernel<C, O>(
        &self,
        kernel: Kernel,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        match kernel {
            Kernel::Naive => {
                self.run_observed(pop, scheduler, criterion, max_interactions, observer)
            }
            Kernel::Leap => {
                self.run_leap_observed(pop, scheduler, criterion, max_interactions, observer)
            }
            Kernel::Batch => {
                self.run_batch_observed(pop, scheduler, criterion, max_interactions, observer)
            }
        }
    }

    /// Run a count-vector population until `criterion` reports stability,
    /// without observation.
    pub fn run<S, C>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut S,
        criterion: &C,
        max_interactions: u64,
    ) -> Result<RunResult, RunError>
    where
        S: PairScheduler,
        C: StabilityCriterion,
    {
        self.run_observed(
            pop,
            scheduler,
            criterion,
            max_interactions,
            &mut NullObserver,
        )
    }

    /// Run a count-vector population until stability, reporting every
    /// interaction to `observer`.
    pub fn run_observed<S, C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut S,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        S: PairScheduler,
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        if pop.num_agents() < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let mut interactions: u64 = 0;
        let mut effective: u64 = 0;
        while interactions < max_interactions {
            let (p, q) = scheduler.select_pair(pop);
            let (p2, q2) = self.proto.delta(p, q);
            interactions += 1;
            if p2 == p && q2 == q {
                observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
                continue;
            }
            pop.apply(p, q, p2, q2);
            effective += 1;
            observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
            if criterion.is_stable(self.proto, pop.counts()) {
                return Ok(RunResult {
                    interactions,
                    effective_interactions: effective,
                });
            }
        }
        Err(RunError::InteractionLimit {
            limit: max_interactions,
        })
    }

    /// Run a count-vector population until stability with the **leap
    /// kernel**, without observation. Same contract as [`Simulator::run`];
    /// see [`Simulator::run_leap_observed`] for semantics.
    pub fn run_leap<C>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
    {
        self.run_leap_observed(
            pop,
            scheduler,
            criterion,
            max_interactions,
            &mut NullObserver,
        )
    }

    /// Run a count-vector population until stability with the **leap
    /// kernel**: each maximal run of consecutive identity interactions is
    /// sampled in closed form (geometric in the identity-pair probability,
    /// see [`crate::leap`]) and credited to the interaction counter in
    /// O(1), then one *effective* pair is sampled from the exact
    /// conditional distribution and applied.
    ///
    /// Identical `RunResult`/`RunError` contract to
    /// [`Simulator::run_observed`], and the returned statistics follow the
    /// same distribution (the kernels consume randomness differently, so
    /// individual runs differ for a given seed — equality is in law, not
    /// bit-for-bit). The scheduler parameter is the concrete
    /// [`UniformRandomScheduler`] because the geometric skip is an algebraic
    /// property of precisely that scheduler.
    ///
    /// Observers see every effective interaction via
    /// [`Observer::on_interaction`] with its true cumulative interaction
    /// number, and each skipped identity run via
    /// [`Observer::on_identity_run`]; per-identity callbacks do not happen,
    /// but because counts are constant across a run, observers can derive
    /// any per-step quantity inside it in closed form (as
    /// [`crate::observer::TrajectorySampler`] does for its period
    /// boundaries). On the [`RunError::InteractionLimit`] path the
    /// trailing identity run that overflows the budget is not reported.
    ///
    /// Each step is one call of the exact step shared with the batch
    /// kernel (`leap::LeapRun::step`) on a detached copy of the counts,
    /// written back into `pop` once when the run ends (on every path, the
    /// limit included). Stability is consulted through the criterion's
    /// incremental [`crate::stability::StabilityTracker`], fed each
    /// interaction's net count deltas.
    ///
    /// Returns [`RunError::PopulationTooLarge`] before any draw when
    /// `n(n−1)` does not fit in `u64`.
    pub fn run_leap_observed<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        let mut counts = pop.counts().to_vec();
        let mut run = LeapRun::new(self.proto, criterion, &counts)?;
        let rng = scheduler.rng_mut();
        let outcome = loop {
            match run.step(self.proto, &mut counts, rng, max_interactions, observer) {
                StepOutcome::Continue => {}
                out => break out,
            }
        };
        pop.set_counts(&counts);
        finish(outcome, run.result(), max_interactions)
    }

    /// Run a count-vector population until stability with the **batch
    /// kernel** and its default [`SAFETY_THRESHOLD`], without
    /// observation. Same contract as [`Simulator::run`]; see
    /// [`Simulator::run_batch_configured`] for semantics.
    pub fn run_batch<C>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
    {
        self.run_batch_configured(
            pop,
            scheduler,
            criterion,
            max_interactions,
            SAFETY_THRESHOLD,
            &mut NullObserver,
        )
    }

    /// Run a count-vector population until stability with the **batch
    /// kernel** and its default [`SAFETY_THRESHOLD`], reporting leaps and
    /// interactions to `observer`.
    pub fn run_batch_observed<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        self.run_batch_configured(
            pop,
            scheduler,
            criterion,
            max_interactions,
            SAFETY_THRESHOLD,
            observer,
        )
    }

    /// Run a count-vector population until stability with the **batch
    /// (tau-leap) kernel**: per step the kernel either fires a whole
    /// batch of rule applications in one multinomial draw over the
    /// channel set, or — near convergence, at low counts, or when a leap
    /// would be degenerate — falls back to exact leap stepping (see
    /// [`crate::batch`] for the propensity model, error bound, and
    /// fallback policy).
    ///
    /// Identical `RunResult`/`RunError` contract to
    /// [`Simulator::run_leap_observed`]. Statistics follow the leap
    /// kernel's law up to the tau-leap approximation (bounded propensity
    /// drift of O(ε) per leap); with `safety_threshold ≥ n` every step
    /// falls back and the run is **bit-identical** to
    /// [`Simulator::run_leap_observed`] for the same seed.
    ///
    /// Observers see exact-fallback stretches through
    /// [`Observer::on_interaction`] / [`Observer::on_identity_run`]
    /// exactly as under the leap kernel, and each applied leap through
    /// [`Observer::on_leap_batch`]; fallback transitions are reported via
    /// [`Observer::on_batch_fallback`].
    pub fn run_batch_configured<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        safety_threshold: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        let mut counts = pop.counts().to_vec();
        let mut trial = BatchTrial::new(self.proto, criterion, &counts)?;
        let rng = scheduler.rng_mut();
        let outcome = loop {
            match trial.step(
                self.proto,
                &mut counts,
                rng,
                max_interactions,
                safety_threshold,
                observer,
            ) {
                StepOutcome::Continue => {}
                out => break out,
            }
        };
        pop.set_counts(&counts);
        finish(outcome, trial.result(), max_interactions)
    }
}

/// The result of a run of the leap or batch kernel that ended in
/// `outcome` with counters `counters`.
fn finish(
    outcome: StepOutcome,
    counters: RunResult,
    max_interactions: u64,
) -> Result<RunResult, RunError> {
    match outcome {
        StepOutcome::Stable => Ok(counters),
        _ => Err(RunError::InteractionLimit {
            limit: max_interactions,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::UniformRandomScheduler;
    use crate::spec::ProtocolSpec;
    use crate::stability::{Never, Signature, Silent};

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn epidemic_stabilises_everyone_infected() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 64);
        pop.set_count(s, 63);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(11);
        let res = Simulator::new(&p)
            .run(&mut pop, &mut sched, &Silent, 10_000_000)
            .unwrap();
        assert_eq!(pop.count(i), 64);
        // Coupon-collector-like: needs at least n - 1 infections.
        assert!(res.effective_interactions == 63);
        assert!(res.interactions >= 63);
    }

    #[test]
    fn already_stable_returns_zero() {
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 5);
        pop.set_count(p.initial_state(), 0);
        pop.set_count(i, 5);
        let mut sched = UniformRandomScheduler::from_seed(0);
        let res = Simulator::new(&p)
            .run(&mut pop, &mut sched, &Silent, 100)
            .unwrap();
        assert_eq!(res.interactions, 0);
    }

    #[test]
    fn limit_is_reported() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 1000);
        pop.set_count(s, 999);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        let err = Simulator::new(&p)
            .run(&mut pop, &mut sched, &Silent, 5)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: 5 });
    }

    #[test]
    fn too_small_population_errors() {
        let p = epidemic();
        let mut pop = CountPopulation::new(&p, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        // A single agent can never interact; with a never-satisfied
        // criterion the simulator must report the population as too small
        // rather than spinning.
        let err = Simulator::new(&p)
            .run(&mut pop, &mut sched, &Never, 5)
            .unwrap_err();
        assert_eq!(err, RunError::PopulationTooSmall);
    }

    #[test]
    fn never_criterion_always_hits_limit() {
        let p = epidemic();
        let mut pop = CountPopulation::new(&p, 10);
        let mut sched = UniformRandomScheduler::from_seed(4);
        let err = Simulator::new(&p)
            .run(&mut pop, &mut sched, &Never, 50)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: 50 });

        // On a population that does change, `Never` makes the naive
        // kernel a fixed-length run: it performs exactly its budget and
        // reports each interaction, identities included.
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        pop.set_count(s, 9);
        pop.set_count(i, 1);
        let mut every = crate::observer::TrajectorySampler::every(1);
        let err = Simulator::new(&p)
            .run_observed(&mut pop, &mut sched, &Never, 5_000, &mut every)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: 5_000 });
        assert_eq!(every.samples().len(), 5_000);
        // 5 000 interactions at n = 10 is ample to infect everyone.
        assert_eq!(pop.count(i), 10);
    }

    #[test]
    fn leap_epidemic_stabilises_everyone_infected() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 64);
        pop.set_count(s, 63);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(11);
        let res = Simulator::new(&p)
            .run_leap(&mut pop, &mut sched, &Silent, 10_000_000)
            .unwrap();
        assert_eq!(pop.count(i), 64);
        assert_eq!(res.effective_interactions, 63);
        assert!(res.interactions >= 63);
    }

    #[test]
    fn leap_already_stable_returns_zero() {
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 5);
        pop.set_count(p.initial_state(), 0);
        pop.set_count(i, 5);
        let mut sched = UniformRandomScheduler::from_seed(0);
        let res = Simulator::new(&p)
            .run_leap(&mut pop, &mut sched, &Silent, 100)
            .unwrap();
        assert_eq!(res.interactions, 0);
    }

    #[test]
    fn leap_limit_is_reported() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 1000);
        pop.set_count(s, 999);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        // At n = 1000, stabilising takes ≫ 5 interactions (999 infections).
        let err = Simulator::new(&p)
            .run_leap(&mut pop, &mut sched, &Silent, 5)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: 5 });
    }

    #[test]
    fn leap_too_small_population_errors() {
        let p = epidemic();
        let mut pop = CountPopulation::new(&p, 1);
        let mut sched = UniformRandomScheduler::from_seed(2);
        let err = Simulator::new(&p)
            .run_leap(&mut pop, &mut sched, &Never, 5)
            .unwrap_err();
        assert_eq!(err, RunError::PopulationTooSmall);
    }

    #[test]
    fn leap_all_identity_configuration_hits_limit_immediately() {
        // All agents infected and criterion Never: every enabled pair is
        // an identity, so the configuration can never change. The naive
        // loop spins to the limit; the leap kernel reports the limit
        // without spinning.
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 50);
        pop.set_count(p.initial_state(), 0);
        pop.set_count(i, 50);
        let mut sched = UniformRandomScheduler::from_seed(3);
        let err = Simulator::new(&p)
            .run_leap(&mut pop, &mut sched, &Never, u64::MAX)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: u64::MAX });
    }

    #[test]
    fn leap_observer_sees_consistent_interaction_numbering() {
        // The cumulative step numbers reported to the observer must be
        // strictly increasing, count every skipped identity, and end at
        // the RunResult totals.
        struct Checker {
            last_step: u64,
            effective_seen: u64,
            identities_seen: u64,
        }
        impl crate::observer::Observer for Checker {
            fn on_interaction(
                &mut self,
                step: u64,
                _p: crate::protocol::StateId,
                _q: crate::protocol::StateId,
                _p2: crate::protocol::StateId,
                _q2: crate::protocol::StateId,
                _c: &[u64],
            ) {
                assert_eq!(step, self.last_step + 1, "effective step must follow");
                self.last_step = step;
                self.effective_seen += 1;
            }
            fn on_identity_run(&mut self, last_step: u64, skipped: u64, _c: &[u64]) {
                assert!(skipped >= 1);
                assert_eq!(last_step, self.last_step + skipped);
                self.last_step = last_step;
                self.identities_seen += skipped;
            }
        }
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 40);
        pop.set_count(s, 39);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(17);
        let mut obs = Checker {
            last_step: 0,
            effective_seen: 0,
            identities_seen: 0,
        };
        let res = Simulator::new(&p)
            .run_leap_observed(&mut pop, &mut sched, &Silent, 10_000_000, &mut obs)
            .unwrap();
        assert_eq!(obs.effective_seen, res.effective_interactions);
        assert_eq!(
            obs.identities_seen + obs.effective_seen,
            res.interactions,
            "every interaction is accounted for"
        );
        assert_eq!(obs.last_step, res.interactions);
    }

    #[test]
    fn leap_and_naive_agree_on_mean_interactions() {
        // Same protocol, same grid of seeds: the two kernels must produce
        // statistically indistinguishable interactions-to-stability. The
        // epidemic at n = 24 has mean ≈ n(n−1)/2 · H_{n−1} ≈ 1040; with
        // 200 trials per kernel a 4-sigma band on the difference of means
        // is a tight yet reliable check.
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let n = 24u64;
        let trials = 200u64;
        let run_batch = |leap: bool| -> Vec<f64> {
            (0..trials)
                .map(|t| {
                    let mut pop = CountPopulation::new(&p, n);
                    pop.set_count(s, n - 1);
                    pop.set_count(i, 1);
                    let mut sched =
                        UniformRandomScheduler::from_seed(1000 + t + u64::from(leap) * 7919);
                    let sim = Simulator::new(&p);
                    let res = if leap {
                        sim.run_leap(&mut pop, &mut sched, &Silent, u64::MAX)
                    } else {
                        sim.run(&mut pop, &mut sched, &Silent, u64::MAX)
                    };
                    res.unwrap().interactions as f64
                })
                .collect()
        };
        let naive = run_batch(false);
        let leap = run_batch(true);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64], m: f64| {
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64
        };
        let (mn, ml) = (mean(&naive), mean(&leap));
        let se = ((var(&naive, mn) + var(&leap, ml)) / trials as f64).sqrt();
        let z = (mn - ml) / se;
        assert!(
            z.abs() < 4.0,
            "kernel means diverge: z = {z:.2} (naive {mn:.0}, leap {ml:.0})"
        );
    }

    #[test]
    fn leap_and_batch_reject_populations_whose_pair_count_overflows() {
        let p = epidemic();
        let sim = Simulator::new(&p);
        // n = 2³² + 1: n(n−1) = 2⁶⁴ + 2³² does not fit in u64.
        let n = (1u64 << 32) + 1;
        for kernel in [Kernel::Leap, Kernel::Batch] {
            let mut pop = CountPopulation::from_counts(vec![n - 1, 1]);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let err = sim
                .run_kernel(
                    kernel,
                    &mut pop,
                    &mut sched,
                    &Silent,
                    1_000_000_000_000,
                    &mut NullObserver,
                )
                .unwrap_err();
            assert_eq!(err, RunError::PopulationTooLarge { n }, "{kernel}");
            assert_eq!(pop.counts(), &[n - 1, 1], "{kernel}");
            assert_eq!(
                err.to_string(),
                "population of 4294967297 agents is too large: its n(n-1) ordered pairs overflow 64 bits"
            );
        }
        // n = 2³²: n(n−1) = 2⁶⁴ − 2³² still fits, so the run starts (and
        // its first identity run, ~n/2 long, overflows the budget).
        let n = 1u64 << 32;
        for kernel in [Kernel::Leap, Kernel::Batch] {
            let mut pop = CountPopulation::from_counts(vec![n - 1, 1]);
            let mut sched = UniformRandomScheduler::from_seed(5);
            let err = sim
                .run_kernel(
                    kernel,
                    &mut pop,
                    &mut sched,
                    &Silent,
                    1_000,
                    &mut NullObserver,
                )
                .unwrap_err();
            assert_eq!(err, RunError::InteractionLimit { limit: 1_000 }, "{kernel}");
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(Kernel::parse("auto"), None);
        assert_eq!(Kernel::parse("Leap"), None);
        assert_eq!(Kernel::Naive.per_interaction(), Kernel::Naive);
        assert_eq!(Kernel::Leap.per_interaction(), Kernel::Leap);
        assert_eq!(Kernel::Batch.per_interaction(), Kernel::Leap);
    }

    #[test]
    fn run_kernel_matches_the_method_it_dispatches_to() {
        let p = epidemic();
        let sim = Simulator::new(&p);
        type Method<'m> = &'m dyn Fn(
            &mut CountPopulation,
            &mut UniformRandomScheduler,
            &Signature,
            u64,
        ) -> Result<RunResult, RunError>;
        // Each kernel next to the method it must reach, spelled out
        // independently of `run_kernel`.
        let methods: [(Kernel, Method<'_>); 3] = [
            (Kernel::Naive, &|pop, sched, c, b| {
                sim.run_observed(pop, sched, c, b, &mut NullObserver)
            }),
            (Kernel::Leap, &|pop, sched, c, b| {
                sim.run_leap_observed(pop, sched, c, b, &mut NullObserver)
            }),
            (Kernel::Batch, &|pop, sched, c, b| {
                sim.run_batch_observed(pop, sched, c, b, &mut NullObserver)
            }),
        ];
        // (initial [S, I] counts, stable target, budget, expected outcome)
        let cases = [
            (vec![199, 1], vec![0, 200], u64::MAX, None),
            (
                vec![199, 1],
                vec![0, 200],
                5,
                Some(RunError::InteractionLimit { limit: 5 }),
            ),
            (
                vec![1, 0],
                vec![0, 1],
                5,
                Some(RunError::PopulationTooSmall),
            ),
        ];
        for (kernel, method) in methods {
            for (initial, target, budget, expected) in &cases {
                let target = Signature::exact(target.clone());
                for seed in 0..4 {
                    let mut a = CountPopulation::from_counts(initial.clone());
                    let mut b = CountPopulation::from_counts(initial.clone());
                    let got = sim.run_kernel(
                        kernel,
                        &mut a,
                        &mut UniformRandomScheduler::from_seed(seed),
                        &target,
                        *budget,
                        &mut NullObserver,
                    );
                    let want = method(
                        &mut b,
                        &mut UniformRandomScheduler::from_seed(seed),
                        &target,
                        *budget,
                    );
                    let ctx = format!("{kernel}, seed {seed}, budget {budget}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(got.err(), *expected, "{ctx}");
                    assert_eq!(a.counts(), b.counts(), "{ctx}");
                }
            }
        }
    }
}
