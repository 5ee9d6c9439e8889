//! Execution observers.
//!
//! An [`Observer`] receives every interaction the simulator performs. The
//! hook is generic and monomorphised, so the no-op [`NullObserver`]
//! vanishes from the hot loop entirely. Observers power the paper's
//! Figure 4 (interactions per *i-th grouping*: the simulator watches the
//! count of `g_k` — each increment marks the completion of one full set
//! `g_1..g_k`) and the trace renderings of Figures 1–2.

use crate::protocol::StateId;

/// Why the batch kernel handed a stretch of the run to the exact leap
/// kernel. Reported through [`Observer::on_batch_fallback`] and tallied
/// in `engine.batch_fallbacks`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Some reactant of an enabled rule is at or below the safety
    /// threshold: a leap could plausibly drive its count negative, and
    /// low-count dynamics are where tau-leaping's error concentrates.
    LowCount,
    /// The tau-selection bound made the expected leap smaller than the
    /// configured minimum batch — exact stepping is cheaper than drawing
    /// a degenerate multinomial.
    SmallLeap,
    /// The stability tracker reports the configuration within the
    /// configured number of violated constraints of stability; terminal
    /// behaviour must be exact.
    NearConvergence,
    /// Repeated tau-halving could not find a leap whose drawn firings
    /// keep every count non-negative.
    Overdraw,
}

/// A population-membership change applied between interactions by a
/// dynamics layer (e.g. `pp-topo`'s churn engine). Reported through
/// [`Observer::on_lifecycle`]; the engine itself never emits these — it
/// only defines the vocabulary so observers (trace recorders, telemetry)
/// can witness churn without the dynamics layer knowing about them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleKind {
    /// An agent joined the population (in the reported state).
    Join,
    /// An agent left gracefully (its state is reported for accounting).
    Leave,
    /// An agent crashed (semantically identical to a leave for the
    /// population; distinguished for telemetry and trace analysis).
    Crash,
}

impl LifecycleKind {
    /// Stable wire code (used by the trace format).
    pub fn code(self) -> u64 {
        match self {
            LifecycleKind::Join => 0,
            LifecycleKind::Leave => 1,
            LifecycleKind::Crash => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(LifecycleKind::Join),
            1 => Some(LifecycleKind::Leave),
            2 => Some(LifecycleKind::Crash),
            _ => None,
        }
    }

    /// Lower-case label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            LifecycleKind::Join => "join",
            LifecycleKind::Leave => "leave",
            LifecycleKind::Crash => "crash",
        }
    }
}

/// Receives interaction events from the simulator.
pub trait Observer {
    /// Called after interaction number `step` (1-based) has been applied.
    ///
    /// `(p, q) → (p2, q2)` is the transition performed (possibly the
    /// identity) and `counts` is the configuration *after* the interaction.
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        counts: &[u64],
    );

    /// Called by the leap kernel ([`crate::simulator::Simulator::run_leap`])
    /// after it skips a maximal run of `skipped ≥ 1` consecutive identity
    /// interactions in closed form. `last_step` is the (1-based)
    /// interaction number of the last skipped identity, and `counts` is
    /// the configuration — unchanged throughout the run.
    ///
    /// The naive kernel never calls this hook (it reports identities one
    /// by one through [`Observer::on_interaction`]). Because the counts are
    /// constant across the whole run, any per-step quantity an observer
    /// derives from the configuration is closed-form inside the run —
    /// [`TrajectorySampler`] reconstructs its period-boundary samples this
    /// way, so it works under both kernels. The default implementation
    /// does nothing.
    #[inline(always)]
    fn on_identity_run(&mut self, _last_step: u64, _skipped: u64, _counts: &[u64]) {}

    /// Called by the batch kernel
    /// ([`crate::simulator::Simulator::run_batch`]) after applying one
    /// tau-leap of `tau ≥ 1` scheduler interactions, of which `effective`
    /// were state-changing rule firings. `last_step` is the (1-based)
    /// cumulative interaction number of the last interaction in the leap,
    /// and `counts` is the configuration *after* the whole leap.
    ///
    /// Unlike [`Observer::on_interaction`] / [`Observer::on_identity_run`]
    /// (under which an observer can reconstruct every intermediate
    /// configuration exactly), a leap batch coalesces many firings whose
    /// interleaving was *not* sampled — per-step quantities inside a leap
    /// are only available to within the tau-leap approximation. Observers
    /// needing exact trajectories should run under the naive or leap
    /// kernel. The default implementation does nothing.
    #[inline(always)]
    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, _effective: u64, _counts: &[u64]) {}

    /// Called by the batch kernel when it falls back to exact leap
    /// stepping, with the trigger. The default implementation does
    /// nothing.
    #[inline(always)]
    fn on_batch_fallback(&mut self, _reason: FallbackReason) {}

    /// Called by a dynamics layer after a population-membership change
    /// (join/leave/crash) has been applied between interactions. `step`
    /// is the number of interactions performed so far (the event happens
    /// *after* interaction `step`, before `step + 1`), `state` is the
    /// joining agent's initial state or the departing agent's last state,
    /// and `counts` is the configuration *after* the change. The default
    /// implementation does nothing.
    #[inline(always)]
    fn on_lifecycle(&mut self, _step: u64, _kind: LifecycleKind, _state: StateId, _counts: &[u64]) {
    }
}

/// A borrowed observer observes on its owner's behalf, so a caller can
/// lend one it keeps (into a [`Chain`], say) and read it afterwards.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        counts: &[u64],
    ) {
        (**self).on_interaction(step, p, q, p2, q2, counts);
    }

    #[inline]
    fn on_identity_run(&mut self, last_step: u64, skipped: u64, counts: &[u64]) {
        (**self).on_identity_run(last_step, skipped, counts);
    }

    #[inline]
    fn on_leap_batch(&mut self, last_step: u64, tau: u64, effective: u64, counts: &[u64]) {
        (**self).on_leap_batch(last_step, tau, effective, counts);
    }

    #[inline]
    fn on_batch_fallback(&mut self, reason: FallbackReason) {
        (**self).on_batch_fallback(reason);
    }

    #[inline]
    fn on_lifecycle(&mut self, step: u64, kind: LifecycleKind, state: StateId, counts: &[u64]) {
        (**self).on_lifecycle(step, kind, state, counts);
    }
}

/// Observer that does nothing; compiles away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn on_interaction(
        &mut self,
        _step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        _counts: &[u64],
    ) {
    }
}

/// Records the interaction number at which the count of a watched state
/// increases — for the k-partition protocol, watching `g_k` yields the
/// grouping-completion times `NI_1, NI_2, …` of the paper's Figure 4.
///
/// Note `#g_k` is non-decreasing for the paper's protocol (no rule consumes
/// `g_k`), so increments are exactly the grouping completions; the observer
/// nevertheless handles decrements correctly for other protocols by
/// recording only *new maxima*.
#[derive(Clone, Debug)]
pub struct GroupCompletionObserver {
    watched: StateId,
    max_seen: u64,
    completions: Vec<u64>,
}

impl GroupCompletionObserver {
    /// Watch increments of `watched` (e.g. the `g_k` state).
    pub fn new(watched: StateId) -> Self {
        GroupCompletionObserver {
            watched,
            max_seen: 0,
            completions: Vec::new(),
        }
    }

    /// `completions[i]` is the interaction count `NI_{i+1}` at which the
    /// watched state's count first reached `i + 1`.
    pub fn completions(&self) -> &[u64] {
        &self.completions
    }

    /// Consume the observer, returning the completion times.
    pub fn into_completions(self) -> Vec<u64> {
        self.completions
    }
}

impl Observer for GroupCompletionObserver {
    #[inline]
    fn on_interaction(
        &mut self,
        step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        counts: &[u64],
    ) {
        let c = counts[self.watched.index()];
        while self.max_seen < c {
            self.max_seen += 1;
            self.completions.push(step);
        }
    }

    /// Under the batch kernel the firings inside a leap are unordered, so
    /// a completion that happened mid-leap is attributed to the leap's
    /// last interaction — completion times carry the tau-leap resolution
    /// (at most one leap horizon of slack).
    #[inline]
    fn on_leap_batch(&mut self, last_step: u64, _tau: u64, _effective: u64, counts: &[u64]) {
        let c = counts[self.watched.index()];
        while self.max_seen < c {
            self.max_seen += 1;
            self.completions.push(last_step);
        }
    }
}

/// Records full configurations after every *state-changing* interaction
/// (identity interactions repeat the previous configuration and are
/// skipped), up to a cap. Used to render example executions.
#[derive(Clone, Debug)]
pub struct ConfigurationRecorder {
    /// Recorded count vectors, starting configuration excluded.
    configs: Vec<Vec<u64>>,
    /// Transitions `(step, p, q, p2, q2)` that produced each configuration.
    transitions: Vec<(u64, StateId, StateId, StateId, StateId)>,
    cap: usize,
    truncated: bool,
}

impl ConfigurationRecorder {
    /// Record at most `cap` configurations; further ones are counted but
    /// dropped (see [`Self::truncated`]).
    pub fn with_capacity(cap: usize) -> Self {
        ConfigurationRecorder {
            configs: Vec::new(),
            transitions: Vec::new(),
            cap,
            truncated: false,
        }
    }

    /// Recorded configurations (after each state-changing interaction).
    pub fn configs(&self) -> &[Vec<u64>] {
        &self.configs
    }

    /// The transition that produced each recorded configuration.
    pub fn transitions(&self) -> &[(u64, StateId, StateId, StateId, StateId)] {
        &self.transitions
    }

    /// Whether the cap was hit and later configurations were dropped.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl Observer for ConfigurationRecorder {
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        counts: &[u64],
    ) {
        if p == p2 && q == q2 {
            return;
        }
        if self.configs.len() >= self.cap {
            self.truncated = true;
            return;
        }
        self.configs.push(counts.to_vec());
        self.transitions.push((step, p, q, p2, q2));
    }
}

/// Samples the full count vector every `period` interactions — the raw
/// material for trajectory plots (e.g. "#g_k over time", the ratchet the
/// paper's Lemma 4 describes). Sampling by period keeps memory
/// proportional to `interactions / period` regardless of run length.
///
/// Works under both kernels: the leap kernel reports skipped identity
/// runs through [`Observer::on_identity_run`], and since the counts are
/// constant across a run, the sampler emits every period boundary that
/// falls inside it in closed form — yielding the exact sample sequence
/// the naive kernel would have produced for the same trajectory.
#[derive(Clone, Debug)]
pub struct TrajectorySampler {
    period: u64,
    /// `(interaction, counts)` samples, in order.
    samples: Vec<(u64, Vec<u64>)>,
}

impl TrajectorySampler {
    /// Sample every `period` interactions (`period ≥ 1`).
    pub fn every(period: u64) -> Self {
        assert!(period >= 1, "sampling period must be at least 1");
        TrajectorySampler {
            period,
            samples: Vec::new(),
        }
    }

    /// The recorded `(interaction, counts)` samples.
    pub fn samples(&self) -> &[(u64, Vec<u64>)] {
        &self.samples
    }

    /// Project the trajectory onto one state's count.
    pub fn series_of(&self, s: StateId) -> Vec<(u64, u64)> {
        self.samples
            .iter()
            .map(|(t, c)| (*t, c[s.index()]))
            .collect()
    }
}

impl Observer for TrajectorySampler {
    #[inline]
    fn on_interaction(
        &mut self,
        step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        counts: &[u64],
    ) {
        if step % self.period == 0 {
            self.samples.push((step, counts.to_vec()));
        }
    }

    #[inline]
    fn on_identity_run(&mut self, last_step: u64, skipped: u64, counts: &[u64]) {
        // The run covers steps (last_step - skipped, last_step], all with
        // the same configuration; emit each period boundary inside it.
        let start = last_step - skipped + 1;
        let mut t = start.div_ceil(self.period) * self.period;
        while t <= last_step {
            self.samples.push((t, counts.to_vec()));
            t += self.period;
        }
    }
}

/// Chains two observers.
#[derive(Clone, Debug, Default)]
pub struct Chain<A, B>(
    /// First observer (called first).
    pub A,
    /// Second observer.
    pub B,
);

impl<A: Observer, B: Observer> Observer for Chain<A, B> {
    #[inline]
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        counts: &[u64],
    ) {
        self.0.on_interaction(step, p, q, p2, q2, counts);
        self.1.on_interaction(step, p, q, p2, q2, counts);
    }

    #[inline]
    fn on_identity_run(&mut self, last_step: u64, skipped: u64, counts: &[u64]) {
        self.0.on_identity_run(last_step, skipped, counts);
        self.1.on_identity_run(last_step, skipped, counts);
    }

    #[inline]
    fn on_leap_batch(&mut self, last_step: u64, tau: u64, effective: u64, counts: &[u64]) {
        self.0.on_leap_batch(last_step, tau, effective, counts);
        self.1.on_leap_batch(last_step, tau, effective, counts);
    }

    #[inline]
    fn on_batch_fallback(&mut self, reason: FallbackReason) {
        self.0.on_batch_fallback(reason);
        self.1.on_batch_fallback(reason);
    }

    #[inline]
    fn on_lifecycle(&mut self, step: u64, kind: LifecycleKind, state: StateId, counts: &[u64]) {
        self.0.on_lifecycle(step, kind, state, counts);
        self.1.on_lifecycle(step, kind, state, counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_completion_records_new_maxima_once() {
        let mut obs = GroupCompletionObserver::new(StateId(0));
        let s = StateId(1);
        obs.on_interaction(1, s, s, s, s, &[0, 2]);
        obs.on_interaction(2, s, s, s, s, &[1, 1]); // first completion
        obs.on_interaction(3, s, s, s, s, &[1, 1]); // no change
        obs.on_interaction(4, s, s, s, s, &[0, 2]); // dip (hypothetical)
        obs.on_interaction(5, s, s, s, s, &[1, 1]); // not a new max
        obs.on_interaction(6, s, s, s, s, &[3, 0]); // jumps by two
        assert_eq!(obs.completions(), &[2, 6, 6]);
    }

    #[test]
    fn recorder_skips_identities_and_caps() {
        let mut rec = ConfigurationRecorder::with_capacity(2);
        let a = StateId(0);
        let b = StateId(1);
        rec.on_interaction(1, a, a, a, a, &[2, 0]); // identity: skipped
        rec.on_interaction(2, a, a, b, b, &[0, 2]);
        rec.on_interaction(3, b, b, a, a, &[2, 0]);
        rec.on_interaction(4, a, a, b, b, &[0, 2]); // over cap
        assert_eq!(rec.configs().len(), 2);
        assert!(rec.truncated());
        assert_eq!(rec.transitions()[0].0, 2);
    }

    #[test]
    fn trajectory_sampler_periods() {
        let mut t = TrajectorySampler::every(3);
        let s = StateId(0);
        for step in 1..=10 {
            t.on_interaction(step, s, s, s, s, &[step, 0]);
        }
        let steps: Vec<u64> = t.samples().iter().map(|(st, _)| *st).collect();
        assert_eq!(steps, vec![3, 6, 9]);
        assert_eq!(t.series_of(StateId(0)), vec![(3, 3), (6, 6), (9, 9)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_rejected() {
        TrajectorySampler::every(0);
    }

    /// Identity runs reported by the leap kernel yield exactly the samples
    /// the naive kernel would have taken at the same steps.
    #[test]
    fn trajectory_sampler_closed_form_identity_runs() {
        let mut t = TrajectorySampler::every(3);
        let s = StateId(0);
        // Effective interaction at step 1, then identities at 2..=8
        // reported as one leap run, then an effective one at step 9.
        t.on_interaction(1, s, s, StateId(1), s, &[5, 1]);
        t.on_identity_run(8, 7, &[5, 1]);
        t.on_interaction(9, s, s, StateId(1), s, &[4, 2]);
        let steps: Vec<u64> = t.samples().iter().map(|(st, _)| *st).collect();
        assert_eq!(steps, vec![3, 6, 9]);
        // Boundary cases: a run whose start is itself a boundary, and one
        // containing no boundary at all.
        let mut t = TrajectorySampler::every(4);
        t.on_identity_run(4, 1, &[1, 0]); // covers exactly step 4
        t.on_identity_run(7, 2, &[1, 0]); // covers 6..=7: no boundary
        t.on_identity_run(16, 9, &[1, 0]); // covers 8..=16: boundaries 8, 12, 16
        let steps: Vec<u64> = t.samples().iter().map(|(st, _)| *st).collect();
        assert_eq!(steps, vec![4, 8, 12, 16]);
    }

    #[test]
    fn chain_calls_both() {
        let mut chained = Chain(
            GroupCompletionObserver::new(StateId(0)),
            ConfigurationRecorder::with_capacity(8),
        );
        let a = StateId(0);
        let b = StateId(1);
        chained.on_interaction(1, b, b, a, a, &[2, 0]);
        assert_eq!(chained.0.completions(), &[1, 1]);
        assert_eq!(chained.1.configs().len(), 1);
    }
}
