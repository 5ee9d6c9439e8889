//! Convergence-phase classification and the [`PhaseProbe`] observer.
//!
//! Algorithm 1's convergence story has three macroscopic regimes that
//! are readable straight off the count vector:
//!
//! * **chain building** — free agents (`initial`, `initial'`) are still
//!   flipping (rules 1–4) or a builder chain (`m_i`) is recruiting
//!   (rules 5–7);
//! * **repair** — a chain collision (rule 8) left demolishers (`d_i`)
//!   walking settled groups back down (rules 9–10);
//! * **stable** — no demolishers and at most one free-or-builder agent
//!   left: the partition cannot change any more. The Lemma 4–6 stable
//!   signature keeps exactly one `m_r` member when `n mod k ≥ 2` and one
//!   flipping free agent when `n mod k = 1`, so a lone leftover of
//!   either kind is part of stability, not evidence of building.
//!
//! [`PhaseMap`] takes each state's role from the state layout
//! ([`UniformKPartition::phase_map`]); [`PhaseProbe`] rides the engine's
//! [`Observer`] seam and samples the classification at
//! logarithmically-spaced checkpoints (steps 1, 2, 4, 8, ...), recording
//! a segment only when the phase changes. The probe therefore costs one
//! comparison per interaction in the naive kernel and is closed-form
//! over the leap kernel's identity runs (counts are constant inside a
//! run, so checkpoint samples inside it are all equal); under the batch
//! kernel, checkpoints inside a tau-leap resolve to the leap-end
//! configuration, which is the same resolution limit every other
//! observer has there. Like all observers it never touches scheduling
//! or RNG state, so attaching it leaves trajectories bit-identical.

use super::UniformKPartition;
use pp_engine::observer::Observer;
use pp_engine::protocol::StateId;

/// The macroscopic convergence regime of a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Free agents flipping or a builder chain recruiting (rules 1–7).
    ChainBuilding,
    /// Demolishers walking settled groups back down (rules 8–10 aftermath).
    Repair,
    /// No demolishers, at most one free-or-builder agent left.
    Stable,
}

impl Phase {
    /// Stable wire label (used in timeline JSON and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::ChainBuilding => "chain_building",
            Phase::Repair => "repair",
            Phase::Stable => "stable",
        }
    }

    /// Parse a wire label back.
    pub fn parse(s: &str) -> Option<Phase> {
        match s {
            "chain_building" => Some(Phase::ChainBuilding),
            "repair" => Some(Phase::Repair),
            "stable" => Some(Phase::Stable),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Free,
    Settled,
    Builder,
    Demolisher,
}

/// Per-state roles of a k-partition state layout (`I`, `G`, `M`, `D`).
#[derive(Clone, Debug)]
pub struct PhaseMap {
    roles: Vec<Role>,
}

impl PhaseMap {
    /// The roles of the first `num_states` states of `kp`'s layout: all
    /// of them for the paper's protocol and its variants, the `I ∪ G ∪ M`
    /// prefix for the basic strategy.
    pub(crate) fn of_layout(kp: &UniformKPartition, num_states: usize) -> PhaseMap {
        let role = |s: StateId| {
            if kp.is_free(s) {
                Role::Free
            } else if kp.g_index(s).is_some() {
                Role::Settled
            } else if kp.m_index(s).is_some() {
                Role::Builder
            } else {
                debug_assert!(kp.d_index(s).is_some());
                Role::Demolisher
            }
        };
        PhaseMap {
            roles: (0..num_states as u16).map(|s| role(StateId(s))).collect(),
        }
    }

    /// Classify a count vector (indexed by state, as the simulator hands
    /// observers) into its phase.
    ///
    /// Assumes `counts` is reachable. By Lemma 1, a reachable
    /// configuration with no demolishers and `free + builders ≤ 1` has
    /// its group counts pinned to the Lemma 4–6 stable signature (the
    /// lone leftover is the `m_r` member for `n mod k ≥ 2`, the flipping
    /// free agent for `n mod k = 1`), so that predicate *is* stability;
    /// two or more free/builder agents mean the chain is still forming.
    pub fn classify(&self, counts: &[u64]) -> Phase {
        let mut free = 0u64;
        let mut builders = 0u64;
        let mut demolishers = 0u64;
        for (role, &c) in self.roles.iter().zip(counts) {
            match role {
                Role::Free => free += c,
                Role::Builder => builders += c,
                Role::Demolisher => demolishers += c,
                Role::Settled => {}
            }
        }
        if demolishers > 0 {
            Phase::Repair
        } else if free + builders > 1 {
            Phase::ChainBuilding
        } else {
            Phase::Stable
        }
    }
}

/// Observer sampling the [`Phase`] at logarithmically-spaced checkpoints
/// (interaction numbers 1, 2, 4, 8, ...), recording one `(step, phase)`
/// segment per phase change. Call [`PhaseProbe::finish`] after the run
/// to pin the terminal classification at the final interaction count.
#[derive(Clone, Debug)]
pub struct PhaseProbe {
    map: PhaseMap,
    next: u64,
    segments: Vec<(u64, Phase)>,
    checkpoints: u64,
}

impl PhaseProbe {
    /// A probe for `map`'s protocol, with its first checkpoint at step 1.
    pub fn new(map: PhaseMap) -> PhaseProbe {
        PhaseProbe {
            map,
            next: 1,
            segments: Vec::new(),
            checkpoints: 0,
        }
    }

    fn observe(&mut self, step: u64, counts: &[u64]) {
        self.checkpoints += 1;
        let phase = self.map.classify(counts);
        if self.segments.last().map(|&(_, p)| p) != Some(phase) {
            self.segments.push((step, phase));
        }
    }

    /// Resolve every checkpoint in `(..=last_step]` against one constant
    /// (or end-of-window) count vector and advance past `last_step`.
    /// The callers test `last_step >= self.next` inline first: the
    /// checkpoints are log-spaced, so almost every callback returns there.
    #[cold]
    fn drain_checkpoints(&mut self, at_step: u64, last_step: u64, counts: &[u64]) {
        self.observe(at_step.max(self.next), counts);
        let mut n = self.next.saturating_mul(2);
        while n <= last_step {
            self.checkpoints += 1;
            n = n.saturating_mul(2);
        }
        self.next = n;
    }

    /// Record the terminal classification at `total_steps` (the run's
    /// final interaction count), closing the timeline.
    pub fn finish(&mut self, total_steps: u64, counts: &[u64]) {
        let phase = self.map.classify(counts);
        if self.segments.last().map(|&(_, p)| p) != Some(phase) || self.segments.is_empty() {
            self.segments.push((total_steps.max(1), phase));
        }
    }

    /// The recorded `(first step observed, phase)` segments, in order.
    pub fn segments(&self) -> &[(u64, Phase)] {
        &self.segments
    }

    /// Number of checkpoints resolved (including closed-form ones).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The most recently observed phase, if any checkpoint fired yet.
    pub fn current_phase(&self) -> Option<Phase> {
        self.segments.last().map(|&(_, p)| p)
    }
}

impl Observer for PhaseProbe {
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
        if step >= self.next {
            self.drain_checkpoints(step.min(self.next), step, counts);
        }
    }

    #[inline]
    fn on_identity_run(&mut self, last_step: u64, _skipped: u64, counts: &[u64]) {
        // Counts are constant across the run, so the earliest checkpoint
        // inside it stands for all of them.
        if last_step >= self.next {
            self.drain_checkpoints(self.next, last_step, counts);
        }
    }

    #[inline]
    fn on_leap_batch(&mut self, last_step: u64, _tau: u64, _effective: u64, counts: &[u64]) {
        // Intermediate configurations inside a tau-leap were never
        // sampled; checkpoints inside it resolve at the leap end.
        if last_step >= self.next {
            self.drain_checkpoints(last_step, last_step, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpartition::ablation::BasicStrategyKPartition;

    /// The k = 4 layout: initial, initial', g1..g4, m2, m3, d1, d2.
    fn k4_probe() -> PhaseProbe {
        PhaseProbe::new(UniformKPartition::new(4).phase_map())
    }

    /// The layout-derived roles are the ones the state names announce.
    #[test]
    fn roles_follow_the_state_names() {
        for k in 2..=8 {
            let kp = UniformKPartition::new(k);
            let proto = kp.compile();
            let map = kp.phase_map();
            assert_eq!(map.roles.len(), proto.num_states());
            for s in proto.states() {
                let want = match proto
                    .state_name(s)
                    .trim_end_matches(|c: char| c.is_ascii_digit())
                {
                    "initial" | "initial'" => Role::Free,
                    "g" => Role::Settled,
                    "m" => Role::Builder,
                    "d" => Role::Demolisher,
                    other => panic!("unexpected state name {other}"),
                };
                assert_eq!(map.roles[s.index()], want, "k = {k}, state {s:?}");
            }
        }
        // The basic strategy keeps the paper's I ∪ G ∪ M prefix.
        let basic = BasicStrategyKPartition::new(5).phase_map();
        let paper = UniformKPartition::new(5).phase_map();
        assert_eq!(basic.roles, paper.roles[..10]);
    }

    #[test]
    fn roles_drive_classification() {
        let map = UniformKPartition::new(4).phase_map();
        // indices: initial, initial', g1, g2, g3, g4, m2, m3, d1, d2
        assert_eq!(
            map.classify(&[5, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            Phase::ChainBuilding
        );
        // A recruiting chain (m2 + m3) with free agents still around.
        assert_eq!(
            map.classify(&[2, 0, 1, 1, 1, 0, 1, 1, 0, 0]),
            Phase::ChainBuilding
        );
        // One free agent AND one member left: still transient (rule 5 fires).
        assert_eq!(
            map.classify(&[1, 0, 2, 2, 2, 0, 0, 1, 0, 0]),
            Phase::ChainBuilding
        );
        assert_eq!(map.classify(&[0, 1, 2, 2, 1, 0, 1, 0, 1, 0]), Phase::Repair);
        // n mod k = 1: the lone free agent keeps flipping but the
        // partition is fixed.
        assert_eq!(map.classify(&[1, 0, 2, 2, 2, 0, 0, 0, 0, 0]), Phase::Stable);
        // n mod k = 0: everyone settled.
        assert_eq!(map.classify(&[0, 0, 3, 2, 2, 0, 0, 0, 0, 0]), Phase::Stable);
        // n mod k = 2: the stable signature keeps exactly one m2 member.
        assert_eq!(map.classify(&[0, 0, 3, 2, 2, 0, 1, 0, 0, 0]), Phase::Stable);
    }

    #[test]
    fn checkpoints_are_log_spaced_and_segments_dedup() {
        let mut probe = k4_probe();
        let building = [4u64, 0, 1, 0, 0, 0, 1, 0, 0, 0];
        let repairing = [1u64, 0, 1, 1, 0, 0, 0, 0, 1, 0];
        let stable = [1u64, 0, 2, 2, 1, 0, 0, 0, 0, 0];
        let a = StateId(0);
        for step in 1..=100u64 {
            let counts: &[u64] = if step < 20 {
                &building
            } else if step < 70 {
                &repairing
            } else {
                &stable
            };
            probe.on_interaction(step, a, a, a, a, counts);
        }
        probe.finish(100, &stable);
        // Checkpoints 1,2,4,8,16 (building), 32,64 (repair), then the
        // finish pin (stable) — phase changes land on checkpoint steps.
        assert_eq!(probe.checkpoints(), 7);
        assert_eq!(
            probe.segments(),
            &[
                (1, Phase::ChainBuilding),
                (32, Phase::Repair),
                (100, Phase::Stable),
            ]
        );
    }

    #[test]
    fn identity_runs_resolve_checkpoints_in_closed_form() {
        let building = [4u64, 0, 1, 0, 0, 0, 1, 0, 0, 0];
        let a = StateId(0);

        let mut naive = k4_probe();
        for step in 1..=1000u64 {
            naive.on_interaction(step, a, a, a, a, &building);
        }

        let mut leap = k4_probe();
        // Same 1000 constant-count steps, delivered as 3 identity runs
        // and two effective interactions.
        leap.on_identity_run(400, 400, &building);
        leap.on_interaction(401, a, a, a, a, &building);
        leap.on_identity_run(900, 499, &building);
        leap.on_interaction(901, a, a, a, a, &building);
        leap.on_identity_run(1000, 99, &building);

        assert_eq!(naive.checkpoints(), leap.checkpoints());
        assert_eq!(naive.segments(), leap.segments());
    }

    #[test]
    fn finish_records_terminal_phase_once() {
        let stable = [0u64, 0, 3, 3, 2, 0, 0, 0, 0, 0];
        let mut probe = k4_probe();
        probe.finish(50, &stable);
        probe.finish(60, &stable); // idempotent for an unchanged phase
        assert_eq!(probe.segments(), &[(50, Phase::Stable)]);
        assert_eq!(probe.current_phase(), Some(Phase::Stable));
    }
}
