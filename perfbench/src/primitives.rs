//! Engine primitive costs, measured on count vectors captured from a
//! workload's own trials.
//!
//! A timer inside a ~100 ns interaction cannot attribute engine time to
//! its components, so the traced runs of `sweep_fig` and `giant_batch`
//! replay one of their trials (same spec, same seed, same kernel — the
//! same trajectory) under a [`Replay`] observer that samples count
//! vectors along the way, then time each primitive in a tight loop over
//! those vectors.

use std::hint::black_box;
use std::time::Instant;

use pp_engine::batch::sample_binomial;
use pp_engine::leap::{sample_identity_run, IdentityWeights};
use pp_engine::observer::{FallbackReason, Observer};
use pp_engine::population::CountPopulation;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::stability::{Signature, SignatureTracker, StabilityTracker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;

/// Observer for a replayed trial: samples count vectors spread over the
/// whole run and splits batch-kernel time into tau-leap steps and
/// exact-fallback bursts.
///
/// The split is taken at the kernel's own decision points: time from a
/// `on_leap_batch` to the next decision is leap time, time from an
/// `on_batch_fallback` to the next decision is exact-burst time. Two
/// clock reads per decision, none per interaction.
pub struct Replay {
    last: Instant,
    in_fallback: bool,
    /// Seconds spent in tau-leap steps (batch kernel only).
    pub leap_s: f64,
    /// Seconds spent in exact fallback bursts (batch kernel only).
    pub exact_s: f64,
    every: u64,
    seen: u64,
    cap: usize,
    /// Sampled count vectors.
    pub vectors: Vec<Vec<u64>>,
}

impl Replay {
    /// Keep at most `cap` vectors, evenly thinned over the run.
    pub fn new(cap: usize) -> Self {
        Replay {
            last: Instant::now(),
            in_fallback: false,
            leap_s: 0.0,
            exact_s: 0.0,
            every: 1,
            seen: 0,
            cap: cap.max(2),
            vectors: Vec::new(),
        }
    }

    fn capture(&mut self, counts: &[u64]) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.every) {
            return;
        }
        if self.vectors.len() == self.cap {
            // Halve the sampling rate and keep every other sample, so the
            // retained vectors stay spread over the whole trajectory.
            let mut i = 0;
            self.vectors.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            self.every *= 2;
        }
        self.vectors.push(counts.to_vec());
    }

    fn decision(&mut self, fallback: bool) {
        let now = Instant::now();
        let d = now.saturating_duration_since(self.last).as_secs_f64();
        if self.in_fallback {
            self.exact_s += d;
        } else {
            self.leap_s += d;
        }
        self.last = now;
        self.in_fallback = fallback;
    }

    /// Share of batch-kernel time spent in tau-leap steps.
    pub fn leap_time_share(&self) -> f64 {
        crate::stats::ratio(self.leap_s, self.leap_s + self.exact_s)
    }
}

impl Observer for Replay {
    fn on_interaction(
        &mut self,
        _step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        counts: &[u64],
    ) {
        if p != p2 || q != q2 {
            self.capture(counts);
        }
    }

    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, _effective: u64, counts: &[u64]) {
        self.decision(false);
        self.capture(counts);
    }

    fn on_batch_fallback(&mut self, _reason: FallbackReason) {
        self.decision(true);
    }
}

/// Nanoseconds per call of each engine primitive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    /// `leap::sample_identity_run`.
    pub identity_run_ns: f64,
    /// `CountPopulation::state_of_rank`.
    pub state_of_rank_ns: f64,
    /// `batch::sample_binomial`.
    pub binomial_ns: f64,
    /// `SignatureTracker::apply_delta`.
    pub tracker_update_ns: f64,
}

/// Median over three rounds of the nanoseconds per call of `f`, called
/// `calls` times per round.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Time the four primitives over `vectors` (configurations of `proto`
/// with `sig` as the stable signature), `calls` calls per round.
pub fn measure(
    proto: &CompiledProtocol,
    sig: &Signature,
    vectors: &[Vec<u64>],
    calls: usize,
    seed: u64,
) -> Costs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rules = proto.non_identity_rules();

    // Identity-run lengths: (W_id, n(n−1)) of every non-stable vector.
    let id_inputs: Vec<(u64, u64)> = vectors
        .iter()
        .filter_map(|c| {
            let n: u64 = c.iter().sum();
            let w = IdentityWeights::new(proto, c).identity_weight();
            let total = n * n.saturating_sub(1);
            (w < total).then_some((w, total))
        })
        .collect();

    // Rank lookups: 256 uniform ranks per population.
    let pops: Vec<(CountPopulation, Vec<u64>)> = vectors
        .iter()
        .map(|c| {
            let n: u64 = c.iter().sum();
            let ranks = (0..256).map(|_| rng.gen_range(0..n.max(1))).collect();
            (CountPopulation::from_counts(c.clone()), ranks)
        })
        .collect();

    // Binomial splits: the batch kernel's per-channel draws, a firing
    // total of n/100 split with each enabled channel's propensity share.
    let mut binom: Vec<(u64, f64)> = Vec::new();
    for c in vectors {
        let n: u64 = c.iter().sum();
        let w: Vec<u64> = rules
            .iter()
            .map(|(p, q, _, _)| c[p.index()] * c[q.index()].saturating_sub(u64::from(p == q)))
            .collect();
        let total: u64 = w.iter().sum();
        let firings = (n / 100).max(16);
        binom.extend(
            w.iter()
                .filter(|&&wi| wi > 0)
                .map(|&wi| (firings, wi as f64 / total as f64)),
        );
    }

    // Tracker updates: apply then undo one enabled transition per vector,
    // so the tracked counts stay valid however often the loop cycles.
    let mut trackers: Vec<(SignatureTracker, [(StateId, i64); 8])> = Vec::new();
    for c in vectors {
        let enabled = rules
            .iter()
            .find(|(p, q, _, _)| c[p.index()] >= 1 && c[q.index()] > u64::from(p == q));
        if let Some(&(p, q, p2, q2)) = enabled {
            let seq = [
                (p, -1),
                (q, -1),
                (p2, 1),
                (q2, 1),
                (p2, -1),
                (q2, -1),
                (p, 1),
                (q, 1),
            ];
            trackers.push((SignatureTracker::new(sig, c), seq));
        }
    }

    let mut costs = Costs::default();
    if !id_inputs.is_empty() {
        let mut acc = 0u64;
        costs.identity_run_ns = ns_per_call(calls, |i| {
            let (w, t) = id_inputs[i % id_inputs.len()];
            acc = acc.wrapping_add(sample_identity_run(&mut rng, w, t));
        });
        black_box(acc);
    }
    if !pops.is_empty() {
        let mut acc = 0usize;
        costs.state_of_rank_ns = ns_per_call(calls, |i| {
            let (pop, ranks) = &pops[(i / 256) % pops.len()];
            acc = acc.wrapping_add(pop.state_of_rank(ranks[i % 256]).index());
        });
        black_box(acc);
    }
    if !binom.is_empty() {
        let mut acc = 0u64;
        costs.binomial_ns = ns_per_call(calls, |i| {
            let (t, p) = binom[i % binom.len()];
            acc = acc.wrapping_add(sample_binomial(&mut rng, t, p));
        });
        black_box(acc);
    }
    if !trackers.is_empty() {
        let len = trackers.len();
        // Whole apply-and-undo sequences only, so every round starts from
        // the captured counts.
        let calls = calls.div_ceil(8 * len) * 8 * len;
        costs.tracker_update_ns = ns_per_call(calls, |i| {
            let (tracker, seq) = &mut trackers[(i / 8) % len];
            let (s, d) = seq[i % 8];
            tracker.apply_delta(s, d);
            black_box(tracker.violations_hint());
        });
    }
    costs
}
