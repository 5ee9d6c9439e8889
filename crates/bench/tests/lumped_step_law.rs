//! The batch kernel's exact step against repeated leap-kernel steps, in
//! law.
//!
//! With a safety threshold of `n` every batch-kernel step is exact. The
//! runs below start from fixed mid-run configurations and stop at the
//! first interaction that leaves the *flip class* (the states that no
//! identity pair involves, such as Algorithm 1's `initial` and
//! `initial'`): the criterion [`LeavesClass`] turns stable as soon as a
//! count outside the class moves. One batch run is then one stretch of
//! flips and its terminating pair, and one leap run is its reference
//! sample: `LeapRun::step` repeated until the first non-flip.
//!
//! Each cell compares 10⁵ runs of each kernel: the joint law of (flip
//! count, final configuration, terminating pair) by a two-sample
//! chi-square test, and the means of the flip count, of the identity
//! total and of every class count by Welch z-tests, plus a two-sample
//! Kolmogorov–Smirnov test on the identity totals and, for each kernel,
//! the identity total against its exact mean given the flip count. The
//! censored cells add a budget that cuts a third to a half of the runs
//! inside a stretch and compare the final configurations and the
//! effective interactions completed at the cut, and the hierarchical
//! cell also runs under `Never` to a budget, across many stretches.
//!
//! **False-alarm rate.** Every assertion is set at a one- or two-sided
//! p-value of about 10⁻⁶ (chi-square z > 4.75 by the Wilson–Hilferty
//! transform, |Welch z| > 4.9, KS distance above its α = 10⁻⁶ critical
//! value), and the file makes fewer than 60 of them, so a correct
//! kernel fails it with probability below 6·10⁻⁵. The seeds are fixed,
//! so a run is reproducible.
//!
//! The file takes a few seconds in release and much longer in debug,
//! so it is `#[ignore]`d and runs in the CI step
//! `cargo test --release -p pp-bench -- --ignored`.

use std::collections::HashMap;

use pp_engine::observer::Observer;
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds::derive;
use pp_engine::simulator::{RunError, Simulator};
use pp_engine::stability::{Never, StabilityCriterion, StabilityTracker};
use pp_protocols::hierarchical::HierarchicalPartition;
use pp_protocols::kpartition::UniformKPartition;

/// Runs per kernel and cell.
const RUNS: u64 = 100_000;

/// |z| bound of the Welch tests: two-sided p ≈ 10⁻⁶.
const Z_MEAN: f64 = 4.9;

/// Bound on the chi-square test's Wilson–Hilferty z: one-sided
/// p ≈ 10⁻⁶.
const Z_CHI2: f64 = 4.75;

/// Chi-square cells with fewer observations than this, over both
/// samples, are pooled into one.
const MIN_CELL: u64 = 20;

/// The states no identity pair involves, in either position.
fn flip_class(proto: &CompiledProtocol) -> Vec<bool> {
    proto
        .states()
        .map(|s| {
            proto
                .states()
                .all(|t| !proto.is_identity(s, t) && !proto.is_identity(t, s))
        })
        .collect()
}

/// Stable once a count outside the flip class differs from the start:
/// the first interaction that leaves the class ends the run. Moves
/// within the class cannot change that verdict, and its tracker says so,
/// so the batch kernel lumps the class's flips.
struct LeavesClass {
    start: Vec<u64>,
    class: Vec<bool>,
}

impl StabilityCriterion for LeavesClass {
    fn is_stable(&self, _proto: &CompiledProtocol, counts: &[u64]) -> bool {
        counts
            .iter()
            .zip(&self.start)
            .zip(&self.class)
            .any(|((c, s), &inside)| !inside && c != s)
    }

    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        Box::new(LeavesClassTracker {
            criterion: self,
            counts: counts.to_vec(),
        })
    }
}

/// [`LeavesClass`]'s tracker: the counts, folded from the deltas.
struct LeavesClassTracker<'a> {
    criterion: &'a LeavesClass,
    counts: Vec<u64>,
}

impl StabilityTracker for LeavesClassTracker<'_> {
    fn apply_delta(&mut self, s: StateId, delta: i64) {
        let c = &mut self.counts[s.index()];
        *c = c
            .checked_add_signed(delta)
            .expect("counts stay non-negative");
    }

    fn is_stable(&mut self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        assert_eq!(self.counts, counts, "the tracker saw every delta");
        self.criterion.is_stable(proto, counts)
    }

    fn ignores_moves_within(&self, class: &[StateId]) -> bool {
        class.iter().all(|s| self.criterion.class[s.index()])
    }
}

/// Counts effective interactions as observers see them, one by one or
/// in a lumped stretch, and remembers the last one reported one by one.
#[derive(Default)]
struct Tally {
    effective: u64,
    stretches: u64,
    last: Option<(StateId, StateId)>,
}

impl Observer for Tally {
    fn on_interaction(
        &mut self,
        _step: u64,
        p: StateId,
        q: StateId,
        _p2: StateId,
        _q2: StateId,
        _counts: &[u64],
    ) {
        self.effective += 1;
        self.last = Some((p, q));
    }

    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, effective: u64, _counts: &[u64]) {
        self.effective += effective;
        self.stretches += 1;
    }
}

/// A protocol and a start configuration.
struct Cell {
    name: &'static str,
    proto: CompiledProtocol,
    start: Vec<u64>,
}

impl Cell {
    /// Counts given by state name; every other state starts empty.
    fn new(name: &'static str, proto: CompiledProtocol, counts: &[(&str, u64)]) -> Self {
        let mut start = vec![0; proto.num_states()];
        for &(state, c) in counts {
            let s = proto.state_by_name(state).expect("state exists");
            start[s.index()] = c;
        }
        Cell { name, proto, start }
    }

    fn n(&self) -> u64 {
        self.start.iter().sum()
    }

    /// `W_id / W_eff` at the start: the mean identity gap before each
    /// effective interaction, while no non-flip has fired.
    fn identity_odds(&self) -> f64 {
        let c = &self.start;
        let mut w_id = 0;
        for p in self.proto.states() {
            for q in self.proto.states() {
                if self.proto.is_identity(p, q) {
                    let cq = c[q.index()] - u64::from(p == q).min(c[q.index()]);
                    w_id += c[p.index()] * cq;
                }
            }
        }
        let total = self.n() * (self.n() - 1);
        w_id as f64 / (total - w_id) as f64
    }
}

/// k = 3, n = 11: g1 = m2 + d1 + g3 and g2 = g3, as Lemma 1 requires.
fn k3_cell() -> Cell {
    let proto = UniformKPartition::new(3).compile();
    Cell::new(
        "ukp k=3 n=11",
        proto,
        &[
            ("initial", 3),
            ("initial'", 1),
            ("g1", 3),
            ("g2", 1),
            ("g3", 1),
            ("m2", 1),
            ("d1", 1),
        ],
    )
}

/// k = 4, n = 12, a Lemma 1 configuration with a chain and an abort.
fn k4_cell() -> Cell {
    let proto = UniformKPartition::new(4).compile();
    Cell::new(
        "ukp k=4 n=12",
        proto,
        &[
            ("initial", 2),
            ("initial'", 1),
            ("g1", 3),
            ("g2", 2),
            ("g3", 1),
            ("g4", 1),
            ("m3", 1),
            ("d1", 1),
        ],
    )
}

/// The h = 2 composed bipartition, n = 10: a 6-state class whose flips
/// include the level-1 settle, and whose only non-flips, the level-2
/// settles, need a flip first.
fn hierarchical_cell() -> Cell {
    let proto = HierarchicalPartition::composed(2).compile();
    Cell::new(
        "composed h=2 n=10",
        proto,
        &[
            ("u1.0.i", 2),
            ("u1.0.i'", 1),
            ("u2.0.i", 1),
            ("u2.1.i'", 1),
            ("leaf0", 2),
            ("leaf1", 1),
            ("leaf2", 1),
            ("leaf3", 1),
        ],
    )
}

/// One run's outcome.
struct Outcome {
    /// Whether the run ended at its budget.
    censored: bool,
    /// Effective interactions before the terminating pair, or all of
    /// them at the cut when censored.
    flips: u64,
    /// Identity interactions (uncensored runs).
    identities: u64,
    /// The terminating pair, if the run ended on one.
    last: Option<(StateId, StateId)>,
    /// The final configuration.
    counts: Vec<u64>,
    /// Lumped stretches the run reported.
    stretches: u64,
}

impl Outcome {
    /// The chi-square key: everything the joint law covers.
    fn key(&self) -> Vec<u64> {
        let mut key = vec![u64::from(self.censored), self.flips];
        if let Some((p, q)) = self.last {
            key.extend([u64::from(p.0), u64::from(q.0)]);
        }
        key.extend(&self.counts);
        key
    }
}

/// One run of `cell` from its start under `criterion`: the batch kernel
/// at a safety threshold of `n` when `batch`, else the leap kernel.
fn run<C: StabilityCriterion>(
    cell: &Cell,
    criterion: &C,
    budget: u64,
    batch: bool,
    seed: u64,
) -> Outcome {
    let sim = Simulator::new(&cell.proto);
    let mut pop = CountPopulation::from_counts(cell.start.clone());
    let mut sched = UniformRandomScheduler::from_seed(seed);
    let mut tally = Tally::default();
    let res = if batch {
        sim.run_batch_configured(
            &mut pop,
            &mut sched,
            criterion,
            budget,
            cell.n(),
            &mut tally,
        )
    } else {
        sim.run_leap_observed(&mut pop, &mut sched, criterion, budget, &mut tally)
    };
    let counts = pop.counts().to_vec();
    match res {
        Ok(r) => {
            assert_eq!(tally.effective, r.effective_interactions, "{}", cell.name);
            Outcome {
                censored: false,
                flips: r.effective_interactions - 1,
                identities: r.interactions - r.effective_interactions,
                last: tally.last,
                counts,
                stretches: tally.stretches,
            }
        }
        Err(RunError::InteractionLimit { .. }) => Outcome {
            censored: true,
            flips: tally.effective,
            identities: 0,
            last: None,
            counts,
            stretches: tally.stretches,
        },
        Err(e) => panic!("{}: unexpected run error {e}", cell.name),
    }
}

/// `RUNS` outcomes of one kernel; `stream` keeps the two kernels' seeds
/// apart.
fn outcomes<C: StabilityCriterion>(
    cell: &Cell,
    criterion: &C,
    budget: u64,
    batch: bool,
    stream: u64,
) -> Vec<Outcome> {
    (0..RUNS)
        .map(|i| run(cell, criterion, budget, batch, derive(stream, i)))
        .collect()
}

/// Two-sample chi-square homogeneity test of the two samples' joint
/// law, as a Wilson–Hilferty z (standard normal under equal laws).
fn chi_square_z(a: &[Outcome], b: &[Outcome]) -> (f64, usize) {
    let mut cells: HashMap<Vec<u64>, (u64, u64)> = HashMap::new();
    for o in a {
        cells.entry(o.key()).or_default().0 += 1;
    }
    for o in b {
        cells.entry(o.key()).or_default().1 += 1;
    }
    let mut pooled = (0u64, 0u64);
    let mut bins = Vec::new();
    for (x, y) in cells.into_values() {
        if x + y < MIN_CELL {
            pooled.0 += x;
            pooled.1 += y;
        } else {
            bins.push((x, y));
        }
    }
    if pooled.0 + pooled.1 > 0 {
        bins.push(pooled);
    }
    // Equal sample sizes: each bin contributes (x − y)² / (x + y).
    assert_eq!(a.len(), b.len());
    let stat: f64 = bins
        .iter()
        .map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64)
        .sum();
    let df = (bins.len() - 1) as f64;
    let t = 2.0 / (9.0 * df);
    (((stat / df).cbrt() - (1.0 - t)) / t.sqrt(), bins.len())
}

/// Welch z of the difference in means of `f` over the two samples.
fn welch_z(a: &[Outcome], b: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    let moments = |xs: &[Outcome]| {
        let n = xs.len() as f64;
        let mean = xs.iter().map(&f).sum::<f64>() / n;
        let var = xs.iter().map(|o| (f(o) - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var / n)
    };
    let (ma, va) = moments(a);
    let (mb, vb) = moments(b);
    if va + vb == 0.0 {
        return if ma == mb { 0.0 } else { f64::INFINITY };
    }
    (ma - mb) / (va + vb).sqrt()
}

/// Two-sample Kolmogorov–Smirnov distance of `f` over the samples.
fn ks_distance(a: &[Outcome], b: &[Outcome], f: impl Fn(&Outcome) -> u64) -> f64 {
    let mut x: Vec<u64> = a.iter().map(&f).collect();
    let mut y: Vec<u64> = b.iter().map(&f).collect();
    x.sort_unstable();
    y.sort_unstable();
    let (mut i, mut j, mut d) = (0usize, 0usize, 0f64);
    while i < x.len() && j < y.len() {
        let v = x[i].min(y[j]);
        while i < x.len() && x[i] == v {
            i += 1;
        }
        while j < y.len() && y[j] == v {
            j += 1;
        }
        d = d.max((i as f64 / x.len() as f64 - j as f64 / y.len() as f64).abs());
    }
    d
}

/// The KS critical distance for two samples of `RUNS` at α = 10⁻⁶
/// (conservative for discrete laws).
fn ks_critical() -> f64 {
    let n = RUNS as f64;
    (-0.5 * (1e-6f64 / 2.0).ln()).sqrt() * (2.0 / n).sqrt()
}

/// Compare the two kernels' outcomes on `cell`: the joint law and
/// every marginal mean, and for runs that end on a terminating pair the
/// identity totals' laws, between the kernels and against their exact
/// mean given the flip count.
fn compare(label: &str, cell: &Cell, batch: &[Outcome], leap: &[Outcome]) {
    let lumped = batch.iter().map(|o| o.stretches).sum::<u64>();
    assert!(lumped > 0, "{label}: the batch kernel lumped no stretch");
    let (z, bins) = chi_square_z(batch, leap);
    println!("{label}: joint law over {bins} bins, chi-square z = {z:.2}");
    assert!(
        z < Z_CHI2,
        "{label}: joint laws differ (chi-square z = {z:.2} over {bins} bins)"
    );
    let class = flip_class(&cell.proto);
    for (s, _) in class.iter().enumerate().filter(|(_, &inside)| inside) {
        let z = welch_z(batch, leap, |o| o.counts[s] as f64);
        let name = cell.proto.state_name(StateId(s as u16));
        assert!(
            z.abs() < Z_MEAN,
            "{label}: mean final count of {name} differs (z = {z:.2})"
        );
    }
    let z = welch_z(batch, leap, |o| f64::from(u8::from(o.censored)));
    assert!(
        z.abs() < Z_MEAN,
        "{label}: censoring rates differ (z = {z:.2})"
    );
    let z = welch_z(batch, leap, |o| o.flips as f64);
    println!("{label}: flips z = {z:.2}");
    assert!(
        z.abs() < Z_MEAN,
        "{label}: mean flip counts differ (z = {z:.2})"
    );
    if batch.iter().all(|o| !o.censored) && leap.iter().all(|o| !o.censored) {
        // Each of the `flips + 1` effective interactions follows an
        // i.i.d. geometric gap of mean θ = W_id/W_eff and variance θ(1 + θ).
        let theta = cell.identity_odds();
        for (kernel, sample) in [("batch", batch), ("leap", leap)] {
            let (excess, var) = sample.iter().fold((0.0, 0.0), |(e, v), o| {
                let events = (o.flips + 1) as f64;
                (
                    e + o.identities as f64 - events * theta,
                    v + events * theta * (1.0 + theta),
                )
            });
            let z = excess / f64::sqrt(var);
            println!("{label}: {kernel} identities against their exact mean, z = {z:.2}");
            assert!(
                z.abs() < Z_MEAN,
                "{label}: {kernel} identity totals off their exact mean (z = {z:.2})"
            );
        }
        let z = welch_z(batch, leap, |o| o.identities as f64);
        let d = ks_distance(batch, leap, |o| o.identities);
        println!("{label}: identities z = {z:.2}, KS distance {d:.4}");
        assert!(
            z.abs() < Z_MEAN,
            "{label}: mean identity totals differ (z = {z:.2})"
        );
        assert!(
            d < ks_critical(),
            "{label}: identity-total laws differ (KS distance {d:.4})"
        );
    }
}

/// One stretch from each cell's start: flips and their terminating
/// pair, uncensored.
#[test]
#[ignore = "law test, seconds in release; CI runs it in release mode via -- --ignored"]
fn stretches_match_repeated_leap_steps() {
    for (i, cell) in [k3_cell(), k4_cell(), hierarchical_cell()]
        .iter()
        .enumerate()
    {
        let crit = LeavesClass {
            start: cell.start.clone(),
            class: flip_class(&cell.proto),
        };
        let batch = outcomes(cell, &crit, u64::MAX, true, 2 * i as u64 + 1);
        let leap = outcomes(cell, &crit, u64::MAX, false, 2 * i as u64 + 2);
        let mean_flips = batch.iter().map(|o| o.flips).sum::<u64>() as f64 / RUNS as f64;
        println!("{}: {mean_flips:.2} flips per stretch", cell.name);
        assert!(mean_flips > 1.0, "{}: too few flips to test", cell.name);
        compare(cell.name, cell, &batch, &leap);
    }
}

/// Budgets that cut a third to a half of the stretches: the final
/// configurations and the effective interactions at the cut, for one
/// stretch from each cell's start, and for the hierarchical cell under
/// `Never`, across many stretches.
#[test]
#[ignore = "law test, seconds in release; CI runs it in release mode via -- --ignored"]
fn censored_stretches_match_repeated_leap_steps() {
    for (i, (cell, budget)) in [(k3_cell(), 5), (k4_cell(), 6), (hierarchical_cell(), 60)]
        .iter()
        .enumerate()
    {
        let crit = LeavesClass {
            start: cell.start.clone(),
            class: flip_class(&cell.proto),
        };
        let batch = outcomes(cell, &crit, *budget, true, 2 * i as u64 + 101);
        let leap = outcomes(cell, &crit, *budget, false, 2 * i as u64 + 102);
        let cut = batch.iter().filter(|o| o.censored).count() as f64 / RUNS as f64;
        let label = format!("{} budget {budget}", cell.name);
        println!("{label}: {:.0}% censored", 100.0 * cut);
        assert!(cut > 0.2, "{label}: the budget cuts too few stretches");
        compare(&label, cell, &batch, &leap);
    }
    let cell = hierarchical_cell();
    let budget = 40;
    let batch = outcomes(&cell, &Never, budget, true, 201);
    let leap = outcomes(&cell, &Never, budget, false, 202);
    compare(
        &format!("{} under Never, budget {budget}", cell.name),
        &cell,
        &batch,
        &leap,
    );
}
