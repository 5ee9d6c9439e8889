//! E7: coarse statistical checks of the paper's §5 scaling claims, kept
//! deliberately loose (few trials, generous margins) so they are stable
//! in CI while still catching order-of-magnitude regressions.

use pp_analysis::experiments::{kpartition_cell, kpartition_grouping_cell};
use pp_analysis::fit;

/// "The number of interactions increases exponentially with k": at fixed
/// n, doubling k from 3 to 6 should multiply the cost well beyond the
/// k-linear factor. We assert a conservative 2x.
#[test]
fn cost_grows_quickly_in_k() {
    let n = 120u64;
    let trials = 12;
    let mean3 = kpartition_cell(3, n, trials, 7).unwrap().summary().mean;
    let mean6 = kpartition_cell(6, n, trials, 7).unwrap().summary().mean;
    assert!(
        mean6 > 2.0 * mean3,
        "k=6 ({mean6}) should cost well over 2x k=3 ({mean3})"
    );
}

/// "More than linearly but less than exponentially with n": the log-log
/// slope over n ∈ {60, 120, 240, 480} at k = 4 should be comfortably
/// above 1 (superlinear) and below 4 (clearly subexponential over this
/// range — an exponential would blow past any fixed power).
#[test]
fn cost_superlinear_subexponential_in_n() {
    let trials = 12;
    let ns = [60u64, 120, 240, 480];
    let pts: Vec<(f64, f64)> = ns
        .iter()
        .map(|&n| {
            (
                n as f64,
                kpartition_cell(4, n, trials, 11).unwrap().summary().mean,
            )
        })
        .collect();
    let (b, r2) = fit::power_law_exponent(&pts);
    assert!(b > 1.1, "expected superlinear growth, got exponent {b}");
    assert!(b < 4.0, "expected subexponential growth, got exponent {b}");
    assert!(r2 > 0.8, "power law should fit well, r2 = {r2}");
}

/// Figure 3's sawtooth driver: for n just past a multiple of k, the final
/// grouping accounts for a large share of the run ("more than half of the
/// total number of interactions for n = c·k + k and c·k + (k+1)").
/// We assert the weaker, stable form: the last grouping's mean increment
/// exceeds the first grouping's by a wide margin.
#[test]
fn final_grouping_dominates() {
    let k = 4usize;
    let n = 24u64; // c·k with c = 6
    let cell = kpartition_grouping_cell(k, n, 16, 3).unwrap();
    let first = cell.breakdown.increments.first().unwrap().mean;
    let last = cell.breakdown.increments.last().unwrap().mean;
    assert!(
        last > 3.0 * first,
        "last grouping ({last}) should dwarf the first ({first})"
    );
}

/// The n mod k effect (Figure 3's jaggedness): at equal scale, finishing
/// a population with remainder 1 costs more than one with remainder
/// k − 1, because the remainder-1 run must complete ⌊n/k⌋ full groupings
/// from a nearly-exhausted pool. Compare n = 25 (r = 1) against n = 23
/// (r = 3) at k = 4: the paper's curves dip right after multiples of k.
#[test]
fn remainder_effect_visible() {
    let trials = 24;
    let just_past = kpartition_cell(4, 25, trials, 19).unwrap().summary().mean;
    let just_before = kpartition_cell(4, 23, trials, 19).unwrap().summary().mean;
    assert!(
        just_past > just_before,
        "n=25 (r=1, {just_past}) should cost more than n=23 (r=3, {just_before})"
    );
}
