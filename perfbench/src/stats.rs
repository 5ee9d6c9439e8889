//! Small numeric helpers: medians, nearest-rank percentiles, peak RSS.

use std::time::Instant;

/// Seconds elapsed between two instants (0 if `b` precedes `a`).
pub fn between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Median (mean of the middle pair for even lengths); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `values`, or `None` unless at
/// least `min_beyond` samples lie strictly beyond its rank — a tail
/// percentile resting on a handful of samples is noise, not a number.
pub fn percentile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= min_beyond).then(|| v[rank - 1])
}

/// The fast end of repeated timings of the same work: their minimum.
/// Other tenants of a shared machine only ever slow a repetition down —
/// on a 2-vCPU guest the same loop runs anywhere from 1× to 1.9× its
/// fastest time, in phases lasting seconds — so the minimum over many
/// short repetitions tracks the code's own speed, while the median
/// tracks the neighbours' load. 0 for no values.
pub fn fast_time(walls: &[f64]) -> f64 {
    walls.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// [`fast_time`] for rates: their maximum.
pub fn fast_rate(rates: &[f64]) -> f64 {
    rates.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5, 10), Some(50.0));
        assert_eq!(percentile(&v, 0.9, 10), Some(90.0));
        // Only one sample beyond the 99th percentile of 100.
        assert_eq!(percentile(&v, 0.99, 10), None);
        assert_eq!(fast_time(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fast_rate(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(fast_time(&v), 1.0);
        assert_eq!(fast_rate(&v), 100.0);
        assert_eq!(fast_time(&[]), 0.0);
    }
}
