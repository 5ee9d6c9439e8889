//! Metric primitives: atomic counters, gauges, and log₂-bucketed
//! histograms. Timing is pp-obs's job: its spans record
//! `obs.span.micros{span=…}` into these histograms.
//!
//! Everything here is plain `std::sync::atomic` — no locks on the record
//! path, no allocation after construction, no floats. All exported
//! quantities are `u64` (durations are recorded in microseconds), which
//! keeps snapshots exactly representable in the no-float JSON encoding
//! used across the workspace.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`, up to bucket 64 for
/// `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Map a value to its log₂ bucket index (see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `b`.
#[inline]
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

/// Inclusive upper bound of bucket `b`.
#[inline]
pub fn bucket_hi(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// Bucket-interpolated quantile estimate from sparse `(bucket lower
/// bound, sample count)` pairs sorted ascending — exactly the shape the
/// snapshot exporter emits, so quantiles computed live (from a
/// [`Histogram`]) and offline (from `metrics.jsonl` or a `/metrics`
/// scrape) use one estimator and cannot drift.
///
/// The quantile `pct_num / pct_den` (e.g. `50/100` for the median) is
/// resolved by nearest rank, then interpolated inside the owning bucket
/// by assuming its samples sit at the midpoints of `count` equal slices
/// of the bucket's `[lo, hi]` range. All-integer math; returns `None`
/// for an empty histogram or a quantile outside `[0, 1]`.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], pct_num: u64, pct_den: u64) -> Option<u64> {
    if pct_den == 0 || pct_num > pct_den {
        return None;
    }
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let rank = ((pct_num as u128 * total as u128).div_ceil(pct_den as u128)).max(1) as u64;
    let mut seen = 0u64;
    for &(lo, c) in buckets {
        if c != 0 && rank <= seen + c {
            // Log₂ buckets: [0,0] for zeros, else [lo, 2·lo − 1].
            let hi = if lo == 0 {
                0
            } else {
                lo.saturating_mul(2).wrapping_sub(1).max(lo)
            };
            let j = rank - seen; // 1-based position within this bucket
            let offset = ((hi - lo) as u128 * (2 * j as u128 - 1)) / (2 * c as u128);
            return Some(lo + offset as u64);
        }
        seen += c;
    }
    // Sorted non-empty buckets always contain the rank; defensive only.
    buckets.last().map(|&(lo, _)| lo)
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (tests and per-run snapshots).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-written-wins instantaneous value (worker counts, frontier
/// sizes). `set_max` supports high-water-mark gauges updated from
/// several threads.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is currently lower.
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket resolution (factor-of-two) is deliberate: the quantities we
/// histogram — identity-run lengths, cell wall times — span many orders
/// of magnitude, and the paper-level questions ("are identity runs
/// mostly thousands or millions of steps at this n?") only need the
/// exponent. 65 fixed buckets cover the full `u64` range with no
/// configuration and no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum overflow (2^64 µs ≈ 580k years) would
        // otherwise silently wrap.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            })
            .ok();
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts, indexed by bucket.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Integer mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Bucket-interpolated quantile `pct_num / pct_den` of the recorded
    /// samples (see [`quantile_from_buckets`]); `None` when empty.
    pub fn quantile(&self, pct_num: u64, pct_den: u64) -> Option<u64> {
        let sparse: Vec<(u64, u64)> = self
            .buckets()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, &c)| (bucket_lo(b), c))
            .collect();
        quantile_from_buckets(&sparse, pct_num, pct_den)
    }

    /// Merge a batch of locally accumulated samples (one atomic RMW per
    /// non-empty bucket instead of one per sample).
    pub fn merge(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (b, &c) in local.buckets.iter().enumerate() {
            if c != 0 {
                self.buckets[b].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(local.sum))
            })
            .ok();
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Reset all buckets and aggregates to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Unsynchronised histogram for hot-path accumulation on one thread;
/// flush into a shared [`Histogram`] with [`Histogram::merge`].
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// New empty local histogram.
    pub const fn new() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample (no atomics).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Satellite: exact boundary behaviour. Bucket 0 = {0},
        // bucket b>=1 = [2^(b-1), 2^b - 1].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for b in 1..=63usize {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_of(lo), b, "lower edge of bucket {b}");
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_of(hi), b, "upper edge of bucket {b}");
            assert_eq!(bucket_lo(b), lo);
        }
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lo(64), 1u64 << 63);
    }

    #[test]
    fn histogram_records_u64_max_without_panicking() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.buckets()[64], 2);
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1041);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.mean(), 173);
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 2); // 1, 1
        assert_eq!(b[3], 1); // 7
        assert_eq!(b[4], 1); // 8
        assert_eq!(b[11], 1); // 1024
    }

    #[test]
    fn local_histogram_merge_matches_direct_recording() {
        let direct = Histogram::new();
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 3, 3, 100, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        shared.merge(&local);
        assert_eq!(shared.count(), direct.count());
        assert_eq!(shared.sum(), direct.sum());
        assert_eq!(shared.max(), direct.max());
        assert_eq!(shared.buckets(), direct.buckets());
    }

    #[test]
    fn concurrent_counter_increments() {
        // Satellite: counters shared across sharded sweep workers must
        // not lose increments.
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_records() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }

    #[test]
    fn gauge_set_and_set_max() {
        let g = Gauge::new();
        g.set(10);
        assert_eq!(g.get(), 10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
        g.set_max(20);
        assert_eq!(g.get(), 20);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn quantile_edges() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50, 100), None); // empty
        h.record(7);
        assert_eq!(h.quantile(0, 100), h.quantile(100, 100)); // single sample
        assert_eq!(h.quantile(50, 0), None); // invalid denominator
        assert_eq!(h.quantile(101, 100), None); // > 1
        let q = h.quantile(50, 100).unwrap();
        assert!((4..=7).contains(&q), "7 lives in bucket [4,7], got {q}");
    }

    #[test]
    fn quantile_is_monotone_and_bucket_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut last = 0;
        for pct in [1, 10, 25, 50, 75, 90, 99, 100] {
            let q = h.quantile(pct, 100).unwrap();
            assert!(q >= last, "p{pct} = {q} < previous {last}");
            last = q;
        }
        // The true median of 1..=1000 is ~500, which lives in [512,1023]'s
        // neighbour [256,511]; bucket resolution allows either bucket.
        let p50 = h.quantile(50, 100).unwrap();
        assert!((256..=1023).contains(&p50), "median estimate {p50}");
        let p100 = h.quantile(100, 100).unwrap();
        assert!((512..=1023).contains(&p100), "max estimate {p100}");
    }

    #[test]
    fn quantile_from_buckets_matches_exact_ranks() {
        // Samples: one zero, three in [2,3], four in [8,15].
        let buckets = [(0u64, 1u64), (2, 3), (8, 4)];
        assert_eq!(quantile_from_buckets(&buckets, 1, 8), Some(0));
        // Rank 4 = last of the [2,3] bucket: midpoint of its 3rd slice.
        let q = quantile_from_buckets(&buckets, 50, 100).unwrap();
        assert!((2..=3).contains(&q));
        // Rank 8 = last of the [8,15] bucket: near its top.
        let q = quantile_from_buckets(&buckets, 100, 100).unwrap();
        assert!((8..=15).contains(&q));
    }

    #[test]
    fn bucket_hi_pairs_with_bucket_lo() {
        assert_eq!(bucket_hi(0), 0);
        for b in 1..64 {
            assert_eq!(
                bucket_hi(b),
                bucket_lo(b + 1).wrapping_sub(1).max(bucket_lo(b))
            );
            assert_eq!(bucket_of(bucket_hi(b)), b);
            assert_eq!(bucket_of(bucket_lo(b)), b);
        }
        assert_eq!(bucket_hi(64), u64::MAX);
    }
}
