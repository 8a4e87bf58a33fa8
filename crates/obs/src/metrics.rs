//! Log-linear latency histograms.
//!
//! Histograms use a log-linear bucket layout (16 linear sub-buckets per
//! power of two, exact below 16) — the same shape HdrHistogram and
//! tokio's metrics use — giving ≤ ~6% relative quantile error over the
//! full `u64` range with a fixed 976-bucket table. Recording is
//! lock-free (`Relaxed` atomics), so one histogram may be shared by
//! reference across threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Exact buckets for values below `LINEAR_MAX` (one per value).
const LINEAR_MAX: u64 = 16;
/// Linear sub-buckets per power-of-two decade.
const SUBBUCKETS: u32 = 16;
/// 16 exact + 60 decades (exp 4..=63) × 16 sub-buckets.
const BUCKETS: usize = 16 + 60 * SUBBUCKETS as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= 4
    let sub = ((v >> (exp - 4)) & 0xf) as usize;
    16 + (exp as usize - 4) * SUBBUCKETS as usize + sub
}

/// Representative value for a bucket: the midpoint of its range, so
/// quantile estimates are unbiased within the ~6% bucket width.
fn bucket_value(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let decade = (idx - 16) / SUBBUCKETS as usize;
    let sub = ((idx - 16) % SUBBUCKETS as usize) as u64;
    let exp = decade as u32 + 4;
    let lo = (1u64 << exp) + (sub << (exp - 4));
    let width = 1u64 << (exp - 4);
    lo + width / 2
}

/// A log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Recording is two atomic adds plus an atomic max; snapshots are taken
/// without stopping writers (buckets are read `Relaxed`, so a snapshot
/// concurrent with writes is approximate — fine for reporting).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_value(idx).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

/// A point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for off in [0u64, 1, 7] {
                values.push((1u64 << exp).saturating_add(off << exp.saturating_sub(5)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v}: index went backwards");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_value_lands_in_its_own_bucket() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 30, 1 << 50] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            assert_eq!(
                bucket_index(rep),
                idx,
                "representative {rep} of bucket {idx} (for {v}) strayed"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 16);
        assert_eq!(s.max, 7);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 7);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 10_000);
        // Log-linear buckets: ≤ 1/16 relative width, so ~7% tolerance.
        let close = |got: u64, want: u64| {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.07, "got {got}, want ~{want} (err {err:.3})");
        };
        close(s.p50, 5_000);
        close(s.p90, 9_000);
        close(s.p99, 9_900);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8_000);
        assert_eq!(snap.sum, 8 * (0..1_000u64).sum::<u64>());
    }
}
