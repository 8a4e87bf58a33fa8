//! Log-linear latency histograms.
//!
//! Histograms use a log-linear bucket layout (16 linear sub-buckets per
//! power of two, exact below 16) — the same shape HdrHistogram and
//! tokio's metrics use — giving ≤ ~6% relative quantile error over the
//! full `u64` range with a fixed 976-bucket table.

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
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut h = Histogram::new();
        for v in samples {
            h.record(v);
        }
        h
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// A summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count: u64 = self.buckets.iter().sum();
        let max = self.max;
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (idx, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_value(idx).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
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
        let s = Histogram::from_iter([3u64, 3, 3, 7]).snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 16);
        assert_eq!(s.max, 7);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 7);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let s = Histogram::from_iter(1..=10_000u64).snapshot();
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
}
