//! Order statistics, seed derivation and process memory.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`.
///
/// Refused (`None`) when fewer than [`TAIL_SAMPLES`] samples lie beyond
/// the rank, so a reported tail is never one or two outliers.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Nearest-rank median of ascending `sorted` (`None` when empty).
pub fn median(sorted: &[f64]) -> Option<f64> {
    nearest_rank(sorted.len(), 50.0).map(|rank| sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartile of ascending `sorted`, by the same exclusive
/// method as Python's `statistics.quantiles(values, n=4)`, so spreads
/// printed by `--repeat` match the ones computed from separate runs.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    (!values.is_empty())
        .then(|| (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// SplitMix64 finalizer: a bijective scramble of a 64-bit value.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent seed streams derived from the run's `--seed`: every
/// generated input (DSE `rng_seed`s, record payloads, tenant arrival
/// seeds, kernel orders) is `Seeds::at(stream, index)`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(u64);

impl Seeds {
    /// Streams of `seed`, kept apart per workload by `workload`.
    pub fn new(seed: u64, workload: &str) -> Seeds {
        let tag = workload
            .bytes()
            .fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
        Seeds(splitmix64(seed) ^ tag)
    }

    /// The `index`-th value of stream `stream`.
    pub fn at(&self, stream: u64, index: u64) -> u64 {
        splitmix64(splitmix64(self.0 ^ splitmix64(stream)) ^ index)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None, "only 1 sample beyond p99");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&hundred[..99], 90.0), None, "9 beyond p90");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn seed_streams_are_stable_and_distinct() {
        let a = Seeds::new(7, "compile_auto");
        assert_eq!(a.at(1, 2), Seeds::new(7, "compile_auto").at(1, 2));
        assert_ne!(a.at(1, 2), a.at(1, 3));
        assert_ne!(a.at(1, 2), a.at(2, 2));
        assert_ne!(a.at(1, 2), Seeds::new(8, "compile_auto").at(1, 2));
        assert_ne!(a.at(1, 2), Seeds::new(7, "serve_mix").at(1, 2));
    }
}
