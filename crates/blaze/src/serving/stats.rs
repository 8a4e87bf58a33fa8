//! Aggregate counters of one serving run.

use super::request::RequestOutcome;
use crate::rdd::ExecutionPath;
use s2fa_obs::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;

/// Counters accumulated by the event loop.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted (inflight + queue bounds passed).
    pub admitted: u64,
    /// Requests rejected by admission control or a full queue.
    pub rejected: u64,
    /// Requests completed on a registered accelerator.
    pub completed_accel: u64,
    /// Requests completed on the JVM fallback path.
    pub completed_fallback: u64,
    /// Batches formed.
    pub batches: u64,
    /// Distribution of batch sizes (requests per batch -> batches).
    pub batch_sizes: BTreeMap<usize, u64>,
    /// Deepest any accelerator queue got.
    pub max_queue_depth: u64,
    /// Records executed across all completed requests.
    pub total_tasks: u64,
    /// Virtual millisecond the last event fired (the makespan).
    pub makespan_ms: f64,
}

impl ServingStats {
    /// Completed requests on either path.
    pub fn completed(&self) -> u64 {
        self.completed_accel + self.completed_fallback
    }

    /// Fraction of completed requests that fell back to the JVM
    /// (0.0 when nothing completed).
    pub fn fallback_fraction(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            self.completed_fallback as f64 / done as f64
        }
    }

    /// Mean batch size in requests (0.0 when no batch formed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: u64 = self
            .batch_sizes
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        total as f64 / self.batches as f64
    }
}

/// The result of one serving run: per-request replies plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// One outcome per generated request, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Run-level counters.
    pub stats: ServingStats,
}

impl ServeOutcome {
    /// Completed latencies in ms, in request-id order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(RequestOutcome::latency_ms)
            .collect()
    }

    /// Completed latencies rounded to whole µs, summarized by a
    /// log-linear [`Histogram`] (the percentiles the serving reports
    /// print and `BENCH_serving.json` records).
    pub fn latency_us(&self) -> HistogramSnapshot {
        self.outcomes
            .iter()
            .filter_map(RequestOutcome::latency_ms)
            .map(|l| (l * 1000.0).round() as u64)
            .collect::<Histogram>()
            .snapshot()
    }

    /// Completed outcomes that ran on `path`.
    pub fn completed_on(&self, path: ExecutionPath) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.path() == Some(path))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_fraction_handles_empty_runs() {
        let s = ServingStats::default();
        assert_eq!(s.fallback_fraction(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
    }

    #[test]
    fn fallback_fraction_and_mean_batch() {
        let mut s = ServingStats {
            completed_accel: 6,
            completed_fallback: 2,
            batches: 3,
            ..Default::default()
        };
        s.batch_sizes.insert(2, 2);
        s.batch_sizes.insert(4, 1);
        assert!((s.fallback_fraction() - 0.25).abs() < 1e-12);
        assert!((s.mean_batch_size() - 8.0 / 3.0).abs() < 1e-12);
    }
}
