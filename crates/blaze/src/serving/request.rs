//! Serving-side request/reply types and the runtime configuration.

use crate::rdd::ExecutionPath;
use s2fa_sjvm::{HostValue, KernelSpec};

/// Configuration of one serving run.
///
/// `nodes` is a **modeling** parameter: it sizes the simulated cluster
/// and legitimately changes queueing delays and latencies.
/// `exec_threads` is an **execution** parameter: it only parallelizes
/// the functional re-execution of already-scheduled batches, so it must
/// never change any outcome — the determinism tests pin replies and
/// latencies bit-identical across `exec_threads` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Simulated accelerator worker nodes sharing the registry.
    pub nodes: usize,
    /// Executors of functional batch execution, the calling thread
    /// included (timing-neutral).
    pub exec_threads: usize,
    /// The batch former closes a batch at this many requests.
    pub max_batch: usize,
    /// ... or when the oldest queued request has waited this long
    /// (virtual ms).
    pub max_wait_ms: f64,
    /// Per-tenant bound on admitted-but-unreplied requests; beyond it
    /// admission control rejects.
    pub max_inflight: usize,
    /// Per-accelerator bound on queued requests; beyond it the request
    /// is rejected with `queue_full`.
    pub queue_capacity: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            nodes: 2,
            exec_threads: 1,
            max_batch: 8,
            max_wait_ms: 2.0,
            max_inflight: 16,
            queue_capacity: 64,
        }
    }
}

/// One tenant of the serving runtime: a named request stream against one
/// accelerator id, with the original lambda for the JVM fallback path.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Accelerator id requests are routed to.
    pub accel_id: String,
    /// The original lambda, executed on the JVM when `accel_id` is not
    /// registered (Blaze's fallback path).
    pub fallback: KernelSpec,
    /// Mean arrival rate in requests per virtual millisecond
    /// (exponential inter-arrivals).
    pub rate_per_ms: f64,
    /// Requests this tenant submits over the run.
    pub requests: usize,
    /// Records carried by each request.
    pub records_per_request: usize,
    /// Input generator `(n, seed) -> n records` (same signature the
    /// workload table uses).
    pub gen_input: fn(usize, u64) -> Vec<HostValue>,
    /// Seed of the tenant's private arrival/input RNG stream.
    pub seed: u64,
}

/// A generated request: payload plus its virtual submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Run-unique id, assigned in submission order.
    pub id: u64,
    /// Index of the submitting tenant.
    pub tenant: usize,
    /// Virtual millisecond of submission.
    pub submit_ms: f64,
    /// Payload records.
    pub records: Vec<HostValue>,
}

/// Why admission control bounced a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already had `max_inflight` admitted requests.
    InflightLimit,
    /// The target accelerator's queue was full.
    QueueFull,
}

impl RejectReason {
    /// Stable machine tag (the trace `reason` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::InflightLimit => "inflight_limit",
            RejectReason::QueueFull => "queue_full",
        }
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The request executed and its reply was delivered.
    Completed {
        /// Output records (one per input for map tenants, exactly one
        /// for reduce tenants).
        output: Vec<HostValue>,
        /// Which path executed it.
        path: ExecutionPath,
        /// Virtual millisecond the reply was delivered.
        reply_ms: f64,
        /// End-to-end virtual latency (reply - submit) in ms.
        latency_ms: f64,
    },
    /// The request was rejected before execution.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Virtual millisecond of the rejection.
        reject_ms: f64,
    },
}

/// The reply envelope for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub request: u64,
    /// Submitting tenant index.
    pub tenant: usize,
    /// Virtual millisecond of submission.
    pub submit_ms: f64,
    /// How the request ended.
    pub disposition: Disposition,
}

impl RequestOutcome {
    /// The completed latency in ms, `None` for rejected requests.
    pub fn latency_ms(&self) -> Option<f64> {
        match &self.disposition {
            Disposition::Completed { latency_ms, .. } => Some(*latency_ms),
            Disposition::Rejected { .. } => None,
        }
    }

    /// The executed path, `None` for rejected requests.
    pub fn path(&self) -> Option<ExecutionPath> {
        match &self.disposition {
            Disposition::Completed { path, .. } => Some(*path),
            Disposition::Rejected { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServingConfig::default();
        assert!(c.nodes >= 1);
        assert!(c.exec_threads >= 1);
        assert!(c.max_batch >= 1);
        assert!(c.max_wait_ms > 0.0);
    }

    #[test]
    fn reject_reasons_have_stable_tags() {
        assert_eq!(RejectReason::InflightLimit.as_str(), "inflight_limit");
        assert_eq!(RejectReason::QueueFull.as_str(), "queue_full");
    }

    #[test]
    fn outcome_accessors() {
        let done = RequestOutcome {
            request: 1,
            tenant: 0,
            submit_ms: 1.0,
            disposition: Disposition::Completed {
                output: vec![],
                path: ExecutionPath::Offloaded,
                reply_ms: 3.0,
                latency_ms: 2.0,
            },
        };
        assert_eq!(done.latency_ms(), Some(2.0));
        assert_eq!(done.path(), Some(ExecutionPath::Offloaded));
        let rej = RequestOutcome {
            request: 2,
            tenant: 0,
            submit_ms: 1.0,
            disposition: Disposition::Rejected {
                reason: RejectReason::QueueFull,
                reject_ms: 1.0,
            },
        };
        assert_eq!(rej.latency_ms(), None);
        assert_eq!(rej.path(), None);
    }
}
