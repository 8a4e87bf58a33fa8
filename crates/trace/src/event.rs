//! Typed pipeline events and their single-line JSON form.

use crate::json::Json;
use std::sync::Arc;

/// One structured observability event.
///
/// Events with a `minute` are stamped on the *virtual* clock (see the
/// crate docs); `Prune` is host-side and carries no minute. Fields drawn
/// from a closed vocabulary (techniques, stop reasons, lint rules, serving
/// causes) are `&'static str`, and accelerator ids are shared `Arc<str>`s,
/// so building an event never allocates a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A DSE/tuning run began.
    RunStart {
        /// Kernel under exploration.
        kernel: String,
        /// Virtual budget in minutes.
        budget_minutes: f64,
        /// Number of partitions the space was split into.
        partitions: u64,
    },
    /// One design-point evaluation finished.
    Eval {
        /// Batch-completion minute (all evaluations of one batch share it).
        minute: f64,
        /// Partition index.
        partition: u64,
        /// Iteration (batch) index within the run.
        iteration: u64,
        /// Technique that proposed the point (`"seed"` for seeds).
        technique: &'static str,
        /// Objective value.
        value: f64,
        /// Incumbent best after this evaluation.
        best_value: f64,
        /// Whether this evaluation improved the incumbent.
        improved: bool,
    },
    /// The legality pre-screen rejected a design point before the
    /// estimator was consulted. Host-side: no virtual minute (static
    /// analysis is free).
    Prune {
        /// The lint rule that fired (e.g. `S2FA-E201`).
        rule: &'static str,
    },
    /// A partition started exploring on a virtual worker.
    PartitionStart {
        /// Partition index.
        partition: u64,
        /// Virtual worker core.
        worker: u64,
        /// Virtual minute the partition started.
        minute: f64,
    },
    /// A partition finished exploring.
    PartitionStop {
        /// Partition index.
        partition: u64,
        /// Virtual worker core.
        worker: u64,
        /// Virtual minute the partition stopped.
        minute: f64,
        /// Evaluations charged to the partition.
        evaluations: u64,
        /// Evaluations in flight at the deadline (recorded but killed).
        killed_evals: u64,
        /// Best objective found (ms).
        best_value: f64,
        /// Why the partition's run ended (a `StopReason` name).
        reason: &'static str,
    },
    /// The whole run ended.
    RunStop {
        /// Virtual minute the run ended (the makespan for a DSE).
        minute: f64,
        /// Total evaluations.
        evaluations: u64,
        /// Stop reason (a tuning run's `StopReason`, or `"merged"` for a
        /// DSE outcome assembled from per-partition runs).
        reason: &'static str,
    },
    // --- Serving events ------------------------------------------------
    //
    // The Blaze serving runtime stamps its events on a virtual
    // *millisecond* clock (request latencies are sub-second), so one
    // flight recorder spans the DSE's minute-scale schedule and the
    // serving runtime's ms-scale one.
    /// A tenant submitted a request to the serving runtime.
    Submit {
        /// Virtual millisecond of submission.
        ms: f64,
        /// Request id (unique within a serving run).
        request: u64,
        /// Submitting tenant index.
        tenant: u64,
        /// Target accelerator id.
        accel: Arc<str>,
    },
    /// Admission control accepted the request.
    Admit {
        /// Virtual millisecond of admission.
        ms: f64,
        /// Request id.
        request: u64,
        /// Tenant's inflight count *after* admitting this request.
        inflight: u64,
    },
    /// Admission control (or a full queue) rejected the request.
    Reject {
        /// Virtual millisecond of rejection.
        ms: f64,
        /// Request id.
        request: u64,
        /// Submitting tenant index.
        tenant: u64,
        /// Why (`"inflight_limit"` / `"queue_full"`).
        reason: &'static str,
    },
    /// The request entered its accelerator's FIFO queue.
    Enqueue {
        /// Virtual millisecond of enqueue.
        ms: f64,
        /// Request id.
        request: u64,
        /// Accelerator id the queue belongs to.
        accel: Arc<str>,
        /// Queue depth after the enqueue.
        depth: u64,
    },
    /// The batch former closed a batch.
    BatchFormed {
        /// Virtual millisecond the batch closed.
        ms: f64,
        /// Batch id (unique within a serving run).
        batch: u64,
        /// Accelerator id.
        accel: Arc<str>,
        /// Requests coalesced into the batch.
        size: u64,
        /// Total records (tasks) across those requests.
        tasks: u64,
        /// Why the batch closed (`"full"` / `"deadline"`).
        cause: &'static str,
    },
    /// A worker node started executing a batch.
    Execute {
        /// Virtual millisecond execution started (>= the batch's close
        /// time when every node was busy).
        ms: f64,
        /// Batch id.
        batch: u64,
        /// Simulated worker node index.
        node: u64,
        /// Modelled service time of the batch in ms.
        service_ms: f64,
    },
    /// A request's reply was delivered.
    Reply {
        /// Virtual millisecond of delivery (batch completion).
        ms: f64,
        /// Request id.
        request: u64,
        /// Submitting tenant index.
        tenant: u64,
        /// End-to-end virtual latency (delivery - submission) in ms.
        latency_ms: f64,
        /// Which path executed (`"accel"` / `"fallback"`).
        path: &'static str,
    },
}

impl Event {
    /// Short machine tag of the variant (the JSON `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::Eval { .. } => "eval",
            Event::Prune { .. } => "prune",
            Event::PartitionStart { .. } => "partition_start",
            Event::PartitionStop { .. } => "partition_stop",
            Event::RunStop { .. } => "run_stop",
            Event::Submit { .. } => "submit",
            Event::Admit { .. } => "admit",
            Event::Reject { .. } => "reject",
            Event::Enqueue { .. } => "enqueue",
            Event::BatchFormed { .. } => "batch_formed",
            Event::Execute { .. } => "execute",
            Event::Reply { .. } => "reply",
        }
    }

    /// Serializes the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields = vec![("type", Json::str(self.kind()))];
        match self {
            Event::RunStart {
                kernel,
                budget_minutes,
                partitions,
            } => {
                fields.extend([
                    ("kernel", Json::str(kernel)),
                    ("budget_minutes", Json::num(*budget_minutes)),
                    ("partitions", Json::int(*partitions)),
                ]);
            }
            Event::Eval {
                minute,
                partition,
                iteration,
                technique,
                value,
                best_value,
                improved,
            } => {
                fields.extend([
                    ("minute", Json::num(*minute)),
                    ("partition", Json::int(*partition)),
                    ("iteration", Json::int(*iteration)),
                    ("technique", Json::str(*technique)),
                    ("value", Json::num(*value)),
                    ("best_value", Json::num(*best_value)),
                    ("improved", Json::Bool(*improved)),
                ]);
            }
            Event::Prune { rule } => {
                fields.push(("rule", Json::str(*rule)));
            }
            Event::PartitionStart {
                partition,
                worker,
                minute,
            } => {
                fields.extend([
                    ("partition", Json::int(*partition)),
                    ("worker", Json::int(*worker)),
                    ("minute", Json::num(*minute)),
                ]);
            }
            Event::PartitionStop {
                partition,
                worker,
                minute,
                evaluations,
                killed_evals,
                best_value,
                reason,
            } => {
                fields.extend([
                    ("partition", Json::int(*partition)),
                    ("worker", Json::int(*worker)),
                    ("minute", Json::num(*minute)),
                    ("evaluations", Json::int(*evaluations)),
                    ("killed_evals", Json::int(*killed_evals)),
                    ("best_value", Json::num(*best_value)),
                    ("reason", Json::str(*reason)),
                ]);
            }
            Event::RunStop {
                minute,
                evaluations,
                reason,
            } => {
                fields.extend([
                    ("minute", Json::num(*minute)),
                    ("evaluations", Json::int(*evaluations)),
                    ("reason", Json::str(*reason)),
                ]);
            }
            Event::Submit {
                ms,
                request,
                tenant,
                accel,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("request", Json::int(*request)),
                    ("tenant", Json::int(*tenant)),
                    ("accel", Json::str(&**accel)),
                ]);
            }
            Event::Admit {
                ms,
                request,
                inflight,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("request", Json::int(*request)),
                    ("inflight", Json::int(*inflight)),
                ]);
            }
            Event::Reject {
                ms,
                request,
                tenant,
                reason,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("request", Json::int(*request)),
                    ("tenant", Json::int(*tenant)),
                    ("reason", Json::str(*reason)),
                ]);
            }
            Event::Enqueue {
                ms,
                request,
                accel,
                depth,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("request", Json::int(*request)),
                    ("accel", Json::str(&**accel)),
                    ("depth", Json::int(*depth)),
                ]);
            }
            Event::BatchFormed {
                ms,
                batch,
                accel,
                size,
                tasks,
                cause,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("batch", Json::int(*batch)),
                    ("accel", Json::str(&**accel)),
                    ("size", Json::int(*size)),
                    ("tasks", Json::int(*tasks)),
                    ("cause", Json::str(*cause)),
                ]);
            }
            Event::Execute {
                ms,
                batch,
                node,
                service_ms,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("batch", Json::int(*batch)),
                    ("node", Json::int(*node)),
                    ("service_ms", Json::num(*service_ms)),
                ]);
            }
            Event::Reply {
                ms,
                request,
                tenant,
                latency_ms,
                path,
            } => {
                fields.extend([
                    ("ms", Json::num(*ms)),
                    ("request", Json::int(*request)),
                    ("tenant", Json::int(*tenant)),
                    ("latency_ms", Json::num(*latency_ms)),
                    ("path", Json::str(*path)),
                ]);
            }
        }
        Json::obj(fields).render_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_serializes_all_fields() {
        let e = Event::Eval {
            minute: 12.5,
            partition: 3,
            iteration: 7,
            technique: "greedy",
            value: 4.25,
            best_value: 4.25,
            improved: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"eval\",\"minute\":12.5,\"partition\":3,\"iteration\":7,\
             \"technique\":\"greedy\",\"value\":4.25,\"best_value\":4.25,\"improved\":true}"
        );
    }

    #[test]
    fn infinite_values_become_null() {
        let e = Event::Eval {
            minute: 1.0,
            partition: 0,
            iteration: 0,
            technique: "seed",
            value: f64::INFINITY,
            best_value: f64::INFINITY,
            improved: false,
        };
        let j = e.to_json();
        assert!(j.contains("\"value\":null"));
        assert!(j.contains("\"best_value\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::RunStop {
            minute: 0.0,
            evaluations: 0,
            reason: "a\"b\\c\nd",
        };
        assert!(e.to_json().contains(r#""reason":"a\"b\\c\nd""#));
    }

    #[test]
    fn prune_carries_its_rule() {
        let e = Event::Prune { rule: "S2FA-E201" };
        assert_eq!(e.kind(), "prune");
        assert_eq!(e.to_json(), "{\"type\":\"prune\",\"rule\":\"S2FA-E201\"}");
    }

    #[test]
    fn serving_events_serialize() {
        let e = Event::Submit {
            ms: 1.5,
            request: 42,
            tenant: 2,
            accel: "KMeans".into(),
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"submit\",\"ms\":1.5,\"request\":42,\"tenant\":2,\"accel\":\"KMeans\"}"
        );
        let e = Event::BatchFormed {
            ms: 3.0,
            batch: 7,
            accel: "S-W".into(),
            size: 4,
            tasks: 64,
            cause: "full",
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"batch_formed\",\"ms\":3,\"batch\":7,\"accel\":\"S-W\",\
             \"size\":4,\"tasks\":64,\"cause\":\"full\"}"
        );
        let e = Event::Reply {
            ms: 9.25,
            request: 42,
            tenant: 2,
            latency_ms: 7.75,
            path: "accel",
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"reply\",\"ms\":9.25,\"request\":42,\"tenant\":2,\
             \"latency_ms\":7.75,\"path\":\"accel\"}"
        );
        assert_eq!(
            Event::Reject {
                ms: 0.5,
                request: 1,
                tenant: 0,
                reason: "inflight_limit"
            }
            .kind(),
            "reject"
        );
        assert_eq!(
            Event::Execute {
                ms: 4.0,
                batch: 7,
                node: 1,
                service_ms: 2.5
            }
            .kind(),
            "execute"
        );
        assert_eq!(
            Event::Admit {
                ms: 1.5,
                request: 42,
                inflight: 3
            }
            .kind(),
            "admit"
        );
        assert_eq!(
            Event::Enqueue {
                ms: 1.5,
                request: 42,
                accel: "LR".into(),
                depth: 5
            }
            .kind(),
            "enqueue"
        );
    }
}
