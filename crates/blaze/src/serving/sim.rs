//! The deterministic serving simulator.
//!
//! One [`ServingRuntime::serve`] call plays a generated request trace
//! through a discrete-event loop on a virtual millisecond clock:
//!
//! 1. **Admission** — a request whose tenant already has
//!    `max_inflight` admitted requests, or whose accelerator queue is
//!    full, is rejected immediately.
//! 2. **Queueing** — admitted requests join their accelerator's FIFO
//!    queue.
//! 3. **Batch forming** — a batch closes when the queue reaches
//!    `max_batch` requests, or when the oldest queued request has
//!    waited `max_wait_ms` (whichever comes first).
//! 4. **Execution** — the closed batch is assigned FCFS to the
//!    earliest-free simulated node (ties to the lowest index); its
//!    service time comes from the design's [`AccelTimeModel`]
//!    (amortizing the per-batch setup across the coalesced requests).
//! 5. **Reply** — every member request's reply is delivered at batch
//!    completion; per-request latency is reply − submit.
//!
//! Requests whose accelerator id is **not** registered take Blaze's JVM
//! fallback: they are admitted (and counted against the tenant's
//! inflight bound) but bypass queueing, completing after the
//! interpreter cost model's deterministic estimate.
//!
//! ## Determinism
//!
//! The event loop is totally ordered by `(virtual ms, event class,
//! push sequence)` with completions ahead of arrivals ahead of batch
//! deadlines at equal timestamps — the same heap-key discipline the
//! DSE's virtual scheduler uses. All timing comes from time models, so
//! the *functional* execution of batches (and of fallback requests) can
//! be farmed out to `exec_threads` executors (the calling thread and
//! `exec_threads - 1` helpers of [`parallel_map`]) after (before) the
//! loop without any thread schedule leaking into outcomes: replies, trace
//! events, and latencies are bit-identical across `exec_threads`
//! values. `nodes`, by contrast, is part of the model — more simulated
//! nodes legitimately means less queueing delay.
//!
//! [`AccelTimeModel`]: crate::accel::AccelTimeModel

use super::loadgen;
use super::request::{
    Disposition, RejectReason, Request, RequestOutcome, ServingConfig, TenantSpec,
};
use super::stats::{ServeOutcome, ServingStats};
use crate::accel::Accelerator;
use crate::rdd::{check_operator, run_jvm, ExecutionPath};
use crate::service::AcceleratorRegistry;
use crate::BlazeError;
use s2fa_obs::{Lane, Profiler};
use s2fa_sjvm::{HostValue, RddOp};
use s2fa_trace::par::parallel_map;
use s2fa_trace::{Event, TraceSink};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// The multi-tenant serving runtime over one accelerator registry.
#[derive(Debug)]
pub struct ServingRuntime<'r> {
    registry: &'r AcceleratorRegistry,
    config: ServingConfig,
}

/// One resolved route: the accelerator a tenant's requests execute on,
/// or `None` for the JVM fallback path.
#[derive(Debug)]
struct Route {
    /// Shared with every event that names the accelerator.
    accel_id: Arc<str>,
    accel: Option<Arc<Accelerator>>,
}

/// A closed batch: which route it ran on and its member requests.
#[derive(Debug)]
struct BatchRec {
    route: usize,
    members: Vec<u64>,
}

/// Heap ordering key: virtual ms first ([`f64::total_cmp`]), then event
/// class (completions < arrivals < deadlines), then push sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    ms: f64,
    class: u8,
    seq: u64,
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ms
            .total_cmp(&other.ms)
            .then_with(|| self.class.cmp(&other.class))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sim {
    /// A batch finished on its node; replies are due.
    Completion { batch: usize },
    /// A fallback request's modelled JVM execution finished.
    FallbackDone { request: u64 },
    /// A request arrives at the admission controller.
    Arrival { request: u64 },
    /// The oldest queued request's wait budget expired.
    Deadline { route: usize, epoch: u64 },
}

impl Sim {
    /// Tie-break class at equal timestamps: completions free inflight
    /// slots and nodes *before* a same-instant arrival sees them;
    /// deadlines run last so a same-instant arrival can complete the
    /// batch the natural way (on size) first.
    fn class(&self) -> u8 {
        match self {
            Sim::Completion { .. } | Sim::FallbackDone { .. } => 0,
            Sim::Arrival { .. } => 1,
            Sim::Deadline { .. } => 2,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct HeapItem {
    key: Key,
    ev: Sim,
}

// Reversed so the std max-heap pops the *earliest* key.
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

#[derive(Debug, Default)]
struct QueueState {
    q: VecDeque<u64>,
    /// Bumped every time the queue goes non-empty; a pending deadline
    /// whose epoch no longer matches is stale and ignored.
    epoch: u64,
}

impl<'r> ServingRuntime<'r> {
    /// Creates a runtime over `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Config`] for non-executable configurations
    /// (zero nodes/threads/batch, non-positive wait budget).
    pub fn new(
        registry: &'r AcceleratorRegistry,
        config: ServingConfig,
    ) -> Result<ServingRuntime<'r>, BlazeError> {
        if config.nodes == 0 {
            return Err(BlazeError::Config("serving: nodes must be >= 1".into()));
        }
        if config.exec_threads == 0 {
            return Err(BlazeError::Config(
                "serving: exec_threads must be >= 1".into(),
            ));
        }
        if config.max_batch == 0 {
            return Err(BlazeError::Config("serving: max_batch must be >= 1".into()));
        }
        if !(config.max_wait_ms > 0.0 && config.max_wait_ms.is_finite()) {
            return Err(BlazeError::Config(
                "serving: max_wait_ms must be positive and finite".into(),
            ));
        }
        if config.max_inflight == 0 || config.queue_capacity == 0 {
            return Err(BlazeError::Config(
                "serving: max_inflight and queue_capacity must be >= 1".into(),
            ));
        }
        Ok(ServingRuntime { registry, config })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Plays the tenants' generated request traces through the serving
    /// path and returns every request's outcome plus run aggregates.
    ///
    /// Serving events go to `sink`; host-time spans of the actual
    /// computation phases go to `profiler`.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Config`] for invalid tenant parameters or an
    /// operator mismatch between a registered design and the tenant's
    /// lambda, and the execution error of a functional fault on either
    /// path.
    pub fn serve(
        &self,
        tenants: &[TenantSpec],
        sink: &dyn TraceSink,
        profiler: &Profiler,
    ) -> Result<ServeOutcome, BlazeError> {
        let mut lane = profiler.lane();
        let serve_span = lane.open("serve");

        let routes = self.resolve_routes(tenants)?;
        let requests = lane.in_span("loadgen", |_| loadgen::generate(tenants));
        let fallback = lane.in_span("fallback_precompute", |_| {
            self.precompute_fallback(tenants, &routes, &requests)
        })?;
        let (mut outcomes, batches, stats) = lane.in_span("simulate", |lane| {
            self.simulate(sink, lane, &requests, &routes, &fallback)
        });
        lane.in_span("execute_batches", |_| {
            self.execute_batches(&requests, &routes, &batches, &mut outcomes)
        })?;

        lane.close(serve_span);
        lane.flush();

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every request reaches a terminal state"))
            .collect();
        Ok(ServeOutcome { outcomes, stats })
    }

    /// Resolves each tenant's accelerator (the registry is frozen for
    /// the duration of the run) and validates the tenant parameters.
    fn resolve_routes(&self, tenants: &[TenantSpec]) -> Result<Vec<Route>, BlazeError> {
        let mut routes = Vec::with_capacity(tenants.len());
        for t in tenants {
            if !(t.rate_per_ms > 0.0 && t.rate_per_ms.is_finite()) {
                return Err(BlazeError::Config(format!(
                    "serving: tenant `{}` needs a positive finite rate",
                    t.name
                )));
            }
            if t.records_per_request == 0 {
                return Err(BlazeError::Config(format!(
                    "serving: tenant `{}` needs at least one record per request",
                    t.name
                )));
            }
            let accel = self.registry.lookup(&t.accel_id);
            check_operator(
                &t.accel_id,
                t.fallback.operator,
                &t.fallback,
                accel.as_deref(),
            )?;
            routes.push(Route {
                accel_id: t.accel_id.as_str().into(),
                accel,
            });
        }
        Ok(routes)
    }

    /// Executes every fallback-routed request on the interpreter up
    /// front (outputs plus the cost model's deterministic time). The
    /// work is independent per request, so it parallelizes freely over
    /// `exec_threads` without touching outcomes.
    #[allow(clippy::type_complexity)]
    fn precompute_fallback(
        &self,
        tenants: &[TenantSpec],
        routes: &[Route],
        requests: &[Request],
    ) -> Result<Vec<Option<(Vec<HostValue>, f64)>>, BlazeError> {
        let idxs: Vec<usize> = requests
            .iter()
            .filter(|r| routes[r.tenant].accel.is_none())
            .map(|r| r.id as usize)
            .collect();
        let in_order: Vec<usize> = (0..idxs.len()).collect();
        let computed = parallel_map(self.config.exec_threads, &in_order, |k| {
            let req = &requests[idxs[k]];
            run_jvm(&tenants[req.tenant].fallback, &req.records)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let mut table = vec![None; requests.len()];
        for (k, result) in computed.into_iter().enumerate() {
            table[idxs[k]] = Some(result);
        }
        Ok(table)
    }

    /// The discrete-event loop. Purely time-model driven: functional
    /// outputs are filled in afterwards by [`Self::execute_batches`].
    #[allow(clippy::type_complexity)]
    fn simulate(
        &self,
        sink: &dyn TraceSink,
        lane: &mut Lane,
        requests: &[Request],
        routes: &[Route],
        fallback: &[Option<(Vec<HostValue>, f64)>],
    ) -> (Vec<Option<RequestOutcome>>, Vec<BatchRec>, ServingStats) {
        let cfg = &self.config;
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(requests.len() * 2);
        let mut seq = 0u64;

        for r in requests {
            push_ev(
                &mut heap,
                &mut seq,
                r.submit_ms,
                Sim::Arrival { request: r.id },
            );
        }

        let tenant_count = routes.len();
        let mut inflight = vec![0usize; tenant_count];
        let mut queues: Vec<QueueState> =
            (0..routes.len()).map(|_| QueueState::default()).collect();
        let mut node_free = vec![0.0f64; cfg.nodes];
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
        let mut batches: Vec<BatchRec> = Vec::new();
        let mut stats = ServingStats::default();

        while let Some(HeapItem { key, ev }) = heap.pop() {
            let now = key.ms;
            stats.makespan_ms = stats.makespan_ms.max(now);
            match ev {
                Sim::Arrival { request } => {
                    let req = &requests[request as usize];
                    let route_idx = req.tenant;
                    stats.submitted += 1;
                    sink.emit(&Event::Submit {
                        ms: now,
                        request,
                        tenant: req.tenant as u64,
                        accel: routes[route_idx].accel_id.clone(),
                    });
                    if inflight[req.tenant] >= cfg.max_inflight {
                        reject(
                            sink,
                            &mut stats,
                            &mut outcomes,
                            req,
                            now,
                            RejectReason::InflightLimit,
                        );
                        continue;
                    }
                    match &routes[route_idx].accel {
                        None => {
                            inflight[req.tenant] += 1;
                            stats.admitted += 1;
                            sink.emit(&Event::Admit {
                                ms: now,
                                request,
                                inflight: inflight[req.tenant] as u64,
                            });
                            let (_, fb_ms) = fallback[request as usize]
                                .as_ref()
                                .expect("fallback requests were precomputed");
                            push_ev(
                                &mut heap,
                                &mut seq,
                                now + fb_ms,
                                Sim::FallbackDone { request },
                            );
                        }
                        Some(_) => {
                            if queues[route_idx].q.len() >= cfg.queue_capacity {
                                reject(
                                    sink,
                                    &mut stats,
                                    &mut outcomes,
                                    req,
                                    now,
                                    RejectReason::QueueFull,
                                );
                                continue;
                            }
                            inflight[req.tenant] += 1;
                            stats.admitted += 1;
                            sink.emit(&Event::Admit {
                                ms: now,
                                request,
                                inflight: inflight[req.tenant] as u64,
                            });
                            queues[route_idx].q.push_back(request);
                            let depth = queues[route_idx].q.len() as u64;
                            stats.max_queue_depth = stats.max_queue_depth.max(depth);
                            sink.emit(&Event::Enqueue {
                                ms: now,
                                request,
                                accel: routes[route_idx].accel_id.clone(),
                                depth,
                            });
                            if queues[route_idx].q.len() == 1 {
                                queues[route_idx].epoch += 1;
                                let epoch = queues[route_idx].epoch;
                                push_ev(
                                    &mut heap,
                                    &mut seq,
                                    now + cfg.max_wait_ms,
                                    Sim::Deadline {
                                        route: route_idx,
                                        epoch,
                                    },
                                );
                            }
                            if queues[route_idx].q.len() >= cfg.max_batch {
                                close_batch(
                                    sink,
                                    lane,
                                    requests,
                                    routes,
                                    now,
                                    route_idx,
                                    "full",
                                    &mut queues,
                                    &mut node_free,
                                    &mut batches,
                                    &mut stats,
                                    &mut heap,
                                    &mut seq,
                                );
                            }
                        }
                    }
                }
                Sim::Deadline { route, epoch } => {
                    // Stale when the forming batch it was armed for
                    // already closed on size (epoch advanced, or queue
                    // drained with the epoch unchanged).
                    if queues[route].epoch == epoch && !queues[route].q.is_empty() {
                        close_batch(
                            sink,
                            lane,
                            requests,
                            routes,
                            now,
                            route,
                            "deadline",
                            &mut queues,
                            &mut node_free,
                            &mut batches,
                            &mut stats,
                            &mut heap,
                            &mut seq,
                        );
                    }
                }
                Sim::Completion { batch } => {
                    for i in 0..batches[batch].members.len() {
                        let rid = batches[batch].members[i];
                        let req = &requests[rid as usize];
                        inflight[req.tenant] -= 1;
                        let latency_ms = now - req.submit_ms;
                        sink.emit(&Event::Reply {
                            ms: now,
                            request: rid,
                            tenant: req.tenant as u64,
                            latency_ms,
                            path: "accel",
                        });
                        stats.completed_accel += 1;
                        stats.total_tasks += req.records.len() as u64;
                        // Output is filled in by the functional pass.
                        outcomes[rid as usize] = Some(RequestOutcome {
                            request: rid,
                            tenant: req.tenant,
                            submit_ms: req.submit_ms,
                            disposition: Disposition::Completed {
                                output: Vec::new(),
                                path: ExecutionPath::Offloaded,
                                reply_ms: now,
                                latency_ms,
                            },
                        });
                    }
                }
                Sim::FallbackDone { request } => {
                    let req = &requests[request as usize];
                    inflight[req.tenant] -= 1;
                    let latency_ms = now - req.submit_ms;
                    sink.emit(&Event::Reply {
                        ms: now,
                        request,
                        tenant: req.tenant as u64,
                        latency_ms,
                        path: "fallback",
                    });
                    stats.completed_fallback += 1;
                    stats.total_tasks += req.records.len() as u64;
                    let (output, _) = fallback[request as usize]
                        .as_ref()
                        .expect("fallback requests were precomputed");
                    outcomes[request as usize] = Some(RequestOutcome {
                        request,
                        tenant: req.tenant,
                        submit_ms: req.submit_ms,
                        disposition: Disposition::Completed {
                            output: output.clone(),
                            path: ExecutionPath::JvmFallback,
                            reply_ms: now,
                            latency_ms,
                        },
                    });
                }
            }
        }
        (outcomes, batches, stats)
    }

    /// Functionally executes every formed batch and fills the outputs
    /// into the (already timed) outcomes. Purely output-producing, so
    /// it parallelizes over `exec_threads` without affecting timing.
    /// Threads claim the costliest batches first (see [`claim_order`]),
    /// so a long batch does not start last while the others idle.
    fn execute_batches(
        &self,
        requests: &[Request],
        routes: &[Route],
        batches: &[BatchRec],
        outcomes: &mut [Option<RequestOutcome>],
    ) -> Result<(), BlazeError> {
        let costs: Vec<f64> = batches
            .iter()
            .map(|b| {
                let records: usize = b
                    .members
                    .iter()
                    .map(|&rid| requests[rid as usize].records.len())
                    .sum();
                let per_record = routes[b.route]
                    .accel
                    .as_ref()
                    .and_then(|a| a.time_model)
                    .map_or(1.0, |m| m.per_task_ms);
                records as f64 * per_record
            })
            .collect();
        let produced = parallel_map(self.config.exec_threads, &claim_order(&costs), |bi| {
            let b = &batches[bi];
            let accel = routes[b.route]
                .accel
                .as_ref()
                .expect("batches only form on accelerator routes");
            match accel.operator {
                RddOp::Map => {
                    // The kernel sees the broadcast leaves of its first
                    // record only, so each maximal run of consecutive
                    // members with equal broadcast leaves is one coalesced
                    // invocation; its output splits back per request by
                    // record counts.
                    let records = |rid: u64| requests[rid as usize].records.as_slice();
                    let shares_batch = |x: &u64, y: &u64| match (records(*x), records(*y)) {
                        ([a, ..], [b, ..]) => accel.input_layout.same_broadcast(a, b),
                        _ => false,
                    };
                    let mut split = Vec::with_capacity(b.members.len());
                    for run in b.members.chunk_by(shares_batch) {
                        let concat: Vec<_> =
                            run.iter().flat_map(|&rid| records(rid)).cloned().collect();
                        let (out, _) = accel.run_batch(&concat)?;
                        let mut off = 0;
                        for &rid in run {
                            let len = records(rid).len();
                            split.push((rid, out[off..off + len].to_vec()));
                            off += len;
                        }
                    }
                    Ok(split)
                }
                RddOp::Reduce => {
                    // Reductions must not merge across requests: one
                    // invocation per member.
                    b.members
                        .iter()
                        .map(|&rid| {
                            accel
                                .run_batch(&requests[rid as usize].records)
                                .map(|(out, _)| (rid, out))
                        })
                        .collect()
                }
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        for batch_out in produced {
            for (rid, out) in batch_out {
                match outcomes[rid as usize].as_mut() {
                    Some(RequestOutcome {
                        disposition: Disposition::Completed { output, .. },
                        ..
                    }) => *output = out,
                    other => unreachable!("batched request {rid} not completed: {other:?}"),
                }
            }
        }
        Ok(())
    }
}

/// Pushes a simulator event under the next heap sequence number.
fn push_ev(heap: &mut BinaryHeap<HeapItem>, seq: &mut u64, ms: f64, ev: Sim) {
    heap.push(HeapItem {
        key: Key {
            ms,
            class: ev.class(),
            seq: *seq,
        },
        ev,
    });
    *seq += 1;
}

/// Drains the route's queue into a batch, assigns it FCFS to the
/// earliest-free node (ties to the lowest index), and schedules its
/// completion.
#[allow(clippy::too_many_arguments)]
fn close_batch(
    sink: &dyn TraceSink,
    lane: &mut Lane,
    requests: &[Request],
    routes: &[Route],
    now: f64,
    route_idx: usize,
    cause: &'static str,
    queues: &mut [QueueState],
    node_free: &mut [f64],
    batches: &mut Vec<BatchRec>,
    stats: &mut ServingStats,
    heap: &mut BinaryHeap<HeapItem>,
    seq: &mut u64,
) {
    lane.in_span("close_batch", |_| {
        let members: Vec<u64> = queues[route_idx].q.drain(..).collect();
        let accel = routes[route_idx]
            .accel
            .as_ref()
            .expect("only accelerator routes form batches");
        let tasks: u64 = members
            .iter()
            .map(|&rid| requests[rid as usize].records.len() as u64)
            .sum();
        let service_ms = batch_service_ms(accel, requests, &members);
        let batch_id = batches.len();
        sink.emit(&Event::BatchFormed {
            ms: now,
            batch: batch_id as u64,
            accel: routes[route_idx].accel_id.clone(),
            size: members.len() as u64,
            tasks,
            cause,
        });
        let node = node_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            .expect("nodes >= 1");
        let start = now.max(node_free[node]);
        node_free[node] = start + service_ms;
        sink.emit(&Event::Execute {
            ms: start,
            batch: batch_id as u64,
            node: node as u64,
            service_ms,
        });
        push_ev(
            heap,
            seq,
            start + service_ms,
            Sim::Completion { batch: batch_id },
        );
        stats.batches += 1;
        *stats.batch_sizes.entry(members.len()).or_default() += 1;
        batches.push(BatchRec {
            route: route_idx,
            members,
        });
    });
}

/// Emits a rejection and records the terminal outcome.
fn reject(
    sink: &dyn TraceSink,
    stats: &mut ServingStats,
    outcomes: &mut [Option<RequestOutcome>],
    req: &Request,
    now: f64,
    reason: RejectReason,
) {
    stats.rejected += 1;
    sink.emit(&Event::Reject {
        ms: now,
        request: req.id,
        tenant: req.tenant as u64,
        reason: reason.as_str(),
    });
    outcomes[req.id as usize] = Some(RequestOutcome {
        request: req.id,
        tenant: req.tenant,
        submit_ms: req.submit_ms,
        disposition: Disposition::Rejected {
            reason,
            reject_ms: now,
        },
    });
}

/// Modelled service time of a batch. Map designs coalesce into one
/// kernel invocation (one setup, per-task marginal cost); reduce
/// designs execute once per member request, so each member pays the
/// setup. Designs without a time model serve in zero virtual time.
fn batch_service_ms(accel: &Accelerator, requests: &[Request], members: &[u64]) -> f64 {
    let Some(model) = accel.time_model else {
        return 0.0;
    };
    match accel.operator {
        RddOp::Map => {
            let tasks: u64 = members
                .iter()
                .map(|&rid| requests[rid as usize].records.len() as u64)
                .sum();
            model.batch_ms(tasks)
        }
        RddOp::Reduce => members
            .iter()
            .map(|&rid| model.batch_ms(requests[rid as usize].records.len() as u64))
            .sum(),
    }
}

/// Batch indices in descending order of `costs`, ties by index: the
/// order in which exec threads claim batches.
fn claim_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&x, &y| costs[y].total_cmp(&costs[x]).then(x.cmp(&y)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_pops_in_total_order() {
        let mut heap = BinaryHeap::new();
        let items = [
            (2.0, Sim::Arrival { request: 0 }),
            (1.0, Sim::Deadline { route: 0, epoch: 1 }),
            (1.0, Sim::Completion { batch: 0 }),
            (1.0, Sim::Arrival { request: 1 }),
        ];
        for (seq, (ms, ev)) in items.into_iter().enumerate() {
            heap.push(HeapItem {
                key: Key {
                    ms,
                    class: ev.class(),
                    seq: seq as u64,
                },
                ev,
            });
        }
        // At t=1: completion first, then arrival, then deadline.
        assert_eq!(heap.pop().unwrap().ev, Sim::Completion { batch: 0 });
        assert_eq!(heap.pop().unwrap().ev, Sim::Arrival { request: 1 });
        assert_eq!(heap.pop().unwrap().ev, Sim::Deadline { route: 0, epoch: 1 });
        assert_eq!(heap.pop().unwrap().ev, Sim::Arrival { request: 0 });
    }

    fn in_order(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    /// Serving's use of the shared map: fallible items collected into one
    /// `Result`, as `precompute_fallback` and `execute_batches` do.
    fn try_map<T: Send>(
        threads: usize,
        order: &[usize],
        f: impl Fn(usize) -> Result<T, BlazeError> + Sync,
    ) -> Result<Vec<T>, BlazeError> {
        parallel_map(threads, order, f).into_iter().collect()
    }

    #[test]
    fn parallel_map_matches_serial() {
        let serial = try_map(1, &in_order(100), |i| Ok(i * i)).unwrap();
        let threaded = try_map(4, &in_order(100), |i| Ok(i * i)).unwrap();
        assert_eq!(serial, threaded);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn parallel_map_surfaces_the_lowest_index_error() {
        let r = try_map(4, &in_order(50), |i| {
            if i >= 10 {
                Err(BlazeError::Accel(format!("boom {i}")))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), BlazeError::Accel("boom 10".into()));
    }

    #[test]
    fn permuted_claim_order_keeps_index_order_and_the_lowest_index_error() {
        // Reversed, and a stride-7 permutation of 0..50.
        let reversed: Vec<usize> = (0..50).rev().collect();
        let strided: Vec<usize> = (0..50).map(|k| k * 7 % 50).collect();
        for order in [reversed, strided] {
            for threads in [1, 2, 4] {
                let squares = try_map(threads, &order, |i| Ok(i * i)).unwrap();
                assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
                let r = try_map(threads, &order, |i| {
                    if i % 10 == 3 {
                        Err(BlazeError::Accel(format!("boom {i}")))
                    } else {
                        Ok(i)
                    }
                });
                assert_eq!(r.unwrap_err(), BlazeError::Accel("boom 3".into()));
            }
        }
    }

    #[test]
    fn claim_order_is_costliest_first_ties_by_index() {
        assert_eq!(claim_order(&[1.0, 3.0, 2.0, 3.0, 0.5]), vec![1, 3, 2, 0, 4]);
        assert_eq!(claim_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let registry = AcceleratorRegistry::new();
        for cfg in [
            ServingConfig {
                nodes: 0,
                ..Default::default()
            },
            ServingConfig {
                exec_threads: 0,
                ..Default::default()
            },
            ServingConfig {
                max_batch: 0,
                ..Default::default()
            },
            ServingConfig {
                max_wait_ms: 0.0,
                ..Default::default()
            },
            ServingConfig {
                max_inflight: 0,
                ..Default::default()
            },
        ] {
            let err = ServingRuntime::new(&registry, cfg).err();
            assert!(matches!(err, Some(BlazeError::Config(_))), "{cfg:?}");
        }
        assert!(ServingRuntime::new(&registry, ServingConfig::default()).is_ok());
    }
}
