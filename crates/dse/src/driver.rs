//! The parallel DSE driver (paper Fig. 2).
//!
//! Runs S2FA's fast DSE flow: identify the space, partition it with the
//! decision tree, generate two seeds per partition, and explore partitions
//! in parallel with a first-come-first-serve schedule over the worker
//! cores, each partition running the OpenTuner-substitute loop under the
//! Shannon-entropy stopping criterion. Switching the three optimizations
//! off ([`vanilla_options`]) reproduces the Fig. 3 baseline: one space, one
//! random seed, top-8 parallel evaluation, and a fixed 4-hour time limit.
//!
//! ## Execution model
//!
//! All estimator calls go through one shared [`EvalEngine`]: the
//! partitioner's probe pass, every partition's seeds, and the tuning loops
//! share its per-kernel invariants and its counters. The run uses the host
//! in parallel for exactly two things, both through
//! [`parallel_map`] on `eval_threads` executors (the calling thread
//! and `eval_threads - 1` helpers): pricing the probe sample, and running
//! the partitions with *full* budget, each tuning its batches serially on
//! the thread that claimed it. The
//! virtual FCFS schedule of Fig. 2 over `workers` virtual cores is then
//! *simulated* deterministically at merge time: partitions are assigned in
//! index order to the virtual worker that frees first, and each
//! partition's trajectory is truncated to the budget that worker had left.
//! A tuning run's trajectory does not depend on its budget except as a
//! stopping point, so the truncated prefix is byte-identical to what a
//! live run under that budget would have produced — which is what makes
//! the outcome independent of OS scheduling and thread counts.
//! The replay reads each partition's [`History`](s2fa_tuner::History),
//! the run's only per-evaluation record. It leans on the `s2fa-trace`
//! clock-accounting invariant that every evaluation of a batch carries the
//! raw batch-completion minute, and the
//! `truncation_equals_live_run_at_shorter_budget` property test asserts
//! the prefix equivalence evaluation for evaluation. The merge then walks
//! each prefix once: that pass emits the evaluation events, collects the
//! convergence curve's candidates, credits the per-technique counters and
//! tracks the winner.
//!
//! [`run_dse_traced`] additionally streams the virtual schedule (run,
//! partition, and evaluation events) plus host-side pre-screen prunes
//! through a [`TraceSink`] — the `s2fa_cli --trace out.jsonl` flight
//! recorder.

use crate::entropy::EntropyStop;
use crate::partition::DecisionTree;
use crate::space::DesignSpace;
use crate::EvalEngine;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa_hlsir::KernelSummary;
use s2fa_hlssim::{Estimate, Estimator};
use s2fa_merlin::DesignConfig;
use s2fa_obs::{Lane, Profiler};
use s2fa_trace::par::parallel_map;
use s2fa_trace::{Event, NullSink, TechniqueStats, TechniqueTable, TraceSink};
use s2fa_tuner::{
    Config, Measurement, NoImprovement, Objective, StopReason, StoppingCriterion, TimeLimitOnly,
    TuningOptions, TuningOutcome, TuningRun,
};
use std::sync::Arc;

/// Which early-stopping criterion a DSE run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingKind {
    /// Vanilla: only the wall-clock budget (4 h in the paper).
    TimeLimit,
    /// The "trivial criteria": stop after `k` consecutive non-improving
    /// points (the paper evaluates `k = 10`).
    Trivial {
        /// Non-improving streak length that terminates the run.
        k: usize,
    },
    /// S2FA's Shannon-entropy criterion (Eq. 2).
    Entropy {
        /// Stability threshold θ on `|H(D_i) − H(D_{i−1})|`.
        theta: f64,
        /// Consecutive stable iterations required.
        n: usize,
    },
}

/// Options for one DSE run.
#[derive(Debug, Clone)]
pub struct DseOptions {
    /// Enable decision-tree space partitioning (§4.3.1).
    pub partition: bool,
    /// Enable performance/area seed generation (§4.3.2).
    pub seeds: bool,
    /// Early-stopping criterion (§4.3.3).
    pub stopping: StoppingKind,
    /// Virtual worker cores of the FCFS schedule (8 on the f1.2xlarge
    /// host). Read only when the merge simulates that schedule; it starts
    /// no host thread.
    pub workers: usize,
    /// Candidates evaluated in parallel *within* one tuning run (vanilla
    /// OpenTuner uses the 8 cores this way; S2FA uses 1 because its cores
    /// run partitions).
    pub parallel_evals: usize,
    /// Virtual wall-clock budget in minutes.
    pub budget_minutes: f64,
    /// RNG seed (everything downstream derives from it).
    pub rng_seed: u64,
    /// Host executors of the run: the calling thread plus
    /// `eval_threads - 1` helper threads of [`parallel_map`], which price
    /// the probe sample and then run the partitions. Purely a wall-clock
    /// knob: outcomes are identical for any value (the virtual clock is
    /// governed by `parallel_evals` and `workers`). Defaults to the
    /// host's available parallelism.
    pub eval_threads: usize,
    /// Enable the `s2fa-lint` legality pre-screen on each estimate:
    /// infeasible points keep their `+inf` objective but charge zero
    /// virtual HLS minutes. Off by default so existing outcomes stay
    /// bit-identical; the screen reads the estimator's own verdict, so
    /// turning it on can only shrink the virtual clock, never change an
    /// objective value.
    pub prescreen: bool,
    /// Enable the dependence-aware pre-screen: with dataflow facts
    /// attached to the summary (`hlsir::dataflow::attach`), points that
    /// replicate a loop with a proven cross-iteration write-race are
    /// pruned as nondeterministic (`S2FA-E303`) ahead of the resource
    /// verdict.
    /// Implies `prescreen`. Off by default; without attached facts the
    /// verdict degenerates to the resource screen, so existing goldens
    /// stay bit-identical.
    pub dataflow_prescreen: bool,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions::s2fa()
    }
}

impl DseOptions {
    /// The full S2FA flow: partition + seeds + entropy stopping, 8 virtual
    /// workers, 4-hour cap.
    pub fn s2fa() -> DseOptions {
        DseOptions {
            partition: true,
            seeds: true,
            stopping: StoppingKind::Entropy { theta: 0.10, n: 3 },
            workers: 8,
            parallel_evals: 1,
            budget_minutes: 240.0,
            rng_seed: 2018,
            eval_threads: host_parallelism(),
            prescreen: false,
            dataflow_prescreen: false,
        }
    }
}

/// The host's available parallelism (1 if it cannot be read): the
/// default `eval_threads`.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The Fig. 3 baseline: vanilla OpenTuner on the same 8 cores.
pub fn vanilla_options() -> DseOptions {
    DseOptions {
        partition: false,
        seeds: false,
        stopping: StoppingKind::TimeLimit,
        workers: 8,
        parallel_evals: 8,
        budget_minutes: 240.0,
        rng_seed: 2018,
        eval_threads: host_parallelism(),
        prescreen: false,
        dataflow_prescreen: false,
    }
}

/// Per-partition result summary.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// Partition index (tree leaf order).
    pub index: usize,
    /// The rule path describing the partition.
    pub rules: String,
    /// Worker core it ran on.
    pub worker: usize,
    /// Virtual minute the partition started exploring.
    pub start_minute: f64,
    /// Minutes the partition's exploration took.
    pub elapsed_minutes: f64,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Evaluations in flight when the partition's budget ran out —
    /// harvested into the results but clamped to the deadline (the
    /// tuner's deadline-kill semantics, see `TuningRun::run`).
    pub killed_evals: u64,
    /// Best objective found in the partition (ms; `+inf` if none).
    pub best_value: f64,
    /// Why the partition's run ended.
    pub reason: StopReason,
}

/// Estimator activity of one DSE run, in the shape the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: no estimate is reused. Kept because the benchmark still
    /// reads it (`engine.cache_lookups`, `engine.cache_hit_rate`).
    pub hits: u64,
    /// Evaluations charged virtual HLS minutes: one per evaluation the
    /// pre-screen did not reject.
    pub misses: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when nothing was evaluated.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of a full DSE run.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// Best design configuration found and its estimate.
    pub best: Option<(DesignConfig, Estimate)>,
    /// Global convergence trace: (virtual minute, best-so-far objective in
    /// ms) across all partitions, non-increasing.
    pub convergence: Vec<(f64, f64)>,
    /// Makespan: the minute the last partition finished.
    pub elapsed_minutes: f64,
    /// Total design points evaluated.
    pub total_evaluations: u64,
    /// Number of partitions explored.
    pub partitions: usize,
    /// Per-partition details.
    pub per_partition: Vec<PartitionRun>,
    /// Per-technique counters aggregated across every partition's
    /// truncated trajectory (sorted by technique name; seeds appear as
    /// `"seed"`).
    pub techniques: Vec<TechniqueStats>,
    /// Total evaluations that were in flight at a partition deadline
    /// (sum of `PartitionRun::killed_evals`).
    pub killed_evals: u64,
    /// Evaluations of the whole search charged virtual HLS minutes: the
    /// probe pass, seeds, and every partition.
    pub cache: CacheStats,
    /// Design points the legality pre-screen rejected, charged no virtual
    /// minutes (0 when `DseOptions::prescreen` is off): the sum of
    /// `pruned_by_rule`.
    pub pruned_illegal: u64,
    /// Per-rule pre-screen hit counts as `(lint code, hits)`, in stable
    /// rule order.
    pub pruned_by_rule: Vec<(String, u64)>,
}

impl DseOutcome {
    /// Best objective in ms (`+inf` if nothing was feasible).
    pub fn best_value(&self) -> f64 {
        self.best
            .as_ref()
            .map(|(_, e)| e.time_ms)
            .unwrap_or(f64::INFINITY)
    }

    /// Best objective known at a given virtual minute.
    pub fn best_at_minute(&self, minute: f64) -> f64 {
        let mut best = f64::INFINITY;
        for &(m, v) in &self.convergence {
            if m <= minute {
                best = v;
            } else {
                break;
            }
        }
        best
    }
}

fn make_stopper(kind: StoppingKind, n_params: usize) -> Box<dyn StoppingCriterion + Send> {
    match kind {
        StoppingKind::TimeLimit => Box::new(TimeLimitOnly),
        StoppingKind::Trivial { k } => Box::new(NoImprovement::new(k)),
        StoppingKind::Entropy { theta, n } => Box::new(EntropyStop::new(n_params, theta, n)),
    }
}

/// A partition trajectory cut down to the budget its virtual worker had
/// left. Because a [`TuningRun`] reads its budget only as a stopping
/// condition, the prefix of a full-budget trajectory *is* the trajectory
/// of a shorter-budget run — iteration for iteration, with exactly the
/// tuner's deadline-kill semantics at the cut (the
/// `truncation_equals_live_run_at_shorter_budget` property test pins the
/// equivalence down evaluation for evaluation).
struct Truncated {
    /// Length of the history prefix the shorter run evaluated.
    evaluations: usize,
    /// The shorter run's clock, clamped to its budget.
    elapsed_minutes: f64,
    /// Evaluations of the final included batch whose completion overran
    /// the budget — harvested but past the deadline, as in the live run.
    killed_evals: u64,
    reason: StopReason,
}

fn truncate_to_budget(out: &TuningOutcome, budget: f64) -> Truncated {
    let evals = out.history.evaluations();
    let mut clock = 0.0f64;
    let mut included = 0usize;
    // Replay whole iterations while the clock is under budget — the live
    // run's loop condition. Every evaluation of an iteration carries the
    // same raw batch-completion minute (the BatchClock stamp), so any
    // member — we read the last — gives the clock after the batch.
    while included < evals.len() && clock < budget {
        let iter = evals[included].iteration;
        let mut end = included;
        while end < evals.len() && evals[end].iteration == iter {
            end += 1;
        }
        clock = evals[end - 1].minute;
        included = end;
    }
    let killed_evals = evals[..included]
        .iter()
        .filter(|e| e.minute > budget)
        .count() as u64;
    let reason = if included < evals.len() || clock >= budget {
        StopReason::TimeLimit
    } else {
        out.reason
    };
    Truncated {
        evaluations: included,
        elapsed_minutes: clock.min(budget),
        killed_evals,
        reason,
    }
}

/// The objective of one partition's tuning run: it measures each batch
/// serially on the partition's thread and records it on its own lane.
struct SerialObjective<'a, M> {
    measure: &'a M,
    lane: Lane,
}

impl<M: Fn(&Config) -> Measurement> Objective for SerialObjective<'_, M> {
    fn measure(&mut self, config: &Config) -> Measurement {
        (self.measure)(config)
    }

    fn measure_batch(&mut self, configs: &[Config]) -> Vec<Measurement> {
        priced(&mut self.lane, || {
            configs.iter().map(self.measure).collect()
        })
    }
}

/// Runs `price` inside a `batch` span with one `estimate` child on
/// `lane`: the shape of every priced batch, probe and tuning alike.
fn priced<T>(lane: &mut Lane, price: impl FnOnce() -> T) -> T {
    lane.in_span("batch", |lane| lane.in_span("estimate", |_| price()))
}

/// Runs a DSE for one kernel and returns the merged outcome.
///
/// Deterministic given `opts.rng_seed` — independent of `eval_threads`
/// and of OS scheduling: host threads only decide *when* each
/// partition's deterministic trajectory is computed, never what it
/// contains, and the FCFS schedule over the `workers` virtual cores is
/// simulated at merge time from per-partition virtual durations.
pub fn run_dse(summary: &KernelSummary, estimator: &Estimator, opts: &DseOptions) -> DseOutcome {
    run_dse_traced(summary, estimator, opts, Arc::new(NullSink))
}

/// [`run_dse`] with a structured-event sink attached (flight recording).
///
/// The sink observes two time domains: evaluation/partition/run events
/// are re-emitted at merge time from the *virtual* FCFS schedule, in
/// partition index order with globalized minutes — deterministic given
/// `opts.rng_seed` — while `prune` events (only with a pre-screen on)
/// stream host-side from the shared engine as points are rejected.
/// Emission never influences the outcome: `run_dse` is this function
/// with a [`NullSink`].
pub fn run_dse_traced(
    summary: &KernelSummary,
    estimator: &Estimator,
    opts: &DseOptions,
    sink: Arc<dyn TraceSink>,
) -> DseOutcome {
    run_dse_profiled(summary, estimator, opts, sink, &Profiler::disabled())
}

/// [`run_dse_traced`] with host-side profiling attached.
///
/// With an enabled profiler the driver records a span forest over the
/// whole exploration — a `dse` root lane with
/// `space_identification` / `partition` / `seeds` / `explore` / `merge`
/// stage children, a `tune` span per partition on its own lane, and a
/// `batch` span with one `estimate` child per priced batch (the probe
/// sample, and every tuning batch of every partition).
///
/// Profiling is strictly observational: with the disabled profiler every
/// instrumentation point is one branch, and the returned [`DseOutcome`]
/// is bit-identical either way (`outcome_invariant_to_profiling` pins
/// this).
pub fn run_dse_profiled(
    summary: &KernelSummary,
    estimator: &Estimator,
    opts: &DseOptions,
    sink: Arc<dyn TraceSink>,
    profiler: &Profiler,
) -> DseOutcome {
    let mut lane = profiler.lane();
    let dse_span = lane.open("dse");
    let si_span = lane.open("space_identification");
    let ds = DesignSpace::build(summary);
    lane.close(si_span);
    let engine = {
        let mut e = EvalEngine::new(summary, estimator);
        e.set_prescreen(opts.prescreen || opts.dataflow_prescreen);
        e.set_sink(Some(sink.clone()));
        e
    };
    let measure = |cfg: &Config| -> Measurement {
        let est = engine.evaluate(&ds.decode(cfg));
        Measurement {
            value: est.objective(),
            minutes: est.hls_minutes,
        }
    };

    // 1. Partition (or not). The probe sample is one batch, priced on
    // every executor.
    let part_span = lane.open("partition");
    let (subspaces, rule_descriptions) = if opts.partition {
        let tree = DecisionTree::build(&ds, summary, |cfgs| {
            let order: Vec<usize> = (0..cfgs.len()).collect();
            priced(&mut profiler.lane(), || {
                parallel_map(opts.eval_threads, &order, |i| measure(&cfgs[i]).value)
            })
        });
        (tree.leaves(), tree.describe())
    } else {
        (vec![ds.space().clone()], vec!["(entire space)".to_string()])
    };
    lane.close(part_span);

    // 2. Seeds per partition.
    let seeds_span = lane.open("seeds");
    let mut rng = SmallRng::seed_from_u64(opts.rng_seed ^ 0x9E3779B97F4A7C15);
    let seeds_for = |space: &s2fa_tuner::SearchSpace, rng: &mut SmallRng| -> Vec<Config> {
        if opts.seeds {
            let mut perf = ds.encode(&DesignConfig::perf_seed(summary));
            let mut area = ds.encode(&DesignConfig::area_seed(summary));
            space.clamp(&mut perf);
            space.clamp(&mut area);
            vec![perf, area]
        } else {
            vec![space.random(rng)]
        }
    };

    struct Job {
        index: usize,
        space: s2fa_tuner::SearchSpace,
        seeds: Vec<Config>,
    }
    let jobs: Vec<Job> = subspaces
        .into_iter()
        .enumerate()
        .map(|(i, space)| {
            let seeds = seeds_for(&space, &mut rng);
            Job {
                index: i,
                space,
                seeds,
            }
        })
        .collect();
    sink.emit(&Event::RunStart {
        kernel: summary.name.clone(),
        budget_minutes: opts.budget_minutes,
        partitions: jobs.len() as u64,
    });
    lane.close(seeds_span);

    let explore_span = lane.open("explore");
    // 3. Explore every partition at full budget: the executors claim
    // partitions first-come-first-served, and each tunes its batches
    // serially. Each partition's trajectory depends only on its own RNG
    // stream, so claim order is irrelevant.
    let order: Vec<usize> = (0..jobs.len()).collect();
    let full: Vec<TuningOutcome> = parallel_map(opts.eval_threads, &order, |j| {
        let job = &jobs[j];
        let mut obj = SerialObjective {
            measure: &measure,
            lane: profiler.lane(),
        };
        let mut stopper = make_stopper(opts.stopping, job.space.params().len());
        let run = TuningRun::new(
            job.space.clone(),
            TuningOptions {
                budget_minutes: opts.budget_minutes,
                parallel_evals: opts.parallel_evals,
                seeds: job.seeds.clone(),
                rng_seed: opts.rng_seed.wrapping_add(job.index as u64 * 7919),
                max_evaluations: 1_000_000,
            },
        );
        profiler
            .lane()
            .in_span("tune", |_| run.run(&mut obj, stopper.as_mut()))
    });
    lane.close(explore_span);

    let merge_span = lane.open("merge");
    // 4. Simulate the virtual FCFS schedule and merge. Partition i goes to
    // the virtual worker that frees first (lowest index on ties) and gets
    // whatever budget that worker has left; its full-budget trajectory is
    // truncated to that prefix.
    let n_workers = opts.workers.max(1);
    let mut worker_clock = vec![0.0f64; n_workers];
    let mut per_partition = Vec::new();
    let mut improvements: Vec<(f64, f64)> = Vec::new();
    let mut techniques = TechniqueTable::new();
    let mut total_evals = 0u64;
    let mut killed_evals = 0u64;
    let mut makespan = 0.0f64;
    // (value, job, eval index) of the global best — strict `<` keeps the
    // earliest minimum, matching the tuner's incumbent rule.
    let mut best_key: Option<(f64, usize, usize)> = None;
    for (j, (job, outcome)) in jobs.iter().zip(&full).enumerate() {
        let mut w = 0usize;
        for k in 1..worker_clock.len() {
            if worker_clock[k] < worker_clock[w] {
                w = k;
            }
        }
        let start = worker_clock[w];
        let budget = opts.budget_minutes - start;
        if budget <= 0.0 {
            // Every virtual core is saturated to the deadline; this
            // partition (and all later ones) never started.
            continue;
        }
        let t = truncate_to_budget(outcome, budget);
        worker_clock[w] = start + t.elapsed_minutes;
        makespan = makespan.max(worker_clock[w]);
        total_evals += t.evaluations as u64;
        killed_evals += t.killed_evals;
        sink.emit(&Event::PartitionStart {
            partition: job.index as u64,
            worker: w as u64,
            minute: start,
        });
        // One pass over the prefix: evaluation events, the convergence
        // curve, the technique counters and the global winner. Only a
        // point that improves its own partition can move the curve or the
        // winner — an earlier point of the partition, at no later minute,
        // is at least as good as any other.
        let mut best_value = f64::INFINITY;
        for (k, e) in outcome.history.evaluations()[..t.evaluations]
            .iter()
            .enumerate()
        {
            let minute = start + e.minute.min(budget);
            let value = e.measurement.value;
            if e.improved {
                best_value = value;
                improvements.push((minute, value));
                if best_key.is_none_or(|(bv, _, _)| value < bv) {
                    best_key = Some((value, j, k));
                }
            }
            techniques.record(e.technique, value, e.improved);
            sink.emit(&Event::Eval {
                minute,
                partition: job.index as u64,
                iteration: e.iteration,
                technique: e.technique,
                value,
                best_value,
                improved: e.improved,
            });
        }
        sink.emit(&Event::PartitionStop {
            partition: job.index as u64,
            worker: w as u64,
            minute: start + t.elapsed_minutes,
            evaluations: t.evaluations as u64,
            killed_evals: t.killed_evals,
            best_value,
            reason: t.reason.as_str(),
        });
        per_partition.push(PartitionRun {
            index: job.index,
            rules: rule_descriptions
                .get(job.index)
                .cloned()
                .unwrap_or_default(),
            worker: w,
            start_minute: start,
            elapsed_minutes: t.elapsed_minutes,
            evaluations: t.evaluations as u64,
            killed_evals: t.killed_evals,
            best_value,
            reason: t.reason,
        });
    }
    per_partition.sort_by_key(|p| p.index);
    // A stable sort: ties keep partition order, as the winner does.
    improvements.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut convergence = Vec::with_capacity(improvements.len());
    let mut running = f64::INFINITY;
    for (m, v) in improvements {
        if v < running {
            running = v;
            convergence.push((m, running));
        }
    }

    sink.emit(&Event::RunStop {
        minute: makespan,
        evaluations: total_evals,
        reason: "merged",
    });

    // Snapshot the counters before re-deriving the winning estimate so the
    // stats describe the search itself.
    let cache = CacheStats {
        hits: 0,
        misses: engine.estimator_calls(),
    };
    let pruned_by_rule = engine.prune_counts();
    let best = best_key.map(|(_, j, k)| {
        let cfg = &full[j].history.evaluations()[k].config;
        let dc = ds.decode(cfg);
        let est = engine.evaluate(&dc);
        (dc, est)
    });
    lane.close(merge_span);
    lane.close(dse_span);
    drop(lane);

    DseOutcome {
        best,
        convergence,
        elapsed_minutes: makespan,
        total_evaluations: total_evals,
        partitions: jobs.len(),
        per_partition,
        techniques: techniques.into_rows(),
        killed_evals,
        pruned_illegal: pruned_by_rule.iter().map(|(_, n)| n).sum(),
        cache,
        pruned_by_rule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{Access, BufferDir, BufferInfo, CarriedDep, LoopId, LoopInfo, OpCounts};

    fn summary() -> KernelSummary {
        let mut inner_ops = OpCounts::new();
        inner_ops.fadd = 1;
        inner_ops.fmul = 1;
        inner_ops.mem_read = 2;
        let mut chain = OpCounts::new();
        chain.fadd = 1;
        let mut outer_ops = OpCounts::new();
        outer_ops.mem_write = 1;
        KernelSummary {
            name: "dot".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "t".into(),
                    trip_count: 1024,
                    depth: 0,
                    parent: None,
                    children: vec![LoopId(1)],
                    body_ops: outer_ops,
                    accesses: vec![Access {
                        buffer: "out_1".into(),
                        write: true,
                    }],
                    carried: None,
                },
                LoopInfo {
                    id: LoopId(1),
                    var: "j".into(),
                    trip_count: 64,
                    depth: 1,
                    parent: Some(LoopId(0)),
                    children: vec![],
                    body_ops: inner_ops,
                    accesses: vec![
                        Access {
                            buffer: "in_1".into(),
                            write: false,
                        },
                        Access {
                            buffer: "w".into(),
                            write: false,
                        },
                    ],
                    carried: Some(CarriedDep {
                        via: "s".into(),
                        chain,
                        reducible: true,
                    }),
                },
            ],
            buffers: vec![
                BufferInfo {
                    name: "in_1".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "w".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "out_1".into(),
                    elem_bits: 32,
                    len: 1,
                    dir: BufferDir::Out,
                    broadcast: false,
                },
            ],
            task_loop: LoopId(0),
            tasks_hint: 1024,
            dataflow: None,
        }
    }

    #[test]
    fn s2fa_run_produces_feasible_best() {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 120.0;
        let out = run_dse(&s, &est, &opts);
        let (_, e) = out.best.as_ref().expect("found a design");
        assert!(e.is_feasible());
        assert!(out.total_evaluations > 10);
        assert!(out.partitions >= 2);
        assert!(out.elapsed_minutes <= 120.0 + 1e-9);
        // convergence is non-increasing
        for w in out.convergence.windows(2) {
            assert!(w[1].1 <= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn s2fa_beats_or_matches_vanilla_in_time_to_quality() {
        let s = summary();
        let est = Estimator::new();
        let mut so = DseOptions::s2fa();
        so.budget_minutes = 240.0;
        let mut vo = vanilla_options();
        vo.budget_minutes = 240.0;
        let s2 = run_dse(&s, &est, &so);
        let va = run_dse(&s, &est, &vo);
        assert!(s2.best_value().is_finite());
        assert!(va.best_value().is_finite());
        // S2FA should terminate earlier (entropy stop) and reach at least
        // vanilla-comparable quality.
        assert!(
            s2.elapsed_minutes <= va.elapsed_minutes,
            "s2fa {} vs vanilla {}",
            s2.elapsed_minutes,
            va.elapsed_minutes
        );
        assert!(
            s2.best_value() <= va.best_value() * 1.6,
            "s2fa {} vs vanilla {}",
            s2.best_value(),
            va.best_value()
        );
    }

    #[test]
    fn seed_generation_guarantees_a_feasible_start() {
        // §4.3.2: "With the conservative seed as a starting point, the
        // learning algorithm is guaranteed to start searching in the
        // feasible region" — the first batch of a seeded run always
        // contains a feasible (finite) point.
        let s = summary();
        let est = Estimator::new();
        let mut with = DseOptions::s2fa();
        with.partition = false;
        with.budget_minutes = 30.0;
        let w = run_dse(&s, &est, &with);
        let first_batch_feasible = w.per_partition.iter().all(|p| p.best_value.is_finite());
        assert!(first_batch_feasible);
        // and the seeded best at the first instant is already defined
        assert!(w.convergence.first().map(|&(_, v)| v).unwrap().is_finite());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 60.0;
        let a = run_dse(&s, &est, &opts);
        let b = run_dse(&s, &est, &opts);
        assert_eq!(a.best_value(), b.best_value());
        assert_eq!(a.total_evaluations, b.total_evaluations);
        assert_eq!(a.convergence, b.convergence);
    }

    /// Everything about an outcome except the estimator counters, in a
    /// comparable shape.
    #[allow(clippy::type_complexity)]
    fn outcome_key(
        out: &DseOutcome,
    ) -> (
        Option<(DesignConfig, Estimate)>,
        Vec<(f64, f64)>,
        f64,
        u64,
        u64,
        usize,
        Vec<TechniqueStats>,
        Vec<(usize, usize, f64, f64, u64, u64, f64, String)>,
    ) {
        (
            out.best.clone(),
            out.convergence.clone(),
            out.elapsed_minutes,
            out.total_evaluations,
            out.killed_evals,
            out.partitions,
            out.techniques.clone(),
            out.per_partition
                .iter()
                .map(|p| {
                    (
                        p.index,
                        p.worker,
                        p.start_minute,
                        p.elapsed_minutes,
                        p.evaluations,
                        p.killed_evals,
                        p.best_value,
                        format!("{:?}", p.reason),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn outcome_invariant_to_eval_threads() {
        // `eval_threads` is a pure wall-clock knob: the virtual schedule,
        // RNG streams, and hence the whole outcome — estimator calls
        // included — must be bit-identical at every thread count, whose
        // real claim order varies run to run. The `parallel_evals = 4`
        // row tunes 4-point batches.
        let s = summary();
        let est = Estimator::new();
        for parallel_evals in [1, 4] {
            let mut base = DseOptions::s2fa();
            base.budget_minutes = 60.0;
            base.parallel_evals = parallel_evals;
            let reference = run_dse(&s, &est, &base);
            let key = outcome_key(&reference);
            assert_eq!(reference.cache.hits, 0);
            assert!(reference.cache.misses > 0, "expected estimator calls");
            for threads in [1, 8, 3] {
                let mut opts = base.clone();
                opts.eval_threads = threads;
                let out = run_dse(&s, &est, &opts);
                assert_eq!(
                    outcome_key(&out),
                    key,
                    "outcome changed at eval_threads={threads} \
                     parallel_evals={parallel_evals}"
                );
                assert_eq!(out.cache, reference.cache, "eval_threads={threads}");
            }
        }
    }

    /// A sink that records the name of the thread each `prune` event was
    /// emitted on.
    #[derive(Debug, Default)]
    struct ThreadNames(std::sync::Mutex<Vec<Option<String>>>);

    impl TraceSink for ThreadNames {
        fn emit(&self, event: &Event) {
            if let Event::Prune { .. } = event {
                let name = std::thread::current().name().map(str::to_string);
                self.0.lock().unwrap().push(name);
            }
        }

        fn emitted(&self) -> u64 {
            self.0.lock().unwrap().len() as u64
        }
    }

    #[test]
    fn partitions_run_only_on_the_caller_and_the_pool() {
        // The engine emits each prune on the thread that evaluated the
        // point, so the names of those threads are the run's host thread
        // budget: the caller plus the `eval_threads - 1` helpers that
        // `parallel_map` names, whatever `workers` says about the virtual
        // schedule.
        let s = summary();
        let est = Estimator::new();
        let caller = std::thread::current().name().map(str::to_string);
        for (eval_threads, workers) in [(1, 8), (3, 8)] {
            let mut opts = DseOptions::s2fa();
            opts.budget_minutes = 60.0;
            opts.eval_threads = eval_threads;
            opts.workers = workers;
            opts.prescreen = true;
            let sink = Arc::new(ThreadNames::default());
            let out = run_dse_traced(&s, &est, &opts, sink.clone());
            assert!(out.partitions >= 2, "needs several partitions to claim");
            let names = sink.0.lock().unwrap();
            assert!(!names.is_empty(), "the pre-screen pruned points");
            for name in names.iter() {
                let ok = *name == caller
                    || (eval_threads > 1
                        && name.as_deref().is_some_and(|n| n.starts_with("s2fa-par-")));
                assert!(
                    ok,
                    "partition ran on {name:?} at eval_threads={eval_threads}"
                );
            }
        }
    }

    #[test]
    fn trivial_stop_runs_longer_than_entropy() {
        let s = summary();
        let est = Estimator::new();
        let mut ent = DseOptions::s2fa();
        ent.budget_minutes = 240.0;
        let mut triv = ent.clone();
        triv.stopping = StoppingKind::Trivial { k: 10 };
        let e = run_dse(&s, &est, &ent);
        let t = run_dse(&s, &est, &triv);
        assert!(
            e.elapsed_minutes <= t.elapsed_minutes * 1.05,
            "entropy {} vs trivial {}",
            e.elapsed_minutes,
            t.elapsed_minutes
        );
    }

    #[test]
    fn best_at_minute_interpolates() {
        let out = DseOutcome {
            best: None,
            convergence: vec![(10.0, 100.0), (50.0, 40.0)],
            elapsed_minutes: 60.0,
            total_evaluations: 2,
            partitions: 1,
            per_partition: vec![],
            techniques: vec![],
            killed_evals: 0,
            cache: CacheStats::default(),
            pruned_illegal: 0,
            pruned_by_rule: vec![],
        };
        assert!(out.best_at_minute(5.0).is_infinite());
        assert_eq!(out.best_at_minute(10.0), 100.0);
        assert_eq!(out.best_at_minute(30.0), 100.0);
        assert_eq!(out.best_at_minute(55.0), 40.0);
    }

    /// The merge-layer contract: the truncated prefix of a full-budget
    /// trajectory is *the* trajectory of a live run under the shorter
    /// budget — evaluation for evaluation, counter for counter, including
    /// the deadline-kill bookkeeping at the cut.
    #[test]
    fn truncation_equals_live_run_at_shorter_budget() {
        use s2fa_tuner::{Config, Evaluation, ParamDef, ParamKind, SearchSpace};
        let space = || {
            SearchSpace::new(vec![
                ParamDef::new("a", ParamKind::IntRange { lo: 0, hi: 63 }),
                ParamDef::new("b", ParamKind::IntRange { lo: 0, hi: 63 }),
            ])
        };
        // Jagged per-config minutes: batches straddle budgets unevenly,
        // which is exactly where prefix-max stamping used to lie.
        let objective = |c: &Config| {
            let v = (c[0] as f64 - 40.0).powi(2) + (c[1] as f64 - 9.0).powi(2) + 1.0;
            Measurement::new(v, 2.0 + (c[0] % 7) as f64)
        };
        let table = |evals: &[Evaluation]| {
            let mut t = TechniqueTable::new();
            for e in evals {
                t.record(e.technique, e.measurement.value, e.improved);
            }
            t.into_rows()
        };
        let full_budget = 300.0;
        for rng_seed in [11u64, 99, 2018] {
            let mk = |budget: f64| {
                let mut obj = objective;
                TuningRun::new(
                    space(),
                    TuningOptions {
                        budget_minutes: budget,
                        parallel_evals: 4,
                        seeds: vec![vec![40, 9], vec![0, 0]],
                        rng_seed,
                        max_evaluations: 1_000_000,
                    },
                )
                .run(&mut obj, &mut NoImprovement::new(40))
            };
            let full = mk(full_budget);
            // Fixed cuts, plus a cut exactly at every batch-completion
            // minute: there the last included batch ends on the deadline,
            // including the full run's final batch when it stopped early.
            let mut budgets = vec![5.0, 17.0, 42.0, 61.5, 120.0, 213.0, full_budget];
            budgets.extend(full.history.evaluations().iter().map(|e| e.minute));
            budgets.dedup();
            for budget in budgets {
                let live = mk(budget);
                let t = truncate_to_budget(&full, budget);
                let prefix = &full.history.evaluations()[..t.evaluations];
                let live_evals = live.history.evaluations();
                assert_eq!(t.evaluations, live_evals.len());
                for (i, (p, l)) in prefix.iter().zip(live_evals).enumerate() {
                    let at = format!("seed {rng_seed} budget {budget} evaluation {i}");
                    assert_eq!(p.config, l.config, "{at}");
                    assert_eq!(p.measurement, l.measurement, "{at}");
                    assert_eq!(p.minute.min(budget), l.minute.min(budget), "{at}");
                    assert_eq!(p.iteration, l.iteration, "{at}");
                    assert_eq!(p.technique, l.technique, "{at}");
                    assert_eq!(p.improved, l.improved, "{at}");
                    assert_eq!(p.mutated_params, l.mutated_params, "{at}");
                }
                assert_eq!(t.killed_evals, live.killed_evals);
                assert_eq!(t.elapsed_minutes, live.elapsed_minutes);
                assert_eq!(t.reason, live.reason);
                let prefix_best = prefix
                    .iter()
                    .map(|e| e.measurement.value)
                    .filter(|v| v.is_finite())
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(prefix_best, live.best_value());
                assert_eq!(table(prefix), table(live_evals));
            }
        }
    }

    #[test]
    fn traced_run_streams_the_virtual_schedule() {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 60.0;
        let ring = Arc::new(s2fa_trace::RingSink::new(1 << 20));
        let out = run_dse_traced(&s, &est, &opts, ring.clone());
        // emission is observational: the traced outcome matches run_dse
        let plain = run_dse(&s, &est, &opts);
        assert_eq!(outcome_key(&out), outcome_key(&plain));
        let evs = ring.events();
        let count = |k: &str| evs.iter().filter(|e| e.kind() == k).count() as u64;
        assert_eq!(count("run_start"), 1);
        assert_eq!(count("run_stop"), 1);
        assert_eq!(count("partition_start"), out.per_partition.len() as u64);
        assert_eq!(count("partition_stop"), out.per_partition.len() as u64);
        assert_eq!(count("eval"), out.total_evaluations);
        // each partition's eval minutes are monotone non-decreasing on
        // the virtual timeline
        for p in &out.per_partition {
            let minutes: Vec<f64> = evs
                .iter()
                .filter_map(|e| match e {
                    Event::Eval {
                        minute,
                        partition: pi,
                        ..
                    } if *pi == p.index as u64 => Some(*minute),
                    _ => None,
                })
                .collect();
            assert_eq!(minutes.len() as u64, p.evaluations);
            for w in minutes.windows(2) {
                assert!(w[1] >= w[0], "partition {} went backwards", p.index);
            }
        }
    }

    /// With default options every event is re-emitted at merge time from
    /// the virtual schedule, so the JSONL flight record is the same bytes
    /// at any host thread count.
    #[test]
    fn default_jsonl_trace_is_identical_across_eval_threads() {
        let s = summary();
        let est = Estimator::new();
        let record = |eval_threads: usize| {
            let path = std::env::temp_dir().join(format!(
                "s2fa_dse_trace_{}_{eval_threads}.jsonl",
                std::process::id()
            ));
            let sink = Arc::new(s2fa_trace::JsonlSink::create(&path).expect("create trace file"));
            let opts = DseOptions {
                eval_threads,
                ..DseOptions::default()
            };
            run_dse_traced(&s, &est, &opts, sink.clone());
            sink.flush();
            let bytes = std::fs::read(&path).expect("read trace back");
            let _ = std::fs::remove_file(&path);
            bytes
        };
        let one = record(1);
        assert!(!one.is_empty());
        assert!(one == record(3), "trace bytes depend on eval_threads");
    }

    /// Profiling is observational: span recording must not perturb the
    /// search. Bit-identical outcomes, enabled vs disabled.
    #[test]
    fn outcome_invariant_to_profiling() {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 60.0;
        let plain = run_dse(&s, &est, &opts);
        let profiler = Profiler::enabled();
        let profiled = run_dse_profiled(&s, &est, &opts, Arc::new(NullSink), &profiler);
        assert_eq!(outcome_key(&plain), outcome_key(&profiled));

        // and the recorded span forest is well-formed with the driver's
        // stage children present under the `dse` root
        let spans = profiler.take_spans();
        s2fa_obs::verify_spans(&spans).expect("span forest well-formed");
        let names: Vec<&str> = spans.iter().map(|r| r.name.as_str()).collect();
        for stage in [
            "dse",
            "space_identification",
            "partition",
            "seeds",
            "explore",
            "merge",
            "tune",
            "batch",
        ] {
            assert!(names.contains(&stage), "missing span {stage:?}");
        }
    }

    /// A partition's tuning batch is measured in input order and recorded
    /// as one `batch` span with one `estimate` child, at any batch size.
    #[test]
    fn profiled_serial_path_is_one_estimate_phase() {
        let measure = |c: &Config| Measurement::new(c[0] as f64, 1.0);
        let profiler = Profiler::enabled();
        let mut obj = SerialObjective {
            measure: &measure,
            lane: profiler.lane(),
        };
        let configs = vec![vec![3], vec![1], vec![2]];
        let want: Vec<Measurement> = configs.iter().map(measure).collect();
        assert_eq!(obj.measure_batch(&configs), want);
        drop(obj);
        let spans = profiler.take_spans();
        s2fa_obs::verify_spans(&spans).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["batch", "estimate"]);
    }

    #[test]
    fn technique_counters_account_for_every_evaluation() {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 120.0;
        let out = run_dse(&s, &est, &opts);
        let sum: u64 = out.techniques.iter().map(|t| t.evals).sum();
        assert_eq!(sum, out.total_evaluations);
        assert!(out.techniques.iter().any(|t| t.technique == "seed"));
        let killed: u64 = out.per_partition.iter().map(|p| p.killed_evals).sum();
        assert_eq!(killed, out.killed_evals);
        // rows arrive sorted regardless of partition exploration order
        for w in out.techniques.windows(2) {
            assert!(w[0].technique < w[1].technique);
        }
        // the best objective seen by any technique is the best of any
        // partition (both live in objective-value space)
        let tech_best = out
            .techniques
            .iter()
            .map(|t| t.best_value)
            .fold(f64::INFINITY, f64::min);
        let part_best = out
            .per_partition
            .iter()
            .map(|p| p.best_value)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(tech_best, part_best);
    }
}
