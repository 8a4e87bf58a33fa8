#![warn(missing_docs)]

//! # s2fa-dse — S2FA's parallel learning-based design space exploration
//!
//! This crate implements the paper's §4: the design-space identification of
//! Table 1 and the three DSE accelerations of §4.3 layered on top of the
//! OpenTuner substitute (`s2fa-tuner`):
//!
//! 1. **Design-space partition** ([`partition`]) — a regression decision
//!    tree (information gain, variance impurity, Eq. 1) built over probe
//!    samples, with split candidates biased toward the template (RDD
//!    operator) loop's factors; leaves become disjoint sub-spaces explored
//!    in parallel by a first-come-first-serve scheduler over 8 workers.
//! 2. **Seed generation** ([`DesignConfig::perf_seed`] /
//!    [`DesignConfig::area_seed`], re-exported from `s2fa-merlin`) — each
//!    partition starts from a performance-driven and an area-driven
//!    (conservative) seed clipped into its sub-space.
//! 3. **Early stopping** ([`entropy::EntropyStop`]) — the Shannon-entropy
//!    criterion of Eq. 2 over per-factor uphill probabilities.
//!
//! [`driver::run_dse`] runs the full S2FA flow; [`driver::vanilla_options`]
//! configures the Fig. 3 baseline (no partition, random seed, top-8
//! parallel evaluation, 4-hour time limit). All runs are deterministic.
//!
//! ## The evaluation engine
//!
//! [`EvalEngine`], defined here, is the layer between the DSE/tuning loops
//! and the HLS estimator. Every search component — the decision-tree
//! partitioner's probe pass, the per-partition seed evaluation, and the
//! tuning loops themselves — asks the same question ("what does this
//! design point cost?") through one shared engine:
//!
//! * configurations are normalized first, so the estimator always prices
//!   the legal design the Merlin rewrite would produce;
//! * per-kernel invariants ([`s2fa_hlssim::KernelInvariants`]) are built
//!   once, so each call skips the estimator's repeated subtree walks;
//! * the engine is `Sync`, so the driver's probe and partitions share it
//!   across the executors of [`s2fa_trace::par::parallel_map`].
//!
//! After the estimator sits an optional `s2fa-lint` legality pre-screen
//! ([`EvalEngine::set_prescreen`]): the engine walks the model once per
//! point and asks [`s2fa_lint::prune_verdict`] what that walk is charged.
//! A point the screen rejects keeps the `+inf` objective of its estimate
//! but charges zero virtual minutes. Because the screen reads the
//! estimator's own verdict, enabling it changes the virtual *clock*, not
//! the search values.
//!
//! [`DesignConfig::perf_seed`]: s2fa_merlin::DesignConfig::perf_seed
//! [`DesignConfig::area_seed`]: s2fa_merlin::DesignConfig::area_seed

pub mod driver;
pub mod entropy;
pub mod partition;
pub mod space;

pub use driver::{
    run_dse, run_dse_profiled, run_dse_traced, vanilla_options, CacheStats, DseOptions, DseOutcome,
    PartitionRun, StoppingKind,
};
pub use entropy::EntropyStop;
pub use partition::DecisionTree;
pub use space::DesignSpace;

use s2fa_hlsir::KernelSummary;
use s2fa_hlssim::{Estimate, Estimator, Feasibility, KernelInvariants};
use s2fa_lint::{prune_verdict, PruneRule};
use s2fa_merlin::DesignConfig;
use s2fa_trace::{Event, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A normalizing, invariant-hoisting front-end to the HLS estimator for
/// one kernel.
///
/// Shareable across threads by reference (`&EvalEngine` is `Send + Sync`);
/// all methods take `&self`.
#[derive(Debug)]
pub struct EvalEngine {
    summary: KernelSummary,
    estimator: Estimator,
    invariants: KernelInvariants,
    prescreen: bool,
    estimator_calls: AtomicU64,
    pruned_by_rule: [AtomicU64; PruneRule::ALL.len()],
    sink: Option<Arc<dyn TraceSink>>,
}

impl EvalEngine {
    /// An engine for `summary` under `estimator`.
    pub fn new(summary: &KernelSummary, estimator: &Estimator) -> Self {
        EvalEngine {
            invariants: estimator.invariants(summary),
            summary: summary.clone(),
            estimator: estimator.clone(),
            prescreen: false,
            estimator_calls: AtomicU64::new(0),
            pruned_by_rule: Default::default(),
            sink: None,
        }
    }

    /// Attaches a structured-event sink; the engine reports each
    /// pre-screen rejection through it as an [`Event::Prune`]. Prune
    /// events are host-side — they carry no virtual minute and never
    /// influence an estimate.
    pub fn set_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// Enables or disables the `s2fa-lint` legality pre-screen.
    ///
    /// When on, every estimate is handed to [`prune_verdict`]; a point it
    /// rejects comes back as the estimator priced it — infeasible,
    /// objective `+inf` — but with **zero** virtual HLS minutes charged
    /// (a write-race hit is also marked infeasible, with the `E303`
    /// reason). Search *values* are unchanged; only the virtual clock and
    /// the evaluations charged virtual HLS minutes shrink. Off by default.
    pub fn set_prescreen(&mut self, enabled: bool) {
        self.prescreen = enabled;
    }

    /// Whether the legality pre-screen is enabled.
    pub fn prescreen(&self) -> bool {
        self.prescreen
    }

    /// Per-rule pre-screen hit counts as `(lint code, hits)`, in stable
    /// rule order.
    pub fn prune_counts(&self) -> Vec<(String, u64)> {
        PruneRule::ALL
            .iter()
            .map(|r| {
                (
                    r.code().code.to_string(),
                    self.pruned_by_rule[r.index()].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Evaluations charged virtual HLS minutes so far: one per
    /// [`evaluate`](Self::evaluate) call the pre-screen did not reject.
    pub fn estimator_calls(&self) -> u64 {
        self.estimator_calls.load(Ordering::Relaxed)
    }

    /// The kernel this engine evaluates.
    pub fn summary(&self) -> &KernelSummary {
        &self.summary
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Evaluates one design point on its canonical form.
    ///
    /// Equal to `self.estimator().evaluate(self.summary(), config)`:
    /// normalization is idempotent, so the canonical point evaluates to
    /// the same estimate as the raw one. A point the pre-screen rejects
    /// differs only in what it is charged (see
    /// [`set_prescreen`](Self::set_prescreen)).
    pub fn evaluate(&self, config: &DesignConfig) -> Estimate {
        // The only clone and normalize, and the only model walk.
        let mut cfg = config.clone();
        cfg.normalize(&self.summary);
        let mut estimate = self
            .estimator
            .evaluate_with(&self.summary, &self.invariants, &cfg);
        let hit = if self.prescreen {
            prune_verdict(&self.summary, self.estimator.device(), &cfg, &estimate)
        } else {
            None
        };
        let Some(hit) = hit else {
            self.estimator_calls.fetch_add(1, Ordering::Relaxed);
            return estimate;
        };
        self.pruned_by_rule[hit.rule.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.emit(&Event::Prune {
                rule: hit.rule.code().code,
            });
        }
        if hit.rule == PruneRule::WriteRace {
            estimate.feasibility = Feasibility::Infeasible(format!(
                "pruned by {}: {}",
                hit.rule.code().code,
                hit.reason
            ));
        }
        estimate.hls_minutes = 0.0;
        estimate
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
    fn engine_matches_direct_evaluation() {
        let s = summary();
        let est = Estimator::new();
        let engine = EvalEngine::new(&s, &est);
        for cfg in [
            DesignConfig::area_seed(&s),
            DesignConfig::perf_seed(&s),
            DesignConfig::new(),
        ] {
            assert_eq!(engine.evaluate(&cfg), est.evaluate(&s, &cfg));
        }
    }

    #[test]
    fn normalization_collapses_equivalent_points() {
        let s = summary();
        let engine = EvalEngine::new(&s, &Estimator::new());
        // parallel factor beyond the trip count clamps to the same
        // canonical point as the exact factor.
        let mut a = DesignConfig::area_seed(&s);
        a.loop_directive_mut(LoopId(1)).parallel = 9999;
        let mut b = DesignConfig::area_seed(&s);
        b.loop_directive_mut(LoopId(1)).parallel = 64;
        assert_eq!(engine.evaluate(&a), engine.evaluate(&b));
        assert_eq!(engine.estimator_calls(), 2);
    }

    #[test]
    fn prescreen_skips_the_estimator_but_keeps_the_objective() {
        let s = summary();
        let est = Estimator::new();
        let mut engine = EvalEngine::new(&s, &est);
        engine.set_prescreen(true);
        assert!(engine.prescreen());
        // an unroutable/over-cap point
        let mut dead = DesignConfig::perf_seed(&s);
        dead.loop_directive_mut(LoopId(0)).parallel = 512;
        dead.loop_directive_mut(LoopId(1)).parallel = 64;
        let direct = est.evaluate(&s, &dead);
        assert!(!direct.is_feasible(), "fixture must be infeasible");
        let pruned = engine.evaluate(&dead);
        assert!(!pruned.is_feasible());
        assert_eq!(pruned.objective(), direct.objective());
        assert_eq!(pruned.hls_minutes, 0.0, "static pruning is free");
        assert_eq!(
            engine.estimator_calls(),
            0,
            "a pruned point is not a charged evaluation"
        );
        let by_rule: u64 = engine.prune_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(by_rule, 1);

        // feasible points pass through to the estimator untouched
        let ok = DesignConfig::area_seed(&s);
        assert_eq!(engine.evaluate(&ok), est.evaluate(&s, &ok));
        assert_eq!(engine.estimator_calls(), 1);
    }

    #[test]
    fn resource_pruned_estimate_is_the_estimators_at_no_charge() {
        // An E201 hit returns the estimate of the one model walk: cycles,
        // clock, resources and verdict as the estimator reports them, and
        // only the virtual minutes zeroed.
        let s = summary();
        let est = Estimator::new();
        let mut engine = EvalEngine::new(&s, &est);
        engine.set_prescreen(true);
        let mut dead = DesignConfig::perf_seed(&s);
        dead.loop_directive_mut(LoopId(0)).parallel = 512;
        dead.loop_directive_mut(LoopId(1)).parallel = 64;
        let pruned = engine.evaluate(&dead);
        assert_eq!(
            engine.prune_counts()[PruneRule::ResourceCap.index()],
            ("S2FA-E201".to_string(), 1)
        );
        let direct = est.evaluate(&s, &dead);
        assert!(direct.hls_minutes > 0.0);
        assert_eq!(
            pruned,
            Estimate {
                hls_minutes: 0.0,
                ..direct
            }
        );
    }

    #[test]
    fn prescreen_emits_prune_events() {
        use s2fa_trace::RingSink;
        let s = summary();
        let mut engine = EvalEngine::new(&s, &Estimator::new());
        engine.set_prescreen(true);
        let ring = Arc::new(RingSink::new(16));
        engine.set_sink(Some(ring.clone()));
        let mut dead = DesignConfig::perf_seed(&s);
        dead.loop_directive_mut(LoopId(0)).parallel = 512;
        dead.loop_directive_mut(LoopId(1)).parallel = 64;
        engine.evaluate(&dead);
        let events = ring.events();
        assert!(matches!(events.as_slice(), [Event::Prune { rule }] if rule.starts_with("S2FA-E")));
    }

    #[test]
    fn concurrent_evaluations_agree() {
        let s = summary();
        let est = Estimator::new();
        let engine = EvalEngine::new(&s, &est);
        let mut cfgs = Vec::new();
        for p in [1u32, 2, 4, 8] {
            let mut c = DesignConfig::area_seed(&s);
            c.loop_directive_mut(LoopId(1)).parallel = p;
            cfgs.push(c);
        }
        let results: Vec<Vec<Estimate>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let engine = &engine;
                    let cfgs = &cfgs;
                    scope.spawn(move || cfgs.iter().map(|c| engine.evaluate(c)).collect())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, cfg) in cfgs.iter().enumerate() {
            let expect = est.evaluate(&s, cfg);
            for r in &results {
                assert_eq!(r[i], expect);
            }
        }
        assert_eq!(engine.estimator_calls(), 16, "one call per evaluate");
    }
}
