#![warn(missing_docs)]

//! # s2fa-engine — the evaluation engine
//!
//! The layer between the DSE/tuning loops and the HLS estimator. Every
//! search component in the stack — the decision-tree partitioner's probe
//! pass, the per-partition seed evaluation, and the OpenTuner-substitute
//! loops themselves — asks the same question ("what does this design point
//! cost?") about overlapping sets of design points: partitions share
//! boundary regions, seeds repeat across partitions, and normalization
//! collapses many raw configurations onto one canonical point.
//!
//! [`EvalEngine`] answers that question once per *canonical* design point:
//!
//! * configurations are normalized first, so two raw points that the
//!   Merlin rewrite maps to the same legal design share one cache entry;
//! * a 128-bit FNV fingerprint of the normalized configuration keys a
//!   sharded, lock-striped memo table ([`EstimateCache`]) that is safe to
//!   share across worker threads;
//! * per-kernel invariants ([`s2fa_hlssim::KernelInvariants`]) are built
//!   once, so cache *misses* also skip the estimator's repeated subtree
//!   walks.
//!
//! Caching changes wall-clock time only. The virtual HLS cost
//! (`Estimate::hls_minutes`) is stored with the estimate and re-charged on
//! every hit, so DSE outcomes are identical with the cache on or off — a
//! property the test suites of this crate and `s2fa-dse` pin down.
//!
//! Ahead of the cache sits an optional `s2fa-lint` legality pre-screen
//! ([`EvalEngine::set_prescreen`]): points the static screen proves
//! infeasible return the same `+inf` objective a full evaluation would,
//! but charge zero virtual minutes and never reach the estimator. Because
//! the screen is exact, enabling it changes the virtual *clock*, not the
//! search values.

pub mod cache;
pub mod fingerprint;
pub mod pool;

pub use cache::{CacheStats, EstimateCache};
pub use fingerprint::fingerprint;
pub use pool::{JobHandle, PoolStats, WorkerPool};

use parking_lot::Mutex;
use s2fa_hlsir::KernelSummary;
use s2fa_hlssim::{Estimate, Estimator, KernelInvariants};
use s2fa_lint::{Legality, PruneRule};
use s2fa_merlin::DesignConfig;
use s2fa_trace::{Event, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A memoizing, invariant-hoisting front-end to the HLS estimator for one
/// kernel.
///
/// Shareable across threads by reference (`&EvalEngine` is `Send + Sync`);
/// all methods take `&self`.
#[derive(Debug)]
pub struct EvalEngine {
    summary: KernelSummary,
    estimator: Estimator,
    invariants: KernelInvariants,
    cache: EstimateCache,
    caching: bool,
    prescreen: Option<Legality>,
    pruned_by_rule: [AtomicU64; PruneRule::ALL.len()],
    sink: Option<Arc<dyn TraceSink>>,
    /// Cache counters as of the last [`flush_cache_stats`]
    /// (`hits, misses, overwrites`), so each flush emits a delta.
    ///
    /// [`flush_cache_stats`]: EvalEngine::flush_cache_stats
    flushed: Mutex<(u64, u64, u64)>,
}

impl EvalEngine {
    /// An engine for `summary` under `estimator`, with caching enabled.
    pub fn new(summary: &KernelSummary, estimator: &Estimator) -> Self {
        EvalEngine {
            invariants: estimator.invariants(summary),
            summary: summary.clone(),
            estimator: estimator.clone(),
            cache: EstimateCache::default(),
            caching: true,
            prescreen: None,
            pruned_by_rule: Default::default(),
            sink: None,
            flushed: Mutex::new((0, 0, 0)),
        }
    }

    /// Attaches a structured-event sink; the engine reports memo-table
    /// activity through it as *batched* [`Event::CacheStats`] deltas
    /// (emitted by [`flush_cache_stats`](Self::flush_cache_stats), not
    /// per lookup — the eval hot path only bumps atomic counters).
    /// Cache events are host-side — they carry no virtual minute and
    /// never influence an estimate.
    pub fn set_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// Emits the cache activity since the previous flush as one
    /// [`Event::CacheStats`] delta (nothing when no sink is attached or
    /// no activity happened). The DSE driver calls this at iteration
    /// boundaries — after the partition probe, after each partition's
    /// tuning run, and before `RunStop` — replacing the old per-lookup
    /// `cache_hit`/`cache_miss` unit events that dominated JSONL sink
    /// overhead on large batches.
    pub fn flush_cache_stats(&self) {
        let Some(sink) = &self.sink else { return };
        // Counters are read under the watermark lock: a snapshot taken
        // outside it could race a concurrent flusher that already advanced
        // the watermark past it, underflowing the delta.
        let mut last = self.flushed.lock();
        let s = self.cache.stats();
        let (hits, misses, overwrites) =
            (s.hits - last.0, s.misses - last.1, s.overwrites - last.2);
        if hits + misses + overwrites == 0 {
            return;
        }
        *last = (s.hits, s.misses, s.overwrites);
        drop(last);
        sink.emit(&Event::CacheStats {
            hits,
            misses,
            overwrites,
        });
    }

    /// Enables or disables memoization (estimates are identical either
    /// way; only wall-clock time changes).
    pub fn set_caching(&mut self, enabled: bool) {
        self.caching = enabled;
    }

    /// Whether memoization is enabled.
    pub fn caching(&self) -> bool {
        self.caching
    }

    /// Enables or disables the `s2fa-lint` legality pre-screen.
    ///
    /// When on, points the static screen proves infeasible skip the
    /// estimator and the memo table entirely: the engine returns a
    /// synthetic infeasible estimate whose objective (`+inf`) equals what
    /// the estimator would have reported, but with **zero** virtual HLS
    /// minutes charged. The screen is exact (it rejects iff the estimator
    /// reports infeasible — property-tested), so search *values* are
    /// unchanged; only the virtual clock and the estimator invocation
    /// counts shrink. Off by default.
    pub fn set_prescreen(&mut self, enabled: bool) {
        self.prescreen = enabled.then(|| Legality::new(&self.summary, &self.estimator));
    }

    /// Whether the legality pre-screen is enabled.
    pub fn prescreen(&self) -> bool {
        self.prescreen.is_some()
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

    /// The kernel this engine evaluates.
    pub fn summary(&self) -> &KernelSummary {
        &self.summary
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Evaluates one design point, memoized on its canonical form.
    ///
    /// Equal to `self.estimator().evaluate(self.summary(), config)` in all
    /// cases — cache hits return the stored estimate including its virtual
    /// `hls_minutes` charge, and normalization is idempotent, so the
    /// canonical point evaluates to the same estimate as the raw one.
    pub fn evaluate(&self, config: &DesignConfig) -> Estimate {
        // Alias fast-path: a raw point seen before returns its stored
        // estimate without paying the clone + normalize + prescreen
        // prologue (the warm-cache path the tuner's repeat proposals
        // hammer). Pruned points never enter the alias tier, so the
        // prescreen stays authoritative for everything it ever rejected.
        let raw = if self.caching {
            let raw = fingerprint(config);
            if let Some(hit) = self.cache.get_alias(raw) {
                return hit;
            }
            Some(raw)
        } else {
            None
        };
        // The miss path's only clone and normalize: the prescreen, the
        // fingerprint and the estimator all read this canonical point.
        let mut cfg = config.clone();
        cfg.normalize(&self.summary);
        if let Some(oracle) = &self.prescreen {
            if let Some(hit) = oracle.prescreen_normalized(&cfg) {
                self.cache.count_pruned();
                self.pruned_by_rule[hit.rule.index()].fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = &self.sink {
                    sink.emit(&Event::Prune {
                        rule: hit.rule.code().code.to_string(),
                    });
                }
                return oracle.pruned_estimate(&hit);
            }
        }
        if !self.caching {
            return self
                .estimator
                .evaluate_with(&self.summary, &self.invariants, &cfg);
        }
        let key = fingerprint(&cfg);
        let est = match self.cache.get(key) {
            Some(hit) => hit,
            None => {
                let est = self
                    .estimator
                    .evaluate_with(&self.summary, &self.invariants, &cfg);
                self.cache.insert(key, est.clone());
                est
            }
        };
        if let Some(raw) = raw {
            self.cache.insert_alias(raw, est.clone());
        }
        est
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
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
    fn repeat_evaluations_hit_the_cache() {
        let s = summary();
        let engine = EvalEngine::new(&s, &Estimator::new());
        let cfg = DesignConfig::perf_seed(&s);
        let a = engine.evaluate(&cfg);
        let b = engine.evaluate(&cfg);
        assert_eq!(a, b);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
        // hls_minutes is re-charged on hits (virtual cost unchanged)
        assert_eq!(a.hls_minutes, b.hls_minutes);
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
        engine.evaluate(&a);
        engine.evaluate(&b);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1, "clamped config should share the entry");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn disabled_cache_still_matches() {
        let s = summary();
        let est = Estimator::new();
        let mut engine = EvalEngine::new(&s, &est);
        engine.set_caching(false);
        let cfg = DesignConfig::perf_seed(&s);
        assert_eq!(engine.evaluate(&cfg), est.evaluate(&s, &cfg));
        assert_eq!(engine.cache_stats().entries, 0);
        assert_eq!(engine.cache_stats().misses, 0);
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
        let stats = engine.cache_stats();
        assert_eq!(stats.pruned_illegal, 1);
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, 0, 0),
            "pruned points must never touch the memo table"
        );
        let by_rule: u64 = engine.prune_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(by_rule, 1);

        // feasible points pass through to the estimator untouched
        let ok = DesignConfig::area_seed(&s);
        assert_eq!(engine.evaluate(&ok), est.evaluate(&s, &ok));
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn prescreen_counts_even_with_caching_off() {
        let s = summary();
        let mut engine = EvalEngine::new(&s, &Estimator::new());
        engine.set_caching(false);
        engine.set_prescreen(true);
        let mut dead = DesignConfig::perf_seed(&s);
        dead.loop_directive_mut(LoopId(0)).parallel = 512;
        dead.loop_directive_mut(LoopId(1)).parallel = 64;
        engine.evaluate(&dead);
        assert_eq!(engine.cache_stats().pruned_illegal, 1);
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
    fn cache_activity_flushes_as_deltas_not_per_lookup() {
        use s2fa_trace::RingSink;
        let s = summary();
        let mut engine = EvalEngine::new(&s, &Estimator::new());
        let ring = Arc::new(RingSink::new(16));
        engine.set_sink(Some(ring.clone()));
        let cfg = DesignConfig::perf_seed(&s);
        engine.evaluate(&cfg); // miss
        engine.evaluate(&cfg); // hit
        assert_eq!(ring.emitted(), 0, "lookups emit nothing on the hot path");
        engine.flush_cache_stats();
        engine.flush_cache_stats(); // no new activity → no event
        engine.evaluate(&cfg); // hit
        engine.flush_cache_stats();
        let events = ring.events();
        assert_eq!(
            events,
            vec![
                Event::CacheStats {
                    hits: 1,
                    misses: 1,
                    overwrites: 0
                },
                Event::CacheStats {
                    hits: 1,
                    misses: 0,
                    overwrites: 0
                },
            ],
            "each flush is the delta since the previous one"
        );
    }

    /// Regression: a flusher that snapshots the counters outside the
    /// watermark lock can race a concurrent flusher that already advanced
    /// the watermark past its snapshot, underflowing the delta. Hammer the
    /// engine from many threads, each interleaving lookups and flushes.
    #[test]
    fn concurrent_flushes_never_underflow_and_sum_to_totals() {
        use s2fa_trace::RingSink;
        let s = summary();
        let mut engine = EvalEngine::new(&s, &Estimator::new());
        let ring = Arc::new(RingSink::new(1 << 16));
        engine.set_sink(Some(ring.clone()));
        let cfg = DesignConfig::perf_seed(&s);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let engine = &engine;
                let cfg = &cfg;
                scope.spawn(move || {
                    for _ in 0..50 {
                        engine.evaluate(cfg);
                        engine.flush_cache_stats();
                    }
                });
            }
        });
        engine.flush_cache_stats();
        let (mut hits, mut misses) = (0u64, 0u64);
        for e in ring.events() {
            if let Event::CacheStats {
                hits: h, misses: m, ..
            } = e
            {
                hits += h;
                misses += m;
            }
        }
        let totals = engine.cache_stats();
        assert_eq!(hits, totals.hits);
        assert_eq!(misses, totals.misses);
    }

    #[test]
    fn alias_fast_path_serves_raw_repeats() {
        let s = summary();
        let engine = EvalEngine::new(&s, &Estimator::new());
        let mut raw = DesignConfig::area_seed(&s);
        // Denormalized: clamps onto a canonical point under normalize.
        raw.loop_directive_mut(LoopId(1)).parallel = 9999;
        let a = engine.evaluate(&raw);
        let b = engine.evaluate(&raw); // alias hit: skips normalize entirely
        assert_eq!(a, b);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
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
        assert_eq!(engine.cache_stats().entries, 4);
    }
}
