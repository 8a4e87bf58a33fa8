//! Criterion micro-benchmarks of the evaluation engine: raw estimator
//! throughput against the memoized and batch-parallel paths that the DSE
//! driver actually uses.
//!
//! ```text
//! cargo bench -p s2fa-bench --bench eval_throughput
//! ```
//!
//! Four regimes bracket the design:
//!
//! * `cold_cache` — every point is new; the cache only adds fingerprint +
//!   insert overhead on top of the estimator walk.
//! * `warm_cache` — the DSE steady state (partitions re-visit boundary
//!   points, seeds repeat): every evaluation is a shard lookup.
//! * `threads/{1,8}` — the batch path `TuningRun` drives through
//!   `ThreadedObjective`; on multi-core hosts the 8-thread row scales,
//!   on single-core CI it degenerates gracefully to serial.
//!
//! `src/bin/eval_throughput.rs` turns the same regimes into evals/sec
//! numbers under `results/BENCH_eval_throughput.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{rngs::SmallRng, SeedableRng};
use s2fa::compile_kernel;
use s2fa_dse::{DesignSpace, EvalEngine};
use s2fa_engine::WorkerPool;
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_tuner::{Config, Measurement, Objective, ThreadedObjective};
use s2fa_workloads::sw;

/// A workload-shaped batch: random tuner configurations over the S-W
/// design space, duplicates and all (the cache sees exactly this stream).
fn fixture(
    n: usize,
) -> (
    s2fa_hlsir::KernelSummary,
    DesignSpace,
    Estimator,
    Vec<Config>,
) {
    let w = sw::workload();
    let g = compile_kernel(&w.spec).unwrap();
    let s = analysis::summarize(&g.cfunc, 1024).unwrap();
    let ds = DesignSpace::build(&s);
    let mut rng = SmallRng::seed_from_u64(42);
    let configs = (0..n).map(|_| ds.space().random(&mut rng)).collect();
    (s, ds, Estimator::new(), configs)
}

fn bench_cache(c: &mut Criterion) {
    let (summary, ds, est, configs) = fixture(256);
    let summary = &summary;
    // the serial regimes measure the engine itself, on pre-decoded points
    let designs: Vec<_> = configs.iter().map(|c| ds.decode(c)).collect();
    let mut g = c.benchmark_group("eval_throughput");

    g.bench_function("uncached/256_evals", |b| {
        let mut engine = EvalEngine::new(summary, &est);
        engine.set_caching(false);
        b.iter(|| {
            for dc in &designs {
                std::hint::black_box(engine.evaluate(dc));
            }
        })
    });

    g.bench_function("cold_cache/256_evals", |b| {
        b.iter_batched(
            || EvalEngine::new(summary, &est),
            |engine| {
                for dc in &designs {
                    std::hint::black_box(engine.evaluate(dc));
                }
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("warm_cache/256_evals", |b| {
        let engine = EvalEngine::new(summary, &est);
        for dc in &designs {
            engine.evaluate(dc);
        }
        b.iter(|| {
            for dc in &designs {
                std::hint::black_box(engine.evaluate(dc));
            }
        })
    });

    g.finish();
}

fn bench_threads(c: &mut Criterion) {
    let (summary, ds, est, configs) = fixture(256);
    let engine = EvalEngine::new(&summary, &est);
    let eval = |cfg: &Config| -> Measurement {
        let e = engine.evaluate(&ds.decode(cfg));
        Measurement {
            value: e.objective(),
            minutes: e.hls_minutes,
        }
    };
    let mut g = c.benchmark_group("eval_throughput");
    for threads in [1usize, 8] {
        g.bench_function(format!("threads/{threads}/256_evals"), |b| {
            let pool = WorkerPool::new(threads - 1);
            let mut obj = ThreadedObjective::new(&eval, &pool);
            b.iter(|| std::hint::black_box(obj.measure_batch(&configs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cache, bench_threads);
criterion_main!(benches);
