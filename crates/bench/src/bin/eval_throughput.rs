//! `eval_throughput` — evals/sec of the evaluation engine across its
//! operating regimes, written to `results/BENCH_eval_throughput.json`.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin eval_throughput [-- --smoke]
//! ```
//!
//! The headline numbers are the **memoization speedup** (warm-cache
//! evals/sec over uncached evals/sec — the steady-state win the DSE
//! driver sees when partitions, seeds, and the probe pass revisit
//! canonical design points; the raw-fingerprint alias tier answers warm
//! repeats before any normalization work) and the **cold-miss rate**
//! (a chain of single-factor neighbor mutations through a caching
//! engine, every point distinct — the cache-miss path the tuner's
//! mutation techniques actually exercise). Around them:
//!
//! * **Thread sweep with per-stage attribution** — the pooled batch
//!   path at 1/2/4/8 threads on the persistent worker pool, each count
//!   paired with the profiled breakdown
//!   (submit/estimate/wait/merge/idle) from [`analyze_batch_loop`] and
//!   a scaling efficiency normalized to `min(threads, host_cores)` —
//!   on a 1-core host every thread count above 1 is time-slicing the
//!   same core, and the efficiency column says so instead of letting
//!   the raw ratio look like a regression.
//! * **Profiling overhead** — the instrumented serial batch path with
//!   the disabled profiler vs a plain uninstrumented loop over the same
//!   closure (the disabled path must stay under 2% of it), and the
//!   fully enabled profiler for the worst case.
//!
//! `--smoke` runs a 1-thread vs 4-thread sweep and enforces the CI
//! scaling floor (4-thread rate ≥ 1.5× 1-thread) when the host actually
//! has ≥ 4 cores; on smaller hosts it prints a skip notice. It also walks
//! a seeded mutation chain through a caching engine, an uncaching engine
//! and `Estimator::evaluate` on each raw point, and exits 1 unless every
//! estimate is bit-identical across the three — a deterministic check of
//! the cache-miss path (one `normalize`, then `evaluate_with`) that reads
//! no clock.

use rand::{rngs::SmallRng, SeedableRng};
use s2fa::compile_kernel;
use s2fa_bench::results;
use s2fa_dse::{DesignSpace, EvalEngine};
use s2fa_engine::WorkerPool;
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_merlin::DesignConfig;
use s2fa_obs::{analyze_batch_loop, BatchLoopProfile, Json, Profiler};
use s2fa_tuner::{Config, Measurement, Objective, ThreadedObjective};
use s2fa_workloads::sw;
use std::time::Instant;

const BATCH: usize = 512;
const ROUNDS: usize = 40;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Neighbor-mutation points in the cold-miss regime.
const CHAIN: usize = 4096;
/// Fresh-engine passes over the chain; the fastest is reported.
const COLD_PASSES: usize = 8;
/// Neighbor-mutation points in the smoke run's cached-vs-uncached check.
const SMOKE_CHAIN: usize = 1024;
/// CI smoke floor: 4-thread rate must beat 1-thread by this factor
/// (enforced only when the host has ≥ 4 cores).
const SMOKE_FLOOR: f64 = 1.5;

/// Real available parallelism of the host, recorded in the report
/// header and used to normalize the thread sweep. Resolution order:
/// the `S2FA_HOST_CORES` override (CI pinning / container limits the
/// runtime can't see), then `available_parallelism`, then a raw
/// `/proc/cpuinfo` processor count, then 1.
fn host_cores() -> usize {
    if let Ok(v) = std::env::var("S2FA_HOST_CORES") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    std::fs::read_to_string("/proc/cpuinfo").map_or(1, |s| {
        s.lines()
            .filter(|l| l.starts_with("processor"))
            .count()
            .max(1)
    })
}

/// A chain of `len` single-factor neighbor mutations off a random point
/// — the proposals the tuner's mutation techniques make. Consecutive
/// points differ by one knob; most points are distinct.
fn mutation_chain(ds: &DesignSpace, rng: &mut SmallRng, len: usize) -> Vec<DesignConfig> {
    let mut cur = ds.space().random(rng);
    (0..len)
        .map(|_| {
            ds.space().mutate_one(&mut cur, rng);
            ds.decode(&cur)
        })
        .collect()
}

fn evals_per_sec(mut run_batch: impl FnMut()) -> f64 {
    // one untimed warm-up round so lazy setup (cache fills for the warm
    // regime) stays out of the measurement
    run_batch();
    // Best-of-N short windows over the same total work: this host is a
    // shared 1-core container, and a single long window folds other
    // tenants' scheduler preemptions into the rate. The fastest window
    // is the standard shared-host estimator of the code's own
    // throughput (criterion reports minima for the same reason).
    const WINDOWS: usize = 8;
    const PER: usize = ROUNDS / WINDOWS;
    let mut best = 0.0f64;
    for _ in 0..WINDOWS {
        let t0 = Instant::now();
        for _ in 0..PER {
            run_batch();
        }
        best = best.max((BATCH * PER) as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

fn batch_loop_json(p: &BatchLoopProfile) -> Json {
    Json::obj(vec![
        ("batches", Json::int(p.batches)),
        ("wall_ns", Json::int(p.wall_ns)),
        ("submit_ns", Json::int(p.submit_ns)),
        ("estimate_ns", Json::int(p.estimate_ns)),
        ("wait_ns", Json::int(p.wait_ns)),
        ("merge_ns", Json::int(p.merge_ns)),
        ("idle_ns", Json::int(p.idle_ns)),
        ("attributed_fraction", Json::num(p.attributed_fraction())),
    ])
}

/// `--smoke`: the CI scaling gate and the cached-vs-uncached bit-identity
/// check. Fast (few rounds), no JSON artifact.
fn run_smoke() {
    let cores = host_cores();
    let w = sw::workload();
    let g = compile_kernel(&w.spec).expect("compiles");
    let s = analysis::summarize(&g.cfunc, 1024).expect("analyzes");
    let ds = DesignSpace::build(&s);
    let est = Estimator::new();
    let mut rng = SmallRng::seed_from_u64(42);
    let configs: Vec<Config> = (0..BATCH).map(|_| ds.space().random(&mut rng)).collect();
    let mut engine = EvalEngine::new(&s, &est);
    engine.set_caching(false);
    let eval = |cfg: &Config| -> Measurement {
        let e = engine.evaluate(&ds.decode(cfg));
        Measurement {
            value: e.objective(),
            minutes: e.hls_minutes,
        }
    };
    const SMOKE_ROUNDS: usize = 10;
    let rate_at = |threads: usize| -> f64 {
        let pool = WorkerPool::new(threads - 1);
        let mut obj = ThreadedObjective::new(&eval, &pool);
        std::hint::black_box(obj.measure_batch(&configs)); // warm-up
        let t0 = Instant::now();
        for _ in 0..SMOKE_ROUNDS {
            std::hint::black_box(obj.measure_batch(&configs));
        }
        (BATCH * SMOKE_ROUNDS) as f64 / t0.elapsed().as_secs_f64()
    };
    // Cache-miss path check: the same chain through a caching engine
    // (every distinct point is a miss priced once, repeats hit), the
    // uncaching one above, and `Estimator::evaluate` on the raw point
    // must give the same estimates, bit for bit. The last comparison
    // guards the normalize-once contract in release builds, where the
    // `debug_assert!` in `Estimator::evaluate_with` is compiled out:
    // decoded points are rarely normalized (no tree reduction, live
    // directives under a flatten), so an engine that skips `normalize`
    // prices them differently. `Debug` prints every float in
    // round-trip form, so equal strings mean equal bits.
    let chain = mutation_chain(&ds, &mut rng, SMOKE_CHAIN);
    let cached_engine = EvalEngine::new(&s, &est);
    let (mut diverged, mut off_model) = (0usize, 0usize);
    for dc in &chain {
        let [cached, uncached, direct] = [
            cached_engine.evaluate(dc),
            engine.evaluate(dc),
            est.evaluate(&s, dc),
        ]
        .map(|e| format!("{e:?}"));
        diverged += usize::from(cached != uncached);
        off_model += usize::from(cached != direct || uncached != direct);
    }
    let r1 = rate_at(1);
    let r4 = rate_at(4);
    let ratio = r4 / r1.max(1e-9);
    println!("bench-smoke (host: {cores} cores):");
    println!("  1 thread : {r1:>12.0} evals/sec");
    println!("  4 threads: {r4:>12.0} evals/sec   ({ratio:.2}x)");
    if diverged > 0 {
        eprintln!(
            "FAIL: {diverged} of {SMOKE_CHAIN} mutation-chain estimates differ \
             between the caching and the uncaching engine"
        );
    }
    if off_model > 0 {
        eprintln!(
            "FAIL: {off_model} of {SMOKE_CHAIN} mutation-chain engine estimates differ \
             from Estimator::evaluate on the raw point"
        );
    }
    if diverged + off_model > 0 {
        std::process::exit(1);
    }
    println!(
        "  PASS: {SMOKE_CHAIN} mutation-chain estimates bit-identical cached, uncached \
         and Estimator::evaluate"
    );
    if cores >= 4 {
        if ratio < SMOKE_FLOOR {
            eprintln!(
                "FAIL: 4-thread rate is {ratio:.2}x the 1-thread rate \
                 (floor {SMOKE_FLOOR}x on a {cores}-core host)"
            );
            std::process::exit(1);
        }
        println!("  PASS: scaling {ratio:.2}x >= {SMOKE_FLOOR}x floor");
    } else {
        println!(
            "  SKIP: scaling floor needs >= 4 host cores, found {cores} \
             (thread counts above the core count just time-slice)"
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    let cores = host_cores();
    let w = sw::workload();
    let g = compile_kernel(&w.spec).expect("compiles");
    let s = analysis::summarize(&g.cfunc, 1024).expect("analyzes");
    let ds = DesignSpace::build(&s);
    let est = Estimator::new();
    let mut rng = SmallRng::seed_from_u64(42);
    let configs: Vec<Config> = (0..BATCH).map(|_| ds.space().random(&mut rng)).collect();
    // the serial regimes measure the engine itself, on pre-decoded points
    let designs: Vec<_> = configs.iter().map(|c| ds.decode(c)).collect();

    println!(
        "evaluation-engine throughput (S-W design space, batch of {BATCH}, host: {cores} cores):"
    );

    // Uncached serial: the pre-engine baseline (full estimator walk per
    // eval, no caches of any tier).
    let mut uncached_engine = EvalEngine::new(&s, &est);
    uncached_engine.set_caching(false);
    let uncached = evals_per_sec(|| {
        for dc in &designs {
            std::hint::black_box(uncached_engine.evaluate(dc));
        }
    });

    // Warm cache: the DSE steady state. After the warm-up round every
    // repeat is a raw-fingerprint alias hit — no clone, no
    // normalization, no canonical probe.
    let warm_engine = EvalEngine::new(&s, &est);
    let warm = evals_per_sec(|| {
        for dc in &designs {
            std::hint::black_box(warm_engine.evaluate(dc));
        }
    });
    let warm_stats = warm_engine.cache_stats();

    // The cache-miss path: a chain of single-factor neighbor mutations
    // through a fresh caching engine, so nearly every point is a miss
    // that pays normalization, both probes, and the full walk. One pass
    // is a few milliseconds, so take the best of several passes, each on
    // a fresh engine (and so each cold), for the reason `evals_per_sec`
    // gives.
    let chain = mutation_chain(&ds, &mut rng, CHAIN);
    let cold_pass = || {
        let engine = EvalEngine::new(&s, &est);
        let t0 = Instant::now();
        for dc in &chain {
            std::hint::black_box(engine.evaluate(dc));
        }
        let rate = chain.len() as f64 / t0.elapsed().as_secs_f64();
        (rate, engine.cache_stats())
    };
    let (mut cold_chain, cold_stats) = cold_pass();
    for _ in 1..COLD_PASSES {
        cold_chain = cold_chain.max(cold_pass().0);
    }

    // Batch-path thread sweep on the persistent worker pool. Each count
    // is measured twice: a clean timing pass with the disabled profiler
    // (the throughput number; the pool persists across rounds inside
    // one objective) and a profiled pass whose spans yield the
    // per-stage attribution.
    let eval = |cfg: &Config| -> Measurement {
        let e = uncached_engine.evaluate(&ds.decode(cfg));
        Measurement {
            value: e.objective(),
            minutes: e.hls_minutes,
        }
    };
    let mut threaded: Vec<(usize, f64, BatchLoopProfile)> = Vec::new();
    for threads in THREADS {
        let pool = WorkerPool::new(threads - 1);
        let mut obj = ThreadedObjective::new(&eval, &pool);
        let rate = evals_per_sec(|| {
            std::hint::black_box(obj.measure_batch(&configs));
        });
        let profiler = Profiler::enabled();
        let mut obj = ThreadedObjective::new(&eval, &pool).with_profiler(&profiler);
        for _ in 0..4 {
            std::hint::black_box(obj.measure_batch(&configs));
        }
        drop(obj);
        let stages = analyze_batch_loop(&profiler.take_spans(), threads as u64);
        threaded.push((threads, rate, stages));
    }

    // Profiling overhead on the serial batch path: a plain map-collect
    // over the same closure (exactly the work the uninstrumented serial
    // path did) vs the instrumented path with the disabled profiler
    // (must be within 2%) vs fully enabled.
    let plain = evals_per_sec(|| {
        let out: Vec<Measurement> = configs.iter().map(eval).collect();
        std::hint::black_box(out);
    });
    let serial = WorkerPool::new(0);
    let mut obj = ThreadedObjective::new(&eval, &serial);
    let disabled = evals_per_sec(|| {
        std::hint::black_box(obj.measure_batch(&configs));
    });
    let enabled_profiler = Profiler::enabled();
    let mut obj = ThreadedObjective::new(&eval, &serial).with_profiler(&enabled_profiler);
    let enabled = evals_per_sec(|| {
        std::hint::black_box(obj.measure_batch(&configs));
    });
    drop(obj);
    let disabled_overhead_pct = 100.0 * (plain / disabled - 1.0);
    let enabled_overhead_pct = 100.0 * (plain / enabled - 1.0);

    let cache_speedup = warm / uncached;
    let base_rate = threaded[0].1;
    let thread_speedup = threaded.last().unwrap().1 / base_rate;
    // Efficiency against what the host can physically deliver: a
    // t-thread run on a c-core host has min(t, c) cores of capacity.
    let efficiency =
        |t: usize, r: f64| -> f64 { r / base_rate.max(1e-9) / t.min(cores).max(1) as f64 };

    println!("  uncached serial   : {uncached:>12.0} evals/sec");
    println!("  warm cache (alias): {warm:>12.0} evals/sec   ({cache_speedup:.1}x)");
    println!(
        "  cold chain        : {cold_chain:>12.0} evals/sec   ({} misses / {} lookups)",
        cold_stats.misses,
        cold_stats.hits + cold_stats.misses
    );
    for (t, r, stages) in &threaded {
        println!(
            "  pooled x{t:<2}        : {r:>12.0} evals/sec   (eff {:.2} submit {:.0}% est {:.0}% attr {:.0}%)",
            efficiency(*t, *r),
            100.0 * stages.submit_ns as f64 / stages.wall_ns.max(1) as f64,
            100.0 * stages.estimate_ns as f64 / stages.wall_ns.max(1) as f64,
            100.0 * stages.attributed_fraction(),
        );
    }
    println!(
        "  warm-cache hit rate: {:.1}% ({} hits / {} lookups)",
        100.0 * warm_stats.hit_rate(),
        warm_stats.hits,
        warm_stats.hits + warm_stats.misses
    );
    println!(
        "  profiling overhead : disabled {disabled_overhead_pct:+.2}%  enabled {enabled_overhead_pct:+.2}%"
    );

    let doc = Json::obj(vec![
        ("kernel", Json::str("S-W")),
        ("batch", Json::int(BATCH as u64)),
        ("rounds", Json::int(ROUNDS as u64)),
        ("host_cores", Json::int(cores as u64)),
        ("uncached_evals_per_sec", Json::num(uncached)),
        ("warm_cache_evals_per_sec", Json::num(warm)),
        ("cache_speedup", Json::num(cache_speedup)),
        (
            "cold_chain",
            Json::obj(vec![
                ("chain_len", Json::int(CHAIN as u64)),
                ("passes", Json::int(COLD_PASSES as u64)),
                ("cold_chain_evals_per_sec", Json::num(cold_chain)),
                ("cache_misses", Json::int(cold_stats.misses)),
                ("cache_hits", Json::int(cold_stats.hits)),
            ]),
        ),
        (
            "threaded_evals_per_sec",
            Json::Arr(
                threaded
                    .iter()
                    .map(|(t, r, stages)| {
                        Json::obj(vec![
                            ("threads", Json::int(*t as u64)),
                            ("evals_per_sec", Json::num(*r)),
                            ("efficiency_vs_cores", Json::num(efficiency(*t, *r))),
                            ("stages", batch_loop_json(stages)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("thread_speedup", Json::num(thread_speedup)),
        ("cache_hits", Json::int(warm_stats.hits as u64)),
        (
            "cache_lookups",
            Json::num((warm_stats.hits + warm_stats.misses) as f64),
        ),
        (
            "profiling",
            Json::obj(vec![
                ("plain_evals_per_sec", Json::num(plain)),
                ("disabled_evals_per_sec", Json::num(disabled)),
                ("enabled_evals_per_sec", Json::num(enabled)),
                ("disabled_overhead_pct", Json::num(disabled_overhead_pct)),
                ("enabled_overhead_pct", Json::num(enabled_overhead_pct)),
                (
                    "disabled_within_2pct",
                    Json::Bool(disabled_overhead_pct < 2.0),
                ),
            ]),
        ),
        ("meets_2x_target", Json::Bool(cache_speedup >= 2.0)),
    ]);
    results::save("BENCH_eval_throughput", &doc);

    if cache_speedup < 2.0 {
        eprintln!("warning: memoization speedup {cache_speedup:.2}x below the 2x target");
    }
    if disabled_overhead_pct >= 2.0 {
        eprintln!(
            "warning: disabled-profiler overhead {disabled_overhead_pct:.2}% exceeds the 2% budget"
        );
    }
}
