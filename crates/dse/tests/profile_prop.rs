//! Property tests for the profiled driver: across randomized pipeline
//! configurations, (1) the recorded span forest is always well-formed
//! and carries the driver's stage spans, and (2) profiling never
//! perturbs the search — the outcome with an enabled profiler is
//! bit-identical to the unprofiled run.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa_dse::{run_dse, run_dse_profiled, DesignSpace, DseOptions, DseOutcome, EvalEngine};
use s2fa_hlsir::{
    Access, BufferDir, BufferInfo, CarriedDep, KernelSummary, LoopId, LoopInfo, OpCounts,
};
use s2fa_hlssim::Estimator;
use s2fa_obs::{verify_spans, Profiler};
use s2fa_trace::par::parallel_map;
use s2fa_trace::NullSink;
use s2fa_tuner::Measurement;
use std::sync::Arc;

/// A dot-product-shaped kernel: a 1024-task loop over a 64-trip MAC.
fn summary() -> KernelSummary {
    let mut inner_ops = OpCounts::new();
    inner_ops.fadd = 1;
    inner_ops.fmul = 1;
    inner_ops.mem_read = 2;
    let mut outer_ops = OpCounts::new();
    outer_ops.mem_write = 1;
    KernelSummary {
        name: "prof_prop".into(),
        loops: vec![
            LoopInfo {
                id: LoopId(0),
                var: "t".into(),
                trip_count: 1024,
                depth: 0,
                parent: None,
                children: vec![LoopId(1)],
                body_ops: outer_ops,
                accesses: vec![],
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
                accesses: vec![],
                carried: None,
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
                name: "out_1".into(),
                elem_bits: 64,
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

/// Everything about an outcome except its estimator counters, in one
/// comparable string.
fn key(out: &DseOutcome) -> String {
    format!(
        "{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}",
        out.best,
        out.convergence,
        out.elapsed_minutes,
        out.total_evaluations,
        out.killed_evals,
        out.partitions,
        out.techniques,
        out.per_partition,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn profiling_randomized_pipelines_is_wellformed_and_observational(
        workers in 1usize..4,
        eval_threads in 1usize..4,
        partition in any::<bool>(),
        seeds in any::<bool>(),
        prescreen in any::<bool>(),
        budget in 20.0f64..90.0,
        rng_seed in any::<u64>(),
    ) {
        let s = summary();
        let est = Estimator::new();
        let mut opts = DseOptions::s2fa();
        opts.workers = workers;
        opts.eval_threads = eval_threads;
        opts.partition = partition;
        opts.seeds = seeds;
        opts.prescreen = prescreen;
        opts.budget_minutes = budget;
        opts.rng_seed = rng_seed;

        let plain = run_dse(&s, &est, &opts);
        let profiler = Profiler::enabled();
        let profiled =
            run_dse_profiled(&s, &est, &opts, Arc::new(NullSink), &profiler);
        prop_assert_eq!(key(&plain), key(&profiled));

        let spans = profiler.take_spans();
        if let Err(e) = verify_spans(&spans) {
            panic!("ill-formed forest: {e}");
        }
        for stage in ["dse", "space_identification", "partition", "seeds", "explore", "merge"] {
            prop_assert!(
                spans.iter().any(|r| r.name == stage),
                "missing stage span {stage:?}"
            );
        }
    }
}

/// A randomized linear loop nest: loop `i` trips `trips[i]` times and
/// streams buffer `b{i}` (width `bits[i]`); the innermost loop optionally
/// carries a reducible accumulation so the tree-reduction directive is in
/// play. Exercises variable nest depth, buffer widths, and recurrences in
/// the estimator's per-kernel invariants.
fn random_summary(trips: &[u32], bits: &[u32], carried: bool) -> KernelSummary {
    let n = trips.len();
    let mut loops = Vec::new();
    let mut buffers = Vec::new();
    for (i, &trip) in trips.iter().enumerate() {
        let mut ops = OpCounts::new();
        ops.fadd = 1;
        ops.fmul = (i % 2) as u32;
        ops.int_alu = 1 + i as u32;
        ops.mem_read = 1;
        if i == 0 {
            ops.mem_write = 1;
        }
        let innermost = i + 1 == n;
        loops.push(LoopInfo {
            id: LoopId(i as u32),
            var: format!("i{i}"),
            trip_count: trip,
            depth: i as u32,
            parent: (i > 0).then(|| LoopId(i as u32 - 1)),
            children: if innermost {
                vec![]
            } else {
                vec![LoopId(i as u32 + 1)]
            },
            body_ops: ops,
            accesses: vec![Access {
                buffer: format!("b{i}"),
                write: false,
            }],
            carried: (innermost && carried).then(|| {
                let mut chain = OpCounts::new();
                chain.fadd = 1;
                CarriedDep {
                    via: "acc".into(),
                    chain,
                    reducible: true,
                }
            }),
        });
        buffers.push(BufferInfo {
            name: format!("b{i}"),
            elem_bits: bits[i % bits.len()],
            len: 64,
            dir: BufferDir::In,
            broadcast: false,
        });
    }
    buffers.push(BufferInfo {
        name: "out".into(),
        elem_bits: 32,
        len: 1,
        dir: BufferDir::Out,
        broadcast: false,
    });
    KernelSummary {
        name: "pool_prop".into(),
        loops,
        buffers,
        task_loop: LoopId(0),
        tasks_hint: trips[0],
        dataflow: None,
    }
}

/// `Measurement` holds two `f64`s; compare their exact bit patterns so
/// "identical" means *bit*-identical, not merely approximately equal.
fn bits(ms: &[Measurement]) -> Vec<(u64, u64)> {
    ms.iter()
        .map(|m| (m.value.to_bits(), m.minutes.to_bits()))
        .collect()
}

// Determinism property: the engine on the parallel batch path (the
// shared map that prices the DSE's probe sample) is bit-identical to
// `Estimator::evaluate` on each raw point, called serially — across
// random kernels, batch sizes, thread counts, and chains of
// single-factor neighbor mutations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_eval_is_bit_identical_to_the_raw_estimator(
        trips in prop::collection::vec(2u32..48, 1..4),
        bits_pool in prop::collection::vec(prop::sample::select(vec![8u32, 16, 32, 64]), 1..4),
        carried in any::<bool>(),
        batch in 1usize..40,
        threads in 2usize..6,
        muts in 0usize..12,
        seed in any::<u64>(),
    ) {
        let s = random_summary(&trips, &bits_pool, carried);
        let est = Estimator::new();
        let ds = DesignSpace::build(&s);
        let mut rng = SmallRng::seed_from_u64(seed);

        // A base point, a chain of single-factor neighbors off it, then
        // random fill to the requested batch size.
        let mut configs = Vec::new();
        let mut cur = ds.space().random(&mut rng);
        configs.push(cur.clone());
        for _ in 0..muts {
            ds.space().mutate_one(&mut cur, &mut rng);
            configs.push(cur.clone());
        }
        while configs.len() < batch {
            configs.push(ds.space().random(&mut rng));
        }

        // Reference: the raw estimator, one point at a time.
        let want: Vec<Measurement> = configs
            .iter()
            .map(|cfg| {
                let e = est.evaluate(&s, &ds.decode(cfg));
                Measurement { value: e.objective(), minutes: e.hls_minutes }
            })
            .collect();

        // Candidate: the engine on the shared parallel map.
        let engine = EvalEngine::new(&s, &est);
        let eval = |cfg: &s2fa_tuner::Config| -> Measurement {
            let e = engine.evaluate(&ds.decode(cfg));
            Measurement { value: e.objective(), minutes: e.hls_minutes }
        };
        let order: Vec<usize> = (0..configs.len()).collect();
        let got = parallel_map(threads, &order, |i| eval(&configs[i]));

        prop_assert_eq!(bits(&want), bits(&got), "parallel pass diverged");
    }
}
