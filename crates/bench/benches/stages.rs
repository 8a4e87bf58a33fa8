//! Criterion micro-benchmarks of every pipeline stage: how fast is this
//! *implementation* (not the modelled FPGA), stage by stage.
//!
//! ```text
//! cargo bench -p s2fa-bench --bench stages
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use s2fa::compile_kernel;
use s2fa_dse::{DecisionTree, DesignSpace};
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_merlin::DesignConfig;
use s2fa_tuner::{Config, Measurement, TimeLimitOnly, TuningOptions, TuningRun};
use s2fa_workloads::{kmeans, sw};

fn bench_codegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("codegen");
    for w in [kmeans::workload(), sw::workload()] {
        g.bench_function(format!("bytecode_to_c/{}", w.name), |b| {
            b.iter(|| compile_kernel(&w.spec).expect("compiles"))
        });
    }
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    for w in [kmeans::workload(), sw::workload()] {
        let gen = compile_kernel(&w.spec).unwrap();
        g.bench_function(format!("summarize/{}", w.name), |b| {
            b.iter(|| analysis::summarize(&gen.cfunc, 1024).expect("analyzes"))
        });
    }
    g.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut g = c.benchmark_group("hls_estimator");
    let est = Estimator::new();
    for w in [kmeans::workload(), sw::workload()] {
        let gen = compile_kernel(&w.spec).unwrap();
        let s = analysis::summarize(&gen.cfunc, 1024).unwrap();
        let cfg = DesignConfig::perf_seed(&s);
        g.bench_function(format!("evaluate/{}", w.name), |b| {
            b.iter(|| est.evaluate(&s, &cfg))
        });
    }
    g.finish();
}

fn bench_tuner(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuner");
    let w = kmeans::workload();
    let gen = compile_kernel(&w.spec).unwrap();
    let s = analysis::summarize(&gen.cfunc, 1024).unwrap();
    let ds = DesignSpace::build(&s);
    let est = Estimator::new();
    g.bench_function("100_evaluations", |b| {
        b.iter_batched(
            || {
                TuningRun::new(
                    ds.space().clone(),
                    TuningOptions {
                        budget_minutes: f64::INFINITY,
                        max_evaluations: 100,
                        ..TuningOptions::default()
                    },
                )
            },
            |run| {
                run.run(
                    &mut |cfg: &Config| {
                        let e = est.evaluate(&s, &ds.decode(cfg));
                        Measurement::new(e.objective(), e.hls_minutes)
                    },
                    &mut TimeLimitOnly,
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let mut g = c.benchmark_group("partitioner");
    g.sample_size(20);
    let w = sw::workload();
    let gen = compile_kernel(&w.spec).unwrap();
    let s = analysis::summarize(&gen.cfunc, 1024).unwrap();
    let ds = DesignSpace::build(&s);
    let est = Estimator::new();
    g.bench_function("decision_tree/S-W", |b| {
        b.iter(|| {
            DecisionTree::build(&ds, &s, |cfgs: &[Config]| {
                cfgs.iter()
                    .map(|cfg| est.evaluate(&s, &ds.decode(cfg)).objective())
                    .collect()
            })
        })
    });
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let mut g = c.benchmark_group("blaze_serializer");
    let w = kmeans::workload();
    let gen = compile_kernel(&w.spec).unwrap();
    let records = (w.gen_input)(1024, 5);
    g.bench_function("serialize_1024_records", |b| {
        b.iter(|| gen.input_layout.serialize(&records).expect("serializes"))
    });
    let bufs = gen.input_layout.serialize(&records).unwrap();
    g.bench_function("deserialize_1024_records", |b| {
        b.iter(|| {
            gen.input_layout
                .deserialize(&bufs, 1024)
                .expect("deserializes")
        })
    });
    g.finish();
}

fn bench_execution_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("functional_execution");
    g.sample_size(20);
    let w = kmeans::workload();
    let gen = compile_kernel(&w.spec).unwrap();
    let accel = s2fa_blaze::Accelerator {
        id: "k".into(),
        kernel: gen.cfunc.clone(),
        operator: w.spec.operator,
        input_layout: gen.input_layout.clone(),
        output_layout: gen.output_layout.clone(),
        time_model: None,
    };
    let records = (w.gen_input)(64, 5);
    g.bench_function("ir_executor_64_tasks", |b| {
        b.iter(|| accel.run_batch(&records).expect("runs"))
    });
    g.bench_function("jvm_interpreter_64_tasks", |b| {
        b.iter(|| {
            let mut interp = s2fa_sjvm::Interp::new(&w.spec.classes, &w.spec.methods);
            for rec in &records {
                interp
                    .run(w.spec.entry, std::slice::from_ref(rec))
                    .expect("runs");
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codegen,
    bench_analysis,
    bench_estimator,
    bench_tuner,
    bench_partitioner,
    bench_serialization,
    bench_execution_paths
);
criterion_main!(benches);
