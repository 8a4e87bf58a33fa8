//! Full-pipeline integration: Code 1 of the paper, end to end.
//!
//! A Spark-style program wraps an RDD with Blaze, S2FA compiles the lambda
//! to an accelerator (codegen + DSE), the accelerator is registered, and
//! the same `map` call transparently switches from the JVM fallback to the
//! offloaded path — with identical results and a large modelled speedup.

use s2fa::{S2fa, S2faOptions};
use s2fa_blaze::{AccCall, AcceleratorRegistry, BlazeContext, ExecutionPath, Rdd};
use s2fa_dse::DseOptions;
use s2fa_obs::{aggregate_spans, Profile, Profiler};
use s2fa_workloads::{kmeans, sw};

fn fast_options() -> S2faOptions {
    // a small DSE budget keeps the test quick while still exercising the
    // partition/seed/stopping machinery
    let mut dse = DseOptions::s2fa();
    dse.budget_minutes = 60.0;
    S2faOptions {
        tasks_hint: 256,
        dse,
    }
}

#[test]
fn code1_flow_kmeans() {
    let w = kmeans::workload();
    let framework = S2fa::new(fast_options());
    let compiled = framework.compile(&w.spec).expect("automatic flow succeeds");
    assert!(compiled.estimate.is_feasible());
    assert!(compiled.optimized_source.contains("void KMeans_kernel"));
    assert!(compiled.dse.as_ref().unwrap().total_evaluations > 0);

    // Code 1: val blaze_pairs = blaze.wrap(pairs); blaze_pairs.map(new SW())
    let registry = AcceleratorRegistry::new();
    let blaze = BlazeContext::new(&registry);
    // enough records that the fixed offload setup cost amortizes
    let records = (w.gen_input)(2048, 41);
    let call = AccCall {
        id: w.spec.name.clone(),
        spec: w.spec.clone(),
    };

    // Before registration: the JVM fallback runs.
    let rdd = Rdd::from_values(records.clone());
    let (jvm_out, jvm_report) = blaze.wrap(rdd).map(&call).expect("jvm path");
    assert_eq!(jvm_report.path, ExecutionPath::JvmFallback);

    // Register the generated design; the same call now offloads.
    registry.register(compiled.accelerator.clone());
    let rdd = Rdd::from_values(records);
    let (fpga_out, fpga_report) = blaze.wrap(rdd).map(&call).expect("offloaded path");
    assert_eq!(fpga_report.path, ExecutionPath::Offloaded);
    assert_eq!(jvm_out.collect(), fpga_out.collect(), "results agree");
    assert!(fpga_report.bytes > 0);
    let fpga_ms = fpga_report.time_ms.expect("offload carries a time model");
    let jvm_ms = jvm_report.time_ms.expect("fallback is always measured");
    assert!(
        fpga_ms < jvm_ms,
        "offload should be modelled faster: {fpga_ms} vs {jvm_ms} ms"
    );
}

#[test]
fn code1_flow_smith_waterman_strings() {
    // The paper's running example: RDD[(String, String)] through the S-W
    // accelerator.
    let w = sw::workload();
    let framework = S2fa::new(fast_options());
    let compiled = framework.compile(&w.spec).expect("automatic flow succeeds");
    let registry = AcceleratorRegistry::new();
    registry.register(compiled.accelerator.clone());
    let blaze = BlazeContext::new(&registry);
    let records = (w.gen_input)(2, 8);
    let call = AccCall {
        id: w.spec.name.clone(),
        spec: w.spec.clone(),
    };
    let (out, report) = blaze
        .wrap(Rdd::from_values(records.clone()))
        .map(&call)
        .expect("offload");
    assert_eq!(report.path, ExecutionPath::Offloaded);
    // scores match the native reference
    for (rec, result) in records.iter().zip(out.collect()) {
        let f = rec.elements().unwrap();
        let (s2fa_sjvm::HostValue::Str(a), s2fa_sjvm::HostValue::Str(b)) = (&f[0], &f[1]) else {
            panic!("generator yields strings")
        };
        let (score, pos) = sw::reference(a.as_bytes(), b.as_bytes());
        let got = result.elements().unwrap();
        assert_eq!(got[0].as_i64(), Some(score));
        assert_eq!(got[1].as_i64(), Some(pos));
    }
}

#[test]
fn manual_flow_evaluates_without_dse() {
    let w = kmeans::workload();
    let framework = S2fa::new(fast_options());
    let generated = s2fa::compile_kernel(&w.manual_spec).unwrap();
    let summary = s2fa_hlsir::analysis::summarize(&generated.cfunc, 256).unwrap();
    let cfg = (w.manual_config)(&summary);
    let compiled = framework
        .compile_with_config(&w.manual_spec, &cfg)
        .expect("manual design synthesizes");
    assert!(compiled.dse.is_none());
    assert!(compiled.estimate.is_feasible());
}

#[test]
fn compiled_artifacts_are_consistent() {
    let w = kmeans::workload();
    let framework = S2fa::new(fast_options());
    let compiled = framework.compile(&w.spec).unwrap();
    // the printed source carries the applied pragmas of the final design
    let has_directive = compiled
        .design
        .loops
        .values()
        .any(|d| d.parallel > 1 || d.pipeline != s2fa_hlsir::PipelineMode::Off);
    if has_directive {
        assert!(
            compiled.optimized_source.contains("#pragma ACCEL"),
            "source:\n{}",
            compiled.optimized_source
        );
    }
    // the accelerator's time model matches the estimate
    let tm = compiled
        .accelerator
        .time_model
        .expect("time model attached");
    let batch = compiled.estimate.batch_tasks as u64;
    let expected = compiled.estimate.time_ms;
    assert!((tm.per_task_ms * batch as f64 - expected).abs() / expected < 1e-9);
}

#[test]
fn structural_tiling_in_the_shipped_design_preserves_results() {
    // Force a design with an inner-loop tile: the pipeline applies the
    // Merlin rewrite structurally, and the offloaded results must still
    // match the JVM.
    use s2fa_blaze::Rdd;
    use s2fa_merlin::DesignConfig;

    let w = kmeans::workload();
    let framework = S2fa::new(fast_options());
    let generated = s2fa::compile_kernel(&w.spec).unwrap();
    let summary = s2fa_hlsir::analysis::summarize(&generated.cfunc, 256).unwrap();
    let mut cfg = DesignConfig::area_seed(&summary);
    // tile the first inner loop (constant trip count)
    let inner = summary
        .loops
        .iter()
        .find(|l| l.depth == 1 && l.trip_count >= 4)
        .expect("kmeans has an inner loop");
    cfg.loop_directive_mut(inner.id).tile = Some(2);
    let compiled = framework
        .compile_with_config(&w.spec, &cfg)
        .expect("tiled design synthesizes");
    assert!(
        compiled.optimized_source.matches("for (int").count() > generated.cfunc.loop_ids().len(),
        "structural tiling should add a loop:\n{}",
        compiled.optimized_source
    );

    let registry = AcceleratorRegistry::new();
    registry.register(compiled.accelerator.clone());
    let blaze = BlazeContext::new(&registry);
    let records = (w.gen_input)(32, 91);
    let call = AccCall {
        id: w.spec.name.clone(),
        spec: w.spec.clone(),
    };
    let (offloaded, report) = blaze
        .wrap(Rdd::from_values(records.clone()))
        .map(&call)
        .expect("offload");
    assert_eq!(report.path, ExecutionPath::Offloaded);
    // compare against the JVM fallback on an empty registry
    let empty = AcceleratorRegistry::new();
    let (jvm, _) = BlazeContext::new(&empty)
        .wrap(Rdd::from_values(records))
        .map(&call)
        .expect("jvm");
    assert_eq!(jvm.collect(), offloaded.collect());
}

#[test]
fn java8_streams_offload_through_the_same_registry() {
    // §2: "we can easily integrate S2FA with other JVM-based runtime
    // systems such as ... streaming APIs in Java 8" — the same compiled
    // accelerator serves a streams pipeline unchanged.
    use s2fa_blaze::streams::Stream;
    use s2fa_sjvm::HostValue;

    let w = kmeans::workload();
    let framework = S2fa::new(fast_options());
    let compiled = framework.compile(&w.spec).expect("compiles");
    let registry = AcceleratorRegistry::new();
    registry.register(compiled.accelerator.clone());
    let call = AccCall {
        id: w.spec.name.clone(),
        spec: w.spec.clone(),
    };
    let records = (w.gen_input)(64, 3);
    let (clusters, reports) = Stream::of(records.clone(), &registry)
        .map(call.clone())
        .map_native(|v| HostValue::I(v.as_i64().unwrap_or(-1)))
        .collect_with_reports()
        .expect("pipeline runs");
    assert_eq!(clusters.len(), 64);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].path, ExecutionPath::Offloaded);
    // same results as the RDD path
    let blaze = BlazeContext::new(&registry);
    let (rdd_out, _) = blaze
        .wrap(Rdd::from_values(records))
        .map(&call)
        .expect("rdd path");
    assert_eq!(rdd_out.collect(), &clusters[..]);
}

#[test]
fn the_registry_serves_multiple_accelerators() {
    // The Blaze accelerator manager is a *service*: several compiled
    // designs coexist and calls dispatch by id.
    use s2fa_workloads::{lls, pr};

    let framework = S2fa::new(fast_options());
    let registry = AcceleratorRegistry::new();
    let mut specs = Vec::new();
    for w in [pr::workload(), kmeans::workload(), lls::workload()] {
        let compiled = framework.compile(&w.spec).expect("compiles");
        registry.register(compiled.accelerator.clone());
        specs.push((w.spec.clone(), (w.gen_input)(8, 5)));
    }
    assert_eq!(registry.ids(), vec!["KMeans", "LLS", "PR"]);
    let blaze = BlazeContext::new(&registry);
    for (spec, records) in specs {
        let call = AccCall {
            id: spec.name.clone(),
            spec: spec.clone(),
        };
        let (_, report) = blaze
            .wrap(Rdd::from_values(records))
            .map(&call)
            .expect("dispatches");
        assert_eq!(report.path, ExecutionPath::Offloaded, "{}", spec.name);
    }
}

#[test]
fn framework_types_are_send_and_sync() {
    fn check<T: Send + Sync>() {}
    check::<S2fa>();
    check::<s2fa_hlssim::Estimator>();
    check::<s2fa_blaze::AcceleratorRegistry>();
    check::<s2fa_blaze::Accelerator>();
    check::<s2fa_sjvm::KernelSpec>();
    check::<s2fa_hlsir::KernelSummary>();
    check::<s2fa_merlin::DesignConfig>();
}

/// The profile's span shape is pipeline shape, not host shape: an S-W
/// compile records the same span paths on one executor as on three.
#[test]
fn profile_structure_is_the_same_at_every_eval_thread_count() {
    let structure = |eval_threads: usize| {
        let mut options = fast_options();
        options.dse.eval_threads = eval_threads;
        let profiler = Profiler::enabled();
        S2fa::new(options)
            .with_profiler(profiler.clone())
            .compile(&sw::workload().spec)
            .expect("S-W compiles");
        Profile {
            kernel: "S-W".into(),
            tree: aggregate_spans(&profiler.take_spans()),
        }
        .structure()
        .render()
    };
    let one = structure(1);
    assert!(one.contains("\"batch/estimate\""), "{one}");
    assert_eq!(one, structure(3));
}
