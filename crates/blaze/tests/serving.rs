//! End-to-end tests of the Blaze serving runtime: functional
//! correctness on both paths, admission/queue bounds, batch forming,
//! and the determinism contract (outcomes bit-identical across OS
//! execution-thread counts; simulated `nodes` is a modeling knob).
//! Also the one operator rule serving shares with the RDD wrapper and
//! the streams API.

use s2fa_blaze::serving::{Disposition, RejectReason};
use s2fa_blaze::streams::Stream;
use s2fa_blaze::{
    AccCall, AccelTimeModel, Accelerator, AcceleratorRegistry, BlazeContext, BlazeError,
    DataLayout, ExecutionPath, Rdd, ServeOutcome, ServingConfig, ServingRuntime, TenantSpec,
};
use s2fa_hlsir::{ast, CBinOp, CNumKind};
use s2fa_obs::Profiler;
use s2fa_sjvm::builder::{Expr, FnBuilder};
use s2fa_sjvm::{ClassTable, HostValue, JType, KernelSpec, MethodTable, RddOp, Shape};
use s2fa_trace::{Event, NullSink, RingSink};
use s2fa_workloads::all_workloads;

/// Hand-built map kernel: out_1[i] = in_1[i] * 2, with a time model.
fn doubler(id: &str) -> Accelerator {
    let kernel = ast::CFunction {
        name: "dbl".into(),
        params: vec![
            ast::Param {
                name: "n".into(),
                ty: ast::CType::Int(32),
                kind: ast::ParamKind::ScalarIn,
                elems_per_task: None,
                broadcast: false,
            },
            ast::Param {
                name: "in_1".into(),
                ty: ast::CType::Float,
                kind: ast::ParamKind::BufIn,
                elems_per_task: Some(1),
                broadcast: false,
            },
            ast::Param {
                name: "out_1".into(),
                ty: ast::CType::Float,
                kind: ast::ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            },
        ],
        body: vec![ast::Stmt::For {
            id: ast::LoopId(0),
            var: "i".into(),
            bound: ast::Expr::var("n"),
            trip_count: None,
            attrs: Default::default(),
            body: vec![ast::Stmt::Assign {
                lhs: ast::LValue::Index("out_1".into(), Box::new(ast::Expr::var("i"))),
                rhs: ast::Expr::bin(
                    CBinOp::Mul,
                    CNumKind::F64,
                    ast::Expr::index("in_1", ast::Expr::var("i")),
                    ast::Expr::ConstF(2.0),
                ),
            }],
        }],
    };
    let shape = Shape::Scalar(JType::Double);
    Accelerator {
        id: id.into(),
        kernel,
        operator: RddOp::Map,
        input_layout: DataLayout::from_shape(&shape, "in"),
        output_layout: DataLayout::from_shape(&shape, "out"),
        time_model: Some(AccelTimeModel {
            per_task_ms: 0.01,
            setup_ms: 0.2,
        }),
    }
}

/// Hand-built reduce kernel: out_1[0] = sum(in_1[0..n]).
fn summer(id: &str) -> Accelerator {
    let kernel = ast::CFunction {
        name: "sum".into(),
        params: vec![
            ast::Param {
                name: "n".into(),
                ty: ast::CType::Int(32),
                kind: ast::ParamKind::ScalarIn,
                elems_per_task: None,
                broadcast: false,
            },
            ast::Param {
                name: "in_1".into(),
                ty: ast::CType::Float,
                kind: ast::ParamKind::BufIn,
                elems_per_task: Some(1),
                broadcast: false,
            },
            ast::Param {
                name: "out_1".into(),
                ty: ast::CType::Float,
                kind: ast::ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            },
        ],
        body: vec![ast::Stmt::For {
            id: ast::LoopId(0),
            var: "i".into(),
            bound: ast::Expr::var("n"),
            trip_count: None,
            attrs: Default::default(),
            body: vec![ast::Stmt::Assign {
                lhs: ast::LValue::Index("out_1".into(), Box::new(ast::Expr::ConstI(0))),
                rhs: ast::Expr::bin(
                    CBinOp::Add,
                    CNumKind::F64,
                    ast::Expr::index("out_1", ast::Expr::ConstI(0)),
                    ast::Expr::index("in_1", ast::Expr::var("i")),
                ),
            }],
        }],
    };
    let shape = Shape::Scalar(JType::Double);
    Accelerator {
        id: id.into(),
        kernel,
        operator: RddOp::Reduce,
        input_layout: DataLayout::from_shape(&shape, "in"),
        output_layout: DataLayout::from_shape(&shape, "out"),
        time_model: Some(AccelTimeModel {
            per_task_ms: 0.02,
            setup_ms: 0.3,
        }),
    }
}

/// x -> x * 2 lambda (the doubler's fallback).
fn double_spec() -> KernelSpec {
    let mut classes = ClassTable::new();
    let mut methods = MethodTable::new();
    let mut b = FnBuilder::new("call", &[("x", JType::Double)], Some(JType::Double));
    let x = b.param(0);
    b.ret(Expr::local(x).add(Expr::local(x)));
    let entry = b.finish(&mut classes, &mut methods).unwrap();
    KernelSpec {
        name: "dbl".into(),
        classes,
        methods,
        entry,
        operator: RddOp::Map,
        input_shape: Shape::Scalar(JType::Double),
        output_shape: Shape::Scalar(JType::Double),
    }
}

/// (a, b) -> a + b reduce lambda (the summer's fallback).
fn sum_spec() -> KernelSpec {
    let mut classes = ClassTable::new();
    let mut methods = MethodTable::new();
    let mut b = FnBuilder::new(
        "call",
        &[("a", JType::Double), ("b", JType::Double)],
        Some(JType::Double),
    );
    let a = b.param(0);
    let x = b.param(1);
    b.ret(Expr::local(a).add(Expr::local(x)));
    let entry = b.finish(&mut classes, &mut methods).unwrap();
    KernelSpec {
        name: "sum".into(),
        classes,
        methods,
        entry,
        operator: RddOp::Reduce,
        input_shape: Shape::Scalar(JType::Double),
        output_shape: Shape::Scalar(JType::Double),
    }
}

fn floats(n: usize, seed: u64) -> Vec<HostValue> {
    (0..n)
        .map(|i| HostValue::F(((seed % 97) as f64) + i as f64))
        .collect()
}

fn tenant(name: &str, accel: &str, spec: KernelSpec, rate: f64, requests: usize) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        accel_id: accel.into(),
        fallback: spec,
        rate_per_ms: rate,
        requests,
        records_per_request: 4,
        gen_input: floats,
        seed: 0xBEEF ^ name.len() as u64,
    }
}

fn serve(
    registry: &AcceleratorRegistry,
    config: ServingConfig,
    tenants: &[TenantSpec],
) -> ServeOutcome {
    ServingRuntime::new(registry, config)
        .unwrap()
        .serve(tenants, &NullSink, &Profiler::disabled())
        .unwrap()
}

#[test]
fn serves_a_map_tenant_functionally() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let out = serve(
        &registry,
        ServingConfig::default(),
        &[tenant("t0", "dbl", double_spec(), 1.0, 25)],
    );
    assert_eq!(out.outcomes.len(), 25);
    assert_eq!(out.stats.submitted, 25);
    assert_eq!(out.stats.completed(), 25);
    assert_eq!(out.stats.fallback_fraction(), 0.0);
    assert!(out.stats.batches >= 1);
    for o in &out.outcomes {
        match &o.disposition {
            Disposition::Completed {
                output,
                path,
                latency_ms,
                ..
            } => {
                assert_eq!(*path, ExecutionPath::Offloaded);
                assert!(*latency_ms > 0.0, "latency {latency_ms}");
                assert_eq!(output.len(), 4);
                for v in output {
                    let f = match v {
                        HostValue::F(f) => *f,
                        other => panic!("unexpected output {other:?}"),
                    };
                    assert_eq!(f % 2.0, 0.0, "doubled integer inputs stay even: {f}");
                }
            }
            other => panic!("request {} not completed: {other:?}", o.request),
        }
    }
}

#[test]
fn doubled_outputs_match_their_request_inputs() {
    // One request per batch (max_batch = 1) keeps the mapping trivial to
    // check end to end.
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let cfg = ServingConfig {
        max_batch: 1,
        ..Default::default()
    };
    let mix = [tenant("t0", "dbl", double_spec(), 0.2, 10)];
    let requests = s2fa_blaze::serving::generate(&mix);
    let out = serve(&registry, cfg, &mix);
    for (req, o) in requests.iter().zip(&out.outcomes) {
        let Disposition::Completed { output, .. } = &o.disposition else {
            panic!("request {} not completed", o.request);
        };
        let expect: Vec<HostValue> = req
            .records
            .iter()
            .map(|v| HostValue::F(v.as_f64().unwrap() * 2.0))
            .collect();
        assert_eq!(output, &expect);
    }
}

#[test]
fn unregistered_ids_take_the_jvm_fallback() {
    let registry = AcceleratorRegistry::new(); // nothing registered
    let out = serve(
        &registry,
        ServingConfig::default(),
        &[tenant("t0", "missing", double_spec(), 0.5, 15)],
    );
    assert_eq!(out.stats.completed(), 15);
    assert_eq!(out.stats.completed_fallback, 15);
    assert_eq!(out.stats.fallback_fraction(), 1.0);
    assert_eq!(out.stats.batches, 0, "fallback requests never batch");
    for o in &out.outcomes {
        assert_eq!(o.path(), Some(ExecutionPath::JvmFallback));
        let Disposition::Completed { output, .. } = &o.disposition else {
            unreachable!()
        };
        assert_eq!(output.len(), 4);
    }
}

#[test]
fn mixed_mix_reports_a_partial_fallback_fraction() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let out = serve(
        &registry,
        ServingConfig::default(),
        &[
            tenant("reg", "dbl", double_spec(), 0.5, 20),
            tenant("unreg", "missing", double_spec(), 0.5, 20),
        ],
    );
    assert_eq!(out.stats.completed(), 40);
    assert!((out.stats.fallback_fraction() - 0.5).abs() < 1e-12);
    assert_eq!(out.completed_on(ExecutionPath::Offloaded), 20);
    assert_eq!(out.completed_on(ExecutionPath::JvmFallback), 20);
}

#[test]
fn admission_control_bounds_per_tenant_inflight() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    // One inflight slot, slow service, fast arrivals: most submissions
    // must bounce off admission control.
    let cfg = ServingConfig {
        max_inflight: 1,
        max_batch: 1,
        ..Default::default()
    };
    let out = serve(
        &registry,
        cfg,
        &[tenant("t0", "dbl", double_spec(), 50.0, 40)],
    );
    assert!(out.stats.rejected > 0, "expected inflight rejections");
    assert_eq!(
        out.stats.completed() + out.stats.rejected,
        out.stats.submitted
    );
    let reasons: Vec<_> = out
        .outcomes
        .iter()
        .filter_map(|o| match &o.disposition {
            Disposition::Rejected { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert!(!reasons.is_empty());
    assert!(reasons.iter().all(|r| *r == RejectReason::InflightLimit));
}

#[test]
fn full_queues_reject() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    // Queue of 2, batches close only on deadline (max_batch larger than
    // the queue), arrivals much faster than the wait budget: overflow.
    let cfg = ServingConfig {
        max_batch: 16,
        queue_capacity: 2,
        max_inflight: 1000,
        max_wait_ms: 5.0,
        ..Default::default()
    };
    let out = serve(
        &registry,
        cfg,
        &[tenant("t0", "dbl", double_spec(), 20.0, 60)],
    );
    let queue_full = out
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.disposition,
                Disposition::Rejected {
                    reason: RejectReason::QueueFull,
                    ..
                }
            )
        })
        .count();
    assert!(queue_full > 0, "expected queue_full rejections");
    assert_eq!(
        out.stats.completed() + out.stats.rejected,
        out.stats.submitted
    );
}

#[test]
fn batches_respect_max_batch_and_close_causes() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let sink = RingSink::new(100_000);
    let cfg = ServingConfig {
        max_batch: 4,
        max_inflight: 1000,
        queue_capacity: 1000,
        ..Default::default()
    };
    let rt = ServingRuntime::new(&registry, cfg).unwrap();
    let out = rt
        .serve(
            &[tenant("t0", "dbl", double_spec(), 10.0, 80)],
            &sink,
            &Profiler::disabled(),
        )
        .unwrap();
    assert_eq!(out.stats.completed(), 80);
    let formed = sink.events_where(|e| matches!(e, Event::BatchFormed { .. }));
    assert_eq!(formed.len() as u64, out.stats.batches);
    let mut saw_full = false;
    for e in &formed {
        let &Event::BatchFormed { size, cause, .. } = e else {
            unreachable!()
        };
        assert!((1..=4).contains(&size), "batch size {size}");
        assert!(cause == "full" || cause == "deadline", "cause {cause}");
        saw_full |= cause == "full";
    }
    assert!(saw_full, "high arrival rate should close batches on size");
    assert!(out.stats.batch_sizes.keys().all(|s| *s <= 4));
    // the trace tells one coherent story: every completed request has a
    // submit and a reply
    let submits = sink.events_where(|e| matches!(e, Event::Submit { .. }));
    let replies = sink.events_where(|e| matches!(e, Event::Reply { .. }));
    assert_eq!(submits.len(), 80);
    assert_eq!(replies.len() as u64, out.stats.completed());
}

#[test]
fn reduce_tenants_reduce_per_request_not_per_batch() {
    let registry = AcceleratorRegistry::new();
    registry.register(summer("sum"));
    // High rate so multiple requests coalesce into one batch — each must
    // still reduce over only its own records.
    let cfg = ServingConfig {
        max_batch: 8,
        max_inflight: 1000,
        queue_capacity: 1000,
        ..Default::default()
    };
    let mix = [tenant("t0", "sum", sum_spec(), 10.0, 20)];
    let requests = s2fa_blaze::serving::generate(&mix);
    let out = serve(&registry, cfg, &mix);
    assert!(
        out.stats.batch_sizes.keys().any(|s| *s > 1),
        "expected coalesced batches, got {:?}",
        out.stats.batch_sizes
    );
    for (req, o) in requests.iter().zip(&out.outcomes) {
        let Disposition::Completed { output, .. } = &o.disposition else {
            panic!("request {} not completed", o.request);
        };
        let expect: f64 = req.records.iter().map(|v| v.as_f64().unwrap()).sum();
        assert_eq!(output, &vec![HostValue::F(expect)]);
    }
}

#[test]
fn outcomes_are_bit_identical_across_exec_thread_counts() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    registry.register(summer("sum"));
    let mix = [
        tenant("maps", "dbl", double_spec(), 2.0, 60),
        tenant("reduces", "sum", sum_spec(), 1.0, 40),
        tenant("fallbacks", "missing", double_spec(), 0.5, 30),
    ];
    let mut runs = Vec::new();
    for exec_threads in [1usize, 3, 8] {
        let cfg = ServingConfig {
            exec_threads,
            ..Default::default()
        };
        let sink = RingSink::new(100_000);
        let out = ServingRuntime::new(&registry, cfg)
            .unwrap()
            .serve(&mix, &sink, &Profiler::disabled())
            .unwrap();
        runs.push((out, sink.events()));
    }
    let (base_out, base_events) = &runs[0];
    assert!(base_out.stats.completed() > 0);
    for (out, events) in &runs[1..] {
        // replies, outputs, latencies, aggregates: all bit-identical
        assert_eq!(out, base_out);
        // and the full trace event stream, in order
        assert_eq!(events, base_events);
    }
}

#[test]
fn nodes_is_a_modeling_knob_more_nodes_less_queueing() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let mix = [tenant("t0", "dbl", double_spec(), 20.0, 100)];
    let mean = |nodes: usize| {
        let cfg = ServingConfig {
            nodes,
            max_inflight: 1000,
            queue_capacity: 1000,
            ..Default::default()
        };
        let out = serve(&registry, cfg, &mix);
        assert_eq!(out.stats.completed(), 100);
        let lat = out.latencies_ms();
        (lat.iter().sum::<f64>() / lat.len() as f64, out)
    };
    let (mean_1, out_1) = mean(1);
    let (mean_4, out_4) = mean(4);
    assert!(
        mean_4 <= mean_1,
        "4 nodes should not be slower: {mean_4} vs {mean_1}"
    );
    // functional results are independent of the cluster size
    let outputs = |o: &ServeOutcome| {
        o.outcomes
            .iter()
            .filter_map(|r| match &r.disposition {
                Disposition::Completed { output, .. } => Some(output.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(outputs(&out_1), outputs(&out_4));
}

#[test]
fn operator_mismatch_is_rejected_up_front() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl")); // a Map design
    let rt = ServingRuntime::new(&registry, ServingConfig::default()).unwrap();
    // ... against a Reduce lambda
    let err = rt
        .serve(
            &[tenant("t0", "dbl", sum_spec(), 1.0, 5)],
            &NullSink,
            &Profiler::disabled(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("implements"), "{err}");
}

#[test]
fn stream_map_over_a_reduce_design_is_an_operator_error() {
    let registry = AcceleratorRegistry::new();
    registry.register(summer("dbl"));
    let call = AccCall {
        id: "dbl".into(),
        spec: double_spec(),
    };
    let records = (1..=5).map(|i| HostValue::F(i as f64)).collect();
    let err = Stream::of(records, &registry)
        .map(call)
        .collect()
        .unwrap_err();
    assert!(matches!(err, BlazeError::Config(_)), "{err}");
}

#[test]
fn rdd_stream_and_serving_reject_an_operator_mismatch_alike() {
    // A map lambda tagged with the id of a reduce design.
    let registry = AcceleratorRegistry::new();
    registry.register(summer("acc"));
    let call = AccCall {
        id: "acc".into(),
        spec: double_spec(),
    };
    let records: Vec<HostValue> = (1..=5).map(|i| HostValue::F(i as f64)).collect();
    let rdd = BlazeContext::new(&registry)
        .wrap(Rdd::from_values(records.clone()))
        .map(&call)
        .unwrap_err();
    let stream = Stream::of(records, &registry)
        .map(call)
        .collect()
        .unwrap_err();
    let serving = ServingRuntime::new(&registry, ServingConfig::default())
        .unwrap()
        .serve(
            &[tenant("t0", "acc", double_spec(), 1.0, 5)],
            &NullSink,
            &Profiler::disabled(),
        )
        .unwrap_err();
    let want = BlazeError::Config("accelerator `acc` implements reduce, not map".into());
    assert_eq!(rdd, want);
    assert_eq!(stream, want);
    assert_eq!(serving, want);
}

#[test]
fn profiler_spans_cover_the_serving_phases() {
    let registry = AcceleratorRegistry::new();
    registry.register(doubler("dbl"));
    let profiler = Profiler::enabled();
    ServingRuntime::new(&registry, ServingConfig::default())
        .unwrap()
        .serve(
            &[tenant("t0", "dbl", double_spec(), 2.0, 20)],
            &NullSink,
            &profiler,
        )
        .unwrap();
    let spans = profiler.take_spans();
    s2fa_obs::verify_spans(&spans).unwrap();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for phase in ["serve", "loadgen", "simulate", "execute_batches"] {
        assert!(names.contains(&phase), "missing span `{phase}`: {names:?}");
    }
}

#[test]
fn coalesced_map_requests_keep_their_own_broadcast_state() {
    // LR's weights are a broadcast leaf: Blaze ships them once per
    // `run_batch`, from the first record. Each LR request draws its own
    // weights, so requests coalesced into one batch must not share an
    // invocation, and every reply must match the interpreter on its own
    // record.
    let lr = all_workloads()
        .into_iter()
        .find(|w| w.name == "LR")
        .expect("LR workload");
    let generated = s2fa::compile_kernel(&lr.spec).expect("LR compiles");
    let registry = AcceleratorRegistry::new();
    registry.register(Accelerator {
        id: "lr".into(),
        kernel: generated.cfunc,
        operator: lr.spec.operator,
        input_layout: generated.input_layout,
        output_layout: generated.output_layout,
        time_model: Some(AccelTimeModel {
            per_task_ms: 0.01,
            setup_ms: 0.2,
        }),
    });
    let mix: Vec<TenantSpec> = (0..3)
        .map(|t| TenantSpec {
            name: format!("lr{t}"),
            accel_id: "lr".into(),
            fallback: lr.spec.clone(),
            rate_per_ms: 4.0,
            requests: 12,
            records_per_request: 2,
            gen_input: lr.gen_input,
            seed: 0x1A + t,
        })
        .collect();
    let cfg = ServingConfig {
        max_inflight: 1000,
        queue_capacity: 1000,
        ..Default::default()
    };
    let requests = s2fa_blaze::serving::generate(&mix);
    let out = serve(&registry, cfg, &mix);
    assert!(
        out.stats.batch_sizes.keys().any(|s| *s > 1),
        "expected coalesced batches, got {:?}",
        out.stats.batch_sizes
    );
    let mut interp = s2fa_sjvm::Interp::new(&lr.spec.classes, &lr.spec.methods);
    for (req, o) in requests.iter().zip(&out.outcomes) {
        let Disposition::Completed { output, path, .. } = &o.disposition else {
            panic!("request {} not completed", o.request);
        };
        assert_eq!(*path, ExecutionPath::Offloaded);
        assert_eq!(output.len(), req.records.len());
        for (rec, got) in req.records.iter().zip(output) {
            let (want, _) = interp
                .run(lr.spec.entry, std::slice::from_ref(rec))
                .expect("interpreter runs");
            assert_eq!(got, &want, "request {}", req.id);
        }
    }
}
