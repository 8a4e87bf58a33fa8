//! Property tests for the evaluation engine: normalization and invariant
//! hoisting must be invisible — for *arbitrary* raw design points, the
//! engine and the direct estimator return the identical `Estimate`.

use proptest::prelude::*;
use s2fa_dse::EvalEngine;
use s2fa_hlsir::{
    Access, BufferDir, BufferInfo, KernelSummary, LoopId, LoopInfo, OpCounts, PipelineMode,
};
use s2fa_hlssim::Estimator;
use s2fa_merlin::{DesignConfig, LoopDirective};

/// The dot-product fixture: a 1024-task loop around a 64-trip MAC loop.
fn summary() -> KernelSummary {
    let mut inner_ops = OpCounts::new();
    inner_ops.fadd = 1;
    inner_ops.fmul = 1;
    inner_ops.mem_read = 2;
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
                name: "w".into(),
                elem_bits: 32,
                len: 64,
                dir: BufferDir::In,
                broadcast: true,
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

/// An arbitrary — deliberately *not* normalized — loop directive. Raw
/// factors may be non-powers-of-two or exceed the trip count; the engine
/// must canonicalize them exactly like the estimator does.
fn arb_directive() -> impl Strategy<Value = LoopDirective> {
    (
        prop_oneof![Just(None), (1u32..2048).prop_map(Some)],
        1u32..2048,
        prop_oneof![
            Just(PipelineMode::Off),
            Just(PipelineMode::On),
            Just(PipelineMode::Flatten),
        ],
        any::<bool>(),
    )
        .prop_map(|(tile, parallel, pipeline, tree_reduce)| LoopDirective {
            tile,
            parallel,
            pipeline,
            tree_reduce,
        })
}

fn arb_config() -> impl Strategy<Value = DesignConfig> {
    (
        arb_directive(),
        arb_directive(),
        1u32..1024,
        1u32..1024,
        1u32..1024,
    )
        .prop_map(|(d0, d1, b0, b1, b2)| {
            let mut cfg = DesignConfig::new();
            cfg.loops.insert(LoopId(0), d0);
            cfg.loops.insert(LoopId(1), d1);
            cfg.buffer_bits.insert("in_1".into(), b0);
            cfg.buffer_bits.insert("w".into(), b1);
            cfg.buffer_bits.insert("out_1".into(), b2);
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The engine and the direct estimator agree on arbitrary raw design
    // points — including the virtual `hls_minutes` charge — and so does
    // the engine on the point's normalized twin.
    #[test]
    fn engine_equals_the_raw_estimator(cfg in arb_config()) {
        let s = summary();
        let est = Estimator::new();
        let direct = est.evaluate(&s, &cfg);
        let engine = EvalEngine::new(&s, &est);
        prop_assert_eq!(&engine.evaluate(&cfg), &direct, "engine diverged");
        let mut canon = cfg.clone();
        canon.normalize(&s);
        prop_assert_eq!(&engine.evaluate(&canon), &direct, "normalized twin diverged");
        prop_assert_eq!(engine.estimator_calls(), 2);
    }
}
