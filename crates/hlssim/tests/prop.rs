//! Property tests for the HLS model: determinism, conservation laws, and
//! the qualitative monotonicities the DSE relies on.

use proptest::prelude::*;
use s2fa_hlsir::{
    Access, BufferDir, BufferInfo, CarriedDep, KernelSummary, LoopId, LoopInfo, OpCounts,
    PipelineMode,
};
use s2fa_hlssim::{Device, Estimator};
use s2fa_merlin::{DesignConfig, LoopDirective};

/// A parameterized two-level kernel summary (task loop over a reduction).
fn summary(inner_tc: u32, fadds: u32, reads: u32) -> KernelSummary {
    let mut inner_ops = OpCounts::new();
    inner_ops.fadd = fadds;
    inner_ops.fmul = fadds;
    inner_ops.mem_read = reads;
    let mut chain = OpCounts::new();
    chain.fadd = 1;
    let mut outer_ops = OpCounts::new();
    outer_ops.mem_write = 1;
    KernelSummary {
        name: "p".into(),
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
                trip_count: inner_tc,
                depth: 1,
                parent: Some(LoopId(0)),
                children: vec![],
                body_ops: inner_ops,
                accesses: vec![Access {
                    buffer: "in_1".into(),
                    write: false,
                }],
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
                len: inner_tc,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn estimator_is_deterministic(
        tc_pow in 3u32..8,
        fadds in 1u32..4,
        reads in 1u32..4,
        par_idx in 0u32..5,
        pipe in 0u8..3,
    ) {
        let s = summary(1 << tc_pow, fadds, reads);
        let mut cfg = DesignConfig::area_seed(&s);
        {
            let d = cfg.loop_directive_mut(LoopId(1));
            d.parallel = 1 << par_idx;
            d.pipeline = match pipe {
                0 => PipelineMode::Off,
                1 => PipelineMode::On,
                _ => PipelineMode::Flatten,
            };
        }
        let est = Estimator::new();
        prop_assert_eq!(est.evaluate(&s, &cfg), est.evaluate(&s, &cfg));
    }

    #[test]
    fn estimates_are_physical(
        tc_pow in 3u32..8,
        fadds in 1u32..4,
        reads in 1u32..4,
        par_idx in 0u32..6,
    ) {
        let s = summary(1 << tc_pow, fadds, reads);
        let mut cfg = DesignConfig::perf_seed(&s);
        cfg.loop_directive_mut(LoopId(0)).parallel = 1 << par_idx;
        let e = Estimator::new().evaluate(&s, &cfg);
        prop_assert!(e.freq_mhz >= 60.0 && e.freq_mhz <= 250.0);
        prop_assert!(e.hls_minutes > 0.0 && e.hls_minutes <= 45.0);
        prop_assert!(e.total_cycles >= e.compute_cycles.min(e.transfer_cycles));
        prop_assert!(e.resources.lut > 0.0 && e.resources.ff > 0.0);
        prop_assert!(e.ii_critical >= 1.0);
        if e.is_feasible() {
            let util = e.resources.max_utilization(Estimator::new().device());
            prop_assert!(util <= Device::vu9p().max_util + 1e-9);
            prop_assert!(e.objective().is_finite());
        } else {
            prop_assert!(e.objective().is_infinite());
        }
    }

    #[test]
    fn pipelining_never_hurts_compute(
        tc_pow in 4u32..8,
        fadds in 1u32..4,
        reads in 1u32..3,
    ) {
        let s = summary(1 << tc_pow, fadds, reads);
        let est = Estimator::new();
        let off = DesignConfig::area_seed(&s);
        let mut on = off.clone();
        on.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::On;
        let e_off = est.evaluate(&s, &off);
        let e_on = est.evaluate(&s, &on);
        prop_assert!(
            e_on.compute_cycles <= e_off.compute_cycles,
            "pipelined {} vs sequential {}",
            e_on.compute_cycles,
            e_off.compute_cycles
        );
    }

    #[test]
    fn wider_ports_never_slow_the_transfer(
        tc_pow in 3u32..8,
        fadds in 1u32..4,
    ) {
        let s = summary(1 << tc_pow, fadds, 2);
        let est = Estimator::new();
        let mut narrow = DesignConfig::area_seed(&s);
        narrow.buffer_bits.insert("in_1".into(), 16);
        narrow.buffer_bits.insert("out_1".into(), 16);
        let mut wide = narrow.clone();
        wide.buffer_bits.insert("in_1".into(), 512);
        wide.buffer_bits.insert("out_1".into(), 512);
        let en = est.evaluate(&s, &narrow);
        let ew = est.evaluate(&s, &wide);
        prop_assert!(ew.transfer_cycles <= en.transfer_cycles);
    }

    #[test]
    fn batch_scaling_is_linear(tc_pow in 3u32..7, n in 1u64..1_000_000) {
        let s = summary(1 << tc_pow, 2, 2);
        let e = Estimator::new().evaluate(&s, &DesignConfig::area_seed(&s));
        let t1 = e.time_ms_for_tasks(n);
        let t2 = e.time_ms_for_tasks(2 * n);
        prop_assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}

/// A raw directive from `(parallel, tile, pipeline, tree_reduce)`; `None`
/// when `parallel` is 0, leaving the loop absent from the config.
fn raw_directive((par, tile, pipe, tree): (u32, u32, u8, bool)) -> Option<LoopDirective> {
    (par > 0).then_some(LoopDirective {
        tile: (tile > 0).then_some(tile),
        parallel: par,
        pipeline: match pipe {
            0 => PipelineMode::Off,
            1 => PipelineMode::On,
            _ => PipelineMode::Flatten,
        },
        tree_reduce: tree,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `evaluate_with` takes a normalized point; `evaluate` normalizes a
    // raw one first. Both routes must agree on raw points that need every
    // rule: flatten, non-reducible recurrences, oversized parallel and
    // tile factors, and odd port widths.
    #[test]
    fn with_variants_on_the_normalized_point_equal_the_raw_entry_points(
        tc_pow in 3u32..8,
        reducible in any::<bool>(),
        outer in (0u32..4096, 0u32..2048, 0u8..3, any::<bool>()),
        inner in (0u32..512, 0u32..300, 0u8..3, any::<bool>()),
        widths in (1u32..1024, 1u32..1024),
    ) {
        let mut s = summary(1 << tc_pow, 2, 2);
        s.loops[1].carried.as_mut().unwrap().reducible = reducible;
        let mut raw = DesignConfig::new();
        for (id, d) in [(LoopId(0), outer), (LoopId(1), inner)] {
            if let Some(d) = raw_directive(d) {
                raw.loops.insert(id, d);
            }
        }
        raw.buffer_bits.insert("in_1".into(), widths.0);
        raw.buffer_bits.insert("out_1".into(), widths.1);
        let mut norm = raw.clone();
        norm.normalize(&s);

        let est = Estimator::new();
        let inv = est.invariants(&s);
        prop_assert_eq!(est.evaluate(&s, &raw), est.evaluate_with(&s, &inv, &norm));
    }
}
