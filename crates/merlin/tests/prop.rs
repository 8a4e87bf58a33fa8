//! Property tests: structural transformations preserve semantics, and
//! configuration normalization is idempotent and legal.

use proptest::prelude::*;
use s2fa_hlsir::{
    analysis, CBinOp, CFunction, CNumKind, CType, CVal, Executor, Expr, LValue, LoopAttrs, LoopId,
    Param, ParamKind, PipelineMode, Stmt,
};
use s2fa_merlin::{tile_loop, unroll_loop, DesignConfig};
use std::collections::BTreeMap;

/// Builds `out[i] = a*in[i]*in[i] + b*in[i] + c` over `tc` elements.
fn poly_kernel(tc: u32, a: i64, b: i64, c: i64) -> CFunction {
    let x = || Expr::index("in_1", Expr::var("i"));
    CFunction {
        name: "poly".into(),
        params: vec![
            Param {
                name: "in_1".into(),
                ty: CType::Int(32),
                kind: ParamKind::BufIn,
                elems_per_task: Some(1),
                broadcast: false,
            },
            Param {
                name: "out_1".into(),
                ty: CType::Int(32),
                kind: ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            },
        ],
        body: vec![Stmt::For {
            id: LoopId(0),
            var: "i".into(),
            bound: Expr::ConstI(tc as i64),
            trip_count: Some(tc),
            attrs: LoopAttrs::default(),
            body: vec![Stmt::Assign {
                lhs: LValue::Index("out_1".into(), Box::new(Expr::var("i"))),
                rhs: Expr::bin(
                    CBinOp::Add,
                    CNumKind::I32,
                    Expr::bin(
                        CBinOp::Mul,
                        CNumKind::I32,
                        Expr::bin(CBinOp::Mul, CNumKind::I32, Expr::ConstI(a), x()),
                        x(),
                    ),
                    Expr::bin(
                        CBinOp::Add,
                        CNumKind::I32,
                        Expr::bin(CBinOp::Mul, CNumKind::I32, Expr::ConstI(b), x()),
                        Expr::ConstI(c),
                    ),
                ),
            }],
        }],
    }
}

fn run(f: &CFunction, input: &[i64]) -> Vec<CVal> {
    let mut buffers = BTreeMap::new();
    buffers.insert(
        "in_1".to_string(),
        input.iter().map(|&v| CVal::I(v)).collect::<Vec<_>>(),
    );
    buffers.insert("out_1".to_string(), vec![CVal::I(0); input.len()]);
    Executor::new(f)
        .run(&BTreeMap::new(), &mut buffers)
        .expect("executes");
    buffers.remove("out_1").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiling_preserves_semantics(
        tc_pow in 3u32..7,             // 8..64
        factor_pow in 1u32..3,         // 2..4
        a in -4i64..4, b in -4i64..4, c in -4i64..4,
        input in prop::collection::vec(any::<i16>(), 64..=64),
    ) {
        let tc = 1 << tc_pow;
        let factor = 1 << factor_pow;
        prop_assume!(factor > 1 && factor < tc);
        let base = poly_kernel(tc, a, b, c);
        let input: Vec<i64> = input.iter().take(tc as usize).map(|&v| v as i64).collect();
        let expected = run(&base, &input);
        let mut tiled = base.clone();
        tile_loop(&mut tiled, LoopId(0), factor).expect("tiles");
        prop_assert_eq!(run(&tiled, &input), expected);
    }

    #[test]
    fn unrolling_preserves_semantics(
        tc_pow in 3u32..7,
        factor_pow in 0u32..4,
        a in -4i64..4, b in -4i64..4, c in -4i64..4,
        input in prop::collection::vec(any::<i16>(), 64..=64),
    ) {
        let tc = 1u32 << tc_pow;
        let factor = 1u32 << factor_pow.min(tc_pow);
        let base = poly_kernel(tc, a, b, c);
        let input: Vec<i64> = input.iter().take(tc as usize).map(|&v| v as i64).collect();
        let expected = run(&base, &input);
        let mut unrolled = base.clone();
        unroll_loop(&mut unrolled, LoopId(0), factor).expect("unrolls");
        prop_assert_eq!(run(&unrolled, &input), expected);
    }

    #[test]
    fn tile_then_unroll_composes(
        a in -4i64..4, b in -4i64..4, c in -4i64..4,
        input in prop::collection::vec(any::<i16>(), 32..=32),
    ) {
        let base = poly_kernel(32, a, b, c);
        let input: Vec<i64> = input.iter().map(|&v| v as i64).collect();
        let expected = run(&base, &input);
        let mut t = base.clone();
        let inner = tile_loop(&mut t, LoopId(0), 8).expect("tiles");
        unroll_loop(&mut t, inner, 4).expect("unrolls inner");
        prop_assert_eq!(run(&t, &input), expected);
    }

    #[test]
    fn normalize_is_idempotent(
        tile_idx in 0u32..6,
        par in 1u32..64,
        pipe in 0u8..3,
        bits in prop::sample::select(vec![7u32, 16, 100, 512, 4096]),
    ) {
        let f = poly_kernel(32, 1, 1, 1);
        let summary = analysis::summarize(&f, 32).expect("analyzes");
        let mut cfg = DesignConfig::new();
        {
            let d = cfg.loop_directive_mut(LoopId(0));
            d.tile = if tile_idx == 0 { None } else { Some(1 << tile_idx) };
            d.parallel = par;
            d.pipeline = match pipe {
                0 => PipelineMode::Off,
                1 => PipelineMode::On,
                _ => PipelineMode::Flatten,
            };
        }
        cfg.buffer_bits.insert("in_1".into(), bits);
        let mut once = cfg.clone();
        once.normalize(&summary);
        let mut twice = once.clone();
        prop_assert!(!twice.normalize(&summary), "second normalize reported a change");
        prop_assert_eq!(&once, &twice);
        // normalized factors are always legal
        let d = once.loop_directive(LoopId(0));
        prop_assert!(d.parallel_factor() <= 32);
        if let Some(t) = d.tile {
            prop_assert!(t > 1 && t < 32);
        }
        let w = once.buffer_width("in_1");
        prop_assert!((16..=512).contains(&w) && w.is_power_of_two());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structural_application_preserves_semantics(
        tile_pow in 1u32..4,
        par in 1u32..8,
        a in -4i64..4, b in -4i64..4, c in -4i64..4,
        input in prop::collection::vec(any::<i16>(), 32..=32),
    ) {
        use s2fa_merlin::apply_structural;
        let base = poly_kernel(32, a, b, c);
        let input: Vec<i64> = input.iter().map(|&v| v as i64).collect();
        let expected = run(&base, &input);
        let mut cfg = DesignConfig::new();
        {
            let d = cfg.loop_directive_mut(LoopId(0));
            d.tile = Some(1 << tile_pow);
            d.parallel = par;
            d.pipeline = PipelineMode::On;
        }
        let (transformed, report) = apply_structural(&base, &cfg);
        prop_assert!(!report.applied.is_empty());
        prop_assert_eq!(run(&transformed, &input), expected);
        // a structural tile adds a loop
        if (1u32 << tile_pow) > 1 && (1u32 << tile_pow) < 32 {
            prop_assert_eq!(transformed.loop_ids().len(), 2);
        }
    }
}
