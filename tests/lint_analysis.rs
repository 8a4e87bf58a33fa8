//! Static-analysis integration: the `s2fa-lint` well-formedness verifier
//! and legality oracle over the paper's eight workloads.
//!
//! Three properties are pinned down here:
//!
//! 1. every generated kernel is well-formed, before *and* after any
//!    structural transform the DSE can request (the verifier never
//!    reports false positives on the compiler's own output);
//! 2. the legality pre-screen agrees with the estimator *exactly* — a
//!    design point is pruned iff the estimator would call it infeasible;
//! 3. deliberately corrupted ASTs produce the documented `S2FA-Exxx`
//!    codes (the verifier is not vacuous).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa::compile_kernel;
use s2fa_dse::DesignSpace;
use s2fa_hlsir::{analysis, CFunction, CType, Expr, KernelSummary, LValue, LoopId, Stmt};
use s2fa_hlssim::Estimator;
use s2fa_lint::{codes, factor_diagnostics, new_errors, verify_function, Legality, LintReport};
use s2fa_merlin::{apply_structural, check_factors, DesignConfig};
use s2fa_workloads::all_workloads;
use std::sync::OnceLock;

/// One workload, compiled once and shared across tests/cases.
struct Fixture {
    name: &'static str,
    cfunc: CFunction,
    summary: KernelSummary,
    ds: DesignSpace,
    baseline: LintReport,
}

fn fixtures() -> &'static [Fixture] {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| {
        all_workloads()
            .iter()
            .map(|w| {
                let g = compile_kernel(&w.spec).expect(w.name);
                let summary = analysis::summarize(&g.cfunc, 1024).expect(w.name);
                let ds = DesignSpace::build(&summary);
                let baseline = verify_function(&g.cfunc);
                Fixture {
                    name: w.name,
                    cfunc: g.cfunc,
                    summary,
                    ds,
                    baseline,
                }
            })
            .collect()
    })
}

/// Turns an arbitrary raw index vector into an in-domain config.
fn raw_to_config(fx: &Fixture, raw: &[u32]) -> DesignConfig {
    let n = fx.ds.space().params().len();
    let mut cfg: Vec<u32> = (0..n).map(|i| raw.get(i).copied().unwrap_or(0)).collect();
    fx.ds.space().clamp(&mut cfg);
    fx.ds.decode(&cfg)
}

#[test]
fn all_kernels_verify_clean() {
    for fx in fixtures() {
        assert!(
            !fx.baseline.has_errors(),
            "{} failed the verifier:\n{}",
            fx.name,
            fx.baseline.render()
        );
    }
}

#[test]
fn transforms_never_introduce_errors() {
    // Perf seed, area seed, and a batch of random decoded points per
    // kernel: the structurally rewritten function must be at least as
    // well-formed as its pre-image.
    for fx in fixtures() {
        let mut rng = SmallRng::seed_from_u64(2018);
        let mut configs = vec![
            DesignConfig::perf_seed(&fx.summary),
            DesignConfig::area_seed(&fx.summary),
        ];
        for _ in 0..8 {
            configs.push(fx.ds.decode(&fx.ds.space().random(&mut rng)));
        }
        for cfg in configs {
            let mut norm = cfg.clone();
            norm.normalize(&fx.summary);
            let (optimized, _) = apply_structural(&fx.cfunc, &norm);
            let post = verify_function(&optimized);
            let fresh = new_errors(&fx.baseline, &post);
            assert!(
                fresh.is_empty(),
                "{}: transform introduced {:?}",
                fx.name,
                fresh
            );
        }
    }
}

#[test]
fn prescreen_agrees_with_the_estimator_on_every_workload() {
    // The exactness property behind the DSE's pruning: Legality rejects a
    // design point iff the estimator reports it infeasible. The verdict
    // is read off the point's own estimate, so this must hold for seeds
    // and for arbitrary random points alike.
    let est = Estimator::new();
    for fx in fixtures() {
        let oracle = Legality::new(&fx.summary, &est);
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ fx.summary.loops.len() as u64);
        let mut configs = vec![
            DesignConfig::perf_seed(&fx.summary),
            DesignConfig::area_seed(&fx.summary),
        ];
        for _ in 0..16 {
            configs.push(fx.ds.decode(&fx.ds.space().random(&mut rng)));
        }
        for cfg in configs {
            let hit = oracle.prescreen(&cfg);
            let estimate = est.evaluate(&fx.summary, &cfg);
            assert_eq!(
                hit.is_some(),
                !estimate.is_feasible(),
                "{}: prescreen {:?} disagrees with estimator {:?}",
                fx.name,
                hit.map(|h| h.rule),
                estimate.feasibility
            );
        }
    }
}

#[test]
fn factor_diagnostics_mirror_the_transform_errors() {
    // Satellite property: every factor smell the lint layer reports maps
    // 1:1 onto a `TransformError` the structural applier would hit, so a
    // lint-clean config can never be rejected by `apply_structural` for
    // factor reasons (no false positives, no false negatives).
    for fx in fixtures() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..32 {
            let cfg = fx.ds.decode(&fx.ds.space().random(&mut rng));
            let diags = factor_diagnostics(&fx.cfunc, &cfg);
            let errs = check_factors(&fx.cfunc, &cfg);
            assert_eq!(
                diags.len(),
                errs.len(),
                "{}: lint saw {:?}, transform saw {:?}",
                fx.name,
                diags,
                errs
            );
        }
    }
}

#[test]
fn corrupted_ast_yields_the_documented_codes() {
    let base = &fixtures()[1]; // KMeans
    let has = |f: &CFunction, code: &str| {
        verify_function(f)
            .diagnostics
            .iter()
            .any(|d| d.code.code == code)
    };

    // E101: read of a never-defined scalar.
    let mut f = base.cfunc.clone();
    f.body.push(Stmt::Decl {
        name: "lint_tmp".into(),
        ty: CType::Int(32),
        init: Some(Expr::var("never_defined")),
    });
    assert!(has(&f, codes::USE_BEFORE_DEF.code), "expected E101");

    // E102: constant index past a local array's declared length.
    let mut f = base.cfunc.clone();
    f.body.push(Stmt::DeclArr {
        name: "lint_small".into(),
        ty: CType::Int(32),
        len: 4,
    });
    f.body.push(Stmt::Decl {
        name: "lint_tmp2".into(),
        ty: CType::Int(32),
        init: Some(Expr::index("lint_small", Expr::ConstI(9))),
    });
    assert!(has(&f, codes::OOB_INDEX.code), "expected E102");

    // E103: two loops claiming the same id.
    let mut f = base.cfunc.clone();
    f.body.push(Stmt::counted_for(LoopId(77), "li", 4, vec![]));
    f.body.push(Stmt::counted_for(LoopId(77), "lj", 4, vec![]));
    assert!(has(&f, codes::DUP_LOOP_ID.code), "expected E103");

    // E104: store into a read-only input buffer.
    let mut f = base.cfunc.clone();
    let input = f
        .params
        .iter()
        .find(|p| p.kind == s2fa_hlsir::ParamKind::BufIn)
        .expect("kmeans has input buffers")
        .name
        .clone();
    f.body.push(Stmt::Assign {
        lhs: LValue::Index(input, Box::new(Expr::ConstI(0))),
        rhs: Expr::ConstI(0),
    });
    assert!(has(&f, codes::WRITE_TO_INPUT.code), "expected E104");

    // W111: a zero-trip loop is reported, but only as a warning.
    let mut f = base.cfunc.clone();
    f.body.push(Stmt::counted_for(LoopId(78), "lk", 0, vec![]));
    let report = verify_function(&f);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code.code == codes::DEAD_LOOP.code),
        "expected W111"
    );
    assert!(!report.has_errors(), "a dead loop is not an error");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Satellite (b): for *arbitrary* decoded configs, the structural
    // applier and the verifier never panic, the rewrite never introduces
    // errors, and the legality oracle always returns a verdict.
    #[test]
    fn arbitrary_configs_never_panic(
        which in 0usize..8,
        raw in proptest::collection::vec(any::<u32>(), 0..16),
    ) {
        let fx = &fixtures()[which];
        let cfg = raw_to_config(fx, &raw);
        let mut norm = cfg.clone();
        norm.normalize(&fx.summary);
        let (optimized, _) = apply_structural(&fx.cfunc, &norm);
        let post = verify_function(&optimized);
        prop_assert!(new_errors(&fx.baseline, &post).is_empty());

        let est = Estimator::new();
        let oracle = Legality::new(&fx.summary, &est);
        let _ = oracle.check(&cfg);
        let hit = oracle.prescreen(&cfg);
        prop_assert_eq!(hit.is_some(), !est.evaluate(&fx.summary, &cfg).is_feasible());
    }
}
