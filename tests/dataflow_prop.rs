//! Dynamic-oracle validation of the dataflow lint rules and the affine
//! dependence test, per the contract in `lint::dataflow_rules`:
//!
//! 1. **E301 is never a false error**: every uninitialized read the rule
//!    flags on a randomly generated kernel is *observed* when the kernel
//!    runs under the IR interpreter (`Executor::run_observed`).
//! 2. **E303 is never a false error**: a write-race the detector proves
//!    on a random affine kernel corresponds to two distinct iterations
//!    that really do write the same element (checked by brute force over
//!    the iteration domain), and loops the detector *clears*
//!    (`replication_safe`) produce bit-identical outputs under permuted
//!    iteration orders (`Executor::with_iteration_order`).
//! 3. **The dependence verdict matches execution**: `Tri::Proven`
//!    overlaps exist in the concrete iteration space and `Tri::Disproven`
//!    overlaps do not, for random affine access pairs.
//! 4. The paper's eight workloads carry zero dataflow *defects*
//!    (E301/E302), and no structural transform the DSE can request
//!    introduces a new `E3xx` finding (satellite differential).
//! 5. The kernel index and the summary agree on the loop table, and every
//!    access site's loop path is a chain of the index's loops, on every
//!    random kernel above and on the workloads before and after their
//!    expert transforms.
//! 6. The errors-only dataflow report equals the error subset of the full
//!    one, diagnostic for diagnostic, on the same kernels; and the lazy
//!    differential check (`transform_new_errors`) finds exactly what the
//!    eager two-report diff finds.
//! 7. `Executor::run` and `Executor::run_observed` agree, result and
//!    buffers, under order overrides and statement budgets.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa::compile_kernel;
use s2fa_dse::DesignSpace;
use s2fa_hlsir::dataflow::{cross_iteration_overlap, find_write_race, replication_safe, Tri};
use s2fa_hlsir::index::KernelIndex;
use s2fa_hlsir::{
    analysis, CFunction, CType, CVal, Executor, Expr, HlsirError, LValue, LoopId, Observed, Param,
    ParamKind, Stmt,
};
use s2fa_lint::{
    dataflow_checks, dataflow_errors, new_dataflow_errors, new_errors, transform_new_errors,
    verify_function,
};
use s2fa_merlin::{apply_structural, DesignConfig};
use s2fa_workloads::all_workloads;
use std::collections::BTreeMap;

const HINT: u32 = 64;

/// Wraps a body into a minimal kernel over one 8-element record.
fn kernel(body: Vec<Stmt>) -> CFunction {
    CFunction {
        name: "prop_kernel".into(),
        params: vec![
            Param {
                name: "n".into(),
                ty: CType::Int(32),
                kind: ParamKind::ScalarIn,
                elems_per_task: None,
                broadcast: false,
            },
            Param {
                name: "in_1".into(),
                ty: CType::Int(32),
                kind: ParamKind::BufIn,
                elems_per_task: Some(8),
                broadcast: false,
            },
            Param {
                name: "out_1".into(),
                ty: CType::Int(32),
                kind: ParamKind::BufOut,
                elems_per_task: Some(8),
                broadcast: false,
            },
        ],
        body,
    }
}

/// Runs `f` over a fixed input record, returning the observations and the
/// output buffer. `orders` overrides iteration orders per loop.
fn run(f: &CFunction, orders: &[(LoopId, Vec<i64>)]) -> (Observed, Vec<CVal>) {
    let mut exec = Executor::new(f);
    for (id, order) in orders {
        exec = exec.with_iteration_order(*id, order.clone());
    }
    let scalars = BTreeMap::from([("n".to_string(), CVal::I(1))]);
    let mut buffers = BTreeMap::from([
        (
            "in_1".to_string(),
            (0..8).map(|i| CVal::I(i * 3 + 1)).collect::<Vec<_>>(),
        ),
        ("out_1".to_string(), vec![CVal::I(0); 8]),
    ]);
    let obs = exec
        .run_observed(&scalars, &mut buffers)
        .expect("generated kernel executes");
    (obs, buffers.remove("out_1").expect("output bound"))
}

/// Runs `f` over the fixed input record through `run` or, when
/// `observe` is set, `run_observed`, with the given order overrides and
/// statement budget (`None` keeps the default). Returns the result
/// without its observations, and every buffer afterwards.
fn run_to_outcome(
    f: &CFunction,
    orders: &[(LoopId, Vec<i64>)],
    fuel: Option<u64>,
    observe: bool,
) -> (Result<(), HlsirError>, BTreeMap<String, Vec<CVal>>) {
    let mut exec = Executor::new(f);
    for (id, order) in orders {
        exec = exec.with_iteration_order(*id, order.clone());
    }
    if let Some(fuel) = fuel {
        exec = exec.with_fuel(fuel);
    }
    let scalars = BTreeMap::from([("n".to_string(), CVal::I(1))]);
    let mut buffers = BTreeMap::from([
        (
            "in_1".to_string(),
            (0..8).map(|i| CVal::I(i * 3 + 1)).collect::<Vec<_>>(),
        ),
        ("out_1".to_string(), vec![CVal::I(0); 8]),
    ]);
    let result = if observe {
        exec.run_observed(&scalars, &mut buffers).map(drop)
    } else {
        exec.run(&scalars, &mut buffers)
    };
    (result, buffers)
}

/// Whether the observations contain the read a diagnostic subject names:
/// `x` is a scalar, `a[3]` an element, `a[*]` any element of `a`.
fn observed_has(obs: &Observed, subject: &str) -> bool {
    match subject.split_once('[') {
        Some((arr, rest)) => {
            let idx = rest.trim_end_matches(']');
            if idx == "*" {
                obs.uninit_reads.iter().any(|(n, _)| n == arr)
            } else {
                let k: i64 = idx.parse().expect("element subject");
                obs.uninit_reads.contains(&(arr.to_string(), Some(k)))
            }
        }
        None => obs.uninit_reads.contains(&(subject.to_string(), None)),
    }
}

/// Asserts that the index and the summary describe `f` alike: every
/// access site's loop path is a parent chain of the index's loops with
/// their trips, and the summary's loop table is the index's with the
/// task-loop hint applied.
fn assert_views_agree(f: &CFunction, hint: u32) {
    let index = KernelIndex::build(f);
    for site in &index.sites {
        let mut parent = None;
        for fr in &site.loops {
            let l = index
                .loops
                .iter()
                .find(|l| l.id == fr.id)
                .expect("an enclosing loop is indexed");
            assert_eq!(
                (l.parent, l.var, l.trip),
                (parent, fr.var, fr.trip),
                "{}: `{}` at s{}",
                f.name,
                site.array,
                site.stmt
            );
            assert!(l.stmt < site.stmt, "{}: {}", f.name, l.id);
            parent = Some(fr.id);
        }
    }
    let summary = analysis::summarize(f, hint).expect("kernel analyzes");
    let from_summary: Vec<_> = summary
        .loops
        .iter()
        .map(|l| (l.id, l.parent, l.depth, l.trip_count))
        .collect();
    let from_index: Vec<_> = index
        .loops
        .iter()
        .map(|l| (l.id, l.parent, l.depth, l.trip.unwrap_or(hint)))
        .collect();
    assert_eq!(from_summary, from_index, "{}", f.name);
}

/// The uninitialized-read family: a scalar `x` declared with or without
/// an initializer, a local array `a[2]` whose first element may be
/// written, and a loop reading `in_1[j + shift]` plus any of `x`, `a[0]`
/// and `a[1]` into `out_1[j]`. A `shift` above 4 reads past `in_1`.
fn uninit_kernel(
    init_x: bool,
    write_a0: bool,
    read_x: bool,
    read_a0: bool,
    read_a1: bool,
    shift: i64,
) -> CFunction {
    let mut body = vec![
        Stmt::Decl {
            name: "x".into(),
            ty: CType::Int(32),
            init: init_x.then_some(Expr::ConstI(7)),
        },
        Stmt::Decl {
            name: "y".into(),
            ty: CType::Int(32),
            init: Some(Expr::ConstI(0)),
        },
        Stmt::DeclArr {
            name: "a".into(),
            ty: CType::Int(32),
            len: 2,
        },
    ];
    if write_a0 {
        body.push(Stmt::Assign {
            lhs: LValue::Index("a".into(), Box::new(Expr::ConstI(0))),
            rhs: Expr::index("in_1", Expr::ConstI(0)),
        });
    }
    let read = match shift {
        0 => Expr::var("j"),
        _ => Expr::iadd(Expr::var("j"), Expr::ConstI(shift)),
    };
    let mut rhs = Expr::iadd(Expr::var("y"), Expr::index("in_1", read));
    if read_x {
        rhs = Expr::iadd(rhs, Expr::var("x"));
    }
    if read_a0 {
        rhs = Expr::iadd(rhs, Expr::index("a", Expr::ConstI(0)));
    }
    if read_a1 {
        rhs = Expr::iadd(rhs, Expr::index("a", Expr::ConstI(1)));
    }
    body.push(Stmt::counted_for(
        LoopId(1),
        "j",
        4,
        vec![Stmt::Assign {
            lhs: LValue::Index("out_1".into(), Box::new(Expr::var("j"))),
            rhs,
        }],
    ));
    kernel(body)
}

/// The write-race family: `a[i] = in_1[i]` over 8 iterations (loop 10),
/// then loop 11 writing `a[c*j + o]` for `j < t`, then `out_1[i] = a[i]`
/// (loop 12). Returns the kernel and loop 11's body.
fn race_kernel(c: i64, o: i64, t: u32, varying: bool) -> (CFunction, Vec<Stmt>) {
    let idx = Expr::iadd(Expr::imul(Expr::ConstI(c), Expr::var("j")), Expr::ConstI(o));
    let rhs = if varying {
        Expr::iadd(Expr::index("in_1", Expr::var("j")), Expr::var("j"))
    } else {
        Expr::ConstI(5)
    };
    let l1_body = vec![Stmt::Assign {
        lhs: LValue::Index("a".into(), Box::new(idx)),
        rhs,
    }];
    let body = vec![
        Stmt::DeclArr {
            name: "a".into(),
            ty: CType::Int(32),
            len: 8,
        },
        Stmt::counted_for(
            LoopId(10),
            "i",
            8,
            vec![Stmt::Assign {
                lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                rhs: Expr::index("in_1", Expr::var("i")),
            }],
        ),
        Stmt::counted_for(LoopId(11), "j", t, l1_body.clone()),
        Stmt::counted_for(
            LoopId(12),
            "i",
            8,
            vec![Stmt::Assign {
                lhs: LValue::Index("out_1".into(), Box::new(Expr::var("i"))),
                rhs: Expr::index("a", Expr::var("i")),
            }],
        ),
    ];
    (kernel(body), l1_body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Property 1: every E301 the rule reports on a random kernel is a
    // read the interpreter observes hitting never-written storage.
    #[test]
    fn flagged_uninit_reads_manifest_under_interpretation(
        init_x in any::<bool>(),
        write_a0 in any::<bool>(),
        read_x in any::<bool>(),
        read_a0 in any::<bool>(),
        read_a1 in any::<bool>(),
    ) {
        let f = uninit_kernel(init_x, write_a0, read_x, read_a0, read_a1, 0);
        assert_views_agree(&f, HINT);
        assert_errors_only_agrees(&f, HINT);

        let report = dataflow_checks(&f, HINT);
        let flagged: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.code == "S2FA-E301")
            .map(|d| d.span.subject.as_deref().expect("E301 names its variable"))
            .collect();

        // Non-vacuity: an unconditionally-read, never-written scalar is
        // exactly the rule's domain.
        if read_x && !init_x {
            prop_assert!(flagged.contains(&"x"), "missing E301 on `x`: {}", report.render());
        }

        let (obs, _) = run(&f, &[]);
        for subject in flagged {
            prop_assert!(
                observed_has(&obs, subject),
                "E301 on `{subject}` did not manifest dynamically; observed {:?}",
                obs.uninit_reads
            );
        }
    }

    // Property 2: a proven write-race really is two iterations writing
    // one element (brute force over the affine index), and a cleared
    // loop's outputs are identical under permuted iteration orders.
    #[test]
    fn race_verdicts_match_interleaved_execution(
        c in 0i64..=2,
        o in 0i64..=1,
        t in 2u32..=3,
        varying in any::<bool>(),
    ) {
        let (f, l1_body) = race_kernel(c, o, t, varying);
        assert_views_agree(&f, HINT);
        assert_errors_only_agrees(&f, HINT);
        let sites = KernelIndex::build(&f).sites;

        // A zero-coefficient index writes one element every iteration:
        // the detector must prove the race, and must prove one *only*
        // when the index really repeats (c == 0 here).
        let race = find_write_race(&sites, &l1_body, LoopId(11), HINT);
        prop_assert_eq!(
            race.is_some(),
            c == 0,
            "race verdict {:?} vs ground truth (c = {})",
            race,
            c
        );

        if replication_safe(&sites, &l1_body, LoopId(11), HINT) {
            let natural: Vec<i64> = (0..t as i64).collect();
            let mut reversed = natural.clone();
            reversed.reverse();
            let mut rotated = natural.clone();
            rotated.rotate_left(1);
            let (_, base) = run(&f, &[(LoopId(11), natural)]);
            for order in [reversed, rotated] {
                let (_, permuted) = run(&f, &[(LoopId(11), order.clone())]);
                prop_assert_eq!(
                    &base,
                    &permuted,
                    "cleared loop diverged under order {:?}",
                    order
                );
            }
        }
    }

    // Property 3: the affine dependence verdict matches the concrete
    // iteration space. Proven => some pair of distinct iterations
    // collides; Disproven => none does. (Unknown is unconstrained.)
    #[test]
    fn dependence_verdicts_match_brute_force(
        c1 in -2i64..=2,
        c2 in -2i64..=2,
        o1 in 0i64..=6,
        o2 in 0i64..=6,
        t in 1u32..=6,
    ) {
        let l1_body = vec![
            Stmt::Assign {
                lhs: LValue::Index(
                    "a".into(),
                    Box::new(Expr::iadd(
                        Expr::imul(Expr::ConstI(c1), Expr::var("j")),
                        Expr::ConstI(o1),
                    )),
                ),
                rhs: Expr::index("in_1", Expr::ConstI(0)),
            },
            Stmt::Assign {
                lhs: LValue::Index("out_1".into(), Box::new(Expr::var("j"))),
                rhs: Expr::index(
                    "a",
                    Expr::iadd(Expr::imul(Expr::ConstI(c2), Expr::var("j")), Expr::ConstI(o2)),
                ),
            },
        ];
        let body = vec![
            Stmt::DeclArr { name: "a".into(), ty: CType::Int(32), len: 16 },
            Stmt::counted_for(LoopId(20), "j", t, l1_body),
        ];
        let f = kernel(body);
        assert_views_agree(&f, HINT);
        assert_errors_only_agrees(&f, HINT);
        let sites = KernelIndex::build(&f).sites;
        let write = sites
            .iter()
            .find(|s| s.array == "a" && s.write)
            .expect("write site collected");
        let read = sites
            .iter()
            .find(|s| s.array == "a" && !s.write)
            .expect("read site collected");

        let verdict = cross_iteration_overlap(write, read, LoopId(20), HINT);
        let truth = (0..t as i64).any(|j1| {
            (0..t as i64).any(|j2| j1 != j2 && c1 * j1 + o1 == c2 * j2 + o2)
        });
        match verdict {
            Tri::Proven => prop_assert!(
                truth,
                "proved a dependence that does not exist: c1={c1} o1={o1} c2={c2} o2={o2} t={t}"
            ),
            Tri::Disproven => prop_assert!(
                !truth,
                "disproved a real dependence: c1={c1} o1={o1} c2={c2} o2={o2} t={t}"
            ),
            Tri::Unknown => {}
        }
    }

    // Property 7: `run` and `run_observed` are one evaluator. On both
    // kernel families above, with no order override, the natural order
    // and the reversed order, and under a random statement budget as
    // well as the default one, they return the same result (error text
    // included) and leave identical buffers.
    #[test]
    fn run_and_run_observed_agree(
        (init_x, write_a0, read_x, read_a0, read_a1) in
            (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        shift in 0i64..=6,
        (c, o, t, varying) in (0i64..=2, 0i64..=1, 2u32..=3, any::<bool>()),
        fuel in 0u64..=48,
    ) {
        let mut uninit = uninit_kernel(init_x, write_a0, read_x, read_a0, read_a1, shift);
        uninit.name = "uninit".into();
        let (race, _) = race_kernel(c, o, t, varying);
        let families = [
            (uninit, vec![(LoopId(1), 4)]),
            (race, vec![(LoopId(10), 8), (LoopId(11), t as i64), (LoopId(12), 8)]),
        ];
        for (f, loops) in &families {
            let natural: Vec<_> = loops
                .iter()
                .map(|&(id, n)| (id, (0..n).collect::<Vec<i64>>()))
                .collect();
            let reversed: Vec<_> = loops
                .iter()
                .map(|&(id, n)| (id, (0..n).rev().collect::<Vec<i64>>()))
                .collect();
            for orders in [vec![], natural, reversed] {
                for fuel in [Some(fuel), None] {
                    let plain = run_to_outcome(f, &orders, fuel, false);
                    let observed = run_to_outcome(f, &orders, fuel, true);
                    // Non-vacuity: the reads past `in_1` really fault.
                    if fuel.is_none() && f.name == "uninit" {
                        prop_assert_eq!(plain.0.is_err(), shift > 4);
                    }
                    prop_assert_eq!(
                        &plain,
                        &observed,
                        "{:?} under orders {:?}, fuel {:?}",
                        f.body,
                        orders,
                        fuel
                    );
                }
            }
        }
    }
}

/// Seeded true-positive corpus: each rule fires on its canonical kernel
/// and the dynamic oracle confirms the defect.
#[test]
fn corpus_defects_are_dynamically_real() {
    // E301: unconditional read of a never-initialized scalar.
    let f = kernel(vec![
        Stmt::Decl {
            name: "x".into(),
            ty: CType::Int(32),
            init: None,
        },
        Stmt::Assign {
            lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
            rhs: Expr::var("x"),
        },
    ]);
    let report = dataflow_checks(&f, HINT);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code.code == "S2FA-E301"),
        "{}",
        report.render()
    );
    let (obs, _) = run(&f, &[]);
    assert!(obs.uninit_reads.contains(&("x".to_string(), None)));

    // E302: affine index provably past the declared length — and the
    // interpreter faults on the same access.
    let f = kernel(vec![
        Stmt::DeclArr {
            name: "a".into(),
            ty: CType::Int(32),
            len: 4,
        },
        Stmt::counted_for(
            LoopId(1),
            "j",
            6,
            vec![Stmt::Assign {
                lhs: LValue::Index("a".into(), Box::new(Expr::var("j"))),
                rhs: Expr::ConstI(1),
            }],
        ),
    ]);
    let report = dataflow_checks(&f, HINT);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code.code == "S2FA-E302"),
        "{}",
        report.render()
    );
    let scalars = BTreeMap::from([("n".to_string(), CVal::I(1))]);
    let mut buffers = BTreeMap::from([
        ("in_1".to_string(), vec![CVal::I(0); 8]),
        ("out_1".to_string(), vec![CVal::I(0); 8]),
    ]);
    assert!(
        Executor::new(&f).run(&scalars, &mut buffers).is_err(),
        "the flagged out-of-bounds store must fault dynamically"
    );

    // E303: every iteration overwrites `a[0]` with a different value —
    // two iteration orders really produce different results.
    let l1_body = vec![Stmt::Assign {
        lhs: LValue::Index("a".into(), Box::new(Expr::ConstI(0))),
        rhs: Expr::var("j"),
    }];
    let f = kernel(vec![
        Stmt::DeclArr {
            name: "a".into(),
            ty: CType::Int(32),
            len: 2,
        },
        Stmt::Assign {
            lhs: LValue::Index("a".into(), Box::new(Expr::ConstI(1))),
            rhs: Expr::ConstI(0),
        },
        Stmt::counted_for(LoopId(11), "j", 4, l1_body.clone()),
        Stmt::Assign {
            lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
            rhs: Expr::index("a", Expr::ConstI(0)),
        },
    ]);
    let report = dataflow_checks(&f, HINT);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code.code == "S2FA-E303"),
        "{}",
        report.render()
    );
    let sites = KernelIndex::build(&f).sites;
    assert!(find_write_race(&sites, &l1_body, LoopId(11), HINT).is_some());
    let (_, fwd) = run(&f, &[(LoopId(11), vec![0, 1, 2, 3])]);
    let (_, rev) = run(&f, &[(LoopId(11), vec![3, 2, 1, 0])]);
    assert_ne!(fwd, rev, "the raced element must be order-sensitive");

    // W310: an overwritten store with no intervening read.
    let f = kernel(vec![
        Stmt::Decl {
            name: "x".into(),
            ty: CType::Int(32),
            init: None,
        },
        Stmt::Assign {
            lhs: LValue::Var("x".into()),
            rhs: Expr::ConstI(5),
        },
        Stmt::Assign {
            lhs: LValue::Var("x".into()),
            rhs: Expr::ConstI(6),
        },
        Stmt::Assign {
            lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
            rhs: Expr::var("x"),
        },
    ]);
    let report = dataflow_checks(&f, HINT);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code.code == "S2FA-W310"),
        "{}",
        report.render()
    );
}

/// The paper's eight workloads are free of dataflow *defects*: no
/// provably uninitialized read (E301) and no provably out-of-bounds
/// index (E302) anywhere. E303 replication races are legality facts
/// about the search space (AES's round loop and S-W's wavefront loop
/// genuinely carry them) and are allowed.
#[test]
fn workloads_have_zero_dataflow_defects() {
    for w in all_workloads() {
        let g = compile_kernel(&w.spec).expect(w.name);
        let report = dataflow_checks(&g.cfunc, 1024);
        let defects: Vec<_> = report
            .errors()
            .filter(|d| d.code.code != "S2FA-E303")
            .collect();
        assert!(
            defects.is_empty(),
            "{}: dataflow defects {:?}",
            w.name,
            defects
        );
    }
}

/// Satellite differential: no structural transform the DSE can request
/// introduces a new `E3xx` finding on any workload — for the seeds and
/// for random decoded design points alike.
#[test]
fn transforms_never_introduce_dataflow_errors() {
    for w in all_workloads() {
        let g = compile_kernel(&w.spec).expect(w.name);
        let summary = analysis::summarize(&g.cfunc, 1024).expect(w.name);
        let ds = DesignSpace::build(&summary);
        let baseline = dataflow_checks(&g.cfunc, 1024);
        let mut rng = SmallRng::seed_from_u64(0xDF10);
        let mut configs = vec![
            DesignConfig::perf_seed(&summary),
            DesignConfig::area_seed(&summary),
        ];
        for _ in 0..6 {
            configs.push(ds.decode(&ds.space().random(&mut rng)));
        }
        for cfg in configs {
            let mut norm = cfg.clone();
            norm.normalize(&summary);
            let (optimized, _) = apply_structural(&g.cfunc, &norm);
            let fresh = new_dataflow_errors(&baseline, &dataflow_checks(&optimized, 1024));
            assert!(
                fresh.is_empty(),
                "{}: transform of {:?} introduced {:?}",
                w.name,
                norm,
                fresh
            );
        }
    }
}
/// Asserts that [`dataflow_errors`] is exactly the error subset of
/// [`dataflow_checks`], in the same order.
fn assert_errors_only_agrees(f: &CFunction, hint: u32) {
    let full = dataflow_checks(f, hint);
    let errors = dataflow_errors(f, hint);
    assert_eq!(errors.subject, full.subject);
    let expected: Vec<_> = full.errors().cloned().collect();
    assert_eq!(errors.diagnostics, expected, "{}", f.name);
}

/// The errors-only report agrees with the full one on every workload's
/// pre-image and its post-images at the expert design and at both seeds,
/// and the lazy differential check finds exactly what diffing both images'
/// full reports finds.
#[test]
fn errors_only_report_and_lazy_diff_agree_on_workloads() {
    for w in all_workloads() {
        let expert = compile_kernel(&w.manual_spec).expect(w.name);
        let generated = compile_kernel(&w.spec).expect(w.name);
        let expert_summary = analysis::summarize(&expert.cfunc, 1024).expect(w.name);
        let summary = analysis::summarize(&generated.cfunc, 1024).expect(w.name);
        let cases = [
            (
                &expert.cfunc,
                (w.manual_config)(&expert_summary),
                &expert_summary,
            ),
            (
                &generated.cfunc,
                DesignConfig::perf_seed(&summary),
                &summary,
            ),
            (
                &generated.cfunc,
                DesignConfig::area_seed(&summary),
                &summary,
            ),
        ];
        for (pre, mut design, summary) in cases {
            design.normalize(summary);
            let (post, _) = apply_structural(pre, &design);
            assert_errors_only_agrees(pre, 1024);
            assert_errors_only_agrees(&post, 1024);
            let wellformed = verify_function(pre);
            let mut eager = new_errors(&wellformed, &verify_function(&post));
            eager.extend(new_dataflow_errors(
                &dataflow_checks(pre, 1024),
                &dataflow_checks(&post, 1024),
            ));
            let lazy =
                transform_new_errors(&wellformed, || dataflow_errors(pre, 1024), &post, 1024);
            assert_eq!(lazy, eager, "{}", w.name);
        }
    }
}

/// The index and the summary agree on every workload's expert kernel,
/// before and after the expert design's structural transforms.
#[test]
fn index_and_summary_agree_on_workloads() {
    for w in all_workloads() {
        let g = compile_kernel(&w.manual_spec).expect(w.name);
        assert_views_agree(&g.cfunc, 1024);
        let summary = analysis::summarize(&g.cfunc, 1024).expect(w.name);
        let mut design = (w.manual_config)(&summary);
        design.normalize(&summary);
        let (optimized, _) = apply_structural(&g.cfunc, &design);
        assert_views_agree(&optimized, 1024);
    }
}
