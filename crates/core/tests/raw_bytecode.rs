//! The decompiler consumes *bytecode*, not the builder: these tests
//! hand-assemble canonical `javac`-shaped instruction sequences (never
//! touching the builder DSL) and compile them, backing the paper's claim
//! that "the S2FA framework is able to compile any Java/Scala method that
//! satisfies the constraints" (§2).

use s2fa::{compile_kernel, S2fa, S2faError, S2faOptions};
use s2fa_blaze::Accelerator;
use s2fa_lint::dataflow_checks;
use s2fa_sjvm::{
    ClassTable, Cond, HostValue, Interp, JType, KernelSpec, Method, MethodTable, NumKind, Op,
    RddOp, Shape,
};

fn spec_from(method: Method, input_shape: Shape, output_shape: Shape) -> KernelSpec {
    let classes = ClassTable::new();
    let mut methods = MethodTable::new();
    let entry = methods.add(method);
    KernelSpec {
        name: "raw".into(),
        classes,
        methods,
        entry,
        operator: RddOp::Map,
        input_shape,
        output_shape,
    }
}

fn check_equivalent(spec: &KernelSpec, records: &[HostValue]) {
    let generated = compile_kernel(spec).expect("raw bytecode compiles");
    let accel = Accelerator {
        id: "raw".into(),
        kernel: generated.cfunc.clone(),
        operator: RddOp::Map,
        input_layout: generated.input_layout.clone(),
        output_layout: generated.output_layout.clone(),
        time_model: None,
    };
    let (hw, _) = accel.run_batch(records).expect("runs");
    let mut interp = Interp::new(&spec.classes, &spec.methods);
    for (i, rec) in records.iter().enumerate() {
        let (jvm, _) = interp
            .run(spec.entry, std::slice::from_ref(rec))
            .expect("interprets");
        assert_eq!(jvm, hw[i], "record {i}");
    }
}

/// `int call(int x) { int s = 0; int i = 0;
///                    while (i < bound) { s = s + x; i = i + 1; } return s; }`
/// assembled exactly as javac would emit it.
fn counted_loop_method(bound: i64) -> Method {
    Method {
        name: "call".into(),
        params: vec![JType::Int],
        ret: Some(JType::Int),
        n_locals: 3,
        local_names: vec!["x".into(), "s".into(), "i".into()],
        local_types: vec![JType::Int, JType::Int, JType::Int],
        code: vec![
            Op::ConstI(0),
            Op::Store(1), // s = 0
            Op::ConstI(0),
            Op::Store(2), // i = 0
            // loop head (pc 4)
            Op::Load(2),
            Op::ConstI(bound),
            Op::IfCmp {
                kind: NumKind::Int,
                cond: Cond::Ge,
                target: 16,
            },
            Op::Load(1),
            Op::Load(0),
            Op::Add(NumKind::Int),
            Op::Store(1), // s += x
            Op::Load(2),
            Op::ConstI(1),
            Op::Add(NumKind::Int),
            Op::Store(2), // i += 1
            Op::Goto(4),
            // loop exit (pc 16)
            Op::Load(1),
            Op::Return,
        ],
    }
}

#[test]
fn hand_assembled_loop_compiles() {
    let spec = spec_from(
        counted_loop_method(10),
        Shape::Scalar(JType::Int),
        Shape::Scalar(JType::Int),
    );
    check_equivalent(&spec, &[HostValue::I(3), HostValue::I(-2), HostValue::I(0)]);
    // the generated C recovered the counted loop
    let g = compile_kernel(&spec).unwrap();
    let src = s2fa_hlsir::printer::to_c(&g.cfunc);
    assert!(src.contains("< 10;"), "{src}");
}

#[test]
fn negative_loop_bound_compiles_to_a_zero_trip_loop() {
    // `while (i < -1)` never runs. The loop's static trip count is 0, not
    // the bound's two's-complement reinterpretation, and the full flow
    // (space identification and DSE) terminates on it.
    let spec = spec_from(
        counted_loop_method(-1),
        Shape::Scalar(JType::Int),
        Shape::Scalar(JType::Int),
    );
    check_equivalent(&spec, &[HostValue::I(3), HostValue::I(-2)]);
    let mut options = S2faOptions::default();
    options.dse.budget_minutes = 60.0;
    let compiled = S2fa::new(options).compile(&spec).expect("compiles");
    let inner = compiled
        .summary
        .loops
        .iter()
        .find(|l| l.parent.is_some())
        .expect("the while loop is an inner loop");
    assert_eq!(inner.trip_count, 0);
}

#[test]
fn hand_assembled_branch_compiles() {
    // int call(int x) { int y; if (x < 0) y = -x; else y = x; return y; }
    let method = Method {
        name: "call".into(),
        params: vec![JType::Int],
        ret: Some(JType::Int),
        n_locals: 2,
        local_names: vec!["x".into(), "y".into()],
        local_types: vec![JType::Int, JType::Int],
        code: vec![
            Op::Load(0),
            Op::ConstI(0),
            Op::IfCmp {
                kind: NumKind::Int,
                cond: Cond::Ge,
                target: 7,
            },
            Op::Load(0),
            Op::Neg(NumKind::Int),
            Op::Store(1),
            Op::Goto(9),
            Op::Load(0),
            Op::Store(1),
            Op::Load(1),
            Op::Return,
        ],
    };
    let spec = spec_from(method, Shape::Scalar(JType::Int), Shape::Scalar(JType::Int));
    check_equivalent(&spec, &[HostValue::I(-9), HostValue::I(9), HostValue::I(0)]);
}

#[test]
fn irreducible_control_flow_is_rejected() {
    // A jump into the middle of a "loop" (overlapping regions): verifies,
    // but is outside the canonical subset — the decompiler must reject it
    // rather than mistranslate.
    let method = Method {
        name: "call".into(),
        params: vec![JType::Int],
        ret: Some(JType::Int),
        n_locals: 1,
        local_names: vec!["x".into()],
        local_types: vec![JType::Int],
        code: vec![
            Op::Load(0),
            Op::IfZero {
                cond: Cond::Eq,
                target: 4,
            },
            Op::ConstI(1),
            Op::Return,
            // a bare backward goto forms a non-canonical shape
            Op::Load(0),
            Op::IfZero {
                cond: Cond::Ne,
                target: 2,
            },
            Op::ConstI(0),
            Op::Return,
        ],
    };
    // Bytecode verifies (stack-consistent) ...
    let spec = spec_from(method, Shape::Scalar(JType::Int), Shape::Scalar(JType::Int));
    spec.verify().expect("bytecode is stack-consistent");
    // ... but the structural decompiler refuses it.
    let err = compile_kernel(&spec).unwrap_err();
    assert!(matches!(err, S2faError::Unsupported(_)), "{err}");
}

#[test]
fn stack_juggling_with_dup_and_pop_compiles() {
    // return (x * x) — computed via dup, plus a dead value popped.
    let method = Method {
        name: "call".into(),
        params: vec![JType::Int],
        ret: Some(JType::Int),
        n_locals: 1,
        local_names: vec!["x".into()],
        local_types: vec![JType::Int],
        code: vec![
            Op::ConstI(99), // dead value
            Op::Pop,
            Op::Load(0),
            Op::Dup,
            Op::Mul(NumKind::Int),
            Op::Return,
        ],
    };
    let spec = spec_from(method, Shape::Scalar(JType::Int), Shape::Scalar(JType::Int));
    check_equivalent(&spec, &[HostValue::I(7), HostValue::I(-3)]);
}

#[test]
fn unfilled_new_array_read_is_e301() {
    // int call(int x) { int[] a = new int[4]; return a[1] + x; }
    // The JVM zero-fills `new[]`; the generated C declares the array with
    // no initializer, so the dataflow lint must flag the read of a[1].
    let method = Method {
        name: "call".into(),
        params: vec![JType::Int],
        ret: Some(JType::Int),
        n_locals: 2,
        local_names: vec!["x".into(), "a".into()],
        local_types: vec![JType::Int, JType::Array(Box::new(JType::Int))],
        code: vec![
            Op::NewArray {
                elem: JType::Int,
                len: 4,
            },
            Op::Store(1),
            Op::Load(1),
            Op::ConstI(1),
            Op::ALoad,
            Op::Load(0),
            Op::Add(NumKind::Int),
            Op::Return,
        ],
    };
    let spec = spec_from(method, Shape::Scalar(JType::Int), Shape::Scalar(JType::Int));
    let g = compile_kernel(&spec).expect("compiles");
    let report = dataflow_checks(&g.cfunc, 64);
    assert!(
        report.diagnostics.iter().any(|d| d.code.code == "S2FA-E301"
            && d.span
                .subject
                .as_deref()
                .is_some_and(|s| s.ends_with("[1]"))),
        "{}\n{}",
        report.render(),
        s2fa_hlsir::printer::to_c(&g.cfunc)
    );
}
