//! One digest over everything `Interp::run` returns: outputs, `ExecStats`
//! (`instructions`, the bits of `ns`, `allocations`, `max_call_depth`)
//! and fault texts.
//!
//! It covers the 8 workloads' seeded records through both `spec` and
//! `manual_spec`, a seeded corpus of random typed expression kernels
//! (branches, loops, temporaries and static calls included), one
//! hand-assembled kernel per `Op` variant over edge-case operands (shift
//! counts past 31 and 63, NaN and infinite casts and compares, `Rem` and
//! `Neg` on every kind), and the runtime faults of bytecode that still
//! verifies: division and remainder by zero, out-of-bounds indices, null
//! dereferences, type confusion, fuel and call-depth overflow. A change
//! to the interpreter's semantics or its cost accounting moves the
//! digest; a change that keeps them all does not.

use s2fa_sjvm::{
    ClassId, ClassTable, Cond, FieldDef, HostValue, Interp, JType, MathFn, Method, MethodId,
    MethodTable, NumKind, Op,
};
use s2fa_workloads::all_workloads;

/// Number of generated expression kernels.
const KERNELS: u64 = 2_000;

/// FNV-1a over every run's outcome, computed on the `Op`-walking
/// interpreter; it must not move.
const DIGEST: u64 = 0xc4cb_b0ef_8cea_8838;

/// SplitMix64: a small, portable, seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// FNV-1a, fed field by field, with a count of the runs that returned
/// and those that faulted.
struct Digest {
    hash: u64,
    ok: u64,
    faults: u64,
}

impl Digest {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn host(&mut self, v: &HostValue) {
        match v {
            HostValue::I(x) => {
                self.bytes(b"I");
                self.u64(*x as u64);
            }
            // Rust leaves the sign and payload of a NaN result unspecified:
            // they follow operand order, which the optimizer may swap. So
            // every NaN folds as one value.
            HostValue::F(x) if x.is_nan() => self.bytes(b"NaN"),
            HostValue::F(x) => {
                self.bytes(b"F");
                self.u64(x.to_bits());
            }
            HostValue::Arr(xs) | HostValue::Tuple(xs) => {
                self.bytes(if matches!(v, HostValue::Arr(_)) {
                    b"A"
                } else {
                    b"T"
                });
                self.u64(xs.len() as u64);
                xs.iter().for_each(|x| self.host(x));
            }
            HostValue::Obj(name, xs) => {
                self.bytes(b"O");
                self.bytes(name.as_bytes());
                self.u64(xs.len() as u64);
                xs.iter().for_each(|x| self.host(x));
            }
            HostValue::Str(s) => {
                self.bytes(b"S");
                self.bytes(s.as_bytes());
            }
        }
    }

    /// Runs `entry` once and folds the outcome.
    fn run(&mut self, interp: &mut Interp<'_>, entry: MethodId, args: &[HostValue]) {
        match interp.run(entry, args) {
            Ok((out, stats)) => {
                self.ok += 1;
                self.bytes(b"ok");
                self.host(&out);
                self.u64(stats.instructions);
                self.u64(stats.ns.to_bits());
                self.u64(stats.allocations);
                self.u64(stats.max_call_depth as u64);
            }
            Err(e) => {
                self.faults += 1;
                self.bytes(b"err");
                self.bytes(e.to_string().as_bytes());
            }
        }
    }
}

const KINDS: [NumKind; 4] = [NumKind::Int, NumKind::Long, NumKind::Float, NumKind::Double];

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

const INTS: [i64; 11] = [
    0,
    1,
    -1,
    2,
    7,
    -8,
    31,
    32,
    33,
    i32::MAX as i64,
    i32::MIN as i64,
];

const LONGS: [i64; 9] = [0, 1, -1, 63, 64, 65, i64::MAX, i64::MIN, (1 << 40) + 3];

/// Includes values `f32` cannot hold, so where `float` rounds shows.
const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    0.5,
    0.1,
    1.0 / 3.0,
    -2.5,
    16_777_217.0,
    1e20,
    -3e9,
    2.9e9,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
];

fn jtype(k: NumKind) -> JType {
    k.jtype()
}

/// A method over `params` with the given code and `extra` scratch locals.
fn method(params: &[JType], ret: Option<JType>, extra: u16, code: Vec<Op>) -> Method {
    let n_locals = params.len() as u16 + extra;
    Method {
        name: "call".into(),
        params: params.to_vec(),
        ret,
        n_locals,
        local_names: (0..n_locals).map(|i| format!("l{i}")).collect(),
        local_types: (0..n_locals as usize)
            .map(|i| params.get(i).cloned().unwrap_or(JType::Int))
            .collect(),
        code,
    }
}

/// Asserts that every method verifies: the digest pins what verified
/// bytecode does.
fn verify_all(methods: &MethodTable) {
    for (_, m) in methods.iter() {
        s2fa_sjvm::verify::verify_method(m, methods).expect("verifies");
    }
}

/// Runs a single-method program.
fn run_one(d: &mut Digest, m: Method, args: &[HostValue]) {
    let classes = ClassTable::new();
    let mut methods = MethodTable::new();
    let id = methods.add(m);
    verify_all(&methods);
    let mut interp = Interp::new(&classes, &methods);
    d.run(&mut interp, id, args);
}

/// A host value of kind `k` drawn from the edge-case sets.
fn host_of(rng: &mut Rng, k: NumKind) -> HostValue {
    match k {
        NumKind::Int => HostValue::I(rng.pick(&INTS)),
        NumKind::Long => HostValue::I(rng.pick(&LONGS)),
        NumKind::Float => HostValue::F(rng.pick(&FLOATS) as f32 as f64),
        NumKind::Double => HostValue::F(rng.pick(&FLOATS)),
    }
}

fn all_of(k: NumKind) -> Vec<HostValue> {
    match k {
        NumKind::Int => INTS.iter().map(|&v| HostValue::I(v)).collect(),
        NumKind::Long => LONGS.iter().map(|&v| HostValue::I(v)).collect(),
        NumKind::Float => FLOATS
            .iter()
            .map(|&v| HostValue::F(v as f32 as f64))
            .collect(),
        NumKind::Double => FLOATS.iter().map(|&v| HostValue::F(v)).collect(),
    }
}

/// Emits random well-typed expression code over four parameters, one per
/// kind (`int x, long y, float f, double d`).
struct Gen {
    rng: Rng,
    code: Vec<Op>,
    /// Scratch locals handed out so far (after the 4 parameters).
    temps: u16,
}

impl Gen {
    fn konst(&mut self, k: NumKind) {
        let op = match host_of(&mut self.rng, k) {
            HostValue::I(v) => Op::ConstI(v),
            HostValue::F(v) => Op::ConstF(v),
            _ => unreachable!(),
        };
        self.code.push(op);
    }

    fn param(k: NumKind) -> u16 {
        KINDS.iter().position(|&x| x == k).unwrap() as u16
    }

    fn temp(&mut self) -> u16 {
        self.temps += 1;
        3 + self.temps
    }

    /// Emits code leaving one value of kind `k` on the stack.
    fn expr(&mut self, k: NumKind, depth: u32) {
        if depth == 0 || self.rng.chance(5) {
            if self.rng.chance(2) {
                self.code.push(Op::Load(Self::param(k)));
            } else {
                self.konst(k);
            }
            return;
        }
        let int = !k.is_float();
        match self.rng.below(11) {
            0..=2 => {
                self.expr(k, depth - 1);
                self.expr(k, depth - 1);
                let op = match self.rng.below(5) {
                    0 => Op::Add(k),
                    1 => Op::Sub(k),
                    2 => Op::Mul(k),
                    3 => Op::Div(k),
                    _ => Op::Rem(k),
                };
                self.code.push(op);
            }
            3 => {
                self.expr(k, depth - 1);
                self.code.push(Op::Neg(k));
            }
            4 if int => {
                self.expr(k, depth - 1);
                let count = self.rng.pick(&[NumKind::Int, NumKind::Long]);
                self.expr(count, depth - 1);
                let op = self
                    .rng
                    .pick(&[Op::Shl, Op::Shr, Op::UShr, Op::And, Op::Or, Op::Xor]);
                self.code.push(op);
            }
            4 => {
                self.expr(NumKind::Double, depth - 1);
                let f = self.rng.pick(&[MathFn::Exp, MathFn::Log, MathFn::Sqrt]);
                self.code.push(Op::Math(f, NumKind::Double));
                if k == NumKind::Float {
                    self.code.push(Op::Cast {
                        from: NumKind::Double,
                        to: k,
                    });
                }
            }
            5 => {
                let f = self.rng.pick(&[MathFn::Abs, MathFn::Min, MathFn::Max]);
                for _ in 0..f.arity() {
                    self.expr(k, depth - 1);
                }
                self.code.push(Op::Math(f, k));
            }
            6 => {
                let from = self.rng.pick(&KINDS);
                self.expr(from, depth - 1);
                self.code.push(Op::Cast { from, to: k });
            }
            7 if k == NumKind::Int => {
                let c = self.rng.pick(&KINDS);
                self.expr(c, depth - 1);
                self.expr(c, depth - 1);
                self.code.push(Op::Cmp(c));
            }
            7 | 8 => self.select(k, depth),
            9 if self.rng.chance(3) => {
                // `v op v` through `Dup`: the operator reads both copies.
                self.expr(k, depth - 1);
                self.code.push(Op::Dup);
                let op = self.rng.pick(&[Op::Add(k), Op::Sub(k), Op::Mul(k)]);
                self.code.push(op);
            }
            9 => {
                // A temporary: store, reload, and sometimes a discarded
                // value and a `Dup`.
                let t = self.temp();
                self.expr(k, depth - 1);
                if self.rng.chance(2) {
                    self.code.push(Op::Dup);
                    self.code.push(Op::Store(t));
                    let other = self.rng.pick(&KINDS);
                    self.expr(other, depth - 1);
                    self.code.push(Op::Pop);
                    self.code.push(Op::Pop);
                } else {
                    self.code.push(Op::Store(t));
                }
                self.code.push(Op::Load(t));
            }
            _ => self.counted_loop(k, depth),
        }
    }

    /// `cond ? a : b` through `IfCmp` or `IfZero`, joining with one value.
    fn select(&mut self, k: NumKind, depth: u32) {
        let branch_at;
        if self.rng.chance(3) {
            self.expr(NumKind::Int, depth - 1);
            branch_at = self.code.len();
            self.code.push(Op::IfZero {
                cond: self.rng.pick(&CONDS),
                target: 0,
            });
        } else {
            let c = self.rng.pick(&KINDS);
            self.expr(c, depth - 1);
            self.expr(c, depth - 1);
            branch_at = self.code.len();
            self.code.push(Op::IfCmp {
                kind: c,
                cond: self.rng.pick(&CONDS),
                target: 0,
            });
        }
        self.expr(k, depth - 1);
        let goto_at = self.code.len();
        self.code.push(Op::Goto(0));
        let else_pc = self.code.len() as u32;
        self.expr(k, depth - 1);
        let end_pc = self.code.len() as u32;
        match &mut self.code[branch_at] {
            Op::IfZero { target, .. } | Op::IfCmp { target, .. } => *target = else_pc,
            _ => unreachable!(),
        }
        self.code[goto_at] = Op::Goto(end_pc);
    }

    /// `acc = init; for (i = 0; i < trip; i++) acc = acc + body; acc`.
    fn counted_loop(&mut self, k: NumKind, depth: u32) {
        let acc = self.temp();
        let i = self.temp();
        let trip = self.rng.below(6) as i64;
        self.expr(k, depth - 1);
        self.code.push(Op::Store(acc));
        self.code.push(Op::ConstI(0));
        self.code.push(Op::Store(i));
        let head = self.code.len() as u32;
        self.code.push(Op::Load(i));
        self.code.push(Op::ConstI(trip));
        let exit_at = self.code.len();
        self.code.push(Op::IfCmp {
            kind: NumKind::Int,
            cond: Cond::Ge,
            target: 0,
        });
        self.code.push(Op::Load(acc));
        self.expr(k, depth - 1);
        self.code.push(Op::Add(k));
        self.code.push(Op::Store(acc));
        self.code.push(Op::Load(i));
        self.code.push(Op::ConstI(1));
        self.code.push(Op::Add(NumKind::Int));
        self.code.push(Op::Store(i));
        self.code.push(Op::Goto(head));
        let exit = self.code.len() as u32;
        if let Op::IfCmp { target, .. } = &mut self.code[exit_at] {
            *target = exit;
        }
        self.code.push(Op::Load(acc));
    }
}

fn params4() -> Vec<JType> {
    KINDS.iter().map(|&k| jtype(k)).collect()
}

fn args4(rng: &mut Rng) -> Vec<HostValue> {
    KINDS.iter().map(|&k| host_of(rng, k)).collect()
}

/// The random corpus: each kernel runs on two argument sets; some run
/// behind a static call, and some with a small fuel budget.
fn corpus(d: &mut Digest) {
    let mut gen = Gen {
        rng: Rng(0x5eed_5c7a),
        code: Vec::new(),
        temps: 0,
    };
    for _ in 0..KERNELS {
        gen.code.clear();
        gen.temps = 0;
        let k = gen.rng.pick(&KINDS);
        let depth = 1 + gen.rng.below(4) as u32;
        gen.expr(k, depth);
        gen.code.push(Op::Return);
        let body = method(&params4(), Some(jtype(k)), gen.temps, gen.code.clone());
        let classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let entry = if gen.rng.chance(4) {
            let callee = methods.add(body);
            let mut code: Vec<Op> = (0..4).map(Op::Load).collect();
            code.push(Op::InvokeStatic { method: callee });
            code.push(Op::Return);
            methods.add(method(&params4(), Some(jtype(k)), 0, code))
        } else {
            methods.add(body)
        };
        verify_all(&methods);
        let fuel = if gen.rng.chance(8) {
            gen.rng.below(40)
        } else {
            s2fa_sjvm::interp::DEFAULT_FUEL
        };
        let mut interp = Interp::new(&classes, &methods).with_fuel(fuel);
        for _ in 0..2 {
            let args = args4(&mut gen.rng);
            d.run(&mut interp, entry, &args);
        }
    }
}

/// Each binary arithmetic, shift and bitwise op, each compare and each
/// two-operand intrinsic over every pair of edge-case operands of a kind.
fn binary_ops(d: &mut Digest) {
    for k in KINDS {
        let t = jtype(k);
        let mut ops = vec![
            (Op::Add(k), t.clone()),
            (Op::Sub(k), t.clone()),
            (Op::Mul(k), t.clone()),
            (Op::Div(k), t.clone()),
            (Op::Rem(k), t.clone()),
            (Op::Math(MathFn::Min, k), t.clone()),
            (Op::Math(MathFn::Max, k), t.clone()),
            (Op::Cmp(k), JType::Int),
        ];
        if !k.is_float() {
            for op in [Op::Shl, Op::Shr, Op::UShr, Op::And, Op::Or, Op::Xor] {
                ops.push((op, t.clone()));
            }
        }
        for (op, ret) in ops {
            let m = method(
                &[t.clone(), t.clone()],
                Some(ret),
                0,
                vec![Op::Load(0), Op::Load(1), op, Op::Return],
            );
            for a in all_of(k) {
                for b in all_of(k) {
                    run_one(d, m.clone(), &[a.clone(), b]);
                }
            }
        }
        // Conditional branches: each condition, taken and not taken.
        for cond in CONDS {
            let m = method(
                &[t.clone(), t.clone()],
                Some(JType::Int),
                0,
                vec![
                    Op::Load(0),
                    Op::Load(1),
                    Op::IfCmp {
                        kind: k,
                        cond,
                        target: 5,
                    },
                    Op::ConstI(0),
                    Op::Return,
                    Op::ConstI(1),
                    Op::Return,
                ],
            );
            for a in all_of(k) {
                for b in all_of(k) {
                    run_one(d, m.clone(), &[a.clone(), b]);
                }
            }
        }
    }
    for cond in CONDS {
        let m = method(
            &[JType::Long],
            Some(JType::Int),
            0,
            vec![
                Op::Load(0),
                Op::IfZero { cond, target: 4 },
                Op::ConstI(0),
                Op::Return,
                Op::ConstI(1),
                Op::Return,
            ],
        );
        for a in all_of(NumKind::Long) {
            run_one(d, m.clone(), &[a]);
        }
    }
}

/// `Neg`, one-operand intrinsics and every cast, over every edge-case
/// operand.
fn unary_ops(d: &mut Digest) {
    for k in KINDS {
        let t = jtype(k);
        let mut ops = vec![
            (Op::Neg(k), t.clone()),
            (Op::Math(MathFn::Abs, k), t.clone()),
        ];
        for f in [MathFn::Exp, MathFn::Log, MathFn::Sqrt] {
            ops.push((Op::Math(f, k), JType::Double));
        }
        for to in KINDS {
            ops.push((Op::Cast { from: k, to }, jtype(to)));
        }
        for (op, ret) in ops {
            let m = method(
                std::slice::from_ref(&t),
                Some(ret),
                0,
                vec![Op::Load(0), op, Op::Return],
            );
            for a in all_of(k) {
                run_one(d, m.clone(), &[a]);
            }
        }
    }
}

/// A class `P { int a; double b; }` with a virtual getter `sum()`.
fn object_program() -> (ClassTable, MethodTable, ClassId, MethodId) {
    let mut classes = ClassTable::new();
    let p = classes
        .define(
            "P",
            vec![
                FieldDef {
                    name: "a".into(),
                    ty: JType::Int,
                },
                FieldDef {
                    name: "b".into(),
                    ty: JType::Double,
                },
            ],
        )
        .unwrap();
    let mut methods = MethodTable::new();
    let sum = methods.add(method(
        &[JType::Ref(p)],
        Some(JType::Double),
        0,
        vec![
            Op::Load(0),
            Op::GetField(p, 0),
            Op::Cast {
                from: NumKind::Int,
                to: NumKind::Double,
            },
            Op::Load(0),
            Op::GetField(p, 1),
            Op::Add(NumKind::Double),
            Op::Return,
        ],
    ));
    classes.add_method(p, "sum", sum);
    (classes, methods, p, sum)
}

/// Arrays, objects, calls, `Pop`/`Dup`/`Goto`, and the host marshalling
/// of every `HostValue` shape.
fn heap_ops(d: &mut Digest) {
    let (classes, mut methods, p, sum) = object_program();
    let int_arr = JType::array(JType::Int);
    // new P(x, 0.5) with its fields rewritten, then p.sum() + arr[i] via a
    // fresh array of length 4 filled from the argument array.
    let entry = methods.add(method(
        &[int_arr.clone(), JType::Int],
        Some(JType::Double),
        2,
        vec![
            Op::New(p),
            Op::Store(2),
            Op::Load(2),
            Op::Load(1),
            Op::PutField(p, 0),
            Op::Load(2),
            Op::ConstF(0.5),
            Op::PutField(p, 1),
            Op::NewArray {
                elem: JType::Int,
                len: 4,
            },
            Op::Store(3),
            Op::Load(3),
            Op::ConstI(2),
            Op::Load(0),
            Op::Load(1),
            Op::ALoad,
            Op::AStore,
            Op::Load(2),
            Op::InvokeVirtual {
                class: p,
                method: sum,
            },
            Op::Load(3),
            Op::ConstI(2),
            Op::ALoad,
            Op::Cast {
                from: NumKind::Int,
                to: NumKind::Double,
            },
            Op::Add(NumKind::Double),
            Op::Load(3),
            Op::ArrayLen,
            Op::Dup,
            Op::Pop,
            Op::Cast {
                from: NumKind::Int,
                to: NumKind::Double,
            },
            Op::Add(NumKind::Double),
            Op::Goto(30),
            Op::Return,
        ],
    ));
    verify_all(&methods);
    let mut interp = Interp::new(&classes, &methods);
    let arr = HostValue::i64_array(&[10, 20, 30]);
    for i in [0, 1, 2, 3, -1] {
        d.run(&mut interp, entry, &[arr.clone(), HostValue::I(i)]);
    }
    d.run(
        &mut interp,
        entry,
        &[HostValue::Str("ab".into()), HostValue::I(1)],
    );
    // Marshalling faults: wrong arity, wrong shape.
    d.run(&mut interp, entry, std::slice::from_ref(&arr));
    d.run(&mut interp, entry, &[HostValue::F(1.0), HostValue::I(0)]);
    d.run(&mut interp, entry, &[arr.clone(), HostValue::F(1.0)]);

    // Objects in and out: identity on P, a Tuple2 and a null return.
    let mut classes = classes;
    let pair = classes.define_tuple2(JType::Double, int_arr.clone());
    let id_p = methods.add(method(
        &[JType::Ref(p)],
        Some(JType::Ref(p)),
        0,
        vec![Op::Load(0), Op::Return],
    ));
    let id_pair = methods.add(method(
        &[JType::Ref(pair)],
        Some(JType::Ref(pair)),
        0,
        vec![Op::Load(0), Op::Return],
    ));
    let null = methods.add(method(
        &[],
        Some(JType::Ref(p)),
        0,
        vec![Op::ConstNull, Op::Return],
    ));
    let void = methods.add(method(&[JType::Int], None, 0, vec![Op::Return]));
    verify_all(&methods);
    let mut interp = Interp::new(&classes, &methods);
    let obj = HostValue::Obj("P".into(), vec![HostValue::I(3), HostValue::F(1.25)]);
    d.run(&mut interp, id_p, std::slice::from_ref(&obj));
    d.run(
        &mut interp,
        id_p,
        &[HostValue::Tuple(vec![HostValue::I(3)])],
    );
    d.run(
        &mut interp,
        id_p,
        &[HostValue::Tuple(vec![HostValue::I(1), HostValue::I(2)])],
    );
    d.run(
        &mut interp,
        id_pair,
        &[HostValue::pair(HostValue::I(4), arr.clone())],
    );
    d.run(&mut interp, null, &[]);
    d.run(&mut interp, void, &[HostValue::I(1)]);
}

/// Runtime faults in bytecode that verifies.
fn faults(d: &mut Digest) {
    let (classes, mut methods, p, _) = object_program();
    let int_arr = JType::array(JType::Int);
    let mut cases: Vec<(MethodId, Vec<HostValue>)> = Vec::new();
    let mut add = |params: &[JType], code: Vec<Op>, args: Vec<HostValue>| {
        let id = methods.add(method(params, Some(JType::Int), 1, code));
        cases.push((id, args));
    };
    // Division and remainder by zero, int and long, and with a float
    // divisor (the zero check reads the divisor first).
    for k in [NumKind::Int, NumKind::Long] {
        for op in [Op::Div(k), Op::Rem(k)] {
            let code = vec![Op::Load(0), Op::Load(1), op, Op::Return];
            add(
                &[JType::Long, JType::Long],
                code.clone(),
                vec![HostValue::I(5), HostValue::I(0)],
            );
            add(
                &[JType::Double, JType::Long],
                code.clone(),
                vec![HostValue::F(5.0), HostValue::I(0)],
            );
            add(
                &[JType::Double, JType::Long],
                code.clone(),
                vec![HostValue::F(5.0), HostValue::I(2)],
            );
            add(
                &[JType::Long, JType::Double],
                code,
                vec![HostValue::I(5), HostValue::F(0.0)],
            );
        }
    }
    // Out-of-bounds loads and stores, negative and past the end.
    for i in [-1, 3, 1 << 40] {
        add(
            &[int_arr.clone(), JType::Int],
            vec![Op::Load(0), Op::Load(1), Op::ALoad, Op::Return],
            vec![HostValue::i64_array(&[1, 2, 3]), HostValue::I(i)],
        );
        add(
            &[int_arr.clone(), JType::Int],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::ConstI(9),
                Op::AStore,
                Op::ConstI(0),
                Op::Return,
            ],
            vec![HostValue::i64_array(&[1, 2, 3]), HostValue::I(i)],
        );
    }
    // Null dereferences.
    let null_uses = [
        vec![Op::ConstNull, Op::ConstI(0), Op::ALoad, Op::Return],
        vec![
            Op::ConstNull,
            Op::ConstI(0),
            Op::ConstI(1),
            Op::AStore,
            Op::ConstI(0),
            Op::Return,
        ],
        vec![Op::ConstNull, Op::ArrayLen, Op::Return],
        vec![Op::ConstNull, Op::GetField(p, 0), Op::Return],
        vec![
            Op::ConstNull,
            Op::ConstI(1),
            Op::PutField(p, 0),
            Op::ConstI(0),
            Op::Return,
        ],
    ];
    for code in null_uses {
        add(&[], code, vec![]);
    }
    // Type confusion: the verifier tracks depths, not types.
    let confused = [
        // int op on a double, either side
        (
            vec![JType::Double, JType::Int],
            vec![Op::Load(0), Op::Load(1), Op::Add(NumKind::Int), Op::Return],
        ),
        (
            vec![JType::Int, JType::Double],
            vec![Op::Load(0), Op::Load(1), Op::Mul(NumKind::Long), Op::Return],
        ),
        (
            vec![JType::Int, JType::Double],
            vec![Op::Load(0), Op::Load(1), Op::Shl, Op::Return],
        ),
        // double op on an int (converted) and on a reference (fault)
        (
            vec![JType::Int, JType::Double],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::Sub(NumKind::Double),
                Op::Cast {
                    from: NumKind::Double,
                    to: NumKind::Int,
                },
                Op::Return,
            ],
        ),
        (
            vec![int_arr.clone(), JType::Double],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::Add(NumKind::Double),
                Op::Cast {
                    from: NumKind::Double,
                    to: NumKind::Int,
                },
                Op::Return,
            ],
        ),
        (
            vec![JType::Double, JType::Double],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::IfCmp {
                    kind: NumKind::Int,
                    cond: Cond::Lt,
                    target: 5,
                },
                Op::ConstI(0),
                Op::Return,
                Op::ConstI(1),
                Op::Return,
            ],
        ),
        (
            vec![JType::Double],
            vec![
                Op::Load(0),
                Op::IfZero {
                    cond: Cond::Eq,
                    target: 4,
                },
                Op::ConstI(0),
                Op::Return,
                Op::ConstI(1),
                Op::Return,
            ],
        ),
        (
            vec![JType::Int, JType::Double],
            vec![Op::Load(0), Op::Load(1), Op::Cmp(NumKind::Int), Op::Return],
        ),
        (
            vec![int_arr.clone(), JType::Int],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::Cmp(NumKind::Double),
                Op::Return,
            ],
        ),
        // array ops on a scalar, an object and a double index
        (
            vec![JType::Int, JType::Int],
            vec![Op::Load(0), Op::Load(1), Op::ALoad, Op::Return],
        ),
        (
            vec![JType::Ref(p), JType::Int],
            vec![Op::Load(0), Op::Load(1), Op::ALoad, Op::Return],
        ),
        (
            vec![int_arr.clone(), JType::Double],
            vec![Op::Load(0), Op::Load(1), Op::ALoad, Op::Return],
        ),
        (
            vec![JType::Ref(p), JType::Int],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::ConstI(0),
                Op::AStore,
                Op::ConstI(0),
                Op::Return,
            ],
        ),
        (
            vec![JType::Ref(p)],
            vec![Op::Load(0), Op::ArrayLen, Op::Return],
        ),
        // field ops on an array and a scalar
        (
            vec![int_arr.clone()],
            vec![Op::Load(0), Op::GetField(p, 0), Op::Return],
        ),
        (
            vec![int_arr.clone()],
            vec![
                Op::Load(0),
                Op::ConstI(1),
                Op::PutField(p, 0),
                Op::ConstI(0),
                Op::Return,
            ],
        ),
        (
            vec![JType::Int],
            vec![Op::Load(0), Op::GetField(p, 0), Op::Return],
        ),
        // intrinsics on references
        (
            vec![int_arr.clone()],
            vec![
                Op::Load(0),
                Op::Math(MathFn::Sqrt, NumKind::Double),
                Op::Cast {
                    from: NumKind::Double,
                    to: NumKind::Int,
                },
                Op::Return,
            ],
        ),
        (
            vec![JType::Double, JType::Int],
            vec![
                Op::Load(0),
                Op::Load(1),
                Op::Math(MathFn::Max, NumKind::Int),
                Op::Return,
            ],
        ),
        (
            vec![JType::Double],
            vec![Op::Load(0), Op::Neg(NumKind::Long), Op::Return],
        ),
        (
            vec![int_arr.clone()],
            vec![
                Op::Load(0),
                Op::Cast {
                    from: NumKind::Int,
                    to: NumKind::Long,
                },
                Op::Return,
            ],
        ),
    ];
    let mut arg_for = |t: &JType| match t {
        JType::Double => HostValue::F(2.5),
        JType::Int => HostValue::I(1),
        JType::Ref(_) => HostValue::Obj("P".into(), vec![HostValue::I(3), HostValue::F(1.0)]),
        _ => HostValue::i64_array(&[4, 5]),
    };
    for (params, code) in confused {
        let args = params.iter().map(&mut arg_for).collect();
        add(&params, code, args);
    }
    verify_all(&methods);
    let mut interp = Interp::new(&classes, &methods);
    for (id, args) in cases {
        d.run(&mut interp, id, &args);
    }
}

/// Fuel at and around a straight-line method's instruction count, a
/// runaway loop, bounded recursion and call-depth overflow.
fn limits(d: &mut Digest) {
    let straight = method(
        &[JType::Int],
        Some(JType::Int),
        0,
        vec![
            Op::Load(0),
            Op::ConstI(3),
            Op::Add(NumKind::Int),
            Op::Return,
        ],
    );
    for fuel in 0..6 {
        let classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let id = methods.add(straight.clone());
        verify_all(&methods);
        let mut interp = Interp::new(&classes, &methods).with_fuel(fuel);
        d.run(&mut interp, id, &[HostValue::I(4)]);
    }
    let classes = ClassTable::new();
    let mut methods = MethodTable::new();
    let spin = methods.add(method(&[], None, 0, vec![Op::Goto(0)]));
    // f(n) = n <= 0 ? 0 : 1 + f(n - 1)
    let rec = MethodId(1);
    let f = methods.add(method(
        &[JType::Int],
        Some(JType::Int),
        0,
        vec![
            Op::Load(0),
            Op::IfZero {
                cond: Cond::Gt,
                target: 4,
            },
            Op::ConstI(0),
            Op::Return,
            Op::ConstI(1),
            Op::Load(0),
            Op::ConstI(1),
            Op::Sub(NumKind::Int),
            Op::InvokeStatic { method: rec },
            Op::Add(NumKind::Int),
            Op::Return,
        ],
    ));
    assert_eq!(f, rec);
    verify_all(&methods);
    let mut interp = Interp::new(&classes, &methods).with_fuel(10_000);
    d.run(&mut interp, spin, &[]);
    for n in [0, 1, 10, 255, 256, 300] {
        let mut interp = Interp::new(&classes, &methods);
        d.run(&mut interp, f, &[HostValue::I(n)]);
    }
    let mut interp = Interp::new(&classes, &methods).with_fuel(500);
    d.run(&mut interp, f, &[HostValue::I(200)]);
}

/// Constants equal as numbers but not as bits stay apart: `1 / 0.0` and
/// `1 / -0.0` in one method, in both orders.
fn constants(d: &mut Digest) {
    for (x, y) in [(0.0, -0.0), (-0.0, 0.0)] {
        let m = method(
            &[],
            Some(JType::Double),
            0,
            vec![
                Op::ConstF(1.0),
                Op::ConstF(x),
                Op::Div(NumKind::Double),
                Op::ConstF(1.0),
                Op::ConstF(y),
                Op::Div(NumKind::Double),
                Op::Sub(NumKind::Double),
                Op::Return,
            ],
        );
        run_one(d, m, &[]);
    }
}

/// The 8 workloads' seeded records through both kernels.
fn workloads(d: &mut Digest) {
    for w in all_workloads() {
        let n = if w.name == "S-W" { 4 } else { 64 };
        let records = (w.gen_input)(n, 31);
        for spec in [&w.spec, &w.manual_spec] {
            let mut interp = Interp::new(&spec.classes, &spec.methods);
            for rec in &records {
                d.run(&mut interp, spec.entry, std::slice::from_ref(rec));
            }
        }
    }
}

#[test]
fn interpreter_digest_is_pinned() {
    let mut d = Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        ok: 0,
        faults: 0,
    };
    let mut parts = Vec::new();
    for (name, part) in [
        ("workloads", workloads as fn(&mut Digest)),
        ("corpus", corpus),
        ("binary_ops", binary_ops),
        ("unary_ops", unary_ops),
        ("heap_ops", heap_ops),
        ("faults", faults),
        ("limits", limits),
        ("constants", constants),
    ] {
        let (ok, faults) = (d.ok, d.faults);
        part(&mut d);
        parts.push(format!(
            "{name}: {:#018x} ({} returned, {} faulted)",
            d.hash,
            d.ok - ok,
            d.faults - faults
        ));
    }
    assert_eq!(
        d.hash,
        DIGEST,
        "interpreter digest moved; running totals:\n{}",
        parts.join("\n")
    );
}
