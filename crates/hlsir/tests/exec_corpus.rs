//! A seeded corpus of small kernels run through `Executor::run` and
//! `Executor::run_observed`, folded into one digest of output bit
//! patterns, fault texts and `Observed` sets.
//!
//! The digest pins the executor's semantics as a whole: integer wrapping
//! per kind, `f32` rounding, NaN comparisons, casts of NaN, infinities and
//! out-of-range floats, every intrinsic in both kinds, mixed-kind reads
//! of scalars and buffers, which fault wins when several occur, fuel per
//! statement, and the arity check at lowering. A change to any of them
//! moves the digest; a change that keeps them all does not.

use s2fa_hlsir::{
    CBinOp, CFunction, CIntrinsic, CNumKind, CType, CVal, Executor, Expr, HlsirError, LValue,
    LoopAttrs, LoopId, Param, ParamKind, Stmt,
};
use std::collections::BTreeMap;

/// Number of generated kernels.
const KERNELS: u64 = 2_000;

/// FNV-1a over every run's outcome, computed before the executor's
/// lowering became typed; it must not move.
const DIGEST: u64 = 0x7863_55ac_45da_071d;

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

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const KINDS: [CNumKind; 4] = [CNumKind::I32, CNumKind::I64, CNumKind::F32, CNumKind::F64];

const OPS: [CBinOp; 17] = [
    CBinOp::Add,
    CBinOp::Sub,
    CBinOp::Mul,
    CBinOp::Div,
    CBinOp::Rem,
    CBinOp::Shl,
    CBinOp::Shr,
    CBinOp::UShr,
    CBinOp::And,
    CBinOp::Or,
    CBinOp::Xor,
    CBinOp::Lt,
    CBinOp::Le,
    CBinOp::Gt,
    CBinOp::Ge,
    CBinOp::Eq,
    CBinOp::Ne,
];

const INTRINSICS: [CIntrinsic; 6] = [
    CIntrinsic::Exp,
    CIntrinsic::Log,
    CIntrinsic::Sqrt,
    CIntrinsic::Abs,
    CIntrinsic::Min,
    CIntrinsic::Max,
];

const INTS: [i64; 13] = [
    0,
    1,
    -1,
    2,
    3,
    7,
    -8,
    64,
    i32::MAX as i64,
    i32::MIN as i64,
    i64::MAX,
    i64::MIN,
    (1 << 53) + 1,
];

/// Includes values `f32` cannot hold (`0.1`, `1/3`, `2^24 + 1`), so
/// where `float` arithmetic rounds shows in the outputs.
const FLOATS: [f64; 17] = [
    0.0,
    -0.0,
    0.5,
    0.1,
    1.0 / 3.0,
    16_777_217.0,
    1.0,
    -2.5,
    3.75,
    1e20,
    -3e9,
    2.9e9,
    1e-40,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
];

/// Builds one random kernel over a fixed interface.
struct Gen {
    rng: Rng,
    /// Scalars in scope, the innermost loop variable last.
    vars: Vec<&'static str>,
    /// Arrays bound or declared; `nope` never is.
    arrays: Vec<&'static str>,
    next_loop: u32,
}

impl Gen {
    fn int_const(&mut self) -> Expr {
        Expr::ConstI(self.rng.pick(&INTS))
    }

    fn leaf(&mut self) -> Expr {
        match self.rng.below(10) {
            0..=1 => self.int_const(),
            2..=3 => Expr::ConstF(self.rng.pick(&FLOATS)),
            4..=6 => {
                let v = if self.rng.chance(40) {
                    "zz"
                } else {
                    self.rng.pick(&self.vars.clone())
                };
                Expr::var(v)
            }
            _ => {
                let idx = self.index();
                Expr::index(self.array(), idx)
            }
        }
    }

    fn array(&mut self) -> &'static str {
        if self.rng.chance(100) {
            "nope"
        } else {
            self.rng.pick(&self.arrays.clone())
        }
    }

    /// An index: mostly in range, sometimes any expression.
    fn index(&mut self) -> Expr {
        match self.rng.below(24) {
            0..=16 => Expr::ConstI(self.rng.below(4) as i64),
            17..=21 => match self.vars.last() {
                Some(&v @ ("i" | "j")) => Expr::var(v),
                _ => Expr::ConstI(self.rng.below(4) as i64),
            },
            22 => Expr::ConstI(self.rng.pick(&[-1, 4, 9, 1 << 40])),
            _ => self.expr(1),
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(4) {
            return self.leaf();
        }
        let d = depth - 1;
        match self.rng.below(12) {
            0..=4 => {
                let op = self.rng.pick(&OPS);
                // Bitwise operators fault on floats: keep that rare.
                let kind = if matches!(
                    op,
                    CBinOp::Shl
                        | CBinOp::Shr
                        | CBinOp::UShr
                        | CBinOp::And
                        | CBinOp::Or
                        | CBinOp::Xor
                ) && !self.rng.chance(16)
                {
                    self.rng.pick(&KINDS[..2])
                } else {
                    self.rng.pick(&KINDS)
                };
                Expr::bin(op, kind, self.expr(d), self.expr(d))
            }
            5 => Expr::Neg(self.rng.pick(&KINDS), Box::new(self.expr(d))),
            6..=7 => {
                let (from, to) = (self.rng.pick(&KINDS), self.rng.pick(&KINDS));
                Expr::Cast(from, to, Box::new(self.expr(d)))
            }
            8..=9 => {
                let f = self.rng.pick(&INTRINSICS);
                let arity = if self.rng.chance(300) {
                    3 - f.arity()
                } else {
                    f.arity()
                };
                let args = (0..arity).map(|_| self.expr(d)).collect();
                Expr::Call(f, self.rng.pick(&KINDS), args)
            }
            _ => Expr::Select(
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
            ),
        }
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        match self.rng.below(if depth == 0 { 6 } else { 9 }) {
            0..=2 => {
                let arr = self.array();
                let idx = self.index();
                Stmt::Assign {
                    lhs: LValue::Index(arr.into(), Box::new(idx)),
                    rhs: self.expr(3),
                }
            }
            3..=5 => Stmt::Assign {
                lhs: LValue::Var(self.rng.pick(&["x", "y", "y", "n"]).into()),
                rhs: self.expr(3),
            },
            6..=7 => {
                let var = if self.vars.contains(&"i") { "j" } else { "i" };
                // min(e, 4) keeps every loop short whatever `e` is.
                let bound = if self.rng.chance(2) {
                    Expr::ConstI(self.rng.below(5) as i64)
                } else {
                    Expr::Call(
                        CIntrinsic::Min,
                        CNumKind::I32,
                        vec![self.expr(2), Expr::ConstI(4)],
                    )
                };
                let id = LoopId(self.next_loop);
                self.next_loop += 1;
                self.vars.push(var);
                let body = self.block(depth - 1);
                self.vars.pop();
                Stmt::For {
                    id,
                    var: var.into(),
                    bound,
                    trip_count: None,
                    attrs: LoopAttrs::none(),
                    body,
                }
            }
            _ => Stmt::If {
                cond: self.expr(2),
                then: self.block(depth - 1),
                els: if self.rng.chance(2) {
                    self.block(depth - 1)
                } else {
                    Vec::new()
                },
            },
        }
    }

    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let n = 1 + self.rng.below(3);
        (0..n).map(|_| self.stmt(depth)).collect()
    }

    fn kernel(&mut self) -> CFunction {
        self.vars = vec!["n", "g", "h"];
        self.arrays = vec!["bi", "bf", "bm", "out_1", "out_2"];
        self.next_loop = 0;
        let mut body = Vec::new();
        if !self.rng.chance(6) {
            body.push(Stmt::Decl {
                name: "x".into(),
                ty: CType::Int(32),
                init: None,
            });
            self.vars.push("x");
        }
        if !self.rng.chance(6) {
            let init = self.expr(2);
            body.push(Stmt::Decl {
                name: "y".into(),
                ty: CType::Float,
                init: Some(init),
            });
            self.vars.push("y");
        }
        if !self.rng.chance(10) {
            body.push(Stmt::DeclArr {
                name: "acc".into(),
                ty: CType::Float,
                len: 4,
            });
            self.arrays.push("acc");
        }
        if !self.rng.chance(10) {
            body.push(Stmt::DeclArr {
                name: "t".into(),
                ty: CType::Int(64),
                len: 4,
            });
            self.arrays.push("t");
        }
        body.extend(self.block(2));
        body.extend(self.block(2));
        let param = |name: &str, ty, kind| Param {
            name: name.into(),
            ty,
            kind,
            elems_per_task: (kind != ParamKind::ScalarIn).then_some(1),
            broadcast: false,
        };
        CFunction {
            name: "corpus".into(),
            params: vec![
                param("n", CType::Int(32), ParamKind::ScalarIn),
                param("g", CType::Float, ParamKind::ScalarIn),
                param("h", CType::Int(32), ParamKind::ScalarIn),
                param("bi", CType::Int(32), ParamKind::BufIn),
                param("bf", CType::Float, ParamKind::BufIn),
                param("bm", CType::Double, ParamKind::BufIn),
                param("out_1", CType::Float, ParamKind::BufOut),
                param("out_2", CType::Int(64), ParamKind::BufOut),
            ],
            body,
        }
    }

    fn value(&mut self) -> CVal {
        if self.rng.chance(2) {
            CVal::I(self.rng.pick(&INTS))
        } else {
            CVal::F(self.rng.pick(&FLOATS))
        }
    }

    /// Bindings: `h` and `bm` hold values of the other kind than their
    /// declared type, so reads convert at the leaf.
    fn inputs(&mut self) -> (BTreeMap<String, CVal>, BTreeMap<String, Vec<CVal>>) {
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(self.rng.below(4) as i64));
        scalars.insert("g".to_string(), CVal::F(self.rng.pick(&FLOATS)));
        scalars.insert("h".to_string(), CVal::F(self.rng.pick(&FLOATS)));
        let mut buffers = BTreeMap::new();
        let ints = (0..4).map(|_| CVal::I(self.rng.pick(&INTS))).collect();
        let floats = (0..4).map(|_| CVal::F(self.rng.pick(&FLOATS))).collect();
        let mixed = (0..4).map(|_| self.value()).collect();
        buffers.insert("bi".to_string(), ints);
        buffers.insert("bf".to_string(), floats);
        buffers.insert("bm".to_string(), mixed);
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0); 4]);
        buffers.insert("out_2".to_string(), vec![CVal::I(0); 4]);
        (scalars, buffers)
    }
}

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn buffers(&mut self, buffers: &BTreeMap<String, Vec<CVal>>) {
        for (name, data) in buffers {
            self.str(name);
            for v in data {
                match v {
                    CVal::I(i) => {
                        self.bytes(b"I");
                        self.u64(*i as u64);
                    }
                    CVal::F(f) => {
                        self.bytes(b"F");
                        self.u64(f.to_bits());
                    }
                }
            }
        }
    }

    fn outcome<T>(&mut self, r: &Result<T, HlsirError>) {
        match r {
            Ok(_) => self.bytes(b"ok"),
            Err(e) => self.str(&e.to_string()),
        }
    }
}

/// Fault classes every corpus must reach.
const CLASSES: [&str; 8] = [
    "integer division by zero",
    "integer remainder by zero",
    "on floats",
    "out of bounds",
    "unknown variable",
    "unknown array",
    "argument(s)",
    "statement budget exhausted",
];

/// What the corpus exercised, so a generator change cannot quietly stop
/// reaching a fault or an observation.
#[derive(Default)]
struct Coverage {
    clean: u32,
    observed: u32,
    faults: BTreeMap<String, u32>,
}

impl Coverage {
    fn fault(&mut self, e: &HlsirError) {
        let text = e.to_string();
        let class = CLASSES
            .into_iter()
            .find(|c| text.contains(c))
            .map_or(text.clone(), str::to_string);
        *self.faults.entry(class).or_default() += 1;
    }
}

#[test]
fn corpus_digest_is_pinned() {
    let mut gen = Gen {
        rng: Rng(0x5eed_2fa0),
        vars: Vec::new(),
        arrays: Vec::new(),
        next_loop: 0,
    };
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut coverage = Coverage::default();
    for _ in 0..KERNELS {
        let f = gen.kernel();
        let (scalars, buffers) = gen.inputs();
        let fuel = if gen.rng.chance(8) {
            gen.rng.below(12)
        } else {
            10_000
        };
        let exec = Executor::new(&f).with_fuel(fuel);

        let mut plain = buffers.clone();
        let r = exec.run(&scalars, &mut plain);
        let mut observed_bufs = buffers;
        let observed = exec.run_observed(&scalars, &mut observed_bufs);
        assert_eq!(
            observed.clone().map(drop),
            r,
            "run vs run_observed on {f:?}"
        );
        assert_eq!(plain.len(), observed_bufs.len());
        for (name, data) in &plain {
            let other = &observed_bufs[name];
            let same = data.len() == other.len()
                && data.iter().zip(other).all(|(a, b)| match (a, b) {
                    (CVal::I(x), CVal::I(y)) => x == y,
                    (CVal::F(x), CVal::F(y)) => x.to_bits() == y.to_bits(),
                    _ => false,
                });
            assert!(same, "run vs run_observed output `{name}` on {f:?}");
        }

        digest.outcome(&r);
        digest.buffers(&plain);
        match &observed {
            Ok(obs) => {
                coverage.clean += 1;
                coverage.observed += u32::from(!obs.uninit_reads.is_empty());
                digest.u64(obs.uninit_reads.len() as u64);
                for (name, element) in &obs.uninit_reads {
                    digest.str(name);
                    digest.u64(element.map_or(u64::MAX, |i| i as u64));
                }
            }
            Err(e) => coverage.fault(e),
        }
    }

    for class in CLASSES {
        assert!(
            coverage.faults.get(class).copied().unwrap_or(0) > 0,
            "no `{class}` fault in {:?}",
            coverage.faults
        );
    }
    assert!(
        coverage.clean > KERNELS as u32 / 4,
        "{} clean runs, faults {:?}",
        coverage.clean,
        coverage.faults
    );
    assert!(coverage.observed > 0, "no uninitialized read observed");
    assert_eq!(
        digest.0, DIGEST,
        "corpus digest moved (clean {}, observed {}, faults {:?})",
        coverage.clean, coverage.observed, coverage.faults
    );
}
