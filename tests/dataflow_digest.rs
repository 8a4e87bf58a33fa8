//! One digest over everything `lint::dataflow_checks` reports: each
//! diagnostic's code, subject, statement, loop path and message, at
//! `tasks_hint` 64.
//!
//! It covers 48 workload images (the 8 workloads' `spec` and
//! `manual_spec` kernels, each before any transform, after the expert
//! design's structural transforms and after the performance seed's), a
//! seeded corpus of random kernels (nested counted, zero-trip and
//! runtime-bounded loops, `if`/`else`, constant- and dynamic-indexed local
//! arrays, an array past the 256-element per-element limit, declarations
//! with and without an initializer, reads of parameters and of undeclared
//! names), and hand-built E301 and W310 positives. A change to what the
//! dataflow rules report moves the digest; a change to how they compute it
//! does not.

use s2fa::compile_kernel;
use s2fa_hlsir::{
    analysis, CFunction, CType, Expr, LValue, LoopAttrs, LoopId, Param, ParamKind, Stmt,
};
use s2fa_lint::{dataflow_checks, LintReport};
use s2fa_merlin::{apply_structural, DesignConfig};
use s2fa_workloads::all_workloads;

/// Number of generated kernels.
const KERNELS: u64 = 2_000;

/// The batch size the rules assume for the runtime-bounded task loop.
const HINT: u32 = 64;

/// FNV-1a over every report, computed on the CFG-based rules; it must not
/// move.
const DIGEST: u64 = 0x8765_c2dd_08fc_5a72;

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

/// FNV-1a over reports, with counts of E301 and W310 findings.
struct Digest {
    hash: u64,
    e301: u64,
    w310: u64,
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

    fn report(&mut self, r: &LintReport) {
        self.u64(r.diagnostics.len() as u64);
        for d in &r.diagnostics {
            self.bytes(d.code.code.as_bytes());
            match &d.span.subject {
                Some(s) => {
                    self.bytes(b"S");
                    self.bytes(s.as_bytes());
                }
                None => self.bytes(b"-"),
            }
            self.u64(d.span.stmt.map_or(u64::MAX, u64::from));
            self.u64(d.span.loop_path.len() as u64);
            for l in &d.span.loop_path {
                self.u64(u64::from(l.0));
            }
            self.bytes(d.message.as_bytes());
            match d.code.code {
                "S2FA-E301" => self.e301 += 1,
                "S2FA-W310" => self.w310 += 1,
                _ => {}
            }
        }
    }

    fn check(&mut self, f: &CFunction) {
        let r = dataflow_checks(f, HINT);
        self.report(&r);
    }
}

/// The 8 workloads' `spec` and `manual_spec` kernels, each before any
/// transform, after the expert design and after the performance seed.
fn workloads(d: &mut Digest) {
    for w in all_workloads() {
        for spec in [&w.spec, &w.manual_spec] {
            let g = compile_kernel(spec).expect(w.name);
            let summary = analysis::summarize(&g.cfunc, HINT).expect(w.name);
            d.check(&g.cfunc);
            for mut design in [
                (w.manual_config)(&summary),
                DesignConfig::perf_seed(&summary),
            ] {
                design.normalize(&summary);
                let (post, _) = apply_structural(&g.cfunc, &design);
                d.check(&post);
            }
        }
    }
}

fn param(name: &str, kind: ParamKind) -> Param {
    Param {
        name: name.into(),
        ty: CType::Int(32),
        kind,
        elems_per_task: (kind != ParamKind::ScalarIn).then_some(8),
        broadcast: false,
    }
}

fn kernel(body: Vec<Stmt>) -> CFunction {
    CFunction {
        name: "digest".into(),
        params: vec![
            param("n", ParamKind::ScalarIn),
            param("in_1", ParamKind::BufIn),
            param("out_1", ParamKind::BufOut),
        ],
        body,
    }
}

/// Local arrays of the generated kernels: `b` is past the 256-element
/// limit, so it is always tracked as a whole.
const ARRAYS: [(&str, u32); 3] = [("a", 4), ("b", 300), ("c", 3)];
const SCALARS: [&str; 4] = ["s0", "s1", "s2", "s3"];
const LOOP_VARS: [&str; 3] = ["i", "j", "k"];

/// A random kernel generator. `dynamic[k]` allows non-constant indices
/// into `ARRAYS[k]`; without them the array is tracked per element.
struct Gen {
    rng: Rng,
    dynamic: [bool; 3],
    next_loop: u32,
}

impl Gen {
    /// A scalar to read: a local, a parameter, a loop variable or a name
    /// nothing declares.
    fn read_scalar(&mut self) -> &'static str {
        match self.rng.below(10) {
            0 => "n",
            1 => "u",
            2 | 3 => self.rng.pick(&LOOP_VARS),
            _ => self.rng.pick(&SCALARS),
        }
    }

    /// An index into an array of `len` elements: a constant from -1 to
    /// `len`, or, when `dynamic`, a loop variable or a sum.
    fn index(&mut self, len: u32, dynamic: bool, depth: u32) -> Expr {
        if dynamic && self.rng.chance(2) {
            match self.rng.below(3) {
                0 => Expr::var(self.rng.pick(&LOOP_VARS)),
                1 => Expr::iadd(Expr::var(self.rng.pick(&LOOP_VARS)), Expr::ConstI(1)),
                _ => self.expr(depth + 1),
            }
        } else {
            Expr::ConstI(self.rng.below(u64::from(len) + 2) as i64 - 1)
        }
    }

    /// An array to read or write, with an index into it.
    fn access(&mut self, depth: u32, buffers: &[&'static str]) -> (&'static str, Expr) {
        let k = self.rng.below(ARRAYS.len() as u64 + buffers.len() as u64) as usize;
        match ARRAYS.get(k) {
            Some(&(name, len)) => (name, self.index(len, self.dynamic[k], depth)),
            None => (buffers[k - ARRAYS.len()], self.index(8, true, depth)),
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        let leaf = depth >= 3;
        match self.rng.below(if leaf { 3 } else { 5 }) {
            0 => Expr::ConstI(self.rng.below(5) as i64),
            1 => Expr::var(self.read_scalar()),
            2 => {
                let (name, idx) = self.access(depth, &["in_1", "out_1"]);
                Expr::index(name, idx)
            }
            3 => Expr::iadd(self.expr(depth + 1), self.expr(depth + 1)),
            _ => Expr::Select(
                Box::new(self.expr(depth + 1)),
                Box::new(self.expr(depth + 1)),
                Box::new(self.expr(depth + 1)),
            ),
        }
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        let compound = depth < 3;
        match self.rng.below(if compound { 8 } else { 5 }) {
            0 => Stmt::Decl {
                name: self.rng.pick(&SCALARS).into(),
                ty: CType::Int(32),
                init: self.rng.chance(2).then(|| self.expr(1)),
            },
            1 => {
                let (name, len) = self.rng.pick(&ARRAYS);
                Stmt::DeclArr {
                    name: name.into(),
                    ty: CType::Int(32),
                    len,
                }
            }
            2 => Stmt::Assign {
                lhs: LValue::Var(if self.rng.chance(8) {
                    "u".into()
                } else {
                    self.rng.pick(&SCALARS).into()
                }),
                rhs: self.expr(1),
            },
            3 | 4 => {
                let (name, idx) = self.access(1, &["out_1"]);
                Stmt::Assign {
                    lhs: LValue::Index(name.into(), Box::new(idx)),
                    rhs: self.expr(1),
                }
            }
            5 | 6 => {
                let id = LoopId(self.next_loop);
                self.next_loop += 1;
                let (bound, trip_count) = match self.rng.below(4) {
                    0 => (Expr::ConstI(0), Some(0)),
                    1 => (Expr::ConstI(1), Some(1)),
                    2 => (Expr::ConstI(3), Some(3)),
                    _ => (Expr::var("n"), None),
                };
                Stmt::For {
                    id,
                    var: self.rng.pick(&LOOP_VARS).into(),
                    bound,
                    trip_count,
                    attrs: LoopAttrs::none(),
                    body: self.block(depth + 1),
                }
            }
            _ => Stmt::If {
                cond: self.expr(1),
                then: self.block(depth + 1),
                els: if self.rng.chance(2) {
                    Vec::new()
                } else {
                    self.block(depth + 1)
                },
            },
        }
    }

    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let n = 1 + self.rng.below(4);
        (0..n).map(|_| self.stmt(depth)).collect()
    }
}

/// Seeded random kernels; about half run inside a runtime-bounded task
/// loop, as generated kernels do.
fn corpus(d: &mut Digest) {
    let mut g = Gen {
        rng: Rng(0xDA7A_F10E),
        dynamic: [false; 3],
        next_loop: 0,
    };
    for _ in 0..KERNELS {
        g.dynamic = [g.rng.chance(2), g.rng.chance(2), g.rng.chance(2)];
        g.next_loop = 1;
        let mut body = g.block(0);
        body.push(Stmt::Assign {
            lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
            rhs: g.expr(1),
        });
        if g.rng.chance(2) {
            body = vec![Stmt::For {
                id: LoopId(0),
                var: "t".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body,
            }];
        }
        d.check(&kernel(body));
    }
}

fn decl(name: &str, init: Option<Expr>) -> Stmt {
    Stmt::Decl {
        name: name.into(),
        ty: CType::Int(32),
        init,
    }
}

fn set(name: &str, rhs: Expr) -> Stmt {
    Stmt::Assign {
        lhs: LValue::Var(name.into()),
        rhs,
    }
}

fn store(array: &str, idx: Expr, rhs: Expr) -> Stmt {
    Stmt::Assign {
        lhs: LValue::Index(array.into(), Box::new(idx)),
        rhs,
    }
}

fn decl_arr(name: &str, len: u32) -> Stmt {
    Stmt::DeclArr {
        name: name.into(),
        ty: CType::Int(32),
        len,
    }
}

/// Hand-built kernels on which E301 or W310 fires, and their near misses.
fn positives(d: &mut Digest) {
    let out0 = |rhs| store("out_1", Expr::ConstI(0), rhs);
    let kernels = vec![
        // E301 on a scalar, an element and a whole array.
        vec![decl("x", None), out0(Expr::var("x"))],
        vec![
            decl_arr("a", 4),
            store("a", Expr::ConstI(0), Expr::ConstI(1)),
            out0(Expr::iadd(
                Expr::index("a", Expr::ConstI(0)),
                Expr::index("a", Expr::ConstI(1)),
            )),
        ],
        vec![
            decl_arr("big", 300),
            out0(Expr::index("big", Expr::ConstI(7))),
        ],
        // A read inside a loop whose body re-declares the scalar.
        vec![Stmt::counted_for(
            LoopId(1),
            "i",
            4,
            vec![
                decl("s", None),
                set("s", Expr::iadd(Expr::var("s"), Expr::ConstI(1))),
            ],
        )],
        // A back-edge definition: silent.
        vec![
            decl("s", None),
            Stmt::counted_for(
                LoopId(1),
                "i",
                4,
                vec![out0(Expr::var("s")), set("s", Expr::ConstI(1))],
            ),
        ],
        // A zero-trip loop: the read is not provably executed.
        vec![
            decl("x", None),
            Stmt::counted_for(LoopId(1), "i", 0, vec![out0(Expr::var("x"))]),
        ],
        // The same read in the task loop is.
        vec![
            decl("x", None),
            Stmt::For {
                id: LoopId(0),
                var: "t".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body: vec![store("out_1", Expr::var("t"), Expr::var("x"))],
            },
        ],
        // Repeated reads: one finding per variable per statement.
        vec![
            decl("x", None),
            decl("y", None),
            out0(Expr::iadd(
                Expr::iadd(Expr::var("y"), Expr::var("x")),
                Expr::var("y"),
            )),
        ],
        // W310: overwritten, never read, and a store to the output.
        vec![
            decl("x", None),
            set("x", Expr::ConstI(5)),
            set("x", Expr::ConstI(6)),
            set("v", Expr::var("x")),
            out0(Expr::var("x")),
        ],
        // W310 on an element; a dynamic store is never dead.
        vec![
            decl_arr("a", 2),
            decl_arr("d", 2),
            store("a", Expr::ConstI(1), Expr::ConstI(2)),
            Stmt::counted_for(
                LoopId(1),
                "i",
                2,
                vec![store("d", Expr::var("i"), Expr::ConstI(3))],
            ),
            out0(Expr::index("d", Expr::ConstI(0))),
        ],
        // A store read only in the next iteration is live.
        vec![
            decl("p", Some(Expr::ConstI(0))),
            Stmt::counted_for(
                LoopId(1),
                "i",
                4,
                vec![out0(Expr::var("p")), set("p", Expr::var("i"))],
            ),
        ],
    ];
    for body in kernels {
        d.check(&kernel(body));
    }
}

#[test]
fn dataflow_digest_is_pinned() {
    let mut d = Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        e301: 0,
        w310: 0,
    };
    let mut parts = Vec::new();
    for (name, part) in [
        ("workloads", workloads as fn(&mut Digest)),
        ("corpus", corpus),
        ("positives", positives),
    ] {
        let (e301, w310) = (d.e301, d.w310);
        part(&mut d);
        parts.push(format!(
            "{name}: {:#018x} ({} E301, {} W310)",
            d.hash,
            d.e301 - e301,
            d.w310 - w310
        ));
    }
    assert_eq!(
        d.hash,
        DIGEST,
        "dataflow digest moved; running totals:\n{}",
        parts.join("\n")
    );
}
