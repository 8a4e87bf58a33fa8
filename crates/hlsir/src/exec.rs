//! Functional executor for the HLS C IR.
//!
//! Executes a [`CFunction`] over in-memory buffers with *exactly* the
//! numeric semantics of the `s2fa-sjvm` interpreter (32-bit wrapping ints,
//! `f32` rounding for `float`, 64-bit bitwise ops), so that
//! interpreter-vs-IR equivalence is a meaningful correctness check for the
//! bytecode-to-C compiler. It also stands in for RTL co-simulation when the
//! Blaze runtime "offloads" a task batch.
//!
//! Every run first *lowers* the function, straight from the AST, into
//! boxed closures. Each distinct scalar name becomes an index into a value
//! vector, each distinct array name an index into an array vector (bound
//! buffers are moved in for the run and handed back afterwards, also on
//! error), each loop captures its own iteration-order override, and each
//! binary operator becomes a closure for its one operator and numeric
//! kind. Running the kernel is calling the body's closures: no name
//! lookup and no dispatch on operator or kind. Names reappear only in
//! error messages and in [`Observed`].
//!
//! Expression closures are typed by their consumer: an index, a loop
//! bound, a condition or an integer operand gets a closure returning
//! `i64`, a float operand one returning `f64`, and only a store into a
//! scalar or array slot, whose value keeps its kind, gets a [`CVal`]. Each
//! node computes in the kind its operator and [`CNumKind`] fix and
//! converts once on return; slot reads convert at the read. The first
//! fault of a run is parked in the machine's fault slot, and the
//! expression returns a placeholder; every statement checks the slot
//! before it writes anything and stops the run when it is set.

use crate::ast::{
    CBinOp, CFunction, CIntrinsic, CNumKind, CType, Expr, LValue, LoopId, ParamKind, Stmt,
};
use crate::HlsirError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A scalar value in the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CVal {
    /// Integral value.
    I(i64),
    /// Floating value.
    F(f64),
}

impl CVal {
    fn zero_of(ty: CType) -> CVal {
        if ty.is_float() {
            CVal::F(0.0)
        } else {
            CVal::I(0)
        }
    }
}

/// Observations collected by [`Executor::run_observed`]: the dynamic
/// ground truth the static E3xx lint rules are validated against.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Reads of never-written storage: `(name, Some(element))` for local
    /// array elements, `(name, None)` for scalars declared without an
    /// initializer. Execution continues with the zero default (matching
    /// the untracked semantics), so a run both observes the hazard and
    /// produces comparable outputs.
    pub uninit_reads: BTreeSet<(String, Option<i64>)>,
}

/// Executes [`CFunction`] bodies over caller-provided buffers.
#[derive(Debug)]
pub struct Executor<'f> {
    f: &'f CFunction,
    fuel: u64,
    orders: BTreeMap<LoopId, Vec<i64>>,
}

/// Default statement budget for one [`Executor::run`].
pub const DEFAULT_FUEL: u64 = 500_000_000;

impl<'f> Executor<'f> {
    /// Creates an executor for the function.
    pub fn new(f: &'f CFunction) -> Self {
        Executor {
            f,
            fuel: DEFAULT_FUEL,
            orders: BTreeMap::new(),
        }
    }

    /// Replaces the statement budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Overrides the iteration order of one loop: instead of `0..bound`
    /// the loop visits exactly the given induction values, in order. Used
    /// by the interleaving oracle — a loop the race detector clears must
    /// produce identical outputs under every permutation of `0..bound`.
    pub fn with_iteration_order(mut self, id: LoopId, order: Vec<i64>) -> Self {
        self.orders.insert(id, order);
        self
    }

    /// Runs the kernel.
    ///
    /// `scalars` must bind every [`ParamKind::ScalarIn`] parameter;
    /// `buffers` must bind every buffer parameter (outputs are overwritten
    /// in place and must be pre-sized by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`HlsirError::Exec`] on missing bindings, an intrinsic call
    /// with the wrong number of arguments, out-of-bounds accesses, or
    /// division by zero. Buffer writes made before the fault stay visible.
    pub fn run(
        &self,
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
    ) -> Result<(), HlsirError> {
        self.execute::<false>(scalars, buffers).map(drop)
    }

    /// Runs the kernel like [`run`](Self::run) while tracking which reads
    /// hit never-initialized storage.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`run`](Self::run).
    pub fn run_observed(
        &self,
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
    ) -> Result<Observed, HlsirError> {
        self.execute::<true>(scalars, buffers)
    }

    /// Checks the bindings, lowers the function and runs it. `OBSERVE`
    /// compiles initialization tracking into the closures; without it
    /// they carry no tracking code at all. Buffers moved into the run go
    /// back to `buffers` whatever the outcome.
    fn execute<const OBSERVE: bool>(
        &self,
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
    ) -> Result<Observed, HlsirError> {
        for p in &self.f.params {
            let (bound, what) = match p.kind {
                ParamKind::ScalarIn => (scalars.contains_key(&p.name), "scalar"),
                _ => (buffers.contains_key(&p.name), "buffer"),
            };
            if !bound {
                return Err(HlsirError::Exec(format!(
                    "missing {what} binding `{}`",
                    p.name
                )));
            }
        }
        let mut lower = Lower::<OBSERVE> {
            scalars: Slots::default(),
            arrays: Slots::default(),
            orders: &self.orders,
        };
        let body = lower.stmts(&self.f.body)?;
        let (scalar_names, array_names) = (&lower.scalars.names, &lower.arrays.names);
        let mut machine = Machine::new(
            scalar_names,
            array_names,
            scalars,
            buffers,
            self.fuel,
            OBSERVE,
        );
        run_block(&body, &mut machine);
        let fault = machine.fault.take();
        let observed = machine.finish(scalar_names, array_names, buffers);
        fault.map_or(Ok(observed), Err)
    }
}

/// One namespace's slot table: slot `k` is the `k`-th distinct name met.
#[derive(Default)]
struct Slots<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, usize>,
}

impl<'a> Slots<'a> {
    fn slot(&mut self, name: &'a str) -> usize {
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            self.names.len() - 1
        })
    }
}

/// A lowered expression returning `T`. On a fault it parks the error in
/// the machine's fault slot (keeping an earlier one) and returns
/// [`Scalar::PLACEHOLDER`].
type ExprFn<'a, T> = Box<dyn Fn(&mut Machine) -> T + 'a>;

/// The type a lowered expression returns, chosen by its consumer: `i64`
/// where the consumer reads an integer, `f64` where it reads a float, and
/// [`CVal`] where the value is stored into a slot that keeps its kind.
/// Each conversion is the one the tagged value would get from the
/// consumer (`as i64` from a float, `as f64` from an integer).
trait Scalar: Copy + 'static {
    /// What a faulting expression returns. No consumer sees it: the
    /// statement that evaluated the expression writes nothing.
    const PLACEHOLDER: Self;
    /// A result of integral kind.
    fn int(v: i64) -> Self;
    /// A result of floating kind.
    fn float(v: f64) -> Self;
    /// A slot's value, of whichever kind it holds.
    #[inline]
    fn read(v: CVal) -> Self {
        match v {
            CVal::I(v) => Self::int(v),
            CVal::F(v) => Self::float(v),
        }
    }
}

impl Scalar for i64 {
    const PLACEHOLDER: i64 = 0;
    #[inline]
    fn int(v: i64) -> i64 {
        v
    }
    #[inline]
    fn float(v: f64) -> i64 {
        v as i64
    }
}

impl Scalar for f64 {
    const PLACEHOLDER: f64 = 0.0;
    #[inline]
    fn int(v: i64) -> f64 {
        v as f64
    }
    #[inline]
    fn float(v: f64) -> f64 {
        v
    }
}

impl Scalar for CVal {
    const PLACEHOLDER: CVal = CVal::I(0);
    #[inline]
    fn int(v: i64) -> CVal {
        CVal::I(v)
    }
    #[inline]
    fn float(v: f64) -> CVal {
        CVal::F(v)
    }
}

/// A lowered statement: charges one unit of fuel, runs, and returns
/// `false` once the run has faulted.
type StmtFn<'a> = Box<dyn Fn(&mut Machine) -> bool + 'a>;

/// Runs statements in order until one faults; true if none did.
fn run_block(body: &[StmtFn], m: &mut Machine) -> bool {
    body.iter().all(|s| s(m))
}

/// Lowers a [`CFunction`] body to closures, assigning slots as it meets
/// names. `OBSERVE` selects closures that also track initialization.
struct Lower<'a, const OBSERVE: bool> {
    scalars: Slots<'a>,
    arrays: Slots<'a>,
    orders: &'a BTreeMap<LoopId, Vec<i64>>,
}

impl<'a, const OBSERVE: bool> Lower<'a, OBSERVE> {
    fn stmts(&mut self, list: &'a [Stmt]) -> Result<Vec<StmtFn<'a>>, HlsirError> {
        list.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<StmtFn<'a>, HlsirError> {
        Ok(match s {
            Stmt::DeclArr { name, ty, len } => {
                let arr = self.arrays.slot(name);
                let (zero, len) = (CVal::zero_of(*ty), *len as usize);
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    m.arrays[arr].declare(zero, len);
                    if OBSERVE {
                        let fresh = &mut m.track.array_uninit[arr];
                        fresh.clear();
                        fresh.resize(len, true);
                    }
                    true
                })
            }
            Stmt::Decl {
                name,
                ty,
                init: None,
            } => {
                let var = self.scalars.slot(name);
                let zero = CVal::zero_of(*ty);
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    if OBSERVE {
                        m.track.uninit_scalars[var] = true;
                    }
                    m.scalars[var] = Some(zero);
                    true
                })
            }
            Stmt::Decl {
                name,
                init: Some(rhs),
                ..
            }
            | Stmt::Assign {
                lhs: LValue::Var(name),
                rhs,
            } => {
                let var = self.scalars.slot(name);
                let rhs = self.expr::<CVal>(rhs)?;
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    let v = rhs(m);
                    if m.fault.is_some() {
                        return false;
                    }
                    if OBSERVE {
                        m.track.uninit_scalars[var] = false;
                    }
                    m.scalars[var] = Some(v);
                    true
                })
            }
            Stmt::Assign {
                lhs: LValue::Index(name, idx),
                rhs,
            } => {
                let arr = self.arrays.slot(name);
                let idx = self.expr::<i64>(idx)?;
                let rhs = self.expr::<CVal>(rhs)?;
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    // The right-hand side runs before the index.
                    let v = rhs(m);
                    let i = idx(m);
                    if m.fault.is_some() {
                        return false;
                    }
                    if OBSERVE {
                        if let Some(fresh) = m.track.array_uninit[arr].get_mut(i as usize) {
                            *fresh = false;
                        }
                    }
                    let fault = match m.arrays[arr].data.as_mut() {
                        Some(data) => match data.get_mut(i as usize) {
                            Some(slot) => {
                                *slot = v;
                                return true;
                            }
                            None => out_of_bounds(name, i, data.len()),
                        },
                        None => unknown_array(name),
                    };
                    m.fault = Some(fault);
                    false
                })
            }
            Stmt::For {
                id,
                var,
                bound,
                body,
                ..
            } => {
                let var = self.scalars.slot(var);
                let bound = self.expr::<i64>(bound)?;
                let order = self.orders.get(id).map(Vec::as_slice);
                let body = self.stmts(body)?;
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    let n = bound(m);
                    if m.fault.is_some() {
                        return false;
                    }
                    if OBSERVE {
                        m.track.uninit_scalars[var] = false;
                    }
                    let mut iteration = |i: i64| {
                        m.scalars[var] = Some(CVal::I(i));
                        run_block(&body, m)
                    };
                    match order {
                        Some(order) => order.iter().all(|&i| iteration(i)),
                        None => (0..n).all(iteration),
                    }
                })
            }
            Stmt::If { cond, then, els } => {
                let cond = self.expr::<i64>(cond)?;
                let then = self.stmts(then)?;
                let els = self.stmts(els)?;
                Box::new(move |m: &mut Machine| {
                    if !m.charge() {
                        return false;
                    }
                    let taken = cond(m) != 0;
                    if m.fault.is_some() {
                        return false;
                    }
                    run_block(if taken { &then } else { &els }, m)
                })
            }
        })
    }

    /// Lowers `e` to a closure returning `T`: its value exactly as the
    /// consumer of a tagged [`CVal`] would read it.
    fn expr<T: Scalar>(&mut self, e: &'a Expr) -> Result<ExprFn<'a, T>, HlsirError> {
        Ok(match e {
            Expr::ConstI(v) => constant(T::int(*v)),
            Expr::ConstF(v) => constant(T::float(*v)),
            Expr::Var(name) => {
                let s = self.scalars.slot(name);
                Box::new(move |m: &mut Machine| {
                    if OBSERVE && m.track.uninit_scalars[s] {
                        m.track.scalar_reads[s] = true;
                    }
                    match m.scalars[s] {
                        Some(v) => T::read(v),
                        None => m.fail(unknown_variable(name)),
                    }
                })
            }
            Expr::Index(name, idx) => {
                let a = self.arrays.slot(name);
                let idx = self.expr::<i64>(idx)?;
                Box::new(move |m: &mut Machine| {
                    let i = idx(m);
                    if OBSERVE && m.track.array_uninit[a].get(i as usize) == Some(&true) {
                        m.track.array_reads.insert((a, i));
                    }
                    let fault = match m.arrays[a].data.as_deref() {
                        Some(data) => match data.get(i as usize) {
                            Some(v) => return T::read(*v),
                            None => out_of_bounds(name, i, data.len()),
                        },
                        None => unknown_array(name),
                    };
                    m.fail(fault)
                })
            }
            Expr::Bin(op, kind, a, b) => match (op.is_cmp(), kind) {
                (true, CNumKind::I32 | CNumKind::I64) => {
                    let (a, b) = (self.expr::<i64>(a)?, self.expr::<i64>(b)?);
                    compare(*op, a, b, |x, y| x.cmp(&y))
                }
                // NaN compares neither less nor greater: equal, as in the
                // sjvm interpreter's sign test.
                (true, CNumKind::F32 | CNumKind::F64) => {
                    let (a, b) = (self.expr::<f64>(a)?, self.expr::<f64>(b)?);
                    compare(*op, a, b, |x, y| {
                        x.partial_cmp(&y).unwrap_or(Ordering::Equal)
                    })
                }
                (false, CNumKind::I32 | CNumKind::I64) => {
                    let (a, b) = (self.expr::<i64>(a)?, self.expr::<i64>(b)?);
                    if *kind == CNumKind::I32 {
                        int_arith::<T, true>(*op, a, b)
                    } else {
                        int_arith::<T, false>(*op, a, b)
                    }
                }
                (false, CNumKind::F32 | CNumKind::F64) => {
                    let (a, b) = (self.expr::<f64>(a)?, self.expr::<f64>(b)?);
                    if *kind == CNumKind::F32 {
                        float_arith::<T, true>(*op, a, b)
                    } else {
                        float_arith::<T, false>(*op, a, b)
                    }
                }
            },
            Expr::Neg(kind, a) => {
                let kind = *kind;
                if kind.is_float() {
                    unary(self.expr::<f64>(a)?, move |v| T::float(round(-v, kind)))
                } else {
                    unary(self.expr::<i64>(a)?, move |v| {
                        T::int(wrap(v.wrapping_neg(), kind))
                    })
                }
            }
            Expr::Call(f, kind, args) => {
                if args.len() != f.arity() {
                    return Err(HlsirError::Exec(format!(
                        "`{}` takes {} argument(s), got {}",
                        f.c_name(),
                        f.arity(),
                        args.len()
                    )));
                }
                let (float, arg) = (kind.is_float(), &args[0]);
                match f {
                    CIntrinsic::Exp => unary(self.expr::<f64>(arg)?, |x| T::float(x.exp())),
                    CIntrinsic::Log => unary(self.expr::<f64>(arg)?, |x| T::float(x.ln())),
                    CIntrinsic::Sqrt => unary(self.expr::<f64>(arg)?, |x| T::float(x.sqrt())),
                    CIntrinsic::Abs if float => {
                        unary(self.expr::<f64>(arg)?, |x| T::float(x.abs()))
                    }
                    CIntrinsic::Abs => unary(self.expr::<i64>(arg)?, |x| T::int(x.wrapping_abs())),
                    CIntrinsic::Min | CIntrinsic::Max if float => {
                        let (a, b) = (self.expr::<f64>(arg)?, self.expr::<f64>(&args[1])?);
                        if *f == CIntrinsic::Min {
                            binary(a, b, |x, y| T::float(x.min(y)))
                        } else {
                            binary(a, b, |x, y| T::float(x.max(y)))
                        }
                    }
                    CIntrinsic::Min | CIntrinsic::Max => {
                        let (a, b) = (self.expr::<i64>(arg)?, self.expr::<i64>(&args[1])?);
                        if *f == CIntrinsic::Min {
                            binary(a, b, |x, y| T::int(x.min(y)))
                        } else {
                            binary(a, b, |x, y| T::int(x.max(y)))
                        }
                    }
                }
            }
            Expr::Cast(from, to, a) => {
                let to = *to;
                match (from.is_float(), to.is_float()) {
                    (false, false) => unary(self.expr::<i64>(a)?, move |v| T::int(wrap(v, to))),
                    (false, true) => {
                        unary(self.expr::<i64>(a)?, move |v| T::float(round(v as f64, to)))
                    }
                    (true, false) => unary(self.expr::<f64>(a)?, move |v| {
                        T::int(wrap(if v.is_nan() { 0 } else { v as i64 }, to))
                    }),
                    (true, true) => unary(self.expr::<f64>(a)?, move |v| T::float(round(v, to))),
                }
            }
            // The branches return what the Select's consumer reads, so a
            // store keeps each branch's own kind.
            Expr::Select(c, a, b) => {
                let c = self.expr::<i64>(c)?;
                let (a, b) = (self.expr::<T>(a)?, self.expr::<T>(b)?);
                Box::new(move |m: &mut Machine| if c(m) != 0 { a(m) } else { b(m) })
            }
        })
    }
}

fn constant<'a, T: Scalar>(v: T) -> ExprFn<'a, T> {
    Box::new(move |_: &mut Machine| v)
}

/// Evaluates `a` and applies `f`.
fn unary<'a, X: 'a, T>(a: ExprFn<'a, X>, f: impl Fn(X) -> T + 'a) -> ExprFn<'a, T> {
    Box::new(move |m: &mut Machine| f(a(m)))
}

/// Evaluates `a`, then `b`, and combines them with `f`.
fn binary<'a, X: 'a, T>(
    a: ExprFn<'a, X>,
    b: ExprFn<'a, X>,
    f: impl Fn(X, X) -> T + 'a,
) -> ExprFn<'a, T> {
    Box::new(move |m: &mut Machine| {
        let x = a(m);
        let y = b(m);
        f(x, y)
    })
}

/// A comparison: `ord` orders the operands, the result is 0 or 1.
fn compare<'a, X: 'a, T: Scalar>(
    op: CBinOp,
    a: ExprFn<'a, X>,
    b: ExprFn<'a, X>,
    ord: impl Fn(X, X) -> Ordering + Copy + 'a,
) -> ExprFn<'a, T> {
    let flag = |hit: bool| T::int(hit as i64);
    match op {
        CBinOp::Lt => binary(a, b, move |x, y| flag(ord(x, y).is_lt())),
        CBinOp::Le => binary(a, b, move |x, y| flag(ord(x, y).is_le())),
        CBinOp::Gt => binary(a, b, move |x, y| flag(ord(x, y).is_gt())),
        CBinOp::Ge => binary(a, b, move |x, y| flag(ord(x, y).is_ge())),
        CBinOp::Eq => binary(a, b, move |x, y| flag(ord(x, y).is_eq())),
        CBinOp::Ne => binary(a, b, move |x, y| flag(ord(x, y).is_ne())),
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// Integer arithmetic and bitwise operators. Arithmetic wraps to 32 bits
/// when `I32`; shifts and bitwise ops act on the 64-bit representation
/// (same deviation as the sjvm interpreter).
fn int_arith<'a, T: Scalar, const I32: bool>(
    op: CBinOp,
    a: ExprFn<'a, i64>,
    b: ExprFn<'a, i64>,
) -> ExprFn<'a, T> {
    let wrap = |r: i64| T::int(if I32 { r as i32 as i64 } else { r });
    let shift = |y: i64| (y & 63) as u32;
    match op {
        CBinOp::Add => binary(a, b, move |x, y| wrap(x.wrapping_add(y))),
        CBinOp::Sub => binary(a, b, move |x, y| wrap(x.wrapping_sub(y))),
        CBinOp::Mul => binary(a, b, move |x, y| wrap(x.wrapping_mul(y))),
        CBinOp::Div => int_divide(a, b, "integer division by zero", move |x, y| {
            wrap(x.wrapping_div(y))
        }),
        CBinOp::Rem => int_divide(a, b, "integer remainder by zero", move |x, y| {
            wrap(x.wrapping_rem(y))
        }),
        CBinOp::Shl => binary(a, b, move |x, y| T::int(x.wrapping_shl(shift(y)))),
        CBinOp::Shr => binary(a, b, move |x, y| T::int(x.wrapping_shr(shift(y)))),
        CBinOp::UShr => binary(a, b, move |x, y| {
            T::int((x as u64).wrapping_shr(shift(y)) as i64)
        }),
        CBinOp::And => binary(a, b, |x, y| T::int(x & y)),
        CBinOp::Or => binary(a, b, |x, y| T::int(x | y)),
        CBinOp::Xor => binary(a, b, |x, y| T::int(x ^ y)),
        _ => unreachable!("comparisons are lowered by `compare`"),
    }
}

/// Integer division or remainder: faults with `zero` on a zero divisor
/// once both operands have run.
fn int_divide<'a, T: Scalar>(
    a: ExprFn<'a, i64>,
    b: ExprFn<'a, i64>,
    zero: &'static str,
    f: impl Fn(i64, i64) -> T + 'a,
) -> ExprFn<'a, T> {
    Box::new(move |m: &mut Machine| {
        let x = a(m);
        let y = b(m);
        if y == 0 {
            return m.fail(HlsirError::Exec(zero.into()));
        }
        f(x, y)
    })
}

/// Float arithmetic: operands and result round through `f32` when
/// `F32`. Bitwise operators fault once both operands have run.
fn float_arith<'a, T: Scalar, const F32: bool>(
    op: CBinOp,
    a: ExprFn<'a, f64>,
    b: ExprFn<'a, f64>,
) -> ExprFn<'a, T> {
    let r = |v: f64| if F32 { v as f32 as f64 } else { v };
    match op {
        CBinOp::Add => binary(a, b, move |x, y| T::float(r(r(x) + r(y)))),
        CBinOp::Sub => binary(a, b, move |x, y| T::float(r(r(x) - r(y)))),
        CBinOp::Mul => binary(a, b, move |x, y| T::float(r(r(x) * r(y)))),
        CBinOp::Div => binary(a, b, move |x, y| T::float(r(r(x) / r(y)))),
        CBinOp::Rem => binary(a, b, move |x, y| T::float(r(r(x) % r(y)))),
        _ => Box::new(move |m: &mut Machine| {
            a(m);
            b(m);
            m.fail(HlsirError::Exec(format!(
                "bitwise operator {op:?} on floats"
            )))
        }),
    }
}

/// One array name's storage for the run.
struct ArraySlot {
    /// What `name[i]` reads and writes: the local array once a `DeclArr`
    /// of the name has run, else the caller's buffer, else nothing.
    data: Option<Vec<CVal>>,
    /// True once a `DeclArr` of the name has run.
    local: bool,
    /// The caller's buffer while a local array of the same name shadows it.
    shadowed: Option<Vec<CVal>>,
    /// The caller's map key, if a buffer of this name was bound.
    key: Option<String>,
}

impl ArraySlot {
    /// Runs a `DeclArr`: the first one shadows the caller's buffer, and
    /// every one re-zeroes the local array, reusing its allocation.
    fn declare(&mut self, zero: CVal, len: usize) {
        if !self.local {
            self.shadowed = self.data.take();
            self.local = true;
        }
        let data = self.data.get_or_insert_with(Vec::new);
        data.clear();
        data.resize(len, zero);
    }
}

/// Initialization state of an observed run, per slot. Empty and never
/// touched in an unobserved run.
#[derive(Default)]
struct Track {
    /// Scalar slots holding only their zero default.
    uninit_scalars: Vec<bool>,
    /// Scalar slots read while uninitialized.
    scalar_reads: Vec<bool>,
    /// Per array slot, per-element freshness of the local array (true =
    /// never written); empty until the slot's `DeclArr` runs.
    array_uninit: Vec<Vec<bool>>,
    /// Uninitialized array reads as `(array slot, element)`.
    array_reads: BTreeSet<(usize, i64)>,
}

/// The state the lowered closures run against.
struct Machine {
    /// Scalar slots; `None` until bound by the caller, a `Decl`, an
    /// assignment or a loop.
    scalars: Vec<Option<CVal>>,
    arrays: Vec<ArraySlot>,
    fuel: u64,
    /// The run's first fault; the run stops at the statement that sees it.
    fault: Option<HlsirError>,
    track: Track,
}

impl Machine {
    fn new(
        scalar_names: &[&str],
        array_names: &[&str],
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
        fuel: u64,
        observe: bool,
    ) -> Self {
        let arrays = array_names
            .iter()
            .map(|n| {
                let (key, data) = buffers.remove_entry(*n).unzip();
                ArraySlot {
                    data,
                    local: false,
                    shadowed: None,
                    key,
                }
            })
            .collect();
        let track = if observe {
            Track {
                uninit_scalars: vec![false; scalar_names.len()],
                scalar_reads: vec![false; scalar_names.len()],
                array_uninit: vec![Vec::new(); array_names.len()],
                array_reads: BTreeSet::new(),
            }
        } else {
            Track::default()
        };
        Machine {
            scalars: scalar_names
                .iter()
                .map(|n| scalars.get(*n).copied())
                .collect(),
            arrays,
            fuel,
            fault: None,
            track,
        }
    }

    /// Charges one statement's fuel; on an empty budget records the fault
    /// and returns false.
    #[inline]
    fn charge(&mut self) -> bool {
        if self.fuel == 0 {
            self.fault = Some(HlsirError::Exec("statement budget exhausted".into()));
            return false;
        }
        self.fuel -= 1;
        true
    }

    /// Records `e` unless an earlier fault is already recorded, and
    /// returns the placeholder the faulting expression yields.
    #[cold]
    fn fail<T: Scalar>(&mut self, e: HlsirError) -> T {
        self.fault.get_or_insert(e);
        T::PLACEHOLDER
    }

    /// Hands the buffers back to the caller and maps the observations
    /// back to names.
    fn finish(
        self,
        scalar_names: &[&str],
        array_names: &[&str],
        buffers: &mut BTreeMap<String, Vec<CVal>>,
    ) -> Observed {
        for slot in self.arrays {
            let buffer = if slot.local { slot.shadowed } else { slot.data };
            if let (Some(key), Some(buffer)) = (slot.key, buffer) {
                buffers.insert(key, buffer);
            }
        }
        let t = self.track;
        let scalars = t
            .scalar_reads
            .iter()
            .enumerate()
            .filter(|(_, read)| **read)
            .map(|(s, _)| (scalar_names[s].to_string(), None));
        let arrays = t
            .array_reads
            .into_iter()
            .map(|(a, i)| (array_names[a].to_string(), Some(i)));
        Observed {
            uninit_reads: scalars.chain(arrays).collect(),
        }
    }
}

#[cold]
fn unknown_variable(name: &str) -> HlsirError {
    HlsirError::Exec(format!("unknown variable `{name}`"))
}

#[cold]
fn unknown_array(name: &str) -> HlsirError {
    HlsirError::Exec(format!("unknown array `{name}`"))
}

#[cold]
fn out_of_bounds(name: &str, i: i64, len: usize) -> HlsirError {
    HlsirError::Exec(format!("`{name}[{i}]` out of bounds ({len})"))
}

fn wrap(v: i64, k: CNumKind) -> i64 {
    match k {
        CNumKind::I32 => v as i32 as i64,
        _ => v,
    }
}

fn round(v: f64, k: CNumKind) -> f64 {
    match k {
        CNumKind::F32 => v as f32 as f64,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn scale_kernel() -> CFunction {
        // out[i] = in[i] * 2.0 for i in 0..n
        CFunction {
            name: "scale".into(),
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
                    ty: CType::Float,
                    kind: ParamKind::BufIn,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
                Param {
                    name: "out_1".into(),
                    ty: CType::Float,
                    kind: ParamKind::BufOut,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
            ],
            body: vec![Stmt::For {
                id: LoopId(0),
                var: "i".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body: vec![Stmt::Assign {
                    lhs: LValue::Index("out_1".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::bin(
                        CBinOp::Mul,
                        CNumKind::F32,
                        Expr::index("in_1", Expr::var("i")),
                        Expr::ConstF(2.0),
                    ),
                }],
            }],
        }
    }

    #[test]
    fn runs_counted_loop() {
        let f = scale_kernel();
        let mut buffers = BTreeMap::new();
        buffers.insert(
            "in_1".to_string(),
            vec![CVal::F(1.0), CVal::F(2.5), CVal::F(-3.0)],
        );
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0); 3]);
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(3));
        Executor::new(&f).run(&scalars, &mut buffers).unwrap();
        assert_eq!(
            buffers["out_1"],
            vec![CVal::F(2.0), CVal::F(5.0), CVal::F(-6.0)]
        );
    }

    #[test]
    fn missing_binding_is_an_error() {
        let f = scale_kernel();
        let mut buffers = BTreeMap::new();
        let scalars = BTreeMap::new();
        let e = Executor::new(&f).run(&scalars, &mut buffers).unwrap_err();
        assert_eq!(e, HlsirError::Exec("missing scalar binding `n`".into()));
        let observed = Executor::new(&f)
            .run_observed(&scalars, &mut buffers)
            .unwrap_err();
        assert_eq!(observed, e);
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(0));
        buffers.insert("in_1".to_string(), Vec::new());
        let e = Executor::new(&f)
            .run_observed(&scalars, &mut buffers)
            .unwrap_err();
        assert_eq!(e, HlsirError::Exec("missing buffer binding `out_1`".into()));
    }

    #[test]
    fn intrinsic_arity_mismatch_is_an_error_not_a_panic() {
        // out_1[0] = fmax(1.0) on a malformed tree, in a branch never taken:
        // resolution rejects it before anything runs.
        for args in [vec![Expr::ConstF(1.0)], vec![]] {
            let f = body_kernel(
                vec![out_param(CType::Float)],
                vec![Stmt::If {
                    cond: Expr::ConstI(0),
                    then: vec![store(
                        "out_1",
                        Expr::ConstI(0),
                        Expr::Call(CIntrinsic::Max, CNumKind::F32, args.clone()),
                    )],
                    els: vec![],
                }],
            );
            let want = HlsirError::Exec(format!("`fmax` takes 2 argument(s), got {}", args.len()));
            let mut buffers = BTreeMap::new();
            buffers.insert("out_1".to_string(), vec![CVal::F(5.0)]);
            let exec = Executor::new(&f);
            assert_eq!(exec.run(&BTreeMap::new(), &mut buffers), Err(want.clone()));
            assert_eq!(
                exec.run_observed(&BTreeMap::new(), &mut buffers)
                    .unwrap_err(),
                want
            );
            assert_eq!(buffers["out_1"], vec![CVal::F(5.0)]);
        }
        let sqrt = body_kernel(
            vec![out_param(CType::Float)],
            vec![store(
                "out_1",
                Expr::ConstI(0),
                Expr::Call(CIntrinsic::Sqrt, CNumKind::F32, vec![Expr::ConstF(4.0); 2]),
            )],
        );
        assert_eq!(
            run_out(&sqrt, 1).0.unwrap_err(),
            HlsirError::Exec("`sqrtf` takes 1 argument(s), got 2".into())
        );
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let f = scale_kernel();
        let mut buffers = BTreeMap::new();
        buffers.insert("in_1".to_string(), vec![CVal::F(1.0)]);
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0)]);
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(5));
        assert!(Executor::new(&f).run(&scalars, &mut buffers).is_err());
    }

    #[test]
    fn int_semantics_match_jvm() {
        assert_eq!(
            eval(Expr::bin(
                CBinOp::Add,
                CNumKind::I32,
                Expr::ConstI(i32::MAX as i64),
                Expr::ConstI(1)
            ))
            .unwrap(),
            CVal::I(i32::MIN as i64)
        );
        assert_eq!(
            eval(Expr::bin(
                CBinOp::Xor,
                CNumKind::I32,
                Expr::ConstI(-1),
                Expr::ConstI(0xff)
            ))
            .unwrap(),
            CVal::I(-256)
        );
    }

    #[test]
    fn f32_rounding() {
        let r = eval(Expr::bin(
            CBinOp::Add,
            CNumKind::F32,
            Expr::ConstF(0.1),
            Expr::ConstF(0.2),
        ))
        .unwrap();
        assert_eq!(r, CVal::F((0.1f32 + 0.2f32) as f64));
        // Each operand rounds to f32 before the add: 16 777 217 is not an
        // f32, so it reads 16 777 216, and 16 777 216 + 1 rounds back
        // down. Adding first and rounding once would give 16 777 218.
        let r = eval(Expr::bin(
            CBinOp::Add,
            CNumKind::F32,
            Expr::ConstF(16_777_217.0),
            Expr::ConstF(1.0),
        ))
        .unwrap();
        assert_eq!(r, CVal::F(16_777_216.0));
    }

    #[test]
    fn div_by_zero_is_an_error() {
        assert!(eval(Expr::bin(
            CBinOp::Div,
            CNumKind::I32,
            Expr::ConstI(1),
            Expr::ConstI(0)
        ))
        .is_err());
    }

    #[test]
    fn select_and_compare() {
        let e = Expr::Select(
            Box::new(Expr::bin(
                CBinOp::Gt,
                CNumKind::F64,
                Expr::ConstF(2.0),
                Expr::ConstF(1.0),
            )),
            Box::new(Expr::ConstI(10)),
            Box::new(Expr::ConstI(20)),
        );
        let f = CFunction {
            name: "t".into(),
            params: vec![],
            body: vec![Stmt::Decl {
                name: "x".into(),
                ty: CType::Int(32),
                init: Some(e),
            }],
        };
        let mut env_bufs = BTreeMap::new();
        Executor::new(&f)
            .run(&BTreeMap::new(), &mut env_bufs)
            .unwrap();
    }

    #[test]
    fn observed_run_reports_uninit_reads() {
        // int s; acc[4]; out[0] = s + acc[2] — both reads are fresh.
        let f = CFunction {
            name: "u".into(),
            params: vec![Param {
                name: "out_1".into(),
                ty: CType::Float,
                kind: ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            }],
            body: vec![
                Stmt::Decl {
                    name: "s".into(),
                    ty: CType::Int(32),
                    init: None,
                },
                Stmt::DeclArr {
                    name: "acc".into(),
                    ty: CType::Float,
                    len: 4,
                },
                Stmt::Assign {
                    lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::iadd(Expr::var("s"), Expr::index("acc", Expr::ConstI(2))),
                },
            ],
        };
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0)]);
        let obs = Executor::new(&f)
            .run_observed(&BTreeMap::new(), &mut buffers)
            .unwrap();
        assert!(obs.uninit_reads.contains(&("s".to_string(), None)));
        assert!(obs.uninit_reads.contains(&("acc".to_string(), Some(2))));
        assert_eq!(obs.uninit_reads.len(), 2);
    }

    #[test]
    fn observed_run_is_clean_after_writes() {
        // acc[1]; acc[0] = 3; out[0] = acc[0] — no fresh reads.
        let f = CFunction {
            name: "c".into(),
            params: vec![Param {
                name: "out_1".into(),
                ty: CType::Float,
                kind: ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            }],
            body: vec![
                Stmt::DeclArr {
                    name: "acc".into(),
                    ty: CType::Float,
                    len: 1,
                },
                Stmt::Assign {
                    lhs: LValue::Index("acc".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::ConstI(3),
                },
                Stmt::Assign {
                    lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::index("acc", Expr::ConstI(0)),
                },
            ],
        };
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0)]);
        let obs = Executor::new(&f)
            .run_observed(&BTreeMap::new(), &mut buffers)
            .unwrap();
        assert!(obs.uninit_reads.is_empty());
    }

    #[test]
    fn iteration_order_override_permutes_the_loop() {
        // out[i] = in[i] * 2 visited in reverse order: same result.
        let f = scale_kernel();
        let mut fwd = BTreeMap::new();
        fwd.insert(
            "in_1".to_string(),
            vec![CVal::F(1.0), CVal::F(2.5), CVal::F(-3.0)],
        );
        fwd.insert("out_1".to_string(), vec![CVal::F(0.0); 3]);
        let mut rev = fwd.clone();
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(3));
        Executor::new(&f).run(&scalars, &mut fwd).unwrap();
        Executor::new(&f)
            .with_iteration_order(LoopId(0), vec![2, 1, 0])
            .run(&scalars, &mut rev)
            .unwrap();
        assert_eq!(fwd["out_1"], rev["out_1"]);
    }

    #[test]
    fn fuel_bounds_execution() {
        let f = scale_kernel();
        let mut buffers = BTreeMap::new();
        buffers.insert("in_1".to_string(), vec![CVal::F(0.0); 100]);
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0); 100]);
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(100));
        let e = Executor::new(&f)
            .with_fuel(10)
            .run(&scalars, &mut buffers)
            .unwrap_err();
        assert!(e.to_string().contains("budget"));
    }

    fn out_param(ty: CType) -> Param {
        Param {
            name: "out_1".into(),
            ty,
            kind: ParamKind::BufOut,
            elems_per_task: Some(1),
            broadcast: false,
        }
    }

    fn body_kernel(params: Vec<Param>, body: Vec<Stmt>) -> CFunction {
        CFunction {
            name: "k".into(),
            params,
            body,
        }
    }

    fn store(arr: &str, idx: Expr, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Index(arr.into(), Box::new(idx)),
            rhs,
        }
    }

    fn ints(v: &[i64]) -> Vec<CVal> {
        v.iter().map(|&x| CVal::I(x)).collect()
    }

    /// Runs `f` with only `out_1` bound (to `len` zeros).
    fn run_out(f: &CFunction, len: usize) -> (Result<(), HlsirError>, Vec<CVal>) {
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), vec![CVal::I(0); len]);
        let r = Executor::new(f).run(&BTreeMap::new(), &mut buffers);
        (r, buffers.remove("out_1").unwrap())
    }

    #[test]
    fn fuel_k_runs_exactly_k_statements() {
        // One `For` plus one store per iteration: 1 + n statements.
        let f = scale_kernel();
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(3));
        for k in 0..=5u64 {
            let mut buffers = BTreeMap::new();
            buffers.insert("in_1".to_string(), vec![CVal::F(1.0); 3]);
            buffers.insert("out_1".to_string(), vec![CVal::F(0.0); 3]);
            let r = Executor::new(&f).with_fuel(k).run(&scalars, &mut buffers);
            if k >= 4 {
                r.unwrap();
            } else {
                assert_eq!(
                    r.unwrap_err(),
                    HlsirError::Exec("statement budget exhausted".into())
                );
            }
            let stores = buffers["out_1"]
                .iter()
                .filter(|v| **v == CVal::F(2.0))
                .count();
            assert_eq!(stores as u64, k.saturating_sub(1).min(3), "fuel {k}");
        }
    }

    #[test]
    fn error_texts_are_exact() {
        let exec = |f: &CFunction| run_out(f, 1).0.unwrap_err();
        let oob = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store("out_1", Expr::ConstI(1), Expr::ConstI(0))],
        );
        assert_eq!(
            exec(&oob),
            HlsirError::Exec("`out_1[1]` out of bounds (1)".into())
        );
        let oob_read = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store(
                "out_1",
                Expr::ConstI(0),
                Expr::index("out_1", Expr::ConstI(-2)),
            )],
        );
        assert_eq!(
            exec(&oob_read),
            HlsirError::Exec("`out_1[-2]` out of bounds (1)".into())
        );
        let var = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store("out_1", Expr::ConstI(0), Expr::var("zz"))],
        );
        assert_eq!(exec(&var), HlsirError::Exec("unknown variable `zz`".into()));
        let arr = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store(
                "out_1",
                Expr::ConstI(0),
                Expr::index("nope", Expr::ConstI(0)),
            )],
        );
        assert_eq!(exec(&arr), HlsirError::Exec("unknown array `nope`".into()));
        let arr_write = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store("nope", Expr::ConstI(0), Expr::ConstI(1))],
        );
        assert_eq!(
            exec(&arr_write),
            HlsirError::Exec("unknown array `nope`".into())
        );
        for (op, text) in [
            (CBinOp::Div, "integer division by zero"),
            (CBinOp::Rem, "integer remainder by zero"),
        ] {
            let f = body_kernel(
                vec![out_param(CType::Int(32))],
                vec![store(
                    "out_1",
                    Expr::ConstI(0),
                    Expr::bin(op, CNumKind::I32, Expr::ConstI(7), Expr::ConstI(0)),
                )],
            );
            assert_eq!(exec(&f), HlsirError::Exec(text.into()));
        }
    }

    #[test]
    fn local_array_shadows_a_buffer_of_the_same_name() {
        // int out_1[2]; out_1[0] = 7; out_1[1] = out_1[0] + 1;
        // The caller's out_1 buffer is never touched.
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![
                Stmt::DeclArr {
                    name: "out_1".into(),
                    ty: CType::Int(32),
                    len: 2,
                },
                store("out_1", Expr::ConstI(0), Expr::ConstI(7)),
                store(
                    "out_1",
                    Expr::ConstI(1),
                    Expr::iadd(Expr::index("out_1", Expr::ConstI(0)), Expr::ConstI(1)),
                ),
            ],
        );
        let (r, out) = run_out(&f, 1);
        r.unwrap();
        assert_eq!(out, ints(&[0]));
    }

    #[test]
    fn decl_arr_in_a_loop_rezeroes_every_iteration() {
        // for i < 3 { int acc[1]; acc[0] = acc[0] + 1; out_1[i] = acc[0]; }
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![Stmt::counted_for(
                LoopId(0),
                "i",
                3,
                vec![
                    Stmt::DeclArr {
                        name: "acc".into(),
                        ty: CType::Int(32),
                        len: 1,
                    },
                    store(
                        "acc",
                        Expr::ConstI(0),
                        Expr::iadd(Expr::index("acc", Expr::ConstI(0)), Expr::ConstI(1)),
                    ),
                    store("out_1", Expr::var("i"), Expr::index("acc", Expr::ConstI(0))),
                ],
            )],
        );
        let (r, out) = run_out(&f, 3);
        r.unwrap();
        assert_eq!(out, ints(&[1, 1, 1]));
    }

    #[test]
    fn buffer_writes_before_an_error_stay_visible() {
        // out_1[i] = in_1[i] * 2 with in_1 two elements short.
        let f = scale_kernel();
        let mut buffers = BTreeMap::new();
        buffers.insert("in_1".to_string(), vec![CVal::F(1.0), CVal::F(2.0)]);
        buffers.insert("out_1".to_string(), vec![CVal::F(0.0); 4]);
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(4));
        let e = Executor::new(&f).run(&scalars, &mut buffers).unwrap_err();
        assert_eq!(e, HlsirError::Exec("`in_1[2]` out of bounds (2)".into()));
        assert_eq!(buffers["in_1"], vec![CVal::F(1.0), CVal::F(2.0)]);
        assert_eq!(
            buffers["out_1"],
            vec![CVal::F(2.0), CVal::F(4.0), CVal::F(0.0), CVal::F(0.0)]
        );
    }

    #[test]
    fn scalar_read_before_its_decl_is_an_error() {
        // out_1[0] = x; int x = 1;
        let early = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![
                store("out_1", Expr::ConstI(0), Expr::var("x")),
                Stmt::Decl {
                    name: "x".into(),
                    ty: CType::Int(32),
                    init: Some(Expr::ConstI(1)),
                },
            ],
        );
        assert_eq!(
            run_out(&early, 1).0.unwrap_err(),
            HlsirError::Exec("unknown variable `x`".into())
        );
        // for i < 2 { if (i == 1) out_1[0] = x; int x = 5; }: a scalar
        // stays bound once its Decl has run, so the second pass reads it.
        let later = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![Stmt::counted_for(
                LoopId(0),
                "i",
                2,
                vec![
                    Stmt::If {
                        cond: Expr::bin(CBinOp::Eq, CNumKind::I32, Expr::var("i"), Expr::ConstI(1)),
                        then: vec![store("out_1", Expr::ConstI(0), Expr::var("x"))],
                        els: vec![],
                    },
                    Stmt::Decl {
                        name: "x".into(),
                        ty: CType::Int(32),
                        init: Some(Expr::ConstI(5)),
                    },
                ],
            )],
        );
        let (r, out) = run_out(&later, 1);
        r.unwrap();
        assert_eq!(out, ints(&[5]));
    }

    #[test]
    fn inner_loop_order_override_applies_on_every_entry() {
        // int c = 0; for i < 2 { for j < 3 { out_1[3*i + j] = c; c = c + 1; } }
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![
                Stmt::Decl {
                    name: "c".into(),
                    ty: CType::Int(32),
                    init: Some(Expr::ConstI(0)),
                },
                Stmt::counted_for(
                    LoopId(0),
                    "i",
                    2,
                    vec![Stmt::counted_for(
                        LoopId(1),
                        "j",
                        3,
                        vec![
                            store(
                                "out_1",
                                Expr::iadd(
                                    Expr::imul(Expr::ConstI(3), Expr::var("i")),
                                    Expr::var("j"),
                                ),
                                Expr::var("c"),
                            ),
                            Stmt::Assign {
                                lhs: LValue::Var("c".into()),
                                rhs: Expr::iadd(Expr::var("c"), Expr::ConstI(1)),
                            },
                        ],
                    )],
                ),
            ],
        );
        let (r, natural) = run_out(&f, 6);
        r.unwrap();
        assert_eq!(natural, ints(&[0, 1, 2, 3, 4, 5]));
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), vec![CVal::I(0); 6]);
        Executor::new(&f)
            .with_iteration_order(LoopId(1), vec![2, 0, 1])
            .run(&BTreeMap::new(), &mut buffers)
            .unwrap();
        assert_eq!(buffers["out_1"], ints(&[1, 2, 0, 4, 5, 3]));
    }

    /// Runs `f` with only `out_1` bound (to `len` zeros) through both
    /// `run` and `run_observed`, asserts they agree, and returns `run`'s
    /// result and output.
    fn run_both(f: &CFunction, len: usize) -> (Result<(), HlsirError>, Vec<CVal>) {
        let (r, out) = run_out(f, len);
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), vec![CVal::I(0); len]);
        let observed = Executor::new(f).run_observed(&BTreeMap::new(), &mut buffers);
        assert_eq!(observed.map(drop), r, "run vs run_observed");
        assert_eq!(buffers["out_1"], out, "run vs run_observed output");
        (r, out)
    }

    /// Evaluates one expression by storing it into `out_1[0]`.
    fn eval(e: Expr) -> Result<CVal, HlsirError> {
        let f = body_kernel(
            vec![out_param(CType::Int(64))],
            vec![store("out_1", Expr::ConstI(0), e)],
        );
        let (r, out) = run_both(&f, 1);
        r.map(|()| out[0])
    }

    fn exec_err(text: &str) -> HlsirError {
        HlsirError::Exec(text.into())
    }

    /// `unknown variable `zz`` when evaluated.
    fn bad_var() -> Expr {
        Expr::var("zz")
    }

    /// `integer division by zero` when evaluated.
    fn bad_div() -> Expr {
        Expr::bin(CBinOp::Div, CNumKind::I32, Expr::ConstI(1), Expr::ConstI(0))
    }

    /// `` `out_1[9]` out of bounds (1) `` when evaluated.
    fn bad_read() -> Expr {
        Expr::index("out_1", Expr::ConstI(9))
    }

    #[test]
    fn left_operand_faults_before_right() {
        for kind in [CNumKind::I32, CNumKind::I64, CNumKind::F32, CNumKind::F64] {
            for op in [CBinOp::Add, CBinOp::Div, CBinOp::Lt] {
                assert_eq!(
                    eval(Expr::bin(op, kind, bad_var(), bad_read())),
                    Err(exec_err("unknown variable `zz`"))
                );
                assert_eq!(
                    eval(Expr::bin(op, kind, bad_read(), bad_var())),
                    Err(exec_err("`out_1[9]` out of bounds (1)"))
                );
            }
        }
        // A float bitwise op faults only after both operands ran clean.
        assert_eq!(
            eval(Expr::bin(
                CBinOp::And,
                CNumKind::F32,
                bad_div(),
                Expr::ConstF(1.0)
            )),
            Err(exec_err("integer division by zero"))
        );
        assert_eq!(
            eval(Expr::bin(
                CBinOp::And,
                CNumKind::F32,
                Expr::ConstF(1.0),
                Expr::ConstF(1.0)
            )),
            Err(exec_err("bitwise operator And on floats"))
        );
        // Division checks its divisor only after both operands ran clean.
        assert_eq!(
            eval(Expr::bin(
                CBinOp::Rem,
                CNumKind::I64,
                Expr::ConstI(3),
                bad_read()
            )),
            Err(exec_err("`out_1[9]` out of bounds (1)"))
        );
    }

    #[test]
    fn intrinsic_arguments_evaluate_in_order() {
        for f in [CIntrinsic::Min, CIntrinsic::Max] {
            for kind in [CNumKind::I32, CNumKind::F32] {
                assert_eq!(
                    eval(Expr::Call(f, kind, vec![bad_div(), bad_var()])),
                    Err(exec_err("integer division by zero"))
                );
                assert_eq!(
                    eval(Expr::Call(f, kind, vec![bad_var(), bad_div()])),
                    Err(exec_err("unknown variable `zz`"))
                );
                assert_eq!(
                    eval(Expr::Call(f, kind, vec![Expr::ConstI(1), bad_read()])),
                    Err(exec_err("`out_1[9]` out of bounds (1)"))
                );
            }
        }
        for f in [
            CIntrinsic::Exp,
            CIntrinsic::Log,
            CIntrinsic::Sqrt,
            CIntrinsic::Abs,
        ] {
            assert_eq!(
                eval(Expr::Call(f, CNumKind::F32, vec![bad_read()])),
                Err(exec_err("`out_1[9]` out of bounds (1)"))
            );
        }
    }

    #[test]
    fn condition_faults_before_either_branch_runs() {
        let select = Expr::Select(
            Box::new(bad_var()),
            Box::new(bad_read()),
            Box::new(bad_div()),
        );
        assert_eq!(eval(select), Err(exec_err("unknown variable `zz`")));
        // A clean condition runs only the branch it picks.
        for (c, want) in [
            (1, exec_err("`out_1[9]` out of bounds (1)")),
            (0, exec_err("integer division by zero")),
        ] {
            let select = Expr::Select(
                Box::new(Expr::ConstI(c)),
                Box::new(bad_read()),
                Box::new(bad_div()),
            );
            assert_eq!(eval(select), Err(want));
        }
        // if (zz) out_1[0] = 1; else out_1[0] = 2; — neither store runs.
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![Stmt::If {
                cond: bad_var(),
                then: vec![store("out_1", Expr::ConstI(0), Expr::ConstI(1))],
                els: vec![store("out_1", Expr::ConstI(0), Expr::ConstI(2))],
            }],
        );
        let (r, out) = run_both(&f, 1);
        assert_eq!(r, Err(exec_err("unknown variable `zz`")));
        assert_eq!(out, ints(&[0]));
    }

    #[test]
    fn first_of_two_faulting_siblings_is_reported() {
        assert_eq!(
            eval(Expr::iadd(bad_div(), bad_var())),
            Err(exec_err("integer division by zero"))
        );
        assert_eq!(
            eval(Expr::iadd(
                Expr::iadd(Expr::ConstI(1), bad_read()),
                bad_div()
            )),
            Err(exec_err("`out_1[9]` out of bounds (1)"))
        );
        // A faulting index expression reports before the array is checked.
        assert_eq!(
            eval(Expr::index("nope", bad_var())),
            Err(exec_err("unknown variable `zz`"))
        );
        // An indexed store runs its right-hand side before its index.
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store("out_1", bad_var(), bad_div())],
        );
        assert_eq!(run_both(&f, 1).0, Err(exec_err("integer division by zero")));
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![store("nope", bad_var(), Expr::ConstI(1))],
        );
        assert_eq!(run_both(&f, 1).0, Err(exec_err("unknown variable `zz`")));
        // A faulting scalar store or declaration leaves the scalar unbound.
        for s in [
            Stmt::Assign {
                lhs: LValue::Var("x".into()),
                rhs: bad_div(),
            },
            Stmt::Decl {
                name: "x".into(),
                ty: CType::Int(32),
                init: Some(bad_div()),
            },
        ] {
            let f = body_kernel(
                vec![out_param(CType::Int(32))],
                vec![s, store("out_1", Expr::ConstI(0), Expr::var("x"))],
            );
            assert_eq!(run_both(&f, 1).0, Err(exec_err("integer division by zero")));
        }
    }

    #[test]
    fn exhausted_fuel_reports_before_a_faulting_expression() {
        // out_1[0] = 5; out_1[0] = 1 / 0;
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![
                store("out_1", Expr::ConstI(0), Expr::ConstI(5)),
                store("out_1", Expr::ConstI(0), bad_div()),
            ],
        );
        for (fuel, want, out) in [
            (0, "statement budget exhausted", 0),
            (1, "statement budget exhausted", 5),
            (2, "integer division by zero", 5),
        ] {
            let mut buffers = BTreeMap::new();
            buffers.insert("out_1".to_string(), ints(&[0]));
            let r = Executor::new(&f)
                .with_fuel(fuel)
                .run(&BTreeMap::new(), &mut buffers);
            assert_eq!(r, Err(exec_err(want)), "fuel {fuel}");
            assert_eq!(buffers["out_1"], ints(&[out]), "fuel {fuel}");
            buffers.insert("out_1".to_string(), ints(&[0]));
            let r = Executor::new(&f)
                .with_fuel(fuel)
                .run_observed(&BTreeMap::new(), &mut buffers);
            assert_eq!(r.map(drop), Err(exec_err(want)), "observed, fuel {fuel}");
            assert_eq!(buffers["out_1"], ints(&[out]), "observed, fuel {fuel}");
        }
    }

    #[test]
    fn faulting_for_bound_runs_no_iteration() {
        // for i < zz { out_1[0] = 1; }, with and without an order override.
        let f = body_kernel(
            vec![out_param(CType::Int(32))],
            vec![Stmt::For {
                id: LoopId(0),
                var: "i".into(),
                bound: bad_var(),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body: vec![store("out_1", Expr::ConstI(0), Expr::ConstI(1))],
            }],
        );
        let (r, out) = run_both(&f, 1);
        assert_eq!(r, Err(exec_err("unknown variable `zz`")));
        assert_eq!(out, ints(&[0]));
        let mut buffers = BTreeMap::new();
        buffers.insert("out_1".to_string(), ints(&[0]));
        let exec = Executor::new(&f).with_iteration_order(LoopId(0), vec![0]);
        let r = exec.run(&BTreeMap::new(), &mut buffers);
        assert_eq!(r, Err(exec_err("unknown variable `zz`")));
        let r = exec.run_observed(&BTreeMap::new(), &mut buffers);
        assert_eq!(r.map(drop), Err(exec_err("unknown variable `zz`")));
        assert_eq!(buffers["out_1"], ints(&[0]));
    }
}
