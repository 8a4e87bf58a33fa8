//! Functional executor for the HLS C IR.
//!
//! Executes a [`CFunction`] over in-memory buffers with *exactly* the
//! numeric semantics of the `s2fa-sjvm` interpreter (32-bit wrapping ints,
//! `f32` rounding for `float`, 64-bit bitwise ops), so that
//! interpreter-vs-IR equivalence is a meaningful correctness check for the
//! bytecode-to-C compiler. It also stands in for RTL co-simulation when the
//! Blaze runtime "offloads" a task batch.
//!
//! Every run first *resolves* the function into a slot-indexed tree: each
//! distinct scalar name becomes an index into a value vector, each
//! distinct array name an index into an array vector (bound buffers are
//! moved in for the run and handed back afterwards, also on error), and
//! each loop carries its own iteration-order override. The evaluator then
//! walks that tree without a single name lookup; names reappear only in
//! error messages and in [`Observed`].

use crate::ast::{
    CBinOp, CFunction, CIntrinsic, CNumKind, CType, Expr, LValue, LoopId, ParamKind, Stmt,
};
use crate::HlsirError;
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
    fn as_i(self) -> i64 {
        match self {
            CVal::I(v) => v,
            CVal::F(v) => v as i64,
        }
    }

    fn as_f(self) -> f64 {
        match self {
            CVal::F(v) => v,
            CVal::I(v) => v as f64,
        }
    }

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
        self.execute(scalars, buffers, false).map(drop)
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
        self.execute(scalars, buffers, true)
    }

    /// Checks the bindings, resolves the function and runs it. Buffers
    /// moved into the run go back to `buffers` whatever the outcome.
    fn execute(
        &self,
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
        observe: bool,
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
        let mut resolver = Resolver {
            scalars: Slots::default(),
            arrays: Slots::default(),
            orders: &self.orders,
        };
        let body = resolver.stmts(&self.f.body)?;
        let mut machine = Machine::new(&resolver, scalars, buffers, self.fuel, observe);
        let result = machine.stmts(&body);
        let observed = machine.finish(buffers);
        result.map(|()| observed)
    }
}

/// One namespace's slot table: slot `k` is the `k`-th distinct name met.
#[derive(Default)]
struct Slots<'f> {
    names: Vec<&'f str>,
    index: HashMap<&'f str, usize>,
}

impl<'f> Slots<'f> {
    fn slot(&mut self, name: &'f str) -> usize {
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            self.names.len() - 1
        })
    }
}

/// A resolved expression: names replaced by slots.
enum RExpr {
    Const(CVal),
    Var(usize),
    Index(usize, Box<RExpr>),
    Bin(CBinOp, CNumKind, Box<RExpr>, Box<RExpr>),
    Neg(CNumKind, Box<RExpr>),
    /// Argument count checked against [`CIntrinsic::arity`].
    Call(CIntrinsic, CNumKind, Box<[RExpr]>),
    Cast(CNumKind, CNumKind, Box<RExpr>),
    Select(Box<RExpr>, Box<RExpr>, Box<RExpr>),
}

/// A resolved statement.
enum RStmt<'o> {
    DeclArr {
        arr: usize,
        zero: CVal,
        len: usize,
    },
    Decl {
        var: usize,
        zero: CVal,
        init: Option<RExpr>,
    },
    Store {
        var: usize,
        rhs: RExpr,
    },
    StoreIndex {
        arr: usize,
        idx: RExpr,
        rhs: RExpr,
    },
    For {
        var: usize,
        bound: RExpr,
        /// The loop's iteration-order override, if any.
        order: Option<&'o [i64]>,
        body: Vec<RStmt<'o>>,
    },
    If {
        cond: RExpr,
        then: Vec<RStmt<'o>>,
        els: Vec<RStmt<'o>>,
    },
}

/// Lowers a [`CFunction`] body to the slot-indexed tree.
struct Resolver<'f, 'o> {
    scalars: Slots<'f>,
    arrays: Slots<'f>,
    orders: &'o BTreeMap<LoopId, Vec<i64>>,
}

impl<'f, 'o> Resolver<'f, 'o> {
    fn stmts(&mut self, list: &'f [Stmt]) -> Result<Vec<RStmt<'o>>, HlsirError> {
        list.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'f Stmt) -> Result<RStmt<'o>, HlsirError> {
        Ok(match s {
            Stmt::DeclArr { name, ty, len } => RStmt::DeclArr {
                arr: self.arrays.slot(name),
                zero: CVal::zero_of(*ty),
                len: *len as usize,
            },
            Stmt::Decl { name, ty, init } => RStmt::Decl {
                var: self.scalars.slot(name),
                zero: CVal::zero_of(*ty),
                init: init.as_ref().map(|e| self.expr(e)).transpose()?,
            },
            Stmt::Assign {
                lhs: LValue::Var(n),
                rhs,
            } => RStmt::Store {
                var: self.scalars.slot(n),
                rhs: self.expr(rhs)?,
            },
            Stmt::Assign {
                lhs: LValue::Index(n, idx),
                rhs,
            } => RStmt::StoreIndex {
                arr: self.arrays.slot(n),
                idx: self.expr(idx)?,
                rhs: self.expr(rhs)?,
            },
            Stmt::For {
                id,
                var,
                bound,
                body,
                ..
            } => RStmt::For {
                var: self.scalars.slot(var),
                bound: self.expr(bound)?,
                order: self.orders.get(id).map(Vec::as_slice),
                body: self.stmts(body)?,
            },
            Stmt::If { cond, then, els } => RStmt::If {
                cond: self.expr(cond)?,
                then: self.stmts(then)?,
                els: self.stmts(els)?,
            },
        })
    }

    fn expr(&mut self, e: &'f Expr) -> Result<RExpr, HlsirError> {
        Ok(match e {
            Expr::ConstI(v) => RExpr::Const(CVal::I(*v)),
            Expr::ConstF(v) => RExpr::Const(CVal::F(*v)),
            Expr::Var(n) => RExpr::Var(self.scalars.slot(n)),
            Expr::Index(n, idx) => RExpr::Index(self.arrays.slot(n), self.boxed(idx)?),
            Expr::Bin(op, kind, a, b) => RExpr::Bin(*op, *kind, self.boxed(a)?, self.boxed(b)?),
            Expr::Neg(kind, a) => RExpr::Neg(*kind, self.boxed(a)?),
            Expr::Call(f, kind, args) => {
                if args.len() != f.arity() {
                    return Err(HlsirError::Exec(format!(
                        "`{}` takes {} argument(s), got {}",
                        f.c_name(),
                        f.arity(),
                        args.len()
                    )));
                }
                let args = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                RExpr::Call(*f, *kind, args)
            }
            Expr::Cast(from, to, a) => RExpr::Cast(*from, *to, self.boxed(a)?),
            Expr::Select(c, a, b) => RExpr::Select(self.boxed(c)?, self.boxed(a)?, self.boxed(b)?),
        })
    }

    fn boxed(&mut self, e: &'f Expr) -> Result<Box<RExpr>, HlsirError> {
        self.expr(e).map(Box::new)
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

/// Initialization state of an observed run, per slot.
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

/// The evaluator over a resolved tree.
struct Machine<'r, 'f> {
    /// Scalar slots; `None` until bound by the caller, a `Decl`, an
    /// assignment or a loop.
    scalars: Vec<Option<CVal>>,
    arrays: Vec<ArraySlot>,
    fuel: u64,
    /// Initialization tracking (observed runs only).
    track: Option<Track>,
    scalar_names: &'r [&'f str],
    array_names: &'r [&'f str],
}

impl<'r, 'f> Machine<'r, 'f> {
    fn new(
        names: &'r Resolver<'f, '_>,
        scalars: &BTreeMap<String, CVal>,
        buffers: &mut BTreeMap<String, Vec<CVal>>,
        fuel: u64,
        observe: bool,
    ) -> Self {
        let scalar_names = names.scalars.names.as_slice();
        let array_names = names.arrays.names.as_slice();
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
        let track = observe.then(|| Track {
            uninit_scalars: vec![false; scalar_names.len()],
            scalar_reads: vec![false; scalar_names.len()],
            array_uninit: vec![Vec::new(); array_names.len()],
            array_reads: BTreeSet::new(),
        });
        Machine {
            scalars: scalar_names
                .iter()
                .map(|n| scalars.get(*n).copied())
                .collect(),
            arrays,
            fuel,
            track,
            scalar_names,
            array_names,
        }
    }

    /// Hands the buffers back to the caller and maps the observations
    /// back to names.
    fn finish(self, buffers: &mut BTreeMap<String, Vec<CVal>>) -> Observed {
        for slot in self.arrays {
            let buffer = if slot.local { slot.shadowed } else { slot.data };
            if let (Some(key), Some(buffer)) = (slot.key, buffer) {
                buffers.insert(key, buffer);
            }
        }
        let mut uninit_reads = BTreeSet::new();
        if let Some(t) = self.track {
            for (s, _) in t.scalar_reads.iter().enumerate().filter(|(_, r)| **r) {
                uninit_reads.insert((self.scalar_names[s].to_string(), None));
            }
            for (a, i) in t.array_reads {
                uninit_reads.insert((self.array_names[a].to_string(), Some(i)));
            }
        }
        Observed { uninit_reads }
    }

    fn stmts(&mut self, list: &[RStmt]) -> Result<(), HlsirError> {
        for s in list {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &RStmt) -> Result<(), HlsirError> {
        if self.fuel == 0 {
            return Err(HlsirError::Exec("statement budget exhausted".into()));
        }
        self.fuel -= 1;
        match s {
            RStmt::DeclArr { arr, zero, len } => {
                let slot = &mut self.arrays[*arr];
                if !slot.local {
                    slot.shadowed = slot.data.take();
                    slot.local = true;
                }
                let data = slot.data.get_or_insert_with(Vec::new);
                data.clear();
                data.resize(*len, *zero);
                if let Some(t) = &mut self.track {
                    let fresh = &mut t.array_uninit[*arr];
                    fresh.clear();
                    fresh.resize(*len, true);
                }
            }
            RStmt::Decl { var, zero, init } => {
                let v = match init {
                    Some(e) => self.eval(e)?,
                    None => *zero,
                };
                if let Some(t) = &mut self.track {
                    t.uninit_scalars[*var] = init.is_none();
                }
                self.scalars[*var] = Some(v);
            }
            RStmt::Store { var, rhs } => {
                let v = self.eval(rhs)?;
                if let Some(t) = &mut self.track {
                    t.uninit_scalars[*var] = false;
                }
                self.scalars[*var] = Some(v);
            }
            RStmt::StoreIndex { arr, idx, rhs } => {
                let v = self.eval(rhs)?;
                let i = self.eval(idx)?.as_i();
                if let Some(t) = &mut self.track {
                    if let Some(fresh) = t.array_uninit[*arr].get_mut(i as usize) {
                        *fresh = false;
                    }
                }
                let name = self.array_names[*arr];
                let data = self.arrays[*arr]
                    .data
                    .as_mut()
                    .ok_or_else(|| unknown_array(name))?;
                let len = data.len();
                *data
                    .get_mut(i as usize)
                    .ok_or_else(|| out_of_bounds(name, i, len))? = v;
            }
            RStmt::For {
                var,
                bound,
                order,
                body,
            } => {
                let n = self.eval(bound)?.as_i();
                if let Some(t) = &mut self.track {
                    t.uninit_scalars[*var] = false;
                }
                if let Some(order) = order {
                    for &i in *order {
                        self.scalars[*var] = Some(CVal::I(i));
                        self.stmts(body)?;
                    }
                } else {
                    for i in 0..n {
                        self.scalars[*var] = Some(CVal::I(i));
                        self.stmts(body)?;
                    }
                }
            }
            RStmt::If { cond, then, els } => {
                if self.eval(cond)?.as_i() != 0 {
                    self.stmts(then)?;
                } else {
                    self.stmts(els)?;
                }
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &RExpr) -> Result<CVal, HlsirError> {
        Ok(match e {
            RExpr::Const(v) => *v,
            RExpr::Var(s) => {
                if let Some(t) = &mut self.track {
                    if t.uninit_scalars[*s] {
                        t.scalar_reads[*s] = true;
                    }
                }
                self.scalars[*s].ok_or_else(|| unknown_variable(self.scalar_names[*s]))?
            }
            RExpr::Index(a, idx) => {
                let i = self.eval(idx)?.as_i();
                if let Some(t) = &mut self.track {
                    if t.array_uninit[*a].get(i as usize) == Some(&true) {
                        t.array_reads.insert((*a, i));
                    }
                }
                let name = self.array_names[*a];
                let data = self.arrays[*a]
                    .data
                    .as_deref()
                    .ok_or_else(|| unknown_array(name))?;
                *data
                    .get(i as usize)
                    .ok_or_else(|| out_of_bounds(name, i, data.len()))?
            }
            RExpr::Bin(op, kind, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                eval_bin(*op, *kind, va, vb)?
            }
            RExpr::Neg(kind, a) => {
                let v = self.eval(a)?;
                if kind.is_float() {
                    CVal::F(round(-v.as_f(), *kind))
                } else {
                    CVal::I(wrap(v.as_i().wrapping_neg(), *kind))
                }
            }
            RExpr::Call(f, kind, args) => {
                let x = self.eval(&args[0])?;
                let y = match args.get(1) {
                    Some(b) => self.eval(b)?,
                    None => x,
                };
                eval_call(*f, *kind, x, y)
            }
            RExpr::Cast(from, to, a) => {
                let v = self.eval(a)?;
                cast(v, *from, *to)
            }
            RExpr::Select(c, a, b) => {
                if self.eval(c)?.as_i() != 0 {
                    self.eval(a)?
                } else {
                    self.eval(b)?
                }
            }
        })
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

fn eval_bin(op: CBinOp, kind: CNumKind, a: CVal, b: CVal) -> Result<CVal, HlsirError> {
    if op.is_cmp() {
        let s = if kind.is_float() {
            let (x, y) = (a.as_f(), b.as_f());
            if x < y {
                -1
            } else if x > y {
                1
            } else {
                0
            }
        } else {
            a.as_i().cmp(&b.as_i()) as i32
        };
        let hit = match op {
            CBinOp::Lt => s < 0,
            CBinOp::Le => s <= 0,
            CBinOp::Gt => s > 0,
            CBinOp::Ge => s >= 0,
            CBinOp::Eq => s == 0,
            CBinOp::Ne => s != 0,
            _ => unreachable!(),
        };
        return Ok(CVal::I(hit as i64));
    }
    if kind.is_float() {
        let x = round(a.as_f(), kind);
        let y = round(b.as_f(), kind);
        let r = match op {
            CBinOp::Add => x + y,
            CBinOp::Sub => x - y,
            CBinOp::Mul => x * y,
            CBinOp::Div => x / y,
            CBinOp::Rem => x % y,
            other => {
                return Err(HlsirError::Exec(format!(
                    "bitwise operator {other:?} on floats"
                )))
            }
        };
        Ok(CVal::F(round(r, kind)))
    } else {
        let x = a.as_i();
        let y = b.as_i();
        let r = match op {
            CBinOp::Add => x.wrapping_add(y),
            CBinOp::Sub => x.wrapping_sub(y),
            CBinOp::Mul => x.wrapping_mul(y),
            CBinOp::Div => {
                if y == 0 {
                    return Err(HlsirError::Exec("integer division by zero".into()));
                }
                x.wrapping_div(y)
            }
            CBinOp::Rem => {
                if y == 0 {
                    return Err(HlsirError::Exec("integer remainder by zero".into()));
                }
                x.wrapping_rem(y)
            }
            CBinOp::Shl => x.wrapping_shl((y & 63) as u32),
            CBinOp::Shr => x.wrapping_shr((y & 63) as u32),
            CBinOp::UShr => ((x as u64).wrapping_shr((y & 63) as u32)) as i64,
            CBinOp::And => x & y,
            CBinOp::Or => x | y,
            CBinOp::Xor => x ^ y,
            _ => unreachable!("comparisons handled above"),
        };
        let r = match op {
            // Shifts and bitwise ops act on the 64-bit representation (same
            // deviation as the sjvm interpreter); arithmetic wraps per kind.
            CBinOp::Shl | CBinOp::Shr | CBinOp::UShr | CBinOp::And | CBinOp::Or | CBinOp::Xor => r,
            _ => wrap(r, kind),
        };
        Ok(CVal::I(r))
    }
}

/// Applies an intrinsic to its first argument `x` and, for the binary
/// ones, its second argument `y` (unary intrinsics ignore `y`).
fn eval_call(f: CIntrinsic, kind: CNumKind, x: CVal, y: CVal) -> CVal {
    match f {
        CIntrinsic::Exp => CVal::F(x.as_f().exp()),
        CIntrinsic::Log => CVal::F(x.as_f().ln()),
        CIntrinsic::Sqrt => CVal::F(x.as_f().sqrt()),
        CIntrinsic::Abs => {
            if kind.is_float() {
                CVal::F(x.as_f().abs())
            } else {
                CVal::I(x.as_i().wrapping_abs())
            }
        }
        CIntrinsic::Min | CIntrinsic::Max => {
            let take_min = matches!(f, CIntrinsic::Min);
            if kind.is_float() {
                let (x, y) = (x.as_f(), y.as_f());
                CVal::F(if take_min { x.min(y) } else { x.max(y) })
            } else {
                let (x, y) = (x.as_i(), y.as_i());
                CVal::I(if take_min { x.min(y) } else { x.max(y) })
            }
        }
    }
}

fn cast(v: CVal, from: CNumKind, to: CNumKind) -> CVal {
    match (from.is_float(), to.is_float()) {
        (false, false) => CVal::I(wrap(v.as_i(), to)),
        (false, true) => CVal::F(round(v.as_i() as f64, to)),
        (true, false) => {
            let f = v.as_f();
            let i = if f.is_nan() { 0 } else { f as i64 };
            CVal::I(wrap(i, to))
        }
        (true, true) => CVal::F(round(v.as_f(), to)),
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
            eval_bin(
                CBinOp::Add,
                CNumKind::I32,
                CVal::I(i32::MAX as i64),
                CVal::I(1)
            )
            .unwrap(),
            CVal::I(i32::MIN as i64)
        );
        assert_eq!(
            eval_bin(CBinOp::Xor, CNumKind::I32, CVal::I(-1), CVal::I(0xff)).unwrap(),
            CVal::I(-256)
        );
    }

    #[test]
    fn f32_rounding() {
        let r = eval_bin(CBinOp::Add, CNumKind::F32, CVal::F(0.1), CVal::F(0.2)).unwrap();
        assert_eq!(r, CVal::F((0.1f32 + 0.2f32) as f64));
    }

    #[test]
    fn div_by_zero_is_an_error() {
        assert!(eval_bin(CBinOp::Div, CNumKind::I32, CVal::I(1), CVal::I(0)).is_err());
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
}
