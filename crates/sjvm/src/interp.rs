//! Bytecode interpreter — the "JVM" of the reproduction.
//!
//! Executes verified bytecode over a managed heap. It serves two roles:
//!
//! 1. **Correctness oracle**: the bytecode-to-C compiler's output is
//!    cross-checked against this interpreter on random inputs (the C IR has
//!    its own executor in `s2fa-hlsir`, which shares no evaluation code
//!    with this one, so each engine checks the other).
//! 2. **JVM baseline**: execution accumulates nanoseconds from
//!    [`JvmCostModel`], producing the single-threaded Spark-executor time
//!    that Fig. 4 speedups are computed against.
//!
//! ## Decoded execution
//!
//! An [`Interp`] decodes each method once, the first time a run reaches
//! it, and then runs the decoded form:
//!
//! - The [verifier](crate::verify) runs first; a method that fails it makes
//!   [`Interp::run`] return [`SjvmError::Verify`] before anything executes.
//! - The stack depth the verifier proves at each instruction turns every
//!   operand into a fixed slot of the call's frame, an array holding the
//!   locals followed by the operand stack. Nothing is pushed or popped at
//!   run time, and no underflow check remains.
//! - Branch targets, callees, class sizes and each instruction's
//!   [`JvmCostModel::op_cost`] are resolved at decode time. The
//!   interpreter adds the costs in instruction order, so [`ExecStats::ns`]
//!   is the same sum, bit for bit, as a walk over the [`Op`]s.
//! - `Add`, `Sub` and `Mul` have decoded forms per kind and `IfCmp` one for
//!   integers, so the common case reads two tagged values and writes one.
//! - Up to two `Load` or constant pushes right before an instruction that
//!   pops them fold into it, which reads the local or the constant in
//!   place; no fold spans a branch target. Each folded instruction is
//!   still counted, fuel-checked and costed on its own, in order.
//! - Calls nest on an explicit stack of suspended frames, not on the host
//!   thread's stack, so the 256-call limit is the only depth limit.
//!
//! What verification cannot prove is still checked where it happens:
//! operand types, array bounds, null references, integer division by
//! zero, the call depth and the instruction budget, each with its fault
//! text and at the instruction that faults.
//!
//! ## Numeric semantics
//!
//! `Int` arithmetic wraps at 32 bits; `Long` at 64 bits; `Float` rounds
//! through `f32`; bitwise operators act on the 64-bit two's-complement
//! representation, and shift counts are masked to 6 bits for every kind.
//! The HLS IR executor mirrors these semantics exactly so functional
//! equivalence is well-defined.

use crate::bytecode::{Cond, MathFn, NumKind, Op};
use crate::class::ClassTable;
use crate::cost::JvmCostModel;
use crate::host::HostValue;
use crate::method::{Method, MethodId, MethodTable};
use crate::ty::JType;
use crate::SjvmError;

/// A runtime value in a frame slot (a local or an operand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integral (boolean/byte/char/short/int/long).
    I(i64),
    /// Floating (float/double).
    F(f64),
    /// Heap reference.
    Ref(usize),
    /// The null reference.
    Null,
}

impl Value {
    #[inline]
    fn as_i(self) -> Result<i64, SjvmError> {
        match self {
            Value::I(v) => Ok(v),
            other => Err(expected("int", other)),
        }
    }

    #[inline]
    fn as_f(self) -> Result<f64, SjvmError> {
        match self {
            Value::F(v) => Ok(v),
            Value::I(v) => Ok(v as f64),
            other => Err(expected("float", other)),
        }
    }

    #[inline]
    fn as_ref(self) -> Result<usize, SjvmError> {
        match self {
            Value::Ref(r) => Ok(r),
            Value::Null => Err(runtime("null pointer dereference")),
            other => Err(expected("ref", other)),
        }
    }
}

#[cold]
#[inline(never)]
fn expected(what: &str, got: Value) -> SjvmError {
    SjvmError::Runtime(format!("expected {what}, got {got:?}"))
}

#[cold]
#[inline(never)]
fn runtime(msg: &str) -> SjvmError {
    SjvmError::Runtime(msg.into())
}

#[cold]
#[inline(never)]
fn out_of_bounds(idx: i64, len: usize) -> SjvmError {
    SjvmError::Runtime(format!("array index {idx} out of bounds ({len})"))
}

/// A heap cell: an object with fields or an array of values.
#[derive(Debug, Clone)]
enum HeapCell {
    Obj { fields: Vec<Value> },
    Arr { elems: Vec<Value> },
}

/// Execution statistics accumulated during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Modelled JVM time in nanoseconds.
    pub ns: f64,
    /// Objects and arrays allocated.
    pub allocations: u64,
    /// Peak operand-stack + frame depth (number of nested calls).
    pub max_call_depth: u32,
}

impl ExecStats {
    /// Merges another run's statistics into `self`.
    pub fn merge(&mut self, other: &ExecStats) {
        self.instructions += other.instructions;
        self.ns += other.ns;
        self.allocations += other.allocations;
        self.max_call_depth = self.max_call_depth.max(other.max_call_depth);
    }
}

/// Index of a frame slot: locals first, then the operand stack, then the
/// method's constants.
type Slot = u32;

/// The slots of a one-operand instruction: it reads `s` and writes `d`.
#[derive(Debug, Clone, Copy)]
struct Un {
    s: Slot,
    d: Slot,
}

/// The slots of a two-operand instruction: it reads `a` and `b` and
/// writes `d`.
#[derive(Debug, Clone, Copy)]
struct Bin {
    a: Slot,
    b: Slot,
    d: Slot,
}

/// A condition as the set of comparison signums (-1, 0, 1) it accepts:
/// bit `s + 1` is set when [`Cond::holds`] holds for `s`.
#[derive(Debug, Clone, Copy)]
struct Accepts(u8);

impl Accepts {
    fn of(cond: Cond) -> Self {
        Accepts((-1..=1).fold(0, |m, s| m | (u8::from(cond.holds(s)) << (s + 1))))
    }

    #[inline]
    fn holds(self, signum: i32) -> bool {
        (self.0 >> (signum + 1)) & 1 == 1
    }
}

/// A decoded instruction: an [`Op`] with its operands resolved to frame
/// slots, its branch target to a pc and its callee to a method index.
#[derive(Debug, Clone, Copy)]
enum DOp {
    ConstI(i64, Slot),
    ConstF(f64, Slot),
    ConstNull(Slot),
    /// `Load`, `Store` and `Dup`.
    Move(Un),
    /// `Pop`: the slot is simply not read again.
    Nop,
    NewArray {
        len: u32,
        d: Slot,
    },
    New {
        fields: u32,
        d: Slot,
    },
    /// Array `a`, index `b`.
    ALoad(Bin),
    AStore {
        arr: Slot,
        idx: Slot,
        val: Slot,
    },
    ArrayLen(Un),
    GetField(Un, u32),
    /// Object `a`, value `b`.
    PutField(Bin, u32),
    /// Arguments are the `n` slots from `args`; a value-returning callee's
    /// result lands in `args`.
    Invoke {
        method: u32,
        args: Slot,
        n: u32,
        ret: bool,
    },
    AddI(Bin),
    SubI(Bin),
    MulI(Bin),
    AddL(Bin),
    SubL(Bin),
    MulL(Bin),
    AddD(Bin),
    SubD(Bin),
    MulD(Bin),
    AddF(Bin),
    SubF(Bin),
    MulF(Bin),
    Div(NumKind, Bin),
    Rem(NumKind, Bin),
    Neg(NumKind, Un),
    /// Shifts read the count through the mask.
    Shl(Bin, i64),
    Shr(Bin, i64),
    UShr(Bin, i64),
    And(Bin),
    Or(Bin),
    Xor(Bin),
    Math1(MathFn, NumKind, Un),
    /// `Math.min` when true, `Math.max` when false.
    Math2(bool, NumKind, Bin),
    Cast(NumKind, NumKind, Un),
    Cmp(NumKind, Bin),
    /// `IfCmp` on `Int` or `Long` operands.
    IfCmpI {
        cond: Accepts,
        a: Slot,
        b: Slot,
        target: u32,
    },
    /// `IfCmp` on `Float` or `Double` operands.
    IfCmpF {
        cond: Accepts,
        a: Slot,
        b: Slot,
        target: u32,
    },
    IfZero {
        cond: Accepts,
        s: Slot,
        target: u32,
    },
    Goto(u32),
    Return(Slot),
    ReturnVoid,
    /// An instruction no path reaches.
    Unreachable,
}

/// A decoded instruction: `width` bytecode instructions run as one. The
/// first `width - 1` are `Load`s and constants folded into the last, the
/// consumer that pops them; `pre` holds their costs in order, and `cost`
/// is the consumer's.
#[derive(Debug, Clone, Copy)]
struct Inst {
    op: DOp,
    width: u32,
    pre: [f64; MAX_FOLD],
    cost: f64,
}

/// Most operand pushes folded into one consumer.
const MAX_FOLD: usize = 2;

impl DOp {
    /// Makes a consumer read `src` where it read (and popped) stack slot
    /// `slot`. False if the op does not pop `slot`.
    fn fold(&mut self, slot: Slot, src: Slot) -> bool {
        let reads: [Option<&mut Slot>; 3] = match self {
            DOp::Move(Un { s, .. })
            | DOp::ArrayLen(Un { s, .. })
            | DOp::GetField(Un { s, .. }, _)
            | DOp::Neg(_, Un { s, .. })
            | DOp::Math1(_, _, Un { s, .. })
            | DOp::Cast(_, _, Un { s, .. })
            | DOp::IfZero { s, .. }
            | DOp::Return(s) => [Some(s), None, None],
            DOp::ALoad(Bin { a, b, .. })
            | DOp::PutField(Bin { a, b, .. }, _)
            | DOp::AddI(Bin { a, b, .. })
            | DOp::SubI(Bin { a, b, .. })
            | DOp::MulI(Bin { a, b, .. })
            | DOp::AddL(Bin { a, b, .. })
            | DOp::SubL(Bin { a, b, .. })
            | DOp::MulL(Bin { a, b, .. })
            | DOp::AddD(Bin { a, b, .. })
            | DOp::SubD(Bin { a, b, .. })
            | DOp::MulD(Bin { a, b, .. })
            | DOp::AddF(Bin { a, b, .. })
            | DOp::SubF(Bin { a, b, .. })
            | DOp::MulF(Bin { a, b, .. })
            | DOp::Div(_, Bin { a, b, .. })
            | DOp::Rem(_, Bin { a, b, .. })
            | DOp::Shl(Bin { a, b, .. }, _)
            | DOp::Shr(Bin { a, b, .. }, _)
            | DOp::UShr(Bin { a, b, .. }, _)
            | DOp::And(Bin { a, b, .. })
            | DOp::Or(Bin { a, b, .. })
            | DOp::Xor(Bin { a, b, .. })
            | DOp::Math2(_, _, Bin { a, b, .. })
            | DOp::Cmp(_, Bin { a, b, .. })
            | DOp::IfCmpI { a, b, .. }
            | DOp::IfCmpF { a, b, .. } => [Some(a), Some(b), None],
            DOp::AStore { arr, idx, val } => [Some(arr), Some(idx), Some(val)],
            _ => [None, None, None],
        };
        match reads.into_iter().flatten().find(|r| **r == slot) {
            Some(r) => {
                *r = src;
                true
            }
            None => false,
        }
    }
}

/// A decoded method.
#[derive(Debug)]
struct Decoded {
    code: Vec<Inst>,
    /// A fresh frame: the locals and the verifier's maximum stack depth,
    /// zeroed, then the method's constants.
    frame: Vec<Value>,
    /// Indices of the methods it calls.
    callees: Vec<u32>,
}

/// Verifies `method` and decodes it against the program's tables.
fn decode(
    method: &Method,
    methods: &MethodTable,
    classes: &ClassTable,
) -> Result<Decoded, SjvmError> {
    let depths = crate::verify::verify_method(method, methods)?;
    let cost = JvmCostModel::default();
    let base = method.n_locals as Slot;
    let consts_at = (base + depths.max) as usize;
    let mut frame = vec![Value::I(0); consts_at];
    // The slot a `Load` or constant's value can be read from in place.
    let mut source: Vec<Option<Slot>> = vec![None; method.code.len()];
    let mut is_target = vec![false; method.code.len()];
    let mut callees = Vec::new();
    let mut code = Vec::with_capacity(method.code.len());
    for (pc, (op, depth)) in method.code.iter().zip(&depths.entry).enumerate() {
        let Some(depth) = *depth else {
            code.push(Inst {
                op: DOp::Unreachable,
                width: 1,
                pre: [0.0; MAX_FOLD],
                cost: 0.0,
            });
            continue;
        };
        if let Some(t) = op.branch_target() {
            is_target[t as usize] = true;
        }
        // `top` is the first free operand slot. One-operand instructions
        // read and write the slot below it; two-operand ones read the two
        // below it and write the lower.
        let top = base + depth;
        let un = Un {
            s: top.wrapping_sub(1),
            d: top.wrapping_sub(1),
        };
        let bin = Bin {
            a: top.wrapping_sub(2),
            b: top.wrapping_sub(1),
            d: top.wrapping_sub(2),
        };
        let constant = match *op {
            Op::ConstI(v) => Some(Value::I(v)),
            Op::ConstF(v) => Some(Value::F(v)),
            Op::ConstNull => Some(Value::Null),
            _ => None,
        };
        source[pc] = match (op, constant) {
            (Op::Load(n), _) => Some(*n as Slot),
            (_, Some(v)) => Some(match frame[consts_at..].iter().position(|&c| same(c, v)) {
                Some(i) => (consts_at + i) as Slot,
                None => {
                    frame.push(v);
                    (frame.len() - 1) as Slot
                }
            }),
            _ => None,
        };
        let dop = match *op {
            Op::ConstI(v) => DOp::ConstI(v, top),
            Op::ConstF(v) => DOp::ConstF(v, top),
            Op::ConstNull => DOp::ConstNull(top),
            Op::Load(n) => DOp::Move(Un {
                s: n as Slot,
                d: top,
            }),
            Op::Store(n) => DOp::Move(Un { d: n as Slot, ..un }),
            Op::Dup => DOp::Move(Un { d: top, ..un }),
            Op::Pop => DOp::Nop,
            Op::NewArray { len, .. } => DOp::NewArray { len, d: top },
            Op::New(class) => {
                if class.0 as usize >= classes.len() {
                    return Err(SjvmError::Verify {
                        pc,
                        reason: format!("allocation of unknown {class}"),
                    });
                }
                let fields = classes.get(class).fields.len() as u32;
                DOp::New { fields, d: top }
            }
            Op::ALoad => DOp::ALoad(bin),
            Op::AStore => DOp::AStore {
                arr: top.wrapping_sub(3),
                idx: bin.a,
                val: bin.b,
            },
            Op::ArrayLen => DOp::ArrayLen(un),
            Op::GetField(_, field) => DOp::GetField(un, field as u32),
            Op::PutField(_, field) => DOp::PutField(bin, field as u32),
            Op::InvokeVirtual { method: id, .. } | Op::InvokeStatic { method: id } => {
                let callee = methods.get(id);
                let n = callee.params.len() as u32;
                callees.push(id.0);
                DOp::Invoke {
                    method: id.0,
                    args: top - n,
                    n,
                    ret: callee.ret.is_some(),
                }
            }
            Op::Add(NumKind::Int) => DOp::AddI(bin),
            Op::Sub(NumKind::Int) => DOp::SubI(bin),
            Op::Mul(NumKind::Int) => DOp::MulI(bin),
            Op::Add(NumKind::Long) => DOp::AddL(bin),
            Op::Sub(NumKind::Long) => DOp::SubL(bin),
            Op::Mul(NumKind::Long) => DOp::MulL(bin),
            Op::Add(NumKind::Double) => DOp::AddD(bin),
            Op::Sub(NumKind::Double) => DOp::SubD(bin),
            Op::Mul(NumKind::Double) => DOp::MulD(bin),
            Op::Add(NumKind::Float) => DOp::AddF(bin),
            Op::Sub(NumKind::Float) => DOp::SubF(bin),
            Op::Mul(NumKind::Float) => DOp::MulF(bin),
            Op::Div(kind) => DOp::Div(kind, bin),
            Op::Rem(kind) => DOp::Rem(kind, bin),
            Op::Neg(kind) => DOp::Neg(kind, un),
            // Every shift masks its count to 6 bits, whatever the operand
            // kind; a per-kind count rule belongs here alone.
            Op::Shl | Op::Shr | Op::UShr => {
                let mask = 63;
                match op {
                    Op::Shl => DOp::Shl(bin, mask),
                    Op::Shr => DOp::Shr(bin, mask),
                    _ => DOp::UShr(bin, mask),
                }
            }
            Op::And => DOp::And(bin),
            Op::Or => DOp::Or(bin),
            Op::Xor => DOp::Xor(bin),
            Op::Math(f @ (MathFn::Min | MathFn::Max), kind) => {
                DOp::Math2(f == MathFn::Min, kind, bin)
            }
            Op::Math(f, kind) => DOp::Math1(f, kind, un),
            Op::Cast { from, to } => DOp::Cast(from, to, un),
            Op::Cmp(kind) => DOp::Cmp(kind, bin),
            Op::IfCmp { kind, cond, target } => {
                let (cond, Bin { a, b, .. }) = (Accepts::of(cond), bin);
                if kind.is_float() {
                    DOp::IfCmpF { cond, a, b, target }
                } else {
                    DOp::IfCmpI { cond, a, b, target }
                }
            }
            Op::IfZero { cond, target } => DOp::IfZero {
                cond: Accepts::of(cond),
                s: un.s,
                target,
            },
            Op::Goto(target) => DOp::Goto(target),
            Op::Return if method.ret.is_some() => DOp::Return(un.s),
            Op::Return => DOp::ReturnVoid,
        };
        code.push(Inst {
            op: dop,
            width: 1,
            pre: [0.0; MAX_FOLD],
            cost: cost.op_cost(op),
        });
    }
    // Fold the pushes right before a consumer into it, as long as no
    // branch lands between them. The fused instruction sits at the first
    // push's pc; the ones it covers stay decoded but are never reached.
    for pc in 0..code.len() {
        if matches!(method.code[pc], Op::Dup) {
            continue; // reads its operand without popping it
        }
        let mut fused = code[pc];
        let mut k = 0;
        while k < MAX_FOLD && k < pc && !is_target[pc - k] {
            let q = pc - k - 1;
            let (Some(src), Some(depth)) = (source[q], depths.entry[q]) else {
                break;
            };
            if !fused.op.fold(base + depth, src) {
                break;
            }
            k += 1;
        }
        if k > 0 {
            fused.width = k as u32 + 1;
            for (i, q) in (pc - k..pc).enumerate() {
                fused.pre[i] = code[q].cost;
            }
            code[pc - k] = fused;
        }
    }
    Ok(Decoded {
        code,
        frame,
        callees,
    })
}

/// Bit-for-bit equality of two constants.
fn same(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

/// The interpreter. Borrows the program (classes + methods), keeps each
/// method's decoded form, and owns the heap of the current run.
pub struct Interp<'p> {
    classes: &'p ClassTable,
    methods: &'p MethodTable,
    /// Decoded methods by method index, filled as runs reach them.
    decoded: Vec<Option<Decoded>>,
    heap: Vec<HeapCell>,
    fuel: u64,
}

/// Default instruction budget per [`Interp::run`] call.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Maximum number of nested calls, the entry call included.
const MAX_CALL_DEPTH: u32 = 256;

impl<'p> Interp<'p> {
    /// Creates an interpreter with the default cost model and fuel.
    pub fn new(classes: &'p ClassTable, methods: &'p MethodTable) -> Self {
        Interp {
            classes,
            methods,
            decoded: (0..methods.len()).map(|_| None).collect(),
            heap: Vec::new(),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replaces the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs `method` with host arguments, returning the host result and the
    /// statistics of this call (heap and stats reset per call).
    ///
    /// # Errors
    ///
    /// Returns [`SjvmError::Verify`] if `method` or a method it calls does
    /// not verify, [`SjvmError::Runtime`] on dynamic faults (type
    /// confusion, out-of-bounds, null dereference, division by zero, call
    /// depth) and [`SjvmError::OutOfFuel`] if the instruction budget is
    /// exhausted.
    pub fn run(
        &mut self,
        method: MethodId,
        args: &[HostValue],
    ) -> Result<(HostValue, ExecStats), SjvmError> {
        self.heap.clear();
        let m = self.methods.get(method);
        if args.len() != m.params.len() {
            return Err(SjvmError::Runtime(format!(
                "method `{}` takes {} arguments, got {}",
                m.name,
                m.params.len(),
                args.len()
            )));
        }
        self.decode_reachable(method)?;
        let entry = self.decoded[method.0 as usize]
            .as_ref()
            .expect("decoded above");
        let mut frame = entry.frame.clone();
        for (i, (a, ty)) in args.iter().zip(&m.params).enumerate() {
            frame[i] = host_to_value(self.classes, &mut self.heap, a, ty)?;
        }
        let (result, stats) = execute(&self.decoded, &mut self.heap, self.fuel, entry, frame)?;
        let host = match &m.ret {
            Some(ty) => self.value_to_host(result, ty)?,
            None => HostValue::Tuple(vec![]),
        };
        Ok((host, stats))
    }

    /// Decodes `entry` and every method it can call that is not decoded
    /// yet. Nothing is kept unless all of them verify.
    fn decode_reachable(&mut self, entry: MethodId) -> Result<(), SjvmError> {
        if self.decoded[entry.0 as usize].is_some() {
            return Ok(());
        }
        let mut fresh: Vec<(usize, Decoded)> = Vec::new();
        let mut pending = vec![entry.0];
        while let Some(id) = pending.pop() {
            let i = id as usize;
            if self.decoded[i].is_some() || fresh.iter().any(|(j, _)| *j == i) {
                continue;
            }
            let d = decode(self.methods.get(MethodId(id)), self.methods, self.classes)?;
            pending.extend(&d.callees);
            fresh.push((i, d));
        }
        for (i, d) in fresh {
            self.decoded[i] = Some(d);
        }
        Ok(())
    }

    /// Converts a runtime value back to a host value, guided by the type.
    fn value_to_host(&self, v: Value, ty: &JType) -> Result<HostValue, SjvmError> {
        Ok(match (v, ty) {
            (Value::I(x), t) if t.is_integral() => HostValue::I(x),
            (Value::F(x), _) => HostValue::F(x),
            (Value::I(x), t) if t.is_float() => HostValue::F(x as f64),
            (Value::Null, _) => HostValue::Tuple(vec![]),
            (Value::Ref(r), JType::Array(elem)) => match &self.heap[r] {
                HeapCell::Arr { elems } => {
                    let mut out = Vec::with_capacity(elems.len());
                    for e in elems {
                        out.push(self.value_to_host(*e, elem)?);
                    }
                    HostValue::Arr(out)
                }
                _ => return Err(SjvmError::Runtime("expected array on heap".into())),
            },
            (Value::Ref(r), JType::Ref(class)) => {
                let def = self.classes.get(*class);
                match &self.heap[r] {
                    HeapCell::Obj { fields } => {
                        let mut out = Vec::with_capacity(fields.len());
                        for (f, fd) in fields.iter().zip(&def.fields) {
                            out.push(self.value_to_host(*f, &fd.ty)?);
                        }
                        if def.name.starts_with("scala.Tuple") {
                            HostValue::Tuple(out)
                        } else {
                            HostValue::Obj(def.name.clone(), out)
                        }
                    }
                    _ => return Err(SjvmError::Runtime("expected object on heap".into())),
                }
            }
            (v, ty) => {
                return Err(SjvmError::Runtime(format!(
                    "cannot convert {v:?} to host `{ty}`"
                )))
            }
        })
    }
}

/// Materializes a host value on the heap according to the declared type.
fn host_to_value(
    classes: &ClassTable,
    heap: &mut Vec<HeapCell>,
    v: &HostValue,
    ty: &JType,
) -> Result<Value, SjvmError> {
    Ok(match (v, ty) {
        (HostValue::I(x), t) if t.is_integral() => Value::I(*x),
        (HostValue::F(x), t) if t.is_float() => Value::F(*x),
        (HostValue::I(x), t) if t.is_float() => Value::F(*x as f64),
        (HostValue::Str(s), JType::Array(elem)) if elem.is_integral() => {
            let elems: Vec<Value> = s.bytes().map(|b| Value::I(b as i64)).collect();
            heap.push(HeapCell::Arr { elems });
            Value::Ref(heap.len() - 1)
        }
        (HostValue::Arr(items), JType::Array(elem)) => {
            let mut elems = Vec::with_capacity(items.len());
            for it in items {
                elems.push(host_to_value(classes, heap, it, elem)?);
            }
            heap.push(HeapCell::Arr { elems });
            Value::Ref(heap.len() - 1)
        }
        (HostValue::Tuple(items) | HostValue::Obj(_, items), JType::Ref(class)) => {
            let def = classes.get(*class);
            if items.len() != def.fields.len() {
                return Err(SjvmError::Runtime(format!(
                    "value arity {} does not match class `{}` ({} fields)",
                    items.len(),
                    def.name,
                    def.fields.len()
                )));
            }
            let mut fields = Vec::with_capacity(items.len());
            for (it, f) in items.iter().zip(&def.fields) {
                fields.push(host_to_value(classes, heap, it, &f.ty)?);
            }
            heap.push(HeapCell::Obj { fields });
            Value::Ref(heap.len() - 1)
        }
        (v, ty) => {
            return Err(SjvmError::Runtime(format!(
                "cannot pass host value {v} as `{ty}`"
            )))
        }
    })
}

/// A call suspended at an `Invoke`: its method and frame, the pc to
/// resume at, and the slot that receives the callee's result.
struct Suspended<'a> {
    method: &'a Decoded,
    frame: Vec<Value>,
    resume: usize,
    result: Option<usize>,
}

/// Runs `entry` over `frame` (arguments in the first slots) until it
/// returns; its result is `Null` for a void method. Calls nest on an
/// explicit stack, not on the host's.
fn execute<'a>(
    decoded: &'a [Option<Decoded>],
    heap: &mut Vec<HeapCell>,
    fuel: u64,
    entry: &'a Decoded,
    frame: Vec<Value>,
) -> Result<(Value, ExecStats), SjvmError> {
    let per_slot_ns = JvmCostModel::default().ns_alloc_per_slot;
    let mut callers: Vec<Suspended<'a>> = Vec::new();
    let (mut method, mut frame, mut pc) = (entry, frame, 0usize);
    let mut stats = ExecStats {
        max_call_depth: 1,
        ..ExecStats::default()
    };
    let (mut instructions, mut ns) = (0u64, 0.0f64);
    macro_rules! at {
        ($s:expr) => {
            frame[$s as usize]
        };
    }
    // A two-operand instruction over `i64` (or `f64`) operands; the
    // left operand's type is checked first.
    macro_rules! ints {
        ($o:expr, |$x:ident, $y:ident| $e:expr) => {{
            let Bin { a, b, d } = $o;
            let ($x, $y) = (at!(a).as_i()?, at!(b).as_i()?);
            at!(d) = Value::I($e);
        }};
    }
    macro_rules! doubles {
        ($o:expr, |$x:ident, $y:ident| $e:expr) => {{
            let Bin { a, b, d } = $o;
            let ($x, $y) = (at!(a).as_f()?, at!(b).as_f()?);
            at!(d) = Value::F($e);
        }};
    }
    // `float` arithmetic: operands and result round through `f32`.
    macro_rules! floats {
        ($o:expr, |$x:ident, $y:ident| $e:expr) => {{
            let Bin { a, b, d } = $o;
            let ($x, $y) = (at!(a).as_f()? as f32 as f64, at!(b).as_f()? as f32 as f64);
            at!(d) = Value::F($e as f32 as f64);
        }};
    }
    macro_rules! alloc {
        ($cell:expr, $slots:expr) => {{
            stats.allocations += 1;
            ns += per_slot_ns * $slots as f64;
            heap.push($cell);
            Value::Ref(heap.len() - 1)
        }};
    }
    // Resumes the caller with the result, or ends the run.
    macro_rules! return_with {
        ($v:expr) => {{
            let v = $v;
            let Some(caller) = callers.pop() else {
                stats.instructions = instructions;
                stats.ns = ns;
                return Ok((v, stats));
            };
            (method, frame, pc) = (caller.method, caller.frame, caller.resume);
            if let Some(r) = caller.result {
                frame[r] = v;
            }
            continue;
        }};
    }
    macro_rules! jump_if {
        ($taken:expr, $target:expr) => {
            if $taken {
                pc = $target as usize;
                continue;
            }
        };
    }
    loop {
        let inst = &method.code[pc];
        // The `width` instructions a fused op stands for retire and add
        // their costs one by one, in order. The folded pushes cannot
        // fault, so one fuel check for all of them fails exactly where the
        // first of the separate checks would.
        let width = inst.width as u64;
        if fuel - instructions < width {
            return Err(SjvmError::OutOfFuel);
        }
        instructions += width;
        if width > 1 {
            ns += inst.pre[0];
            if width > 2 {
                ns += inst.pre[1];
            }
        }
        ns += inst.cost;
        match inst.op {
            DOp::ConstI(v, d) => at!(d) = Value::I(v),
            DOp::ConstF(v, d) => at!(d) = Value::F(v),
            DOp::ConstNull(d) => at!(d) = Value::Null,
            DOp::Move(Un { s, d }) => at!(d) = at!(s),
            DOp::Nop => {}
            DOp::NewArray { len, d } => {
                let elems = vec![Value::I(0); len as usize];
                at!(d) = alloc!(HeapCell::Arr { elems }, len);
            }
            DOp::New { fields, d } => {
                let cell = HeapCell::Obj {
                    fields: vec![Value::I(0); fields as usize],
                };
                at!(d) = alloc!(cell, fields);
            }
            DOp::ALoad(Bin { a, b, d }) => {
                let i = at!(b).as_i()?;
                let r = at!(a).as_ref()?;
                at!(d) = match &heap[r] {
                    HeapCell::Arr { elems } => *elems
                        .get(i as usize)
                        .ok_or_else(|| out_of_bounds(i, elems.len()))?,
                    _ => return Err(runtime("aload on non-array")),
                };
            }
            DOp::AStore { arr, idx, val } => {
                let v = at!(val);
                let i = at!(idx).as_i()?;
                let r = at!(arr).as_ref()?;
                match &mut heap[r] {
                    HeapCell::Arr { elems } => {
                        let len = elems.len();
                        *elems
                            .get_mut(i as usize)
                            .ok_or_else(|| out_of_bounds(i, len))? = v;
                    }
                    _ => return Err(runtime("astore on non-array")),
                }
            }
            DOp::ArrayLen(Un { s, d }) => {
                let r = at!(s).as_ref()?;
                at!(d) = match &heap[r] {
                    HeapCell::Arr { elems } => Value::I(elems.len() as i64),
                    _ => return Err(runtime("arraylength on non-array")),
                };
            }
            DOp::GetField(Un { s, d }, field) => {
                let r = at!(s).as_ref()?;
                at!(d) = match &heap[r] {
                    HeapCell::Obj { fields } => *fields
                        .get(field as usize)
                        .ok_or_else(|| no_field(field, fields.len()))?,
                    _ => return Err(runtime("getfield on non-object")),
                };
            }
            DOp::PutField(Bin { a, b, .. }, field) => {
                let v = at!(b);
                let r = at!(a).as_ref()?;
                match &mut heap[r] {
                    HeapCell::Obj { fields } => {
                        let n = fields.len();
                        *fields
                            .get_mut(field as usize)
                            .ok_or_else(|| no_field(field, n))? = v;
                    }
                    _ => return Err(runtime("putfield on non-object")),
                }
            }
            DOp::Invoke {
                method: id,
                args,
                n,
                ret,
            } => {
                let depth = callers.len() as u32 + 2;
                stats.max_call_depth = stats.max_call_depth.max(depth);
                if depth > MAX_CALL_DEPTH {
                    return Err(runtime("call stack overflow"));
                }
                let callee = decoded[id as usize]
                    .as_ref()
                    .expect("callees are decoded with their caller");
                let (args, n) = (args as usize, n as usize);
                let mut callee_frame = callee.frame.clone();
                callee_frame[..n].copy_from_slice(&frame[args..args + n]);
                callers.push(Suspended {
                    method,
                    frame: std::mem::replace(&mut frame, callee_frame),
                    resume: pc + inst.width as usize,
                    result: ret.then_some(args),
                });
                (method, pc) = (callee, 0);
                continue;
            }
            DOp::AddI(o) => ints!(o, |x, y| x.wrapping_add(y) as i32 as i64),
            DOp::SubI(o) => ints!(o, |x, y| x.wrapping_sub(y) as i32 as i64),
            DOp::MulI(o) => ints!(o, |x, y| x.wrapping_mul(y) as i32 as i64),
            DOp::AddL(o) => ints!(o, |x, y| x.wrapping_add(y)),
            DOp::SubL(o) => ints!(o, |x, y| x.wrapping_sub(y)),
            DOp::MulL(o) => ints!(o, |x, y| x.wrapping_mul(y)),
            DOp::AddD(o) => doubles!(o, |x, y| x + y),
            DOp::SubD(o) => doubles!(o, |x, y| x - y),
            DOp::MulD(o) => doubles!(o, |x, y| x * y),
            DOp::AddF(o) => floats!(o, |x, y| x + y),
            DOp::SubF(o) => floats!(o, |x, y| x - y),
            DOp::MulF(o) => floats!(o, |x, y| x * y),
            DOp::Div(kind, Bin { a, b, d }) => {
                // The divisor is checked for zero before either
                // operand's type.
                if !kind.is_float() && at!(b).as_i()? == 0 {
                    return Err(runtime("integer division by zero"));
                }
                at!(d) = arith(at!(a), at!(b), kind, i64::wrapping_div, |x, y| x / y)?;
            }
            DOp::Rem(kind, Bin { a, b, d }) => {
                if !kind.is_float() && at!(b).as_i()? == 0 {
                    return Err(runtime("integer remainder by zero"));
                }
                at!(d) = arith(at!(a), at!(b), kind, i64::wrapping_rem, |x, y| x % y)?;
            }
            DOp::Neg(kind, Un { s, d }) => {
                let v = at!(s);
                at!(d) = if kind.is_float() {
                    Value::F(round_kind(-v.as_f()?, kind))
                } else {
                    Value::I(wrap_kind(v.as_i()?.wrapping_neg(), kind))
                };
            }
            DOp::Shl(o, mask) => ints!(o, |x, y| x.wrapping_shl((y & mask) as u32)),
            DOp::Shr(o, mask) => ints!(o, |x, y| x.wrapping_shr((y & mask) as u32)),
            DOp::UShr(o, mask) => {
                ints!(o, |x, y| (x as u64).wrapping_shr((y & mask) as u32) as i64)
            }
            DOp::And(o) => ints!(o, |x, y| x & y),
            DOp::Or(o) => ints!(o, |x, y| x | y),
            DOp::Xor(o) => ints!(o, |x, y| x ^ y),
            DOp::Math1(f, kind, Un { s, d }) => {
                let v = at!(s);
                at!(d) = match f {
                    MathFn::Exp => Value::F(v.as_f()?.exp()),
                    MathFn::Log => Value::F(v.as_f()?.ln()),
                    MathFn::Sqrt => Value::F(v.as_f()?.sqrt()),
                    _ if kind.is_float() => Value::F(v.as_f()?.abs()),
                    _ => Value::I(v.as_i()?.wrapping_abs()),
                };
            }
            DOp::Math2(min, kind, o) if kind.is_float() => {
                doubles!(o, |x, y| if min { x.min(y) } else { x.max(y) })
            }
            DOp::Math2(min, _, o) => ints!(o, |x, y| if min { x.min(y) } else { x.max(y) }),
            DOp::Cast(from, to, Un { s, d }) => at!(d) = cast_value(at!(s), from, to)?,
            DOp::Cmp(kind, Bin { a, b, d }) => {
                at!(d) = Value::I(signum_cmp(at!(a), at!(b), kind)? as i64);
            }
            DOp::IfCmpI { cond, a, b, target } => {
                let (x, y) = (at!(a).as_i()?, at!(b).as_i()?);
                jump_if!(cond.holds(x.cmp(&y) as i32), target);
            }
            DOp::IfCmpF { cond, a, b, target } => {
                let s = signum_cmp(at!(a), at!(b), NumKind::Double)?;
                jump_if!(cond.holds(s), target);
            }
            DOp::IfZero { cond, s, target } => {
                jump_if!(cond.holds(at!(s).as_i()?.signum() as i32), target);
            }
            DOp::Goto(target) => {
                pc = target as usize;
                continue;
            }
            DOp::Return(s) => return_with!(at!(s)),
            DOp::ReturnVoid => return_with!(Value::Null),
            DOp::Unreachable => return Err(runtime("executed an unreachable instruction")),
        }
        pc += inst.width as usize;
    }
}

#[cold]
#[inline(never)]
fn no_field(field: u32, n: usize) -> SjvmError {
    SjvmError::Runtime(format!("field {field} out of range ({n} fields)"))
}

/// Wraps an integral result to the width of its kind (JVM `int` wraps at 32
/// bits, `long` at 64).
fn wrap_kind(v: i64, k: NumKind) -> i64 {
    match k {
        NumKind::Int => v as i32 as i64,
        _ => v,
    }
}

/// Rounds a floating result through `f32` for `Float` kind.
fn round_kind(v: f64, k: NumKind) -> f64 {
    match k {
        NumKind::Float => v as f32 as f64,
        _ => v,
    }
}

/// A binary arithmetic operator of kind `k` over two values.
fn arith(
    a: Value,
    b: Value,
    k: NumKind,
    int_op: impl Fn(i64, i64) -> i64,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value, SjvmError> {
    Ok(if k.is_float() {
        let (x, y) = (round_kind(a.as_f()?, k), round_kind(b.as_f()?, k));
        Value::F(round_kind(float_op(x, y), k))
    } else {
        Value::I(wrap_kind(int_op(a.as_i()?, b.as_i()?), k))
    })
}

fn cast_value(v: Value, from: NumKind, to: NumKind) -> Result<Value, SjvmError> {
    Ok(match (from.is_float(), to.is_float()) {
        (false, false) => Value::I(wrap_kind(v.as_i()?, to)),
        (false, true) => Value::F(round_kind(v.as_i()? as f64, to)),
        (true, false) => {
            let f = v.as_f()?;
            // JVM d2i saturates on overflow and maps NaN to 0.
            let i = if f.is_nan() {
                0
            } else {
                f as i64 // `as` saturates in Rust, matching JVM semantics
            };
            Value::I(wrap_kind(i, to))
        }
        (true, true) => Value::F(round_kind(v.as_f()?, to)),
    })
}

/// The comparison signum of `a` and `b`; unordered (NaN) compares as 0.
fn signum_cmp(a: Value, b: Value, k: NumKind) -> Result<i32, SjvmError> {
    if k.is_float() {
        let (x, y) = (a.as_f()?, b.as_f()?);
        Ok(if x < y {
            -1
        } else if x > y {
            1
        } else {
            0
        })
    } else {
        Ok(a.as_i()?.cmp(&b.as_i()?) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Expr, FnBuilder};
    use crate::class::ClassTable;
    use crate::method::MethodTable;

    fn run_simple<F: FnOnce(&mut FnBuilder)>(
        params: &[(&str, JType)],
        ret: Option<JType>,
        args: &[HostValue],
        f: F,
    ) -> HostValue {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("call", params, ret);
        f(&mut b);
        let id = b.finish(&mut classes, &mut methods).unwrap();
        crate::verify::verify_method(methods.get(id), &methods).unwrap();
        let mut interp = Interp::new(&classes, &methods);
        interp.run(id, args).unwrap().0
    }

    #[test]
    fn arithmetic_loop() {
        // sum of 0..n
        let out = run_simple(
            &[("n", JType::Int)],
            Some(JType::Int),
            &[HostValue::I(10)],
            |f| {
                let n = f.param(0);
                let s = f.local("s", JType::Int);
                let i = f.local("i", JType::Int);
                f.set(s, Expr::const_i(0));
                f.for_loop(i, Expr::const_i(0), Expr::local(n), |f| {
                    f.set(s, Expr::local(s).add(Expr::local(i)));
                });
                f.ret(Expr::local(s));
            },
        );
        assert_eq!(out, HostValue::I(45));
    }

    #[test]
    fn int_wraps_at_32_bits() {
        let out = run_simple(&[], Some(JType::Int), &[], |f| {
            f.ret(Expr::const_i(i32::MAX as i64).add(Expr::const_i(1)));
        });
        assert_eq!(out, HostValue::I(i32::MIN as i64));
    }

    #[test]
    fn float_rounds_through_f32() {
        let out = run_simple(&[], Some(JType::Float), &[], |f| {
            f.ret(Expr::const_f32(0.1).add(Expr::const_f32(0.2)));
        });
        let v = out.as_f64().unwrap();
        assert_eq!(v, (0.1f32 + 0.2f32) as f64);
    }

    #[test]
    fn tuple_roundtrip() {
        let mut classes = ClassTable::new();
        let pair = classes.define_tuple2(JType::Int, JType::Int);
        let mut methods = MethodTable::new();
        // swap: (a, b) -> (b, a)
        let mut b = FnBuilder::new("swap", &[("in", JType::Ref(pair))], Some(JType::Ref(pair)));
        let input = b.param(0);
        b.ret(Expr::NewObj(
            pair,
            vec![
                Expr::local(input).field("_2"),
                Expr::local(input).field("_1"),
            ],
        ));
        let id = b.finish(&mut classes, &mut methods).unwrap();
        let mut interp = Interp::new(&classes, &methods);
        let (out, stats) = interp
            .run(id, &[HostValue::pair(HostValue::I(1), HostValue::I(2))])
            .unwrap();
        assert_eq!(out, HostValue::pair(HostValue::I(2), HostValue::I(1)));
        assert!(stats.allocations >= 1);
        assert!(stats.ns > 0.0);
    }

    #[test]
    fn arrays_and_strings() {
        // count bytes equal to 'a' in a string passed as byte[]
        let out = run_simple(
            &[("s", JType::array(JType::Byte))],
            Some(JType::Int),
            &[HostValue::Str("banana".into())],
            |f| {
                let s = f.param(0);
                let c = f.local("c", JType::Int);
                let i = f.local("i", JType::Int);
                f.set(c, Expr::const_i(0));
                f.for_loop(i, Expr::const_i(0), Expr::local(s).len(), |f| {
                    f.if_then(
                        Expr::local(s)
                            .index(Expr::local(i))
                            .eq(Expr::const_i(b'a' as i64)),
                        |f| {
                            f.set(c, Expr::local(c).add(Expr::const_i(1)));
                        },
                    );
                });
                f.ret(Expr::local(c));
            },
        );
        assert_eq!(out, HostValue::I(3));
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[], Some(JType::Int));
        b.ret(Expr::const_i(1).div(Expr::const_i(0)));
        let id = b.finish(&mut classes, &mut methods).unwrap();
        let mut interp = Interp::new(&classes, &methods);
        assert!(matches!(interp.run(id, &[]), Err(SjvmError::Runtime(_))));
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[], None);
        b.while_loop(Expr::const_i(1).eq(Expr::const_i(1)), |_| {});
        let id = b.finish(&mut classes, &mut methods).unwrap();
        let mut interp = Interp::new(&classes, &methods).with_fuel(1000);
        assert_eq!(interp.run(id, &[]), Err(SjvmError::OutOfFuel));
    }

    #[test]
    fn virtual_dispatch() {
        let mut classes = ClassTable::new();
        let point = classes
            .define(
                "Point",
                vec![
                    crate::class::FieldDef {
                        name: "x".into(),
                        ty: JType::Double,
                    },
                    crate::class::FieldDef {
                        name: "y".into(),
                        ty: JType::Double,
                    },
                ],
            )
            .unwrap();
        let mut methods = MethodTable::new();
        // def norm2(this: Point): Double = x*x + y*y
        let mut mb = FnBuilder::method("norm2", point, &[], Some(JType::Double));
        let this = mb.param(0);
        mb.ret(
            Expr::local(this)
                .field("x")
                .mul(Expr::local(this).field("x"))
                .add(
                    Expr::local(this)
                        .field("y")
                        .mul(Expr::local(this).field("y")),
                ),
        );
        let norm2 = mb.finish(&mut classes, &mut methods).unwrap();
        classes.add_method(point, "norm2", norm2);

        let mut b = FnBuilder::new("call", &[("p", JType::Ref(point))], Some(JType::Double));
        let p = b.param(0);
        b.ret(Expr::local(p).invoke("norm2", vec![]));
        let id = b.finish(&mut classes, &mut methods).unwrap();
        let mut interp = Interp::new(&classes, &methods);
        let (out, _) = interp
            .run(
                id,
                &[HostValue::Obj(
                    "Point".into(),
                    vec![HostValue::F(3.0), HostValue::F(4.0)],
                )],
            )
            .unwrap();
        assert_eq!(out.as_f64(), Some(25.0));
    }

    #[test]
    fn unverifiable_method_is_a_verify_error_not_a_panic() {
        let classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let bad = |code| crate::method::Method {
            name: "bad".into(),
            params: vec![JType::Int],
            ret: Some(JType::Int),
            n_locals: 1,
            local_names: vec!["x".into()],
            local_types: vec![JType::Int],
            code,
        };
        // A local past the frame, and a fall-through off the end.
        let local = methods.add(bad(vec![Op::Load(3), Op::Return]));
        let falls = methods.add(bad(vec![Op::Load(0)]));
        // A verified caller of an unverifiable callee fails as a whole,
        // and keeps failing.
        let caller = methods.add(crate::method::Method {
            code: vec![Op::Load(0), Op::InvokeStatic { method: falls }, Op::Return],
            ..bad(vec![])
        });
        let mut interp = Interp::new(&classes, &methods);
        for id in [local, falls, caller, caller] {
            let e = interp.run(id, &[HostValue::I(1)]).unwrap_err();
            assert!(matches!(e, SjvmError::Verify { .. }), "{e}");
        }
    }

    #[test]
    fn accepts_matches_cond_holds() {
        use crate::bytecode::Cond;
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for s in -1..=1 {
                assert_eq!(Accepts::of(c).holds(s), c.holds(s), "{c} at {s}");
            }
        }
    }

    #[test]
    fn fuel_covers_exactly_the_retired_instructions() {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[("x", JType::Int)], Some(JType::Int));
        let x = b.param(0);
        b.ret(Expr::local(x).mul(Expr::const_i(3)).add(Expr::const_i(1)));
        let id = b.finish(&mut classes, &mut methods).unwrap();
        let mut interp = Interp::new(&classes, &methods);
        let (_, stats) = interp.run(id, &[HostValue::I(2)]).unwrap();
        let mut exact = Interp::new(&classes, &methods).with_fuel(stats.instructions);
        assert_eq!(exact.run(id, &[HostValue::I(2)]).unwrap().1, stats);
        let mut short = Interp::new(&classes, &methods).with_fuel(stats.instructions - 1);
        assert_eq!(short.run(id, &[HostValue::I(2)]), Err(SjvmError::OutOfFuel));
    }
}
