//! Per-opcode JVM execution cost model.
//!
//! Fig. 4 of the paper normalizes accelerator performance against a
//! *single-threaded Spark executor on the JVM*. We reproduce that baseline
//! by charging each interpreted bytecode instruction a calibrated cost in
//! nanoseconds. The defaults approximate a warmed-up JVM running
//! JIT-compiled but object-heavy Spark lambda code on a ~2.7 GHz Xeon
//! (the f1.2xlarge host): ALU operations are near-free, while object
//! allocation, pointer chasing (field access), virtual dispatch, and
//! transcendental math dominate — exactly the overheads that make the JVM
//! baseline slow relative to a dataflow accelerator.

use crate::bytecode::{MathFn, Op};

/// Cost model mapping bytecode operations to nanoseconds.
///
/// The interpreter charges the [`Default`] values, resolved into each
/// decoded instruction; the fields are public so the calibration is
/// readable.
#[derive(Debug, Clone, PartialEq)]
pub struct JvmCostModel {
    /// Constant push / stack shuffle.
    pub ns_const: f64,
    /// Local variable load/store.
    pub ns_local: f64,
    /// Integer ALU op (add/sub/logic/shift/compare).
    pub ns_int_alu: f64,
    /// Integer multiply.
    pub ns_int_mul: f64,
    /// Integer divide / remainder.
    pub ns_int_div: f64,
    /// Floating add/sub/mul.
    pub ns_float_alu: f64,
    /// Floating divide.
    pub ns_float_div: f64,
    /// `Math.sqrt`.
    pub ns_sqrt: f64,
    /// `Math.exp` / `Math.log` (transcendental).
    pub ns_transcendental: f64,
    /// Array element access (bounds + header indirection).
    pub ns_array_access: f64,
    /// Field read/write (pointer chase).
    pub ns_field_access: f64,
    /// Object or array allocation (TLAB bump + header + zeroing base).
    pub ns_alloc: f64,
    /// Additional allocation cost per field/element zeroed.
    pub ns_alloc_per_slot: f64,
    /// Virtual method invocation (dispatch + frame setup).
    pub ns_invoke: f64,
    /// Taken or not-taken branch.
    pub ns_branch: f64,
}

impl Default for JvmCostModel {
    fn default() -> Self {
        JvmCostModel {
            ns_const: 0.3,
            ns_local: 0.4,
            ns_int_alu: 0.4,
            ns_int_mul: 1.2,
            ns_int_div: 8.0,
            ns_float_alu: 0.8,
            ns_float_div: 6.0,
            ns_sqrt: 7.0,
            ns_transcendental: 24.0,
            ns_array_access: 1.6,
            ns_field_access: 2.2,
            ns_alloc: 28.0,
            ns_alloc_per_slot: 0.8,
            ns_invoke: 12.0,
            ns_branch: 0.9,
        }
    }
}

impl JvmCostModel {
    /// Creates the default calibrated model (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cost in nanoseconds of executing `op` once.
    ///
    /// Allocation instructions additionally charge
    /// [`ns_alloc_per_slot`](Self::ns_alloc_per_slot) per slot: the
    /// interpreter adds that second term after this one, once it knows the
    /// slot count.
    pub fn op_cost(&self, op: &Op) -> f64 {
        match op {
            Op::ConstI(_) | Op::ConstF(_) | Op::ConstNull | Op::Pop | Op::Dup => self.ns_const,
            Op::Load(_) | Op::Store(_) => self.ns_local,
            Op::ALoad | Op::AStore | Op::ArrayLen => self.ns_array_access,
            Op::GetField(..) | Op::PutField(..) => self.ns_field_access,
            Op::New(_) | Op::NewArray { .. } => self.ns_alloc,
            Op::InvokeVirtual { .. } | Op::InvokeStatic { .. } => self.ns_invoke,
            Op::Add(k) | Op::Sub(k) | Op::Neg(k) => {
                if k.is_float() {
                    self.ns_float_alu
                } else {
                    self.ns_int_alu
                }
            }
            Op::Mul(k) => {
                if k.is_float() {
                    self.ns_float_alu
                } else {
                    self.ns_int_mul
                }
            }
            Op::Div(k) | Op::Rem(k) => {
                if k.is_float() {
                    self.ns_float_div
                } else {
                    self.ns_int_div
                }
            }
            Op::Shl | Op::Shr | Op::UShr | Op::And | Op::Or | Op::Xor => self.ns_int_alu,
            Op::Math(f, _) => match f {
                MathFn::Exp | MathFn::Log => self.ns_transcendental,
                MathFn::Sqrt => self.ns_sqrt,
                MathFn::Abs | MathFn::Min | MathFn::Max => self.ns_int_alu,
            },
            Op::Cast { from, to } => {
                if from.is_float() || to.is_float() {
                    self.ns_float_alu
                } else {
                    self.ns_int_alu
                }
            }
            Op::Cmp(_) => self.ns_int_alu,
            Op::IfCmp { .. } | Op::IfZero { .. } | Op::Goto(_) => self.ns_branch,
            Op::Return => self.ns_branch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::NumKind;

    #[test]
    fn transcendental_is_expensive() {
        let m = JvmCostModel::default();
        assert!(
            m.op_cost(&Op::Math(MathFn::Exp, NumKind::Double))
                > m.op_cost(&Op::Mul(NumKind::Double)) * 10.0
        );
    }

    #[test]
    fn float_div_costs_more_than_mul() {
        let m = JvmCostModel::default();
        assert!(m.op_cost(&Op::Div(NumKind::Float)) > m.op_cost(&Op::Mul(NumKind::Float)));
    }
}
