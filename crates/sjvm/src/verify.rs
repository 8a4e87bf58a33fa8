//! Bytecode verifier.
//!
//! A lightweight structural verifier in the spirit of the JVM's: it checks
//! that every branch target is in range, that the operand stack never
//! underflows, that stack depths agree at control-flow joins, that
//! local-variable indices are in bounds and that every called method
//! exists. The S2FA compiler runs it before attempting bytecode-to-C
//! translation so the decompiler can assume a well-formed method, and the
//! interpreter runs it once per method to turn the stack depths it proves
//! into fixed frame slots.

use crate::bytecode::Op;
use crate::method::{Method, MethodTable};
use crate::SjvmError;

/// The operand-stack depths of a verified method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDepths {
    /// Depth on entry to each instruction; `None` where control never
    /// reaches.
    pub entry: Vec<Option<u32>>,
    /// The deepest the stack gets anywhere in the method.
    pub max: u32,
}

/// Verifies a method's bytecode and returns the stack depth at each
/// instruction.
///
/// # Errors
///
/// Returns [`SjvmError::Verify`] describing the first violation found.
///
/// ```
/// use s2fa_sjvm::{verify, JType, Method, MethodTable, Op};
///
/// let m = Method {
///     name: "id".into(),
///     params: vec![JType::Int],
///     ret: Some(JType::Int),
///     n_locals: 1,
///     local_names: vec!["x".into()],
///     local_types: vec![JType::Int],
///     code: vec![Op::Load(0), Op::Return],
/// };
/// let table = MethodTable::new();
/// let depths = verify::verify_method(&m, &table)?;
/// assert_eq!(depths.entry, vec![Some(0), Some(1)]);
/// assert_eq!(depths.max, 1);
/// # Ok::<(), s2fa_sjvm::SjvmError>(())
/// ```
pub fn verify_method(method: &Method, methods: &MethodTable) -> Result<StackDepths, SjvmError> {
    let code = &method.code;
    if code.is_empty() {
        return Err(SjvmError::Verify {
            pc: 0,
            reason: "empty method body".into(),
        });
    }
    if (method.n_locals as usize) < method.params.len() {
        return Err(SjvmError::Verify {
            pc: 0,
            reason: format!(
                "{} local slots cannot hold {} parameters",
                method.n_locals,
                method.params.len()
            ),
        });
    }
    // depth[pc] = Some(stack depth on entry), propagated by worklist.
    let mut depth: Vec<Option<i32>> = vec![None; code.len()];
    depth[0] = Some(0);
    let mut max = 0i32;
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let d_in = depth[pc].expect("only scheduled with a known depth");
        let op = &code[pc];
        let (pops, pushes) =
            stack_effect(op, methods).map_err(|reason| SjvmError::Verify { pc, reason })?;
        let d_out = d_in - pops + pushes;
        if d_in - pops < 0 {
            return Err(SjvmError::Verify {
                pc,
                reason: format!("stack underflow: depth {d_in}, pops {pops}"),
            });
        }
        max = max.max(d_in).max(d_out);
        if let Op::Load(n) | Op::Store(n) = op {
            if *n >= method.n_locals {
                return Err(SjvmError::Verify {
                    pc,
                    reason: format!("local slot {n} out of range ({})", method.n_locals),
                });
            }
        }
        if let Op::Return = op {
            let want = if method.ret.is_some() { 1 } else { 0 };
            if d_in != want {
                return Err(SjvmError::Verify {
                    pc,
                    reason: format!("return with stack depth {d_in}, expected {want}"),
                });
            }
            continue;
        }
        let mut succs = [None; 2];
        if let Some(t) = op.branch_target() {
            if t as usize >= code.len() {
                return Err(SjvmError::Verify {
                    pc,
                    reason: format!("branch target {t} out of range"),
                });
            }
            succs[0] = Some(t as usize);
        }
        if !op.is_terminator() {
            if pc + 1 >= code.len() {
                return Err(SjvmError::Verify {
                    pc,
                    reason: "control falls off the end of the method".into(),
                });
            }
            succs[1] = Some(pc + 1);
        }
        for s in succs.into_iter().flatten() {
            match depth[s] {
                None => {
                    depth[s] = Some(d_out);
                    work.push(s);
                }
                Some(prev) if prev != d_out => {
                    return Err(SjvmError::Verify {
                        pc,
                        reason: format!(
                            "inconsistent stack depth at join pc {s}: {prev} vs {d_out}"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
    }
    Ok(StackDepths {
        entry: depth.into_iter().map(|d| d.map(|d| d as u32)).collect(),
        max: max as u32,
    })
}

/// `(pops, pushes)` of an instruction.
fn stack_effect(op: &Op, methods: &MethodTable) -> Result<(i32, i32), String> {
    Ok(match op {
        Op::ConstI(_) | Op::ConstF(_) | Op::ConstNull => (0, 1),
        Op::Load(_) => (0, 1),
        Op::Store(_) => (1, 0),
        Op::NewArray { .. } => (0, 1),
        Op::ALoad => (2, 1),
        Op::AStore => (3, 0),
        Op::ArrayLen => (1, 1),
        Op::New(_) => (0, 1),
        Op::GetField(..) => (1, 1),
        Op::PutField(..) => (2, 0),
        Op::InvokeVirtual { method, .. } | Op::InvokeStatic { method }
            if method.0 as usize >= methods.len() =>
        {
            return Err(format!("call to unknown {method}"));
        }
        Op::InvokeVirtual { method, .. } => {
            let m = methods.get(*method);
            // receiver + declared params (slot 0 of the callee is `this`).
            let pops = m.params.len() as i32;
            (pops, if m.ret.is_some() { 1 } else { 0 })
        }
        Op::InvokeStatic { method } => {
            let m = methods.get(*method);
            (m.params.len() as i32, if m.ret.is_some() { 1 } else { 0 })
        }
        Op::Add(_) | Op::Sub(_) | Op::Mul(_) | Op::Div(_) | Op::Rem(_) => (2, 1),
        Op::Neg(_) => (1, 1),
        Op::Shl | Op::Shr | Op::UShr | Op::And | Op::Or | Op::Xor => (2, 1),
        Op::Math(f, _) => (f.arity() as i32, 1),
        Op::Cast { .. } => (1, 1),
        Op::Cmp(_) => (2, 1),
        Op::IfCmp { .. } => (2, 0),
        Op::IfZero { .. } => (1, 0),
        Op::Goto(_) => (0, 0),
        Op::Return => (0, 0), // handled specially
        Op::Pop => (1, 0),
        Op::Dup => (1, 2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Cond, NumKind};
    use crate::ty::JType;

    fn method(code: Vec<Op>, n_locals: u16, ret: Option<JType>) -> Method {
        Method {
            name: "t".into(),
            params: vec![],
            ret,
            n_locals,
            local_names: (0..n_locals).map(|i| format!("l{i}")).collect(),
            local_types: (0..n_locals).map(|_| JType::Int).collect(),
            code,
        }
    }

    #[test]
    fn accepts_simple_method() {
        let m = method(
            vec![
                Op::ConstI(1),
                Op::ConstI(2),
                Op::Add(NumKind::Int),
                Op::Return,
            ],
            0,
            Some(JType::Int),
        );
        let depths = verify_method(&m, &MethodTable::new()).unwrap();
        assert_eq!(depths.entry, vec![Some(0), Some(1), Some(2), Some(1)]);
        assert_eq!(depths.max, 2);
    }

    #[test]
    fn rejects_underflow() {
        let m = method(vec![Op::Pop, Op::Return], 0, None);
        let e = verify_method(&m, &MethodTable::new()).unwrap_err();
        assert!(e.to_string().contains("underflow"));
    }

    #[test]
    fn rejects_bad_branch_target() {
        let m = method(vec![Op::Goto(99)], 0, None);
        assert!(verify_method(&m, &MethodTable::new()).is_err());
    }

    #[test]
    fn rejects_inconsistent_join_depth() {
        // path A pushes 1 value, path B pushes 2, both join at pc 5.
        let m = method(
            vec![
                Op::ConstI(0),
                Op::IfZero {
                    cond: Cond::Eq,
                    target: 4,
                },
                Op::ConstI(1),
                Op::Goto(6),
                Op::ConstI(1),
                Op::ConstI(2),
                Op::Return,
            ],
            0,
            Some(JType::Int),
        );
        assert!(verify_method(&m, &MethodTable::new()).is_err());
    }

    #[test]
    fn rejects_out_of_range_local() {
        let m = method(vec![Op::Load(5), Op::Return], 1, Some(JType::Int));
        let e = verify_method(&m, &MethodTable::new()).unwrap_err();
        assert!(e.to_string().contains("slot 5"));
    }

    #[test]
    fn rejects_fallthrough_off_the_end() {
        let m = method(vec![Op::ConstI(1), Op::Pop], 0, None);
        assert!(verify_method(&m, &MethodTable::new()).is_err());
    }

    #[test]
    fn rejects_return_with_wrong_depth() {
        let m = method(vec![Op::Return], 0, Some(JType::Int));
        assert!(verify_method(&m, &MethodTable::new()).is_err());
        let m = method(vec![Op::ConstI(1), Op::Return], 0, None);
        assert!(verify_method(&m, &MethodTable::new()).is_err());
    }

    #[test]
    fn rejects_params_that_do_not_fit_the_locals() {
        let mut m = method(vec![Op::ConstI(0), Op::Return], 0, Some(JType::Int));
        m.params = vec![JType::Int];
        let e = verify_method(&m, &MethodTable::new()).unwrap_err();
        assert!(e.to_string().contains("cannot hold 1 parameters"), "{e}");
    }

    #[test]
    fn rejects_call_to_unknown_method() {
        let call = Op::InvokeStatic {
            method: crate::method::MethodId(3),
        };
        let m = method(vec![call, Op::Return], 0, None);
        let e = verify_method(&m, &MethodTable::new()).unwrap_err();
        assert!(e.to_string().contains("unknown method#3"), "{e}");
    }

    #[test]
    fn rejects_empty_body() {
        let m = method(vec![], 0, None);
        assert!(verify_method(&m, &MethodTable::new()).is_err());
    }
}
