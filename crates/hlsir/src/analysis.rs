//! Kernel analysis — the ROSE + polyhedral substitute.
//!
//! S2FA "identifies the design space for each kernel by analyzing the kernel
//! AST using the ROSE compiler infrastructure and polyhedral framework to
//! realize loop trip-counts, available bit-widths, and so on" (§4.1). This
//! module extracts the same facts from the [`CFunction`] AST:
//!
//! * the loop-nest tree with static trip counts,
//! * per-iteration operation counts per loop body,
//! * buffer inventory with element widths and per-task lengths,
//! * the buffer accesses of each loop body,
//! * loop-carried dependence detection with the operation chain on the
//!   recurrence cycle (what bounds the achievable initiation interval).
//!
//! The loop tree, buffer inventory and accesses come from the
//! [`KernelIndex`]; op counts and the recurrence scan read each loop body
//! the index points at. The result, [`KernelSummary`], is the single input
//! of both the design-space builder (`s2fa-dse`) and the HLS estimator
//! (`s2fa-hlssim`).

use crate::ast::{CFunction, Expr, LValue, LoopId, ParamKind, Stmt};
use crate::dataflow::depend::conservative_carried;
use crate::index::KernelIndex;
use crate::opcount::OpCounts;
use crate::HlsirError;

/// Direction of a buffer relative to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferDir {
    /// Interface input (off-chip → accelerator).
    In,
    /// Interface output (accelerator → off-chip).
    Out,
    /// Kernel-local array (on-chip BRAM).
    Local,
}

/// A buffer visible to the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferInfo {
    /// Buffer name.
    pub name: String,
    /// Element width in bits.
    pub elem_bits: u32,
    /// Elements per task (interface buffers) or total elements (locals).
    pub len: u32,
    /// Direction.
    pub dir: BufferDir,
    /// True for broadcast inputs: one shared copy per batch, cached
    /// on-chip by the generated design.
    pub broadcast: bool,
}

/// One buffer access inside a loop body (per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Buffer accessed.
    pub buffer: String,
    /// True for writes.
    pub write: bool,
}

/// A loop-carried dependence detected on a loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CarriedDep {
    /// Scalar or array carrying the recurrence.
    pub via: String,
    /// Operations on the recurrence cycle (from the carried read back to
    /// the write); their summed latency lower-bounds the pipeline II.
    pub chain: OpCounts,
    /// True if the recurrence is a pure associative accumulation, i.e.
    /// Merlin's tree-reduction rewrite is legal.
    pub reducible: bool,
}

/// Facts about one loop of the nest.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// The loop id.
    pub id: LoopId,
    /// Induction variable name.
    pub var: String,
    /// Static trip count (the task loop uses the analysis batch hint).
    pub trip_count: u32,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Parent loop, if any.
    pub parent: Option<LoopId>,
    /// Direct children, outer-to-inner order.
    pub children: Vec<LoopId>,
    /// Per-iteration operations in this loop's body, excluding nested loops.
    pub body_ops: OpCounts,
    /// Per-iteration buffer accesses, excluding nested loops.
    pub accesses: Vec<Access>,
    /// Loop-carried dependence, if detected.
    pub carried: Option<CarriedDep>,
}

/// Complete analysis summary of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Loops in pre-order (task loop first).
    pub loops: Vec<LoopInfo>,
    /// All buffers (interface + local).
    pub buffers: Vec<BufferInfo>,
    /// The outermost (task/template) loop.
    pub task_loop: LoopId,
    /// Batch size assumed for the task loop's trip count.
    pub tasks_hint: u32,
    /// Per-loop write-race verdicts from the dataflow engine. `None`
    /// unless explicitly attached ([`crate::dataflow::attach`]); only the
    /// legality prescreen's race rule reads them, never the estimator.
    pub dataflow: Option<crate::dataflow::KernelDataflow>,
}

impl KernelSummary {
    /// Looks up a loop's info.
    pub fn loop_info(&self, id: LoopId) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.id == id)
    }

    /// Looks up a buffer's info.
    pub fn buffer(&self, name: &str) -> Option<&BufferInfo> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// All descendants of a loop (excluding itself), pre-order.
    pub fn descendants(&self, id: LoopId) -> Vec<LoopId> {
        let mut out = Vec::new();
        let mut stack: Vec<LoopId> = self
            .loop_info(id)
            .map(|l| l.children.clone())
            .unwrap_or_default();
        stack.reverse();
        while let Some(c) = stack.pop() {
            out.push(c);
            if let Some(l) = self.loop_info(c) {
                for ch in l.children.iter().rev() {
                    stack.push(*ch);
                }
            }
        }
        out
    }

    /// Product of the trip counts of all loops strictly inside `id` —
    /// the replication factor implied by `flatten`.
    pub fn flattened_iters(&self, id: LoopId) -> u64 {
        self.descendants(id)
            .iter()
            .filter_map(|c| self.loop_info(*c))
            .map(|l| l.trip_count as u64)
            .product()
    }

    /// Total per-iteration work of the loop *including* nested loops
    /// (each inner loop's body scaled by its trip count).
    pub fn subtree_ops(&self, id: LoopId) -> OpCounts {
        fn rec(s: &KernelSummary, id: LoopId) -> OpCounts {
            let Some(l) = s.loop_info(id) else {
                return OpCounts::new();
            };
            let mut total = l.body_ops;
            for c in &l.children {
                let inner = rec(s, *c);
                let tc = s.loop_info(*c).map(|x| x.trip_count).unwrap_or(1);
                total += inner.scaled(tc);
            }
            total
        }
        rec(self, id)
    }

    /// Interface bytes moved per task (in + out), excluding broadcast
    /// buffers (those move once per batch — see
    /// [`broadcast_bytes`](Self::broadcast_bytes)).
    pub fn interface_bytes_per_task(&self) -> (u64, u64) {
        let mut inb = 0u64;
        let mut outb = 0u64;
        for b in &self.buffers {
            if b.broadcast {
                continue;
            }
            let bytes = (b.elem_bits as u64 / 8).max(1) * b.len as u64;
            match b.dir {
                BufferDir::In => inb += bytes,
                BufferDir::Out => outb += bytes,
                BufferDir::Local => {}
            }
        }
        (inb, outb)
    }

    /// Bytes of broadcast (once-per-batch) input data.
    pub fn broadcast_bytes(&self) -> u64 {
        self.buffers
            .iter()
            .filter(|b| b.broadcast && b.dir == BufferDir::In)
            .map(|b| (b.elem_bits as u64 / 8).max(1) * b.len as u64)
            .sum()
    }
}

/// Analyzes a generated kernel.
///
/// `tasks_hint` is the nominal batch size used as the task loop's trip
/// count (its bound is the runtime parameter `N`).
///
/// # Errors
///
/// Returns [`HlsirError::Analysis`] if an inner loop's bound is not a
/// compile-time constant (outside the subset S2FA generates).
pub fn summarize(f: &CFunction, tasks_hint: u32) -> Result<KernelSummary, HlsirError> {
    let index = KernelIndex::build(f);
    let mut buffers: Vec<BufferInfo> = f
        .params
        .iter()
        .filter(|p| p.kind != ParamKind::ScalarIn)
        .map(|p| BufferInfo {
            name: p.name.clone(),
            elem_bits: p.ty.bits(),
            len: p.elems_per_task.unwrap_or(1),
            dir: if p.kind == ParamKind::BufIn {
                BufferDir::In
            } else {
                BufferDir::Out
            },
            broadcast: p.broadcast,
        })
        .collect();
    buffers.extend(index.local_arrays.iter().map(|a| BufferInfo {
        name: a.name.to_string(),
        elem_bits: a.ty.bits(),
        len: a.len,
        dir: BufferDir::Local,
        broadcast: false,
    }));

    let mut loops = Vec::with_capacity(index.loops.len());
    for l in &index.loops {
        let trip_count = match l.trip {
            Some(t) => t,
            // The template (task) loop is bounded by the runtime batch
            // size `n` (or `n - 1` for reduce templates).
            None if l.parent.is_none() => tasks_hint,
            None => {
                return Err(HlsirError::Analysis(format!(
                    "loop {} has a non-constant bound {:?}",
                    l.id, l.bound
                )))
            }
        };
        loops.push(LoopInfo {
            id: l.id,
            var: l.var.to_string(),
            trip_count,
            depth: l.depth,
            parent: l.parent,
            children: index
                .loops
                .iter()
                .filter(|c| c.parent == Some(l.id))
                .map(|c| c.id)
                .collect(),
            body_ops: body_ops(l.body),
            accesses: Vec::new(),
            carried: conservative_carried(l.body, l.var),
        });
    }
    // Each access counts under its innermost loop; a loop bound's reads
    // belong to no loop body.
    for site in &index.sites {
        let Some(inner) = site.loops.last() else {
            continue;
        };
        if index.loops.iter().any(|l| l.stmt == site.stmt) {
            continue;
        }
        if let Some(li) = loops.iter_mut().find(|l| l.id == inner.id) {
            li.accesses.push(Access {
                buffer: site.array.to_string(),
                write: site.write,
            });
        }
    }
    let Some(task_loop) = loops.first().map(|l| l.id) else {
        return Err(HlsirError::Analysis(
            "kernel has no loops; expected the template task loop".into(),
        ));
    };
    Ok(KernelSummary {
        name: f.name.clone(),
        loops,
        buffers,
        task_loop,
        tasks_hint,
        dataflow: None,
    })
}

/// Operations of a loop body *excluding* nested loops. `If` branches are
/// summed (HLS if-converts and schedules both sides).
fn body_ops(stmts: &[Stmt]) -> OpCounts {
    let mut ops = OpCounts::new();
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                count_expr(rhs, &mut ops);
                if let LValue::Index(_, idx) = lhs {
                    count_expr(idx, &mut ops);
                    ops.mem_write += 1;
                }
            }
            Stmt::Decl { init: Some(e), .. } => count_expr(e, &mut ops),
            Stmt::If { cond, then, els } => {
                count_expr(cond, &mut ops);
                ops += body_ops(then);
                ops += body_ops(els);
            }
            // Nested loops profiled separately; declarations are free.
            Stmt::For { .. } | Stmt::Decl { init: None, .. } | Stmt::DeclArr { .. } => {}
        }
    }
    ops
}

pub(crate) fn count_expr(e: &Expr, ops: &mut OpCounts) {
    match e {
        Expr::ConstI(_) | Expr::ConstF(_) | Expr::Var(_) => {}
        Expr::Index(_, idx) => {
            count_expr(idx, ops);
            ops.mem_read += 1;
        }
        Expr::Bin(op, kind, a, b) => {
            count_expr(a, ops);
            count_expr(b, ops);
            ops.record_bin(*op, *kind);
        }
        Expr::Neg(kind, a) => {
            count_expr(a, ops);
            if kind.is_float() {
                ops.fadd += 1;
            } else {
                ops.int_alu += 1;
            }
        }
        Expr::Call(f, kind, args) => {
            for a in args {
                count_expr(a, ops);
            }
            ops.record_call(*f, *kind);
        }
        Expr::Cast(_, _, a) => {
            count_expr(a, ops);
            ops.int_alu += 1;
        }
        Expr::Select(c, a, b) => {
            count_expr(c, ops);
            count_expr(a, ops);
            count_expr(b, ops);
            ops.int_alu += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    /// kernel: for t in 0..N { s=0; for j in 0..8 { s += in[t*8+j]*w[j] } out[t]=s }
    fn dot_kernel() -> CFunction {
        CFunction {
            name: "dot".into(),
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
                    elems_per_task: Some(8),
                    broadcast: false,
                },
                Param {
                    name: "w".into(),
                    ty: CType::Float,
                    kind: ParamKind::BufIn,
                    elems_per_task: Some(8),
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
                var: "t".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body: vec![
                    Stmt::Decl {
                        name: "s".into(),
                        ty: CType::Float,
                        init: Some(Expr::ConstF(0.0)),
                    },
                    Stmt::counted_for(
                        LoopId(1),
                        "j",
                        8,
                        vec![Stmt::Assign {
                            lhs: LValue::Var("s".into()),
                            rhs: Expr::bin(
                                CBinOp::Add,
                                CNumKind::F32,
                                Expr::var("s"),
                                Expr::bin(
                                    CBinOp::Mul,
                                    CNumKind::F32,
                                    Expr::index(
                                        "in_1",
                                        Expr::iadd(
                                            Expr::imul(Expr::var("t"), Expr::ConstI(8)),
                                            Expr::var("j"),
                                        ),
                                    ),
                                    Expr::index("w", Expr::var("j")),
                                ),
                            ),
                        }],
                    ),
                    Stmt::Assign {
                        lhs: LValue::Index("out_1".into(), Box::new(Expr::var("t"))),
                        rhs: Expr::var("s"),
                    },
                ],
            }],
        }
    }

    #[test]
    fn loop_nest_shape() {
        let s = summarize(&dot_kernel(), 1024).unwrap();
        assert_eq!(s.loops.len(), 2);
        assert_eq!(s.task_loop, LoopId(0));
        let outer = s.loop_info(LoopId(0)).unwrap();
        assert_eq!(outer.trip_count, 1024);
        assert_eq!(outer.children, vec![LoopId(1)]);
        let inner = s.loop_info(LoopId(1)).unwrap();
        assert_eq!(inner.trip_count, 8);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(LoopId(0)));
    }

    #[test]
    fn inner_reduction_is_detected_and_reducible() {
        let s = summarize(&dot_kernel(), 64).unwrap();
        let inner = s.loop_info(LoopId(1)).unwrap();
        let dep = inner.carried.as_ref().expect("accumulation detected");
        assert_eq!(dep.via, "s");
        assert!(dep.reducible);
        // the cycle is exactly one fadd
        assert_eq!(dep.chain.fadd, 1);
        assert_eq!(dep.chain.fmul, 0);
    }

    #[test]
    fn outer_loop_has_no_carried_dep() {
        // `s` is declared inside the task loop → private per task.
        let s = summarize(&dot_kernel(), 64).unwrap();
        let outer = s.loop_info(LoopId(0)).unwrap();
        assert!(outer.carried.is_none());
    }

    #[test]
    fn accesses_are_attributed_to_their_innermost_loop() {
        let s = summarize(&dot_kernel(), 64).unwrap();
        let inner = s.loop_info(LoopId(1)).unwrap();
        let bufs: Vec<(&str, bool)> = inner
            .accesses
            .iter()
            .map(|a| (a.buffer.as_str(), a.write))
            .collect();
        assert_eq!(bufs, vec![("in_1", false), ("w", false)]);
        let outer = s.loop_info(LoopId(0)).unwrap();
        let bufs: Vec<(&str, bool)> = outer
            .accesses
            .iter()
            .map(|a| (a.buffer.as_str(), a.write))
            .collect();
        assert_eq!(bufs, vec![("out_1", true)]);
    }

    #[test]
    fn op_counts_per_body() {
        let s = summarize(&dot_kernel(), 64).unwrap();
        let inner = s.loop_info(LoopId(1)).unwrap();
        assert_eq!(inner.body_ops.fadd, 1);
        assert_eq!(inner.body_ops.fmul, 1);
        assert_eq!(inner.body_ops.mem_read, 2);
        let total = s.subtree_ops(LoopId(0));
        // per task: 8 * (1 fadd + 1 fmul) plus the out write
        assert_eq!(total.fadd, 8);
        assert_eq!(total.fmul, 8);
        assert_eq!(total.mem_write, 1);
    }

    #[test]
    fn buffer_inventory_and_bytes() {
        let s = summarize(&dot_kernel(), 64).unwrap();
        assert_eq!(s.buffers.len(), 3);
        let (inb, outb) = s.interface_bytes_per_task();
        assert_eq!(inb, 8 * 4 + 8 * 4);
        assert_eq!(outb, 4);
    }

    #[test]
    fn flattened_iters() {
        let s = summarize(&dot_kernel(), 64).unwrap();
        assert_eq!(s.flattened_iters(LoopId(0)), 8);
        assert_eq!(s.flattened_iters(LoopId(1)), 1);
    }

    #[test]
    fn non_constant_inner_bound_rejected() {
        let mut f = dot_kernel();
        if let Some(Stmt::For { body, .. }) = f.body.first_mut() {
            if let Some(Stmt::For {
                bound, trip_count, ..
            }) = body.get_mut(1)
            {
                *bound = Expr::var("k");
                *trip_count = None;
            }
        }
        assert!(summarize(&f, 64).is_err());
    }

    #[test]
    fn array_recurrence_detected() {
        // h[j] = h[j] + x  inside loop over i (coeff 0 on both) → carried.
        let body = vec![Stmt::Assign {
            lhs: LValue::Index("h".into(), Box::new(Expr::var("j"))),
            rhs: Expr::bin(
                CBinOp::Add,
                CNumKind::F32,
                Expr::index("h", Expr::var("j")),
                Expr::var("x"),
            ),
        }];
        let dep = conservative_carried(&body, "i").expect("carried");
        assert_eq!(dep.via, "h");
        assert!(dep.reducible);
    }

    #[test]
    fn min_accumulation_is_reducible() {
        // best = min(best, d)
        let body = vec![Stmt::Assign {
            lhs: LValue::Var("best".into()),
            rhs: Expr::Call(
                CIntrinsic::Min,
                CNumKind::F32,
                vec![Expr::var("best"), Expr::var("d")],
            ),
        }];
        let dep = conservative_carried(&body, "i").expect("carried");
        assert!(dep.reducible);
    }

    #[test]
    fn non_associative_recurrence_not_reducible() {
        // s = s * a + b  → chain fmul+fadd, not reducible
        let body = vec![Stmt::Assign {
            lhs: LValue::Var("s".into()),
            rhs: Expr::bin(
                CBinOp::Add,
                CNumKind::F32,
                Expr::bin(CBinOp::Mul, CNumKind::F32, Expr::var("s"), Expr::var("a")),
                Expr::var("b"),
            ),
        }];
        let dep = conservative_carried(&body, "i").expect("carried");
        assert!(!dep.reducible);
        assert_eq!(dep.chain.fadd, 1);
        assert_eq!(dep.chain.fmul, 1);
    }
}

#[cfg(test)]
mod scoping_tests {
    use super::*;
    use crate::ast::*;

    /// for i { int s = 0; for j { s += a[j] } } — `s` is private to each
    /// `i` iteration, so the *outer* loop must not report a carried
    /// dependence through it, while the inner loop must.
    #[test]
    fn per_iteration_decls_are_private_to_the_outer_loop() {
        let f = CFunction {
            name: "k".into(),
            params: vec![Param {
                name: "a".into(),
                ty: CType::Float,
                kind: ParamKind::BufIn,
                elems_per_task: Some(8),
                broadcast: false,
            }],
            body: vec![Stmt::counted_for(
                LoopId(0),
                "i",
                16,
                vec![
                    Stmt::Decl {
                        name: "s".into(),
                        ty: CType::Float,
                        init: Some(Expr::ConstF(0.0)),
                    },
                    Stmt::counted_for(
                        LoopId(1),
                        "j",
                        8,
                        vec![Stmt::Assign {
                            lhs: LValue::Var("s".into()),
                            rhs: Expr::bin(
                                CBinOp::Add,
                                CNumKind::F32,
                                Expr::var("s"),
                                Expr::index("a", Expr::var("j")),
                            ),
                        }],
                    ),
                ],
            )],
        };
        let s = summarize(&f, 16).unwrap();
        assert!(s.loop_info(LoopId(0)).unwrap().carried.is_none());
        assert!(s.loop_info(LoopId(1)).unwrap().carried.is_some());
    }

    /// `if` branches are summed (HLS if-converts both sides).
    #[test]
    fn if_branches_are_summed_in_op_counts() {
        let f = CFunction {
            name: "k".into(),
            params: vec![Param {
                name: "a".into(),
                ty: CType::Float,
                kind: ParamKind::BufIn,
                elems_per_task: Some(1),
                broadcast: false,
            }],
            body: vec![Stmt::counted_for(
                LoopId(0),
                "i",
                4,
                vec![Stmt::If {
                    cond: Expr::bin(
                        CBinOp::Lt,
                        CNumKind::F32,
                        Expr::index("a", Expr::var("i")),
                        Expr::ConstF(0.0),
                    ),
                    then: vec![Stmt::Assign {
                        lhs: LValue::Var("x".into()),
                        rhs: Expr::bin(
                            CBinOp::Mul,
                            CNumKind::F32,
                            Expr::index("a", Expr::var("i")),
                            Expr::ConstF(2.0),
                        ),
                    }],
                    els: vec![Stmt::Assign {
                        lhs: LValue::Var("x".into()),
                        rhs: Expr::bin(
                            CBinOp::Mul,
                            CNumKind::F32,
                            Expr::index("a", Expr::var("i")),
                            Expr::ConstF(3.0),
                        ),
                    }],
                }],
            )],
        };
        let s = summarize(&f, 4).unwrap();
        let l = s.loop_info(LoopId(0)).unwrap();
        // one fcmp (the condition) + two fmul (both branches)
        assert_eq!(l.body_ops.fcmp, 1);
        assert_eq!(l.body_ops.fmul, 2);
        // three reads: cond + both branch bodies
        assert_eq!(l.body_ops.mem_read, 3);
    }

    /// Transitive chains do not fire across genuinely independent arrays.
    #[test]
    fn independent_arrays_are_not_flagged() {
        let body = vec![
            Stmt::Assign {
                lhs: LValue::Var("t".into()),
                rhs: Expr::index("src", Expr::var("i")),
            },
            Stmt::Assign {
                lhs: LValue::Index("dst".into(), Box::new(Expr::var("i"))),
                rhs: Expr::var("t"),
            },
        ];
        assert!(conservative_carried(&body, "i").is_none());
    }

    /// Same-element read-then-write at a moving index is not loop-carried,
    /// but a loop-invariant index is.
    #[test]
    fn same_index_carried_only_when_loop_invariant() {
        let moving = vec![
            Stmt::Assign {
                lhs: LValue::Var("v".into()),
                rhs: Expr::index("st", Expr::var("i")),
            },
            Stmt::Assign {
                lhs: LValue::Index("st".into(), Box::new(Expr::var("i"))),
                rhs: Expr::bin(CBinOp::Add, CNumKind::I32, Expr::var("v"), Expr::ConstI(1)),
            },
        ];
        assert!(conservative_carried(&moving, "i").is_none());

        let pinned = vec![
            Stmt::Assign {
                lhs: LValue::Var("v".into()),
                rhs: Expr::index("st", Expr::ConstI(0)),
            },
            Stmt::Assign {
                lhs: LValue::Index("st".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::bin(CBinOp::Add, CNumKind::I32, Expr::var("v"), Expr::ConstI(1)),
            },
        ];
        let dep = conservative_carried(&pinned, "i").expect("carried");
        assert_eq!(dep.via, "st");
    }
}
