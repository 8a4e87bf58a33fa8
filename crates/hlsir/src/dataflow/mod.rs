//! Dataflow analysis over the HLS IR — the static-analysis substrate
//! S2FA's design-space identification implies (§4.1: ROSE + polyhedral
//! facts) and the ROADMAP's optimizer-pass framework needs.
//!
//! Layered bottom-up:
//!
//! * [`cfg`](mod@cfg) — a control-flow graph lowered from the structured AST, with
//!   the [`KernelIndex`]'s pre-order statement ids and loop trips, loop
//!   back-edges, and a variable table that resolves constant-indexed local
//!   arrays per element;
//! * [`solver`] — a generic forward/backward iterative fixpoint solver
//!   over bitsets;
//! * [`analyses`] — reaching definitions (with explicit *uninitialized*
//!   definition sites), liveness, and def-use/use-def chains;
//! * [`depend`] — the affine array-dependence engine over the index's
//!   access sites: GCD + Banerjee bounds + budgeted exact search over
//!   static iteration domains, distinguishing loop-independent from
//!   loop-carried dependences, plus the conservative recurrence scan that
//!   bounds the estimator's II.
//!
//! [`kernel_dataflow`] condenses the dependence facts every consumer
//! (lint's E3xx rules, the DSE prescreen, the estimator's II bound) needs
//! into one [`KernelDataflow`]; [`attach`] hangs it on a
//! [`KernelSummary`]. Nothing consults these facts unless they are
//! attached, so the default estimation path is bit-identical to the
//! pre-dataflow behavior.

pub mod analyses;
pub mod cfg;
pub mod depend;
pub mod solver;

pub use analyses::{DefSite, DefUse, Liveness, ReachingDefs};
pub use cfg::{ArrayMode, Cfg, StmtId, StmtKind, VarId};
pub use depend::{
    affine_form, cross_iteration_overlap, exact_distance, find_write_race, replication_safe,
    AffineForm, RaceFinding, Tri,
};
pub use solver::{solve, BitSet, DataflowProblem, Direction, Solution};

use crate::analysis::{CarriedDep, KernelSummary};
use crate::ast::{CFunction, LoopId};
use crate::index::KernelIndex;
use std::collections::BTreeMap;

/// Dependence facts for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDataflow {
    /// A proven cross-iteration write-write race: replicating or fully
    /// parallelizing this loop yields a nondeterministic design (E303).
    pub write_race: Option<RaceFinding>,
    /// True when iterations provably commute: every cross-iteration
    /// write-write and write-read pair is disproven and no shared scalar
    /// is written. Cleared loops must produce identical outputs under any
    /// iteration interleaving (the property the sjvm oracle checks).
    pub replication_safe: bool,
    /// A carried dependence only the transitive scalar pass found (a
    /// multi-statement cycle like `t = s; s = t + a[i]`); consulted when
    /// the conservative scan reported none.
    pub extra_carried: Option<CarriedDep>,
    /// Exact dependence distance of the loop's array recurrence, when the
    /// affine test could compute one. `Some(d)` with `d > 1` relaxes the
    /// recurrence II bound by `d`.
    pub carried_distance: Option<u32>,
}

/// Per-loop dependence facts for a whole kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDataflow {
    /// Facts keyed by loop id.
    pub loops: BTreeMap<LoopId, LoopDataflow>,
}

impl KernelDataflow {
    /// Facts for one loop.
    pub fn loop_facts(&self, id: LoopId) -> Option<&LoopDataflow> {
        self.loops.get(&id)
    }
}

/// Computes dependence facts for every loop of a kernel. `summary`
/// supplies the conservative per-loop verdicts (whose `via` seeds the
/// distance computation) and the task-loop batch hint used as the trip
/// count of runtime-bounded loops.
pub fn kernel_dataflow(f: &CFunction, summary: &KernelSummary) -> KernelDataflow {
    let index = KernelIndex::build(f);
    let mut loops = BTreeMap::new();
    for l in &index.loops {
        let write_race = find_write_race(&index.sites, l.body, l.id, summary.tasks_hint);
        let safe = replication_safe(&index.sites, l.body, l.id, summary.tasks_hint);
        let conservative = summary.loop_info(l.id).and_then(|li| li.carried.as_ref());
        let extra_carried = if conservative.is_none() {
            depend::transitive_scalar_carried(l.body)
        } else {
            None
        };
        let carried_distance = conservative
            .and_then(|c| exact_distance(l.body, l.var, &c.via))
            .filter(|&d| d > 1);
        loops.insert(
            l.id,
            LoopDataflow {
                write_race,
                replication_safe: safe,
                extra_carried,
                carried_distance,
            },
        );
    }
    KernelDataflow { loops }
}

/// Computes and attaches dependence facts to a summary (in place). After
/// this, `summary.effective_carried` and the prescreen's race rule see
/// the exact verdicts.
pub fn attach(summary: &mut KernelSummary, f: &CFunction) {
    let facts = kernel_dataflow(f, summary);
    summary.dataflow = Some(facts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::summarize;
    use crate::ast::{CType, Expr, LValue, LoopAttrs, Param, ParamKind, Stmt};

    fn kernel_with_body(body: Vec<Stmt>) -> CFunction {
        CFunction {
            name: "k".into(),
            params: vec![
                Param {
                    name: "n".into(),
                    ty: CType::Int(32),
                    kind: ParamKind::ScalarIn,
                    elems_per_task: None,
                    broadcast: false,
                },
                Param {
                    name: "out".into(),
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
                body,
            }],
        }
    }

    #[test]
    fn attach_populates_every_loop() {
        // Task loop over t; inner racy loop writing acc[0].
        let f = kernel_with_body(vec![
            Stmt::DeclArr {
                name: "acc".into(),
                ty: CType::Float,
                len: 4,
            },
            Stmt::For {
                id: LoopId(1),
                var: "i".into(),
                bound: Expr::ConstI(8),
                trip_count: Some(8),
                attrs: LoopAttrs::none(),
                body: vec![Stmt::Assign {
                    lhs: LValue::Index("acc".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::var("i"),
                }],
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::var("t"))),
                rhs: Expr::index("acc", Expr::ConstI(0)),
            },
        ]);
        let mut s = summarize(&f, 16).unwrap();
        assert!(s.dataflow.is_none());
        attach(&mut s, &f);
        let df = s.dataflow.as_ref().unwrap();
        assert_eq!(df.loops.len(), 2);
        let inner = df.loop_facts(LoopId(1)).unwrap();
        assert!(inner.write_race.is_some(), "acc[0] overwrite races");
        assert!(!inner.replication_safe);
        // The task loop writes disjoint out[t] but reads acc (written
        // inside) — conservative machinery decides; the key invariant is
        // that facts exist for it.
        assert!(df.loop_facts(LoopId(0)).is_some());
    }

    #[test]
    fn distance_relaxation_is_recorded() {
        // for i in 1..: a[i] = a[i-2] + 1 under the task loop. Use a
        // counted inner loop so the conservative scan sees the recurrence.
        let f = kernel_with_body(vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 16,
            },
            Stmt::For {
                id: LoopId(1),
                var: "i".into(),
                bound: Expr::ConstI(16),
                trip_count: Some(16),
                attrs: LoopAttrs::none(),
                body: vec![Stmt::Assign {
                    lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::iadd(
                        Expr::index(
                            "a",
                            Expr::bin(
                                crate::ast::CBinOp::Sub,
                                crate::ast::CNumKind::I32,
                                Expr::var("i"),
                                Expr::ConstI(2),
                            ),
                        ),
                        Expr::ConstI(1),
                    ),
                }],
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::var("t"))),
                rhs: Expr::index("a", Expr::ConstI(0)),
            },
        ]);
        let mut s = summarize(&f, 16).unwrap();
        attach(&mut s, &f);
        let inner = s.dataflow.as_ref().unwrap().loop_facts(LoopId(1)).unwrap();
        assert_eq!(inner.carried_distance, Some(2));
        assert_eq!(s.carried_distance(LoopId(1)), 2);
        // Distance-1 recurrences record no relaxation.
        assert_eq!(s.carried_distance(LoopId(0)), 1);
    }

    #[test]
    fn effective_carried_falls_back_to_transitive_verdict() {
        // t2 = s; s = t2 + out-of-loop data: the conservative scan misses
        // the two-statement cycle, the dataflow facts supply it.
        let f = kernel_with_body(vec![
            Stmt::For {
                id: LoopId(1),
                var: "i".into(),
                bound: Expr::ConstI(8),
                trip_count: Some(8),
                attrs: LoopAttrs::none(),
                body: vec![
                    Stmt::Assign {
                        lhs: LValue::Var("tmp".into()),
                        rhs: Expr::var("s"),
                    },
                    Stmt::Assign {
                        lhs: LValue::Var("s".into()),
                        rhs: Expr::bin(
                            crate::ast::CBinOp::Add,
                            crate::ast::CNumKind::F32,
                            Expr::var("tmp"),
                            Expr::ConstF(1.0),
                        ),
                    },
                ],
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::var("t"))),
                rhs: Expr::var("s"),
            },
        ]);
        let mut s = summarize(&f, 16).unwrap();
        let li = s.loop_info(LoopId(1)).unwrap();
        assert!(li.carried.is_none(), "conservative scan misses the cycle");
        assert!(s.effective_carried(LoopId(1)).is_none());
        attach(&mut s, &f);
        let dep = s.effective_carried(LoopId(1)).expect("transitive cycle");
        assert_eq!(dep.via, "s");
    }
}
