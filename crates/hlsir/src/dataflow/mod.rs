//! Dependence analysis over the HLS IR — the static-analysis substrate
//! S2FA's design-space identification implies (§4.1: ROSE + polyhedral
//! facts).
//!
//! [`depend`] is the affine array-dependence engine over the
//! [`KernelIndex`]'s access sites: GCD + Banerjee bounds + budgeted exact
//! search over static iteration domains, distinguishing loop-independent
//! from loop-carried dependences, plus the conservative recurrence scan
//! that bounds the estimator's II. The scalar dataflow rules (E301's
//! uninitialized reads and W310's dead stores) need no graph: the IR is
//! structured, so `lint::dataflow_rules` computes them in one
//! syntax-directed pass over the kernel body.
//!
//! The one dependence verdict the DSE consumes is which loops may not be
//! replicated: [`attach`] records each loop's proven write race in a
//! [`KernelDataflow`] on the [`KernelSummary`], where the legality
//! prescreen's E303 rule reads it. The estimator never reads it, so
//! estimates are the same with or without attached facts.

pub mod depend;

pub use depend::{
    affine_form, cross_iteration_overlap, find_write_race, replication_safe, AffineForm,
    RaceFinding, Tri,
};

use crate::analysis::KernelSummary;
use crate::ast::{CFunction, LoopId};
use crate::index::KernelIndex;
use std::collections::BTreeMap;

/// Per-loop write-race verdicts for a whole kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDataflow {
    /// Every loop's proven cross-iteration write-write race, keyed by loop
    /// id: replicating or fully parallelizing a loop with `Some` race
    /// yields a nondeterministic design (E303).
    pub loops: BTreeMap<LoopId, Option<RaceFinding>>,
}

/// Computes every loop's write-race verdict and attaches it to a summary
/// (in place), where the prescreen's race rule sees it. Runtime-bounded
/// loops take `summary.tasks_hint` as their trip count.
pub fn attach(summary: &mut KernelSummary, f: &CFunction) {
    let index = KernelIndex::build(f);
    let loops = index
        .loops
        .iter()
        .map(|l| {
            let race = find_write_race(&index.sites, l.body, l.id, summary.tasks_hint);
            (l.id, race)
        })
        .collect();
    summary.dataflow = Some(KernelDataflow { loops });
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
        assert!(df.loops[&LoopId(1)].is_some(), "acc[0] overwrite races");
        // The task loop writes disjoint out[t] but reads acc (written
        // inside) — conservative machinery decides; the key invariant is
        // that a verdict exists for it.
        assert!(df.loops.contains_key(&LoopId(0)));
    }
}
