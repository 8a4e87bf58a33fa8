//! Dataflow-backed lint rules (`S2FA-E3xx` / `S2FA-W310`).
//!
//! These rules index a generated [`CFunction`] once
//! ([`KernelIndex`]), run the `hlsir::dataflow` analyses (CFG + reaching
//! definitions + liveness + the affine dependence engine) over that index,
//! and report findings with the index's pre-order statement ids, which are
//! the CFG's (checked in `tests/dataflow_prop.rs`).
//!
//! The severity contract of the crate holds here with a *dynamic* twist:
//! every `E3xx` finding is validated against the `hlsir::exec` interpreter
//! as an oracle (property-tested in `tests/dataflow_prop.rs`) — an
//! E301-flagged kernel must actually read uninitialized storage when run,
//! and a kernel the race detector *clears* must produce bit-identical
//! outputs under any iteration interleaving. Anything the static analysis
//! cannot prove stays silent or warns; it never errors.
//!
//! * **E301** — a read whose every statically reaching definition is an
//!   uninitialized declaration, at a statement that provably executes.
//!   Reads with *no* reaching definition are E101's domain (undeclared
//!   variables); reads with a mix of initialized and uninitialized
//!   reaching defs may be fine at runtime and are not errors.
//! * **E302** — an affine, non-constant index whose value range over the
//!   enclosing loop bounds provably leaves a local array. Constant
//!   indices are E102's domain.
//! * **E303** — two iterations of a loop provably write the same element
//!   of a shared array: replicating the loop (what `parallel`/`flatten`
//!   directives do) is nondeterministic. Read-modify-write accumulations
//!   and arrays private to the loop body are excluded.
//! * **W310** — a store no later statement can observe.

use crate::diag::{codes, Diagnostic, LintReport, Span};
use s2fa_hlsir::dataflow::{
    affine_form, depend::const_value, find_write_race, Cfg, Liveness, ReachingDefs, StmtId,
};
use s2fa_hlsir::index::{AccessSite, KernelIndex};
use s2fa_hlsir::CFunction;
use std::collections::BTreeSet;

/// Runs every dataflow-backed rule over one kernel function.
///
/// `tasks_hint` is the batch size assumed for the runtime-bounded task
/// loop (its trip count is not static; the dependence engine needs *some*
/// domain). The function is self-contained — it builds the CFG and the
/// analyses itself — so it can run differentially after a Merlin transform
/// without a `KernelSummary` at hand.
pub fn dataflow_checks(f: &CFunction, tasks_hint: u32) -> LintReport {
    run_rules(f, tasks_hint, true)
}

/// The error-severity subset of [`dataflow_checks`] (`E301`, `E302`,
/// `E303`, in the same order), without computing liveness for `W310`.
/// This is what a differential re-check compares, since it discards
/// warnings.
pub fn dataflow_errors(f: &CFunction, tasks_hint: u32) -> LintReport {
    run_rules(f, tasks_hint, false)
}

/// The one rule runner behind both entry points; `warnings` adds `W310`
/// (and the liveness pass it needs) between `E301` and `E302`.
fn run_rules(f: &CFunction, tasks_hint: u32, warnings: bool) -> LintReport {
    let mut report = LintReport::new(format!("{} (dataflow)", f.name));
    let index = KernelIndex::build(f);
    let cfg = Cfg::build(&index);
    let rd = ReachingDefs::compute(&cfg);

    uninit_reads(&cfg, &rd, &mut report);
    if warnings {
        dead_stores(&cfg, &Liveness::compute(&cfg), &mut report);
    }
    affine_oob(&cfg, &index.sites, &mut report);
    write_races(&index, tasks_hint, &mut report);

    report
}

/// Error-severity findings of `after` with no counterpart in `baseline`,
/// for differential checking around a structural transform: a rewrite must
/// not *introduce* an `E3xx` the pre-image did not have. Matching is by
/// (code, subject) rather than the exact-diagnostic equality of
/// [`crate::wellformed::new_errors`]: transforms renumber statements and
/// introduce loops, so a surviving pre-existing finding moves spans, but
/// its rule and its array/variable do not.
pub fn new_dataflow_errors(baseline: &LintReport, after: &LintReport) -> Vec<Diagnostic> {
    after
        .errors()
        .filter(|d| {
            !baseline
                .errors()
                .any(|b| b.code.code == d.code.code && b.span.subject == d.span.subject)
        })
        .cloned()
        .collect()
}

/// E301: reads whose every reaching definition is uninitialized.
fn uninit_reads(cfg: &Cfg, rd: &ReachingDefs, report: &mut LintReport) {
    for (i, info) in cfg.stmts.iter().enumerate() {
        let sid = StmtId(i as u32);
        for (k, &v) in info.uses.iter().enumerate() {
            if info.uses[..k].contains(&v) {
                continue;
            }
            // None reaching = undeclared (E101's domain); a mix of
            // initialized and uninitialized defs is a may-uninit read,
            // not a proven one.
            let mut reaching = rd.reaching(sid, v).peekable();
            if reaching.peek().is_none() || reaching.any(|d| !d.uninit) {
                continue;
            }
            if !cfg.provably_executes(sid) {
                continue;
            }
            let name = cfg.vars.name(v);
            report.push(
                codes::UNINIT_READ,
                Span {
                    loop_path: info.loop_path.clone(),
                    subject: Some(name.to_string()),
                    stmt: Some(i as u32),
                },
                format!(
                    "`{name}` is read here, but every definition reaching this \
                     statement is an uninitialized declaration"
                ),
            );
        }
    }
}

/// W310: must-def stores whose value no later statement can observe.
fn dead_stores(cfg: &Cfg, lv: &Liveness, report: &mut LintReport) {
    use s2fa_hlsir::dataflow::StmtKind;
    for (i, info) in cfg.stmts.iter().enumerate() {
        if info.kind != StmtKind::Assign || info.defs.is_empty() {
            continue;
        }
        let sid = StmtId(i as u32);
        // May-defs (whole-array writes) are never provably dead; must-defs
        // are dead when nothing is live after on any path.
        if info.defs.iter().any(|&v| lv.live_after(sid, v)) {
            continue;
        }
        let name = cfg.vars.name(info.defs[0]);
        report.push(
            codes::DEAD_STORE,
            Span {
                loop_path: info.loop_path.clone(),
                subject: Some(name.to_string()),
                stmt: Some(i as u32),
            },
            format!("value stored to `{name}` is never read"),
        );
    }
}

/// E302: affine non-constant indices provably outside a local array.
fn affine_oob(cfg: &Cfg, sites: &[AccessSite<'_>], report: &mut LintReport) {
    let mut reported: BTreeSet<(u32, &str)> = BTreeSet::new();
    for site in sites {
        let Some(&len) = cfg.local_lens.get(site.array) else {
            continue; // interface buffers have no static per-task extent here
        };
        if const_value(site.index).is_some() {
            continue; // constant indices are E102's domain
        }
        let Some(form) = affine_form(site.index) else {
            continue;
        };
        // Range of the index over the full iteration domain. An affine
        // function over a box attains its extremes at corners, and counted
        // loops run their full range, so a bound violation is attained by
        // a real iteration — provided the access itself always runs.
        if site.in_branch || site.loops.iter().any(|fr| fr.trip.is_some_and(|t| t == 0)) {
            continue;
        }
        let (mut lo, mut hi) = (form.offset, form.offset);
        let mut bounded = true;
        for (var, &c) in &form.terms {
            // Innermost binding wins under shadowing.
            match site.loops.iter().rev().find(|fr| fr.var == var) {
                Some(fr) => match fr.trip {
                    Some(t) if t >= 1 => {
                        let top = c * (t as i64 - 1);
                        if c >= 0 {
                            hi += top;
                        } else {
                            lo += top;
                        }
                    }
                    // Runtime-bounded loop: the index is unbounded above.
                    _ => bounded = false,
                },
                // A runtime scalar: no static range.
                None => bounded = false,
            }
        }
        if !bounded || (lo >= 0 && hi < len as i64) {
            continue;
        }
        if !reported.insert((site.stmt, site.array)) {
            continue;
        }
        report.push(
            codes::AFFINE_OOB,
            Span {
                loop_path: site.loops.iter().map(|fr| fr.id).collect(),
                subject: Some(site.array.to_string()),
                stmt: Some(site.stmt),
            },
            format!(
                "index ranges over [{lo}, {hi}] but `{}` has {len} element(s)",
                site.array
            ),
        );
    }
}

/// E303: proven cross-iteration write-write races, per loop.
fn write_races(index: &KernelIndex<'_>, tasks_hint: u32, report: &mut LintReport) {
    let findings = index
        .loops
        .iter()
        .filter_map(|l| find_write_race(&index.sites, l.body, l.id, tasks_hint));
    for r in findings {
        let pair = if r.stmt_a == r.stmt_b {
            format!("statement #{}", r.stmt_a)
        } else {
            format!("statements #{} and #{}", r.stmt_a, r.stmt_b)
        };
        report.push(
            codes::REPLICATION_RACE,
            Span::at_loop(r.loop_id)
                .with_stmt(r.stmt_a)
                .with_subject(r.array.clone()),
            format!(
                "two iterations of {} provably write the same element of \
                 `{}` ({pair}); replicating the loop is nondeterministic",
                r.loop_id, r.array
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{
        CBinOp, CNumKind, CType, Expr, LValue, LoopAttrs, LoopId, Param, ParamKind, Stmt,
    };

    fn out_param(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: CType::Float,
            kind: ParamKind::BufOut,
            elems_per_task: Some(1),
            broadcast: false,
        }
    }

    fn func(body: Vec<Stmt>) -> CFunction {
        CFunction {
            name: "k".into(),
            params: vec![out_param("out")],
            body,
        }
    }

    fn counted(id: u32, var: &str, trip: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            id: LoopId(id),
            var: var.into(),
            bound: Expr::ConstI(trip as i64),
            trip_count: Some(trip),
            attrs: LoopAttrs::none(),
            body,
        }
    }

    fn codes_of(r: &LintReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn uninit_scalar_read_is_e301() {
        // float x; out[0] = x
        let f = func(vec![
            Stmt::Decl {
                name: "x".into(),
                ty: CType::Float,
                init: None,
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::var("x"),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert_eq!(codes_of(&r), vec!["S2FA-E301"]);
        let d = &r.diagnostics[0];
        assert_eq!(d.span.stmt, Some(1));
        assert_eq!(d.span.subject.as_deref(), Some("x"));
    }

    #[test]
    fn branch_initialized_read_is_not_an_error() {
        // float x; if (out[0]) { x = 1 }; out[0] = x — may-uninit, silent.
        let f = func(vec![
            Stmt::Decl {
                name: "x".into(),
                ty: CType::Float,
                init: None,
            },
            Stmt::If {
                cond: Expr::index("out", Expr::ConstI(0)),
                then: vec![Stmt::Assign {
                    lhs: LValue::Var("x".into()),
                    rhs: Expr::ConstF(1.0),
                }],
                els: vec![],
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::var("x"),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(
            !codes_of(&r).contains(&"S2FA-E301"),
            "may-uninit must not error: {}",
            r.render()
        );
    }

    #[test]
    fn uninit_array_element_read_is_e301() {
        // float a[4]; a[0] = 1; out[0] = a[0] + a[1] — a[1] never written.
        let f = func(vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 4,
            },
            Stmt::Assign {
                lhs: LValue::Index("a".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::ConstF(1.0),
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::bin(
                    CBinOp::Add,
                    CNumKind::F32,
                    Expr::index("a", Expr::ConstI(0)),
                    Expr::index("a", Expr::ConstI(1)),
                ),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert_eq!(codes_of(&r), vec!["S2FA-E301"]);
        assert_eq!(r.diagnostics[0].span.subject.as_deref(), Some("a[1]"));
    }

    #[test]
    fn dead_store_is_w310_and_final_store_is_not() {
        // float t = 1; t = 2; out[0] = t — s1's store of 1 is dead... but
        // W310 only covers Assign, so the decl stays silent; the t = 2
        // store is live.
        let f = func(vec![
            Stmt::Decl {
                name: "t".into(),
                ty: CType::Float,
                init: Some(Expr::ConstF(1.0)),
            },
            Stmt::Assign {
                lhs: LValue::Var("t".into()),
                rhs: Expr::ConstF(2.0),
            },
            Stmt::Assign {
                lhs: LValue::Var("u".into()),
                rhs: Expr::var("t"),
            },
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::var("t"),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert_eq!(codes_of(&r), vec!["S2FA-W310"]);
        assert_eq!(r.diagnostics[0].span.subject.as_deref(), Some("u"));
    }

    #[test]
    fn affine_oob_is_e302() {
        // float a[8]; for i in 0..16 { a[i] = i } — i reaches 15.
        let f = func(vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 8,
            },
            counted(
                0,
                "i",
                16,
                vec![Stmt::Assign {
                    lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::var("i"),
                }],
            ),
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(codes_of(&r).contains(&"S2FA-E302"), "{}", r.render());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code.code == "S2FA-E302")
            .unwrap();
        assert!(d.message.contains("[0, 15]"), "{}", d.message);
        assert_eq!(d.span.loop_path, vec![LoopId(0)]);
    }

    #[test]
    fn in_bounds_and_conditional_indices_stay_silent() {
        // a[i] over 0..8 into a[8] is fine; an OOB write under an `if`
        // cannot be proven to execute.
        let f = func(vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 8,
            },
            counted(
                0,
                "i",
                8,
                vec![Stmt::Assign {
                    lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::var("i"),
                }],
            ),
            counted(
                1,
                "j",
                16,
                vec![Stmt::If {
                    cond: Expr::index("a", Expr::ConstI(0)),
                    then: vec![Stmt::Assign {
                        lhs: LValue::Index("a".into(), Box::new(Expr::var("j"))),
                        rhs: Expr::var("j"),
                    }],
                    els: vec![],
                }],
            ),
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::index("a", Expr::ConstI(0)),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(!codes_of(&r).contains(&"S2FA-E302"), "{}", r.render());
    }

    #[test]
    fn replication_race_is_e303_and_private_arrays_are_not() {
        // Shared acc: every iteration of L0 writes acc[0] — a race. The
        // kernel also has a private scratch inside L1 doing the same
        // thing, which replication privatizes — no finding for it.
        let f = func(vec![
            Stmt::DeclArr {
                name: "acc".into(),
                ty: CType::Float,
                len: 4,
            },
            counted(
                0,
                "i",
                8,
                vec![Stmt::Assign {
                    lhs: LValue::Index("acc".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::var("i"),
                }],
            ),
            counted(
                1,
                "j",
                8,
                vec![
                    Stmt::DeclArr {
                        name: "scratch".into(),
                        ty: CType::Float,
                        len: 2,
                    },
                    Stmt::Assign {
                        lhs: LValue::Index("scratch".into(), Box::new(Expr::ConstI(0))),
                        rhs: Expr::var("j"),
                    },
                    Stmt::Assign {
                        lhs: LValue::Index("out".into(), Box::new(Expr::var("j"))),
                        rhs: Expr::index("scratch", Expr::ConstI(0)),
                    },
                ],
            ),
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::index("acc", Expr::ConstI(0)),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        let races: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code.code == "S2FA-E303")
            .collect();
        assert_eq!(races.len(), 1, "{}", r.render());
        assert_eq!(races[0].span.loop_path, vec![LoopId(0)]);
        assert_eq!(races[0].span.subject.as_deref(), Some("acc"));
    }

    #[test]
    fn clean_reduction_kernel_is_clean() {
        // float s = 0; for i { s = s + out[0] }; out[0] = s — initialized,
        // live, in bounds, races excluded (scalar recurrence is not E303).
        let f = func(vec![
            Stmt::Decl {
                name: "s".into(),
                ty: CType::Float,
                init: Some(Expr::ConstF(0.0)),
            },
            counted(
                0,
                "i",
                8,
                vec![Stmt::Assign {
                    lhs: LValue::Var("s".into()),
                    rhs: Expr::bin(
                        CBinOp::Add,
                        CNumKind::F32,
                        Expr::var("s"),
                        Expr::index("out", Expr::ConstI(0)),
                    ),
                }],
            ),
            Stmt::Assign {
                lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                rhs: Expr::var("s"),
            },
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(r.diagnostics.is_empty(), "{}", r.render());
    }
}
