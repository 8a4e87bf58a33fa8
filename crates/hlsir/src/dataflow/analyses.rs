//! Concrete dataflow analyses: reaching definitions and liveness.
//!
//! Both answer per-statement queries by replaying the fixpoint
//! block sets through the statements of each block once, so queries are
//! O(1) lookups after construction.

use super::cfg::{BlockId, Cfg, StmtId, VarId};
use super::solver::{solve, BitSet, DataflowProblem, Direction};

/// One definition site in the reaching-definitions universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefSite {
    /// The defined variable.
    pub var: VarId,
    /// The defining statement; `None` for the synthetic entry definition
    /// of a parameter or interface buffer.
    pub stmt: Option<StmtId>,
    /// True when the definition carries no value (uninitialized
    /// declaration): a read reached *only* by such sites reads garbage.
    pub uninit: bool,
    /// True when the definition may not overwrite (whole-array write):
    /// it generates without killing.
    pub may: bool,
}

/// Reaching definitions: which def sites can reach each statement.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// The def-site universe: the entry definitions first, then each
    /// statement's must-defs and may-defs in statement order.
    pub sites: Vec<DefSite>,
    /// Per-statement set of sites reaching the program point just before
    /// the statement executes (indexed by [`StmtId`]).
    pub before: Vec<BitSet>,
    /// Site indices grouped by variable, ascending within a group: the
    /// sites of `v` are `var_sites[var_start[v]..var_start[v + 1]]`.
    var_sites: Vec<usize>,
    var_start: Vec<usize>,
    /// The sites of statement `s` are `stmt_start[s]..stmt_start[s + 1]`.
    stmt_start: Vec<usize>,
}

struct ReachingProblem<'a> {
    cfg: &'a Cfg,
    rd: &'a ReachingDefs,
}

impl ReachingProblem<'_> {
    fn apply_stmt(&self, set: &mut BitSet, sid: StmtId) {
        for &v in &self.cfg.stmt(sid).defs {
            // Must-def: kill every other site of the variable.
            for &s in self.rd.sites_of_var(v) {
                set.unset(s);
            }
        }
        for s in self.rd.sites_of_stmt(sid) {
            set.set(s);
        }
    }
}

impl DataflowProblem for ReachingProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn bits(&self) -> usize {
        self.rd.sites.len()
    }
    fn boundary(&self, set: &mut BitSet) {
        // The entry definitions are the first sites.
        for s in 0..self.cfg.entry_defs.len() {
            set.set(s);
        }
    }
    fn transfer(&self, cfg: &Cfg, block: BlockId, input: &BitSet, out: &mut BitSet) {
        out.copy_from(input);
        for &sid in &cfg.blocks[block.0 as usize].stmts {
            self.apply_stmt(out, sid);
        }
    }
}

impl ReachingDefs {
    /// Runs the analysis over a CFG.
    pub fn compute(cfg: &Cfg) -> ReachingDefs {
        let mut sites: Vec<DefSite> = cfg
            .entry_defs
            .iter()
            .map(|&var| DefSite {
                var,
                stmt: None,
                uninit: false,
                may: false,
            })
            .collect();
        let mut stmt_start = Vec::with_capacity(cfg.stmt_count() + 1);
        for (i, info) in cfg.stmts.iter().enumerate() {
            stmt_start.push(sites.len());
            let stmt = Some(StmtId(i as u32));
            let def = |var, may| DefSite {
                var,
                stmt,
                uninit: info.uninit,
                may,
            };
            sites.extend(info.defs.iter().map(|&v| def(v, false)));
            sites.extend(info.may_defs.iter().map(|&v| def(v, true)));
        }
        stmt_start.push(sites.len());

        // Counting sort of the site indices by variable.
        let mut var_start = vec![0; cfg.vars.len() + 1];
        for d in &sites {
            var_start[d.var.0 as usize + 1] += 1;
        }
        for v in 1..var_start.len() {
            var_start[v] += var_start[v - 1];
        }
        let mut next = var_start.clone();
        let mut var_sites = vec![0; sites.len()];
        for (i, d) in sites.iter().enumerate() {
            let slot = &mut next[d.var.0 as usize];
            var_sites[*slot] = i;
            *slot += 1;
        }

        let mut rd = ReachingDefs {
            sites,
            before: Vec::new(),
            var_sites,
            var_start,
            stmt_start,
        };
        let problem = ReachingProblem { cfg, rd: &rd };
        let sol = solve(cfg, &problem);

        // Replay each block once to get the set before every statement.
        // Note: a must-def statement's *own* kill+gen is applied after its
        // uses are evaluated, so `before` is the right set for its reads.
        let mut before = vec![BitSet::new(0); cfg.stmt_count()];
        let mut cur = BitSet::new(problem.bits());
        for (bi, block) in cfg.blocks.iter().enumerate() {
            cur.copy_from(&sol.input[bi]);
            for &sid in &block.stmts {
                before[sid.0 as usize] = cur.clone();
                problem.apply_stmt(&mut cur, sid);
            }
        }
        rd.before = before;
        rd
    }

    /// Indices (into [`ReachingDefs::sites`]) of every site of `var`.
    fn sites_of_var(&self, var: VarId) -> &[usize] {
        let v = var.0 as usize;
        &self.var_sites[self.var_start[v]..self.var_start[v + 1]]
    }

    /// The def sites of `var` reaching the point just before `stmt`.
    pub fn reaching(&self, stmt: StmtId, var: VarId) -> impl Iterator<Item = &DefSite> + '_ {
        self.reaching_indices(stmt, var).map(|s| &self.sites[s])
    }

    /// Indices (into [`ReachingDefs::sites`]) of `var`'s sites reaching
    /// just before `stmt`.
    pub fn reaching_indices(&self, stmt: StmtId, var: VarId) -> impl Iterator<Item = usize> + '_ {
        let set = &self.before[stmt.0 as usize];
        self.sites_of_var(var)
            .iter()
            .copied()
            .filter(move |&s| set.get(s))
    }

    /// The def-site indices generated by `stmt`.
    pub fn sites_of_stmt(&self, stmt: StmtId) -> std::ops::Range<usize> {
        let s = stmt.0 as usize;
        self.stmt_start[s]..self.stmt_start[s + 1]
    }
}

/// Liveness: which variables are live after each statement.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Per-statement set of variables live just *after* the statement
    /// executes (indexed by [`StmtId`]).
    pub after: Vec<BitSet>,
}

fn live_apply(cfg: &Cfg, set: &mut BitSet, sid: StmtId) {
    let info = cfg.stmt(sid);
    for v in &info.defs {
        set.unset(v.0 as usize);
    }
    // May-defs do not kill.
    for v in &info.uses {
        set.set(v.0 as usize);
    }
}

struct LivenessSized<'a> {
    cfg: &'a Cfg,
}

impl DataflowProblem for LivenessSized<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn bits(&self) -> usize {
        self.cfg.vars.len()
    }
    fn boundary(&self, set: &mut BitSet) {
        for v in &self.cfg.exit_live {
            set.set(v.0 as usize);
        }
    }
    fn transfer(&self, cfg: &Cfg, block: BlockId, input: &BitSet, out: &mut BitSet) {
        out.copy_from(input);
        for &sid in cfg.blocks[block.0 as usize].stmts.iter().rev() {
            live_apply(cfg, out, sid);
        }
    }
}

impl Liveness {
    /// Runs the analysis over a CFG.
    pub fn compute(cfg: &Cfg) -> Liveness {
        let problem = LivenessSized { cfg };
        let sol = solve(cfg, &problem);
        let mut after = vec![BitSet::new(0); cfg.stmt_count()];
        let mut cur = BitSet::new(cfg.vars.len());
        for (bi, block) in cfg.blocks.iter().enumerate() {
            // For a backward problem, the block's input set is the set at
            // the point control *leaves* the block.
            cur.copy_from(&sol.input[bi]);
            for &sid in block.stmts.iter().rev() {
                after[sid.0 as usize] = cur.clone();
                live_apply(cfg, &mut cur, sid);
            }
        }
        Liveness { after }
    }

    /// True when `var` is live just after `stmt`.
    pub fn live_after(&self, stmt: StmtId, var: VarId) -> bool {
        self.after[stmt.0 as usize].get(var.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn lower(body: Vec<Stmt>, params: Vec<Param>) -> Cfg {
        let f = CFunction {
            name: "k".into(),
            params,
            body,
        };
        Cfg::build(&crate::index::KernelIndex::build(&f))
    }

    fn scalar_param(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: CType::Float,
            kind: ParamKind::ScalarIn,
            elems_per_task: None,
            broadcast: false,
        }
    }

    fn out_param(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: CType::Float,
            kind: ParamKind::BufOut,
            elems_per_task: Some(1),
            broadcast: false,
        }
    }

    #[test]
    fn uninit_decl_reaches_until_killed() {
        // s0: float x;  s1: x = 1.0;  s2: y = x
        let cfg = lower(
            vec![
                Stmt::Decl {
                    name: "x".into(),
                    ty: CType::Float,
                    init: None,
                },
                Stmt::Assign {
                    lhs: LValue::Var("x".into()),
                    rhs: Expr::ConstF(1.0),
                },
                Stmt::Decl {
                    name: "y".into(),
                    ty: CType::Float,
                    init: Some(Expr::var("x")),
                },
            ],
            vec![],
        );
        let rd = ReachingDefs::compute(&cfg);
        let x = cfg.vars.scalar("x").unwrap();
        // Before s1 the only def is the uninit decl.
        let at_s1: Vec<_> = rd.reaching(StmtId(1), x).collect();
        assert_eq!(at_s1.len(), 1);
        assert!(at_s1[0].uninit);
        // Before s2 only the assignment reaches (the decl was killed).
        let at_s2: Vec<_> = rd.reaching(StmtId(2), x).collect();
        assert_eq!(at_s2.len(), 1);
        assert!(!at_s2[0].uninit);
        assert_eq!(at_s2[0].stmt, Some(StmtId(1)));
    }

    #[test]
    fn branch_defs_merge() {
        // s0: float x; s1: if (c) { s2: x = 1 } else {} ; s3: y = x
        let cfg = lower(
            vec![
                Stmt::Decl {
                    name: "x".into(),
                    ty: CType::Float,
                    init: None,
                },
                Stmt::If {
                    cond: Expr::var("c"),
                    then: vec![Stmt::Assign {
                        lhs: LValue::Var("x".into()),
                        rhs: Expr::ConstF(1.0),
                    }],
                    els: vec![],
                },
                Stmt::Decl {
                    name: "y".into(),
                    ty: CType::Float,
                    init: Some(Expr::var("x")),
                },
            ],
            vec![scalar_param("c")],
        );
        let rd = ReachingDefs::compute(&cfg);
        let x = cfg.vars.scalar("x").unwrap();
        // Both the uninit decl (via the else edge) and the then-arm
        // assignment reach the read.
        let at_use: Vec<_> = rd.reaching(StmtId(3), x).collect();
        assert_eq!(at_use.len(), 2);
        assert!(at_use.iter().any(|d| d.uninit));
        assert!(at_use.iter().any(|d| !d.uninit));
    }

    #[test]
    fn loop_body_decl_privatizes() {
        // for i { float s = 0; s = s + 1; } — the decl kills the
        // back-edge def, so the read of s sees only this iteration's defs.
        let cfg = lower(
            vec![Stmt::counted_for(
                LoopId(0),
                "i",
                4,
                vec![
                    Stmt::Decl {
                        name: "s".into(),
                        ty: CType::Float,
                        init: Some(Expr::ConstF(0.0)),
                    },
                    Stmt::Assign {
                        lhs: LValue::Var("s".into()),
                        rhs: Expr::bin(
                            CBinOp::Add,
                            CNumKind::F32,
                            Expr::var("s"),
                            Expr::ConstF(1.0),
                        ),
                    },
                ],
            )],
            vec![],
        );
        let rd = ReachingDefs::compute(&cfg);
        let s = cfg.vars.scalar("s").unwrap();
        // s0 = header, s1 = decl, s2 = assign. At the read in s2 only the
        // decl (s1) reaches — the back-edge def (s2 itself) was killed.
        let at_use: Vec<_> = rd.reaching(StmtId(2), s).collect();
        assert_eq!(at_use.len(), 1);
        assert_eq!(at_use[0].stmt, Some(StmtId(1)));
    }

    #[test]
    fn carried_scalar_def_reaches_via_back_edge() {
        // float s = 0; for i { s = s + 1; } — at the read of s inside the
        // body, both the init and the previous iteration's def reach.
        let cfg = lower(
            vec![
                Stmt::Decl {
                    name: "s".into(),
                    ty: CType::Float,
                    init: Some(Expr::ConstF(0.0)),
                },
                Stmt::counted_for(
                    LoopId(0),
                    "i",
                    4,
                    vec![Stmt::Assign {
                        lhs: LValue::Var("s".into()),
                        rhs: Expr::bin(
                            CBinOp::Add,
                            CNumKind::F32,
                            Expr::var("s"),
                            Expr::ConstF(1.0),
                        ),
                    }],
                ),
            ],
            vec![],
        );
        let rd = ReachingDefs::compute(&cfg);
        let s = cfg.vars.scalar("s").unwrap();
        // s0 = decl, s1 = header, s2 = assign.
        let at_use: Vec<_> = rd.reaching(StmtId(2), s).collect();
        let stmts: Vec<_> = at_use.iter().map(|d| d.stmt).collect();
        assert!(stmts.contains(&Some(StmtId(0))));
        assert!(stmts.contains(&Some(StmtId(2)))); // via the back edge
    }

    #[test]
    fn liveness_kills_dead_stores() {
        // s0: float t = 1; s1: t = 2; s2: out[0] = t — the first store is
        // dead, the second is live.
        let cfg = lower(
            vec![
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
                    lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::var("t"),
                },
            ],
            vec![out_param("out")],
        );
        let lv = Liveness::compute(&cfg);
        let t = cfg.vars.scalar("t").unwrap();
        assert!(!lv.live_after(StmtId(0), t));
        assert!(lv.live_after(StmtId(1), t));
        // The output buffer is live at exit.
        let out = cfg.vars.scalar("out[*]").expect("whole-array var interned");
        assert!(lv.live_after(StmtId(2), out));
    }

    #[test]
    fn def_use_chains_link_across_loop() {
        // float s = 0; for i { s = s + 1 } ; out[0] = s
        let cfg = lower(
            vec![
                Stmt::Decl {
                    name: "s".into(),
                    ty: CType::Float,
                    init: Some(Expr::ConstF(0.0)),
                },
                Stmt::counted_for(
                    LoopId(0),
                    "i",
                    4,
                    vec![Stmt::Assign {
                        lhs: LValue::Var("s".into()),
                        rhs: Expr::bin(
                            CBinOp::Add,
                            CNumKind::F32,
                            Expr::var("s"),
                            Expr::ConstF(1.0),
                        ),
                    }],
                ),
                Stmt::Assign {
                    lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::var("s"),
                },
            ],
            vec![out_param("out")],
        );
        let rd = ReachingDefs::compute(&cfg);
        let s = cfg.vars.scalar("s").unwrap();
        // The loop-body def (s2) feeds both the in-loop read and the
        // final store (s3).
        let site_s2 = rd
            .sites
            .iter()
            .position(|d| d.stmt == Some(StmtId(2)))
            .unwrap();
        assert!(rd.reaching_indices(StmtId(2), s).any(|i| i == site_s2));
        assert!(rd.reaching_indices(StmtId(3), s).any(|i| i == site_s2));
        // The final store's read of s may come from the init or the loop.
        assert_eq!(rd.reaching_indices(StmtId(3), s).count(), 2);
    }
}
