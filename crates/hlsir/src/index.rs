//! The kernel index: one pre-order walk of a [`CFunction`] that records the
//! facts every analysis reads.
//!
//! S2FA reads loop nests, trip counts and accesses off the kernel AST once
//! (§4.1) and feeds that one result to design-space identification and the
//! later passes. [`KernelIndex`] is that result here: the loop table, the
//! local-array declarations and every array access site with its enclosing
//! loops. [`crate::analysis::summarize`], [`crate::dataflow::attach`] and
//! the lint's dataflow rules all read it instead of walking the AST
//! themselves.
//!
//! Statements are numbered in source pre-order, compound statements before
//! their children; lint findings carry these ids.

use crate::ast::{CFunction, CType, Expr, LValue, LoopId, Stmt};

/// One loop of the kernel, in pre-order.
#[derive(Debug, Clone)]
pub struct LoopEntry<'a> {
    /// The loop id.
    pub id: LoopId,
    /// Induction variable name.
    pub var: &'a str,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Static trip count: the recorded `trip_count`, else a constant bound
    /// (a negative one is 0), else `None` (the runtime-bounded task loop).
    pub trip: Option<u32>,
    /// The loop bound.
    pub bound: &'a Expr,
    /// The loop body.
    pub body: &'a [Stmt],
    /// Pre-order id of the loop's header statement.
    pub stmt: u32,
}

/// A local array declaration (`Stmt::DeclArr`), in pre-order.
#[derive(Debug, Clone)]
pub struct LocalArray<'a> {
    /// Array name.
    pub name: &'a str,
    /// Element type.
    pub ty: CType,
    /// Declared length in elements.
    pub len: u32,
}

/// One enclosing loop of an access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopFrame<'a> {
    /// Loop id.
    pub id: LoopId,
    /// Induction variable.
    pub var: &'a str,
    /// Static trip count; `None` for the runtime-bounded task loop.
    pub trip: Option<u32>,
}

/// One array access (read or write) anywhere in a kernel.
#[derive(Debug, Clone)]
pub struct AccessSite<'a> {
    /// Array name.
    pub array: &'a str,
    /// Index expression.
    pub index: &'a Expr,
    /// True for writes.
    pub write: bool,
    /// True for read-modify-write stores: the right-hand side reads the
    /// same array at the syntactically identical index (an accumulation;
    /// the recurrence machinery owns it, E303 skips it).
    pub rmw: bool,
    /// Pre-order id of the enclosing statement.
    pub stmt: u32,
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopFrame<'a>>,
    /// True when the site sits under at least one `if` arm.
    pub in_branch: bool,
}

impl AccessSite<'_> {
    /// The position of `lid` in this site's loop path, if enclosing.
    pub(crate) fn frame_pos(&self, lid: LoopId) -> Option<usize> {
        self.loops.iter().position(|f| f.id == lid)
    }

    /// Innermost frame binding `var` (shadowing-aware), with its index in
    /// the path.
    pub(crate) fn binding(&self, var: &str) -> Option<(usize, &LoopFrame<'_>)> {
        self.loops
            .iter()
            .enumerate()
            .rev()
            .find(|(_, f)| f.var == var)
    }
}

/// The pre-order index of one kernel function.
#[derive(Debug, Clone)]
pub struct KernelIndex<'a> {
    /// The indexed function.
    pub function: &'a CFunction,
    /// Every loop, in pre-order.
    pub loops: Vec<LoopEntry<'a>>,
    /// Every local array declaration, in pre-order.
    pub local_arrays: Vec<LocalArray<'a>>,
    /// Every array access. Statements appear in pre-order; within one
    /// statement, reads come in evaluation order (an index expression's
    /// own reads before the read it indexes), then the store.
    pub sites: Vec<AccessSite<'a>>,
    /// Number of statements (the next free pre-order id).
    pub stmt_count: u32,
}

/// The static trip count of a loop: the recorded `trip_count`, else a
/// constant bound, else `None`. A negative constant bound runs the loop
/// zero times, as in C and `hlsir::exec`.
fn static_trip(trip_count: Option<u32>, bound: &Expr) -> Option<u32> {
    match (trip_count, bound) {
        (Some(t), _) => Some(t),
        (None, Expr::ConstI(v)) => Some((*v).clamp(0, i64::from(u32::MAX)) as u32),
        _ => None,
    }
}

impl<'a> KernelIndex<'a> {
    /// Indexes a function in one pre-order walk.
    pub fn build(f: &'a CFunction) -> KernelIndex<'a> {
        let mut w = Walker {
            index: KernelIndex {
                function: f,
                loops: Vec::new(),
                local_arrays: Vec::new(),
                sites: Vec::new(),
                stmt_count: 0,
            },
            frames: Vec::new(),
            branch: 0,
        };
        w.stmts(&f.body);
        w.index
    }
}

struct Walker<'a> {
    index: KernelIndex<'a>,
    frames: Vec<LoopFrame<'a>>,
    branch: u32,
}

impl<'a> Walker<'a> {
    fn site(&mut self, array: &'a str, index: &'a Expr, write: bool, rmw: bool, stmt: u32) {
        self.index.sites.push(AccessSite {
            array,
            index,
            write,
            rmw,
            stmt,
            loops: self.frames.clone(),
            in_branch: self.branch > 0,
        });
    }

    fn expr(&mut self, e: &'a Expr, stmt: u32) {
        match e {
            Expr::Index(name, idx) => {
                self.expr(idx, stmt);
                self.site(name, idx, false, false, stmt);
            }
            Expr::Bin(_, _, a, b) => {
                self.expr(a, stmt);
                self.expr(b, stmt);
            }
            Expr::Neg(_, a) | Expr::Cast(_, _, a) => self.expr(a, stmt),
            Expr::Call(_, _, args) => args.iter().for_each(|a| self.expr(a, stmt)),
            Expr::Select(c, a, b) => {
                self.expr(c, stmt);
                self.expr(a, stmt);
                self.expr(b, stmt);
            }
            Expr::ConstI(_) | Expr::ConstF(_) | Expr::Var(_) => {}
        }
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            let id = self.index.stmt_count;
            self.index.stmt_count += 1;
            match s {
                Stmt::Decl { init: Some(e), .. } => self.expr(e, id),
                Stmt::Decl { init: None, .. } => {}
                Stmt::DeclArr { name, ty, len } => self.index.local_arrays.push(LocalArray {
                    name,
                    ty: *ty,
                    len: *len,
                }),
                Stmt::Assign { lhs, rhs } => {
                    self.expr(rhs, id);
                    if let LValue::Index(name, idx) = lhs {
                        self.expr(idx, id);
                        let rmw = reads_same_element(rhs, name, idx);
                        self.site(name, idx, true, rmw, id);
                    }
                }
                Stmt::For {
                    id: lid,
                    var,
                    bound,
                    trip_count,
                    body,
                    ..
                } => {
                    self.expr(bound, id);
                    let trip = static_trip(*trip_count, bound);
                    self.index.loops.push(LoopEntry {
                        id: *lid,
                        var,
                        parent: self.frames.last().map(|f| f.id),
                        depth: self.frames.len() as u32,
                        trip,
                        bound,
                        body,
                        stmt: id,
                    });
                    self.frames.push(LoopFrame {
                        id: *lid,
                        var,
                        trip,
                    });
                    self.stmts(body);
                    self.frames.pop();
                }
                Stmt::If { cond, then, els } => {
                    self.expr(cond, id);
                    self.branch += 1;
                    self.stmts(then);
                    self.stmts(els);
                    self.branch -= 1;
                }
            }
        }
    }
}

/// True when `rhs` reads `name` at an index syntactically equal to `widx`.
fn reads_same_element(rhs: &Expr, name: &str, widx: &Expr) -> bool {
    match rhs {
        Expr::Index(n, idx) => {
            (n == name && idx.as_ref() == widx) || reads_same_element(idx, name, widx)
        }
        Expr::Bin(_, _, a, b) => {
            reads_same_element(a, name, widx) || reads_same_element(b, name, widx)
        }
        Expr::Neg(_, a) | Expr::Cast(_, _, a) => reads_same_element(a, name, widx),
        Expr::Call(_, _, args) => args.iter().any(|a| reads_same_element(a, name, widx)),
        Expr::Select(c, a, b) => {
            reads_same_element(c, name, widx)
                || reads_same_element(a, name, widx)
                || reads_same_element(b, name, widx)
        }
        Expr::ConstI(_) | Expr::ConstF(_) | Expr::Var(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CBinOp, CNumKind, LoopAttrs};

    #[test]
    fn static_trip_rule() {
        assert_eq!(static_trip(Some(7), &Expr::var("n")), Some(7));
        assert_eq!(static_trip(None, &Expr::ConstI(10)), Some(10));
        assert_eq!(static_trip(None, &Expr::var("n")), None);
        // A negative bound runs zero iterations; it must not wrap to 2^32-1.
        assert_eq!(static_trip(None, &Expr::ConstI(-1)), Some(0));
        assert_eq!(static_trip(None, &Expr::ConstI(i64::MAX)), Some(u32::MAX));
    }

    #[test]
    fn one_walk_records_loops_arrays_and_sites() {
        // for t < n { float h[4]; for j < 4 { if (c) { h[j] = h[j] + in[t] } } }
        let f = CFunction {
            name: "k".into(),
            params: vec![],
            body: vec![Stmt::For {
                id: LoopId(0),
                var: "t".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: LoopAttrs::none(),
                body: vec![
                    Stmt::DeclArr {
                        name: "h".into(),
                        ty: CType::Float,
                        len: 4,
                    },
                    Stmt::counted_for(
                        LoopId(1),
                        "j",
                        4,
                        vec![Stmt::If {
                            cond: Expr::var("c"),
                            then: vec![Stmt::Assign {
                                lhs: LValue::Index("h".into(), Box::new(Expr::var("j"))),
                                rhs: Expr::bin(
                                    CBinOp::Add,
                                    CNumKind::F32,
                                    Expr::index("h", Expr::var("j")),
                                    Expr::index("in", Expr::var("t")),
                                ),
                            }],
                            els: vec![],
                        }],
                    ),
                ],
            }],
        };
        let idx = KernelIndex::build(&f);
        assert_eq!(idx.stmt_count, 5);
        let ids: Vec<_> = idx
            .loops
            .iter()
            .map(|l| (l.id, l.parent, l.depth, l.trip, l.stmt))
            .collect();
        assert_eq!(
            ids,
            vec![
                (LoopId(0), None, 0, None, 0),
                (LoopId(1), Some(LoopId(0)), 1, Some(4), 2)
            ]
        );
        assert_eq!(idx.local_arrays.len(), 1);
        assert_eq!(
            (idx.local_arrays[0].name, idx.local_arrays[0].len),
            ("h", 4)
        );
        let sites: Vec<_> = idx
            .sites
            .iter()
            .map(|s| (s.array, s.write, s.rmw, s.stmt, s.in_branch, s.loops.len()))
            .collect();
        assert_eq!(
            sites,
            vec![
                ("h", false, false, 4, true, 2),
                ("in", false, false, 4, true, 2),
                ("h", true, true, 4, true, 2),
            ]
        );
    }
}
