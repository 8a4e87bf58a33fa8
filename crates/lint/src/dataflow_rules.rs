//! Dataflow-backed lint rules (`S2FA-E3xx` / `S2FA-W310`).
//!
//! These rules index a generated [`CFunction`] once ([`KernelIndex`]) and
//! report findings with the index's pre-order statement ids. E301 and
//! W310 come from one syntax-directed pass over the structured body (no
//! `break`, `continue` or `while`, so no control-flow graph is needed):
//! forward, each variable carries two bits, *reached by an uninitialized
//! definition* and *reached by an initialized one*; backward, one live
//! bit. An `if` joins its arms with a union, and a `for` reruns its header
//! and body until the header's input stops changing; findings come only
//! from that converged walk. The variable universe is each scalar, each
//! element of a local array that only constant indices touch (up to 256
//! elements), and each other array as a whole, whose writes are may-defs
//! that never kill. E302 reads the index's access sites and loop trips;
//! E303 runs `hlsir::dataflow`'s affine dependence engine on them.
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

use crate::diag::{codes, Diagnostic, LintCode, LintReport, Span};
use s2fa_hlsir::dataflow::{affine_form, depend::const_value, find_write_race};
use s2fa_hlsir::index::KernelIndex;
use s2fa_hlsir::{CFunction, Expr, LValue, LoopId, Param, ParamKind, Stmt};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Runs every dataflow-backed rule over one kernel function.
///
/// `tasks_hint` is the batch size assumed for the runtime-bounded task
/// loop (its trip count is not static; the dependence engine needs *some*
/// domain). The function is self-contained — it indexes the kernel and
/// runs the analyses itself — so it can run differentially after a Merlin
/// transform without a `KernelSummary` at hand.
pub fn dataflow_checks(f: &CFunction, tasks_hint: u32) -> LintReport {
    run_rules(f, tasks_hint, true)
}

/// The error-severity subset of [`dataflow_checks`] (`E301`, `E302`,
/// `E303`, in the same order), without the backward pass for `W310`.
/// This is what a differential re-check compares, since it discards
/// warnings.
pub fn dataflow_errors(f: &CFunction, tasks_hint: u32) -> LintReport {
    run_rules(f, tasks_hint, false)
}

/// The one rule runner behind both entry points; `warnings` adds `W310`
/// (and the backward pass it needs) between `E301` and `E302`.
fn run_rules(f: &CFunction, tasks_hint: u32, warnings: bool) -> LintReport {
    let index = KernelIndex::build(f);
    let mut flow = Flow::lower(&index);
    flow.uninit_reads();
    if warnings {
        flow.dead_stores();
    }
    let mut report = flow.report;
    affine_oob(&index, &mut report);
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

/// Local arrays with more elements than this are tracked as a whole even
/// when every index is constant.
const MAX_PER_ELEMENT: u32 = 256;

/// Forward state bit: an uninitialized definition reaches.
const UNINIT: u8 = 1;
/// Forward state bit: an initialized definition reaches.
const INIT: u8 = 2;

/// One tracked variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Var<'a> {
    /// A scalar: a local, a parameter or an induction variable.
    Scalar(&'a str),
    /// One element of a local array tracked per element.
    Element(&'a str, u32),
    /// A whole array: an interface buffer, or a local array with a
    /// dynamic index or more than 256 elements.
    Whole(&'a str),
}

impl fmt::Display for Var<'_> {
    /// `x`, `a[3]` or `a[*]`: the subject of a finding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::Scalar(n) => f.write_str(n),
            Var::Element(a, k) => write!(f, "{a}[{k}]"),
            Var::Whole(a) => write!(f, "{a}[*]"),
        }
    }
}

/// One statement's effect, by pre-order id: its reads (each variable
/// once, in first-read order) and must-defs are `vars[start..uses]` and
/// `vars[uses..defs]`.
#[derive(Debug, Clone, Copy)]
struct Effect {
    start: u32,
    uses: u32,
    defs: u32,
    /// The whole array a dynamic store may define.
    may: Option<u32>,
    /// True when the must-defs carry no value (`Decl` without an
    /// initializer, `DeclArr`).
    uninit: bool,
    /// Pre-order id of the statement after this one and its children.
    next: u32,
}

/// The variable a parameter denotes: interface buffers are whole arrays.
fn param_var(p: &Param) -> Var<'_> {
    match p.kind {
        ParamKind::ScalarIn => Var::Scalar(&p.name),
        ParamKind::BufIn | ParamKind::BufOut => Var::Whole(&p.name),
    }
}

/// The lowered kernel, the state of a walk over it, and its findings.
struct Flow<'a> {
    index: &'a KernelIndex<'a>,
    /// Whether each array is tracked per element; absent arrays are
    /// tracked as a whole.
    per_element: HashMap<&'a str, bool>,
    ids: HashMap<Var<'a>, u32>,
    names: Vec<Var<'a>>,
    effects: Vec<Effect>,
    vars: Vec<u32>,
    /// Enclosing loops of the statement being walked, outermost first.
    path: Vec<LoopId>,
    /// False under an `if` or a loop with a static trip count of zero.
    executes: bool,
    report: LintReport,
}

impl<'a> Flow<'a> {
    /// Chooses each array's tracking and records every statement's effect
    /// in one pre-order walk.
    fn lower(index: &'a KernelIndex<'a>) -> Flow<'a> {
        let f = index.function;
        let mut per_element: HashMap<&str, bool> =
            f.buffers().map(|p| (p.name.as_str(), false)).collect();
        for a in &index.local_arrays {
            per_element
                .entry(a.name)
                .or_insert(a.len <= MAX_PER_ELEMENT);
        }
        // One dynamic index makes the whole array one variable.
        for site in &index.sites {
            if const_value(site.index).is_none() {
                per_element.insert(site.array, false);
            }
        }
        let mut flow = Flow {
            index,
            per_element,
            ids: HashMap::new(),
            names: Vec::new(),
            effects: Vec::with_capacity(index.stmt_count as usize),
            vars: Vec::new(),
            path: Vec::new(),
            executes: true,
            report: LintReport::new(format!("{} (dataflow)", f.name)),
        };
        for p in &f.params {
            flow.id(param_var(p));
        }
        flow.lower_block(&f.body);
        flow
    }

    fn id(&mut self, v: Var<'a>) -> u32 {
        let next = self.names.len() as u32;
        *self.ids.entry(v).or_insert_with(|| {
            self.names.push(v);
            next
        })
    }

    fn def(&mut self, v: Var<'a>) {
        let id = self.id(v);
        self.vars.push(id);
    }

    fn tracked_per_element(&self, array: &str) -> bool {
        self.per_element.get(array) == Some(&true)
    }

    /// The variable an index into a per-element array touches; `None` for
    /// a negative index.
    fn element(&mut self, array: &'a str, idx: &Expr) -> Option<u32> {
        match const_value(idx) {
            Some(k) if k >= 0 => Some(self.id(Var::Element(array, k as u32))),
            _ => None,
        }
    }

    /// Appends the variables `e` reads that statement `vars[start..]` has
    /// not read yet.
    fn reads(&mut self, e: &'a Expr, start: usize) {
        let v = match e {
            Expr::ConstI(_) | Expr::ConstF(_) => None,
            Expr::Var(n) => Some(self.id(Var::Scalar(n))),
            Expr::Index(name, _) if !self.tracked_per_element(name) => {
                Some(self.id(Var::Whole(name)))
            }
            Expr::Index(name, idx) => self.element(name, idx),
            Expr::Bin(_, _, a, b) => {
                self.reads(a, start);
                self.reads(b, start);
                None
            }
            Expr::Neg(_, a) | Expr::Cast(_, _, a) => {
                self.reads(a, start);
                None
            }
            Expr::Call(_, _, args) => {
                args.iter().for_each(|a| self.reads(a, start));
                None
            }
            Expr::Select(c, a, b) => {
                self.reads(c, start);
                self.reads(a, start);
                self.reads(b, start);
                None
            }
        };
        if let Some(v) = v.filter(|v| !self.vars[start..].contains(v)) {
            self.vars.push(v);
        }
        if let Expr::Index(_, idx) = e {
            self.reads(idx, start);
        }
    }

    fn lower_block(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            let at = self.effects.len();
            let start = self.vars.len();
            match s {
                Stmt::Decl { init: Some(e), .. } | Stmt::For { bound: e, .. } => {
                    self.reads(e, start)
                }
                Stmt::If { cond, .. } => self.reads(cond, start),
                Stmt::Assign { lhs, rhs } => {
                    self.reads(rhs, start);
                    if let LValue::Index(_, idx) = lhs {
                        self.reads(idx, start);
                    }
                }
                Stmt::Decl { init: None, .. } | Stmt::DeclArr { .. } => {}
            }
            let uses = self.vars.len();
            let mut may = None;
            match s {
                Stmt::Decl { name, .. } | Stmt::For { var: name, .. } => {
                    self.def(Var::Scalar(name))
                }
                Stmt::DeclArr { name, len, .. } if self.tracked_per_element(name) => {
                    (0..*len).for_each(|k| self.def(Var::Element(name, k)))
                }
                Stmt::DeclArr { name, .. } => self.def(Var::Whole(name)),
                Stmt::Assign {
                    lhs: LValue::Var(n),
                    ..
                } => self.def(Var::Scalar(n)),
                Stmt::Assign {
                    lhs: LValue::Index(name, _),
                    ..
                } if !self.tracked_per_element(name) => may = Some(self.id(Var::Whole(name))),
                Stmt::Assign {
                    lhs: LValue::Index(name, idx),
                    ..
                } => {
                    if let Some(v) = self.element(name, idx) {
                        self.vars.push(v);
                    }
                }
                Stmt::If { .. } => {}
            }
            self.effects.push(Effect {
                start: start as u32,
                uses: uses as u32,
                defs: self.vars.len() as u32,
                may,
                uninit: matches!(s, Stmt::Decl { init: None, .. } | Stmt::DeclArr { .. }),
                next: 0,
            });
            match s {
                Stmt::For { body, .. } => self.lower_block(body),
                Stmt::If { then, els, .. } => {
                    self.lower_block(then);
                    self.lower_block(els);
                }
                _ => {}
            }
            self.effects[at].next = self.effects.len() as u32;
        }
    }

    /// A state with `bit` on the variables of the parameters `keep`
    /// selects.
    fn params(&self, bit: u8, keep: impl Fn(ParamKind) -> bool) -> Vec<u8> {
        let mut state = vec![0; self.names.len()];
        for p in self.index.function.params.iter().filter(|p| keep(p.kind)) {
            state[self.ids[&param_var(p)] as usize] = bit;
        }
        state
    }

    /// E301, in statement order: the forward pass from the entry, where
    /// parameters and interface buffers are initialized.
    fn uninit_reads(&mut self) {
        let body = &self.index.function.body;
        let mut state = self.params(INIT, |_| true);
        self.forward(body, 0, &mut state, true);
    }

    /// W310, in statement order: the backward pass from the exit, where
    /// output buffers are live.
    fn dead_stores(&mut self) {
        let body = &self.index.function.body;
        let from = self.report.diagnostics.len();
        let mut live = self.params(1, |k| k == ParamKind::BufOut);
        self.backward(body, 0, &mut live, true);
        // The backward walk reports in reverse statement order.
        self.report.diagnostics[from..].reverse();
    }

    fn slice(&self, from: u32, to: u32) -> &[u32] {
        &self.vars[from as usize..to as usize]
    }

    /// A finding about variable `v` at statement `id`.
    fn push(&mut self, id: u32, v: u32, code: LintCode, message: String) {
        let span = Span {
            loop_path: self.path.clone(),
            subject: Some(self.names[v as usize].to_string()),
            stmt: Some(id),
        };
        self.report.push(code, span, message);
    }

    /// Applies statement `id` to the forward state, first reporting E301
    /// (when `report` is set) on each read only uninitialized definitions
    /// reach.
    fn step(&mut self, id: u32, state: &mut [u8], report: bool) {
        let e = self.effects[id as usize];
        if report && self.executes {
            for k in e.start..e.uses {
                let v = self.vars[k as usize];
                if state[v as usize] == UNINIT {
                    let name = self.names[v as usize];
                    self.push(
                        id,
                        v,
                        codes::UNINIT_READ,
                        format!(
                            "`{name}` is read here, but every definition reaching this \
                             statement is an uninitialized declaration"
                        ),
                    );
                }
            }
        }
        let def = if e.uninit { UNINIT } else { INIT };
        for &v in self.slice(e.uses, e.defs) {
            state[v as usize] = def;
        }
        if let Some(v) = e.may {
            state[v as usize] |= INIT;
        }
    }

    /// Walks `stmts` (the first has pre-order id `id`) forward from
    /// `state`, reporting E301 when `report` is set; returns the id after
    /// the last statement.
    fn forward(&mut self, stmts: &[Stmt], mut id: u32, state: &mut Vec<u8>, report: bool) -> u32 {
        for s in stmts {
            match s {
                Stmt::For { id: lid, body, .. } => {
                    // Header input: the entry state joined with the body's
                    // exit state, until it stops changing.
                    loop {
                        let mut b = state.clone();
                        self.step(id, &mut b, false);
                        self.forward(body, id + 1, &mut b, false);
                        if !join(state, &b) {
                            break;
                        }
                    }
                    self.step(id, state, report);
                    if report {
                        let outer = self.executes;
                        self.executes &= self.trip(id).is_none_or(|t| t >= 1);
                        self.path.push(*lid);
                        self.forward(body, id + 1, &mut state.clone(), true);
                        self.path.pop();
                        self.executes = outer;
                    }
                }
                Stmt::If { then, els, .. } => {
                    self.step(id, state, report);
                    let outer = std::mem::replace(&mut self.executes, false);
                    let mut t = state.clone();
                    let mid = self.forward(then, id + 1, &mut t, report);
                    self.forward(els, mid, state, report);
                    join(state, &t);
                    self.executes = outer;
                }
                _ => self.step(id, state, report),
            }
            id = self.effects[id as usize].next;
        }
        id
    }

    /// Walks `stmts` (the first has pre-order id `first`) backward from
    /// `live`, the variables live after them, reporting W310 in reverse
    /// statement order when `report` is set.
    fn backward(&mut self, stmts: &[Stmt], first: u32, live: &mut Vec<u8>, report: bool) {
        let mut ids = Vec::with_capacity(stmts.len());
        let mut id = first;
        for _ in stmts {
            ids.push(id);
            id = self.effects[id as usize].next;
        }
        for (s, &id) in stmts.iter().zip(&ids).rev() {
            match s {
                Stmt::For { id: lid, body, .. } => {
                    // Header output: the live set after the loop joined
                    // with the body's entry set, until it stops changing.
                    loop {
                        let mut b = live.clone();
                        self.kill_gen(id, &mut b);
                        self.backward(body, id + 1, &mut b, false);
                        if !join(live, &b) {
                            break;
                        }
                    }
                    if report {
                        let mut b = live.clone();
                        self.kill_gen(id, &mut b);
                        self.path.push(*lid);
                        self.backward(body, id + 1, &mut b, true);
                        self.path.pop();
                    }
                }
                Stmt::If { then, els, .. } => {
                    let mut t = live.clone();
                    let mid = self.after(then, id + 1);
                    self.backward(els, mid, live, report);
                    self.backward(then, id + 1, &mut t, report);
                    join(live, &t);
                }
                Stmt::Assign { .. } if report => self.dead_store(id, live),
                _ => {}
            }
            self.kill_gen(id, live);
        }
    }

    /// The pre-order id after `stmts`, whose first statement has id
    /// `first`.
    fn after(&self, stmts: &[Stmt], first: u32) -> u32 {
        stmts
            .iter()
            .fold(first, |id, _| self.effects[id as usize].next)
    }

    /// The static trip count of the loop headed by statement `header`.
    fn trip(&self, header: u32) -> Option<u32> {
        let loops = &self.index.loops;
        let at = loops
            .binary_search_by_key(&header, |l| l.stmt)
            .expect("the index records every loop");
        loops[at].trip
    }

    /// Applies statement `id` to the live set: its must-defs die, then its
    /// reads become live.
    fn kill_gen(&self, id: u32, live: &mut [u8]) {
        let e = self.effects[id as usize];
        for &v in self.slice(e.uses, e.defs) {
            live[v as usize] = 0;
        }
        for &v in self.slice(e.start, e.uses) {
            live[v as usize] = 1;
        }
    }

    /// W310 on assignment `id` when nothing it must-defines is live after
    /// it. A may-def (a dynamic store into a whole array) is never dead.
    fn dead_store(&mut self, id: u32, live: &[u8]) {
        let e = self.effects[id as usize];
        let defs = self.slice(e.uses, e.defs);
        if defs.is_empty() || defs.iter().any(|&v| live[v as usize] != 0) {
            return;
        }
        let v = defs[0];
        let name = self.names[v as usize];
        self.push(
            id,
            v,
            codes::DEAD_STORE,
            format!("value stored to `{name}` is never read"),
        );
    }
}

/// `into |= from`; true when a bit changed.
fn join(into: &mut [u8], from: &[u8]) -> bool {
    let mut changed = false;
    for (a, &b) in into.iter_mut().zip(from) {
        changed |= *a | b != *a;
        *a |= b;
    }
    changed
}

/// E302: affine non-constant indices provably outside a local array.
fn affine_oob(index: &KernelIndex<'_>, report: &mut LintReport) {
    // A redeclared array takes its last declaration's length.
    let lens: HashMap<&str, u32> = index.local_arrays.iter().map(|a| (a.name, a.len)).collect();
    let mut reported: BTreeSet<(u32, &str)> = BTreeSet::new();
    for site in &index.sites {
        let Some(&len) = lens.get(site.array) else {
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

    fn decl(name: &str) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty: CType::Float,
            init: None,
        }
    }

    fn set(name: &str, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Var(name.into()),
            rhs,
        }
    }

    fn out0(rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
            rhs,
        }
    }

    fn out_i(rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Index("out".into(), Box::new(Expr::var("i"))),
            rhs,
        }
    }

    #[test]
    fn back_edge_definition_silences_the_read() {
        // float s; for i { out[i] = s; s = 1 } — from the second iteration
        // on, the read sees the previous iteration's store: may-uninit.
        let f = func(vec![
            decl("s"),
            counted(
                0,
                "i",
                4,
                vec![out_i(Expr::var("s")), set("s", Expr::ConstF(1.0))],
            ),
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(r.diagnostics.is_empty(), "{}", r.render());
    }

    #[test]
    fn body_declaration_kills_the_back_edge_definition() {
        // for i { float s; out[i] = s; s = 1 } — each iteration's
        // declaration kills the previous iteration's store.
        let f = func(vec![counted(
            0,
            "i",
            4,
            vec![
                decl("s"),
                out_i(Expr::var("s")),
                set("s", Expr::ConstF(1.0)),
            ],
        )]);
        let r = dataflow_checks(&f, 16);
        assert_eq!(codes_of(&r), vec!["S2FA-E301", "S2FA-W310"]);
        let d = &r.diagnostics[0];
        assert_eq!(
            (d.span.stmt, d.span.subject.as_deref()),
            (Some(2), Some("s"))
        );
        assert_eq!(d.span.loop_path, vec![LoopId(0)]);
    }

    #[test]
    fn zero_trip_loop_is_not_provably_executed() {
        // float x; for i < trip { out[i] = x } — a read in a loop that
        // never runs is not an error; the same read in a loop that runs
        // once is.
        let read_in_loop = |trip| {
            func(vec![
                decl("x"),
                counted(0, "i", trip, vec![out_i(Expr::var("x"))]),
            ])
        };
        assert!(dataflow_checks(&read_in_loop(0), 16).diagnostics.is_empty());
        assert_eq!(
            codes_of(&dataflow_checks(&read_in_loop(1), 16)),
            vec!["S2FA-E301"]
        );
    }

    #[test]
    fn dynamic_index_makes_whole_array_may_defs() {
        // float a[4]; for i { a[i] = i }; out[0] = a[0] — one dynamic
        // index tracks `a` as a whole, whose store may leave elements
        // unwritten: no E301, and the store is never dead.
        let f = func(vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 4,
            },
            counted(
                0,
                "i",
                4,
                vec![Stmt::Assign {
                    lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::var("i"),
                }],
            ),
            out0(Expr::index("a", Expr::ConstI(0))),
        ]);
        let r = dataflow_checks(&f, 16);
        assert!(r.diagnostics.is_empty(), "{}", r.render());
    }

    #[test]
    fn output_buffer_stores_are_never_dead() {
        // out[0] = 1; out[0] = 2 — the first store is overwritten, but an
        // interface buffer is tracked as a whole: may-defs, live at exit.
        let f = func(vec![out0(Expr::ConstF(1.0)), out0(Expr::ConstF(2.0))]);
        let r = dataflow_checks(&f, 16);
        assert!(r.diagnostics.is_empty(), "{}", r.render());
    }
}
