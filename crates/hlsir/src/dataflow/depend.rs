//! Affine array-dependence testing and loop-carried recurrence detection.
//!
//! Two layers live here:
//!
//! 1. **The exact affine test** — array indices are lifted to multi-variable
//!    affine forms over loop induction variables
//!    ([`affine_form`]), and cross-iteration overlap questions ("can two
//!    different iterations of loop `L` touch the same element?") are decided
//!    by a GCD + Banerjee-bounds check with a budgeted exhaustive search
//!    over the (small, statically known) iteration domains. Verdicts are
//!    three-valued ([`Tri`]): `Proven` overlap, `Disproven`, or `Unknown`
//!    when the form is non-affine or the domain is too large to decide.
//!    This powers the E303 replication write-race rule
//!    ([`find_write_race`]) and the [`replication_safe`] clearance used by
//!    the interleaving oracle. The access sites it reads are those of
//!    [`KernelIndex`](crate::index::KernelIndex).
//!
//! 2. **The conservative recurrence scan** — the single source of truth for
//!    the loop-carried dependences that bound the estimator's initiation
//!    interval. This is the scan `hlsir::analysis` historically carried
//!    inline; it moved here so the summary builder, the lint rules, and the
//!    DSE prescreen all agree on one verdict. [`conservative_carried`]
//!    reproduces its behavior exactly (goldens are bit-identical).

use crate::analysis::CarriedDep;
use crate::ast::{CBinOp, CIntrinsic, Expr, LValue, LoopId, Stmt};
use crate::index::{AccessSite, LoopFrame};
use crate::opcount::OpCounts;
use std::collections::{BTreeMap, HashSet};

// ---------------------------------------------------------------------------
// Affine forms
// ---------------------------------------------------------------------------

/// A multi-variable affine expression `offset + Σ coeff_v · v`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffineForm {
    /// Per-variable coefficients (zero coefficients are dropped).
    pub terms: BTreeMap<String, i64>,
    /// The constant part.
    pub offset: i64,
}

impl AffineForm {
    fn constant(v: i64) -> AffineForm {
        AffineForm {
            terms: BTreeMap::new(),
            offset: v,
        }
    }

    fn add(mut self, other: AffineForm, sign: i64) -> AffineForm {
        self.offset += sign * other.offset;
        for (v, c) in other.terms {
            *self.terms.entry(v).or_insert(0) += sign * c;
        }
        self.terms.retain(|_, c| *c != 0);
        self
    }

    fn scale(mut self, k: i64) -> AffineForm {
        self.offset *= k;
        if k == 0 {
            self.terms.clear();
        } else {
            self.terms.values_mut().for_each(|c| *c *= k);
        }
        self
    }

    /// Coefficient of `var` (zero when absent).
    pub fn coeff(&self, var: &str) -> i64 {
        self.terms.get(var).copied().unwrap_or(0)
    }
}

/// Lifts an index expression to an affine form over its variables, or
/// `None` when it is not affine (data-dependent indexing, products of
/// variables, division, ...).
pub fn affine_form(e: &Expr) -> Option<AffineForm> {
    match e {
        Expr::ConstI(v) => Some(AffineForm::constant(*v)),
        Expr::Var(n) => {
            let mut f = AffineForm::default();
            f.terms.insert(n.clone(), 1);
            Some(f)
        }
        Expr::Bin(CBinOp::Add, _, a, b) => Some(affine_form(a)?.add(affine_form(b)?, 1)),
        Expr::Bin(CBinOp::Sub, _, a, b) => Some(affine_form(a)?.add(affine_form(b)?, -1)),
        Expr::Bin(CBinOp::Mul, _, a, b) => {
            let fa = affine_form(a)?;
            let fb = affine_form(b)?;
            if fa.terms.is_empty() {
                Some(fb.scale(fa.offset))
            } else if fb.terms.is_empty() {
                Some(fa.scale(fb.offset))
            } else {
                None
            }
        }
        Expr::Cast(_, _, a) => affine_form(a),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The exact overlap test
// ---------------------------------------------------------------------------

/// Three-valued verdict of a dependence/overlap question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// A witness exists (both iterations provably execute).
    Proven,
    /// No witness can exist.
    Disproven,
    /// Non-affine, unbounded symbol, or search budget exhausted.
    Unknown,
}

/// One existential variable of the overlap equation.
#[derive(Debug, Clone, Copy)]
struct VarSpec {
    coeff: i64,
    lo: i64,
    hi: i64,
    /// True for the iteration-difference variable, which must be nonzero.
    nonzero: bool,
}

/// Node budget for the exhaustive search; beyond it the verdict degrades
/// to `Unknown` unless the interval/GCD checks already disproved.
const SEARCH_BUDGET: u64 = 1 << 20;

/// Decides `∃ x: Σ coeff_m·x_m + c = 0` with each `x_m ∈ [lo_m, hi_m]`,
/// `x_m ≠ 0` where flagged, and `x_a ≠ x_b` for each pair in `neq`.
fn solve_eq(terms: &[VarSpec], c: i64, neq: &[(usize, usize)]) -> Tri {
    // Interval (Banerjee) bounds. The extra constraints only shrink the
    // witness set, so interval/GCD disproofs stay sound with them ignored.
    let (mut lo, mut hi) = (c, c);
    for t in terms {
        let a = t.coeff * t.lo;
        let b = t.coeff * t.hi;
        lo += a.min(b);
        hi += a.max(b);
    }
    if lo > 0 || hi < 0 {
        return Tri::Disproven;
    }
    // GCD test over nonzero coefficients.
    let g = terms
        .iter()
        .map(|t| t.coeff.unsigned_abs())
        .filter(|&c| c != 0)
        .fold(0u64, gcd);
    if g != 0 && !c.unsigned_abs().is_multiple_of(g) {
        return Tri::Disproven;
    }
    if g == 0 && neq.is_empty() {
        // No variable contributes: the equation is just `c = 0` — but a
        // `nonzero` variable must still have a nonzero value available.
        let nonzero_ok = terms
            .iter()
            .filter(|t| t.nonzero)
            .all(|t| t.lo < 0 || t.hi > 0);
        return if c == 0 && nonzero_ok {
            Tri::Proven
        } else {
            Tri::Disproven
        };
    }
    search(terms, c, neq, SEARCH_BUDGET)
}

/// Depth-first search for a witness of [`solve_eq`]'s equation, visiting
/// at most `budget` nodes, with suffix interval pruning.
fn search(terms: &[VarSpec], c: i64, neq: &[(usize, usize)], budget: u64) -> Tri {
    // suffix_lo/hi[i] = extreme contribution of terms[i..].
    let n = terms.len();
    let mut suffix_lo = vec![0i64; n + 1];
    let mut suffix_hi = vec![0i64; n + 1];
    for i in (0..n).rev() {
        let a = terms[i].coeff * terms[i].lo;
        let b = terms[i].coeff * terms[i].hi;
        suffix_lo[i] = suffix_lo[i + 1] + a.min(b);
        suffix_hi[i] = suffix_hi[i + 1] + a.max(b);
    }
    struct Search<'a> {
        terms: &'a [VarSpec],
        neq: &'a [(usize, usize)],
        suffix_lo: &'a [i64],
        suffix_hi: &'a [i64],
        vals: Vec<i64>,
        budget: u64,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, acc: i64) -> Option<bool> {
            if self.budget == 0 {
                return None; // exhausted → Unknown
            }
            self.budget -= 1;
            if i == self.terms.len() {
                let ok = acc == 0 && self.neq.iter().all(|&(a, b)| self.vals[a] != self.vals[b]);
                return Some(ok);
            }
            if acc + self.suffix_lo[i] > 0 || acc + self.suffix_hi[i] < 0 {
                return Some(false);
            }
            let t = self.terms[i];
            if i + 1 == self.terms.len() && t.coeff != 0 {
                return self.last(i, acc);
            }
            for v in t.lo..=t.hi {
                if t.nonzero && v == 0 {
                    continue;
                }
                self.vals[i] = v;
                match self.dfs(i + 1, acc + t.coeff * v) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            Some(false)
        }

        /// The loop of [`Search::dfs`] over the last variable, in closed
        /// form with the same verdict and budget: the only value that can
        /// zero the sum is `-acc / coeff`, and every value the loop would
        /// try up to it costs one leaf.
        fn last(&mut self, i: usize, acc: i64) -> Option<bool> {
            let t = self.terms[i];
            let skips_zero = t.nonzero && t.lo <= 0 && t.hi >= 0;
            // Values tried in `lo..=v`, the skipped zero excluded.
            let tried = |v: i64| (v - t.lo + 1).max(0) as u64 - u64::from(skips_zero && v >= 0);
            let witness = (acc.checked_rem(t.coeff) == Some(0))
                .then(|| acc.checked_div(t.coeff).and_then(i64::checked_neg))
                .flatten()
                .filter(|&v| (t.lo..=t.hi).contains(&v) && !(t.nonzero && v == 0))
                .filter(|&v| {
                    self.vals[i] = v;
                    self.neq.iter().all(|&(a, b)| self.vals[a] != self.vals[b])
                });
            let cost = witness.map_or(tried(t.hi), tried);
            if cost > self.budget {
                return None;
            }
            self.budget -= cost;
            Some(witness.is_some())
        }
    }
    let mut s = Search {
        terms,
        neq,
        suffix_lo: &suffix_lo,
        suffix_hi: &suffix_hi,
        vals: vec![0; n],
        budget,
    };
    match s.dfs(0, c) {
        Some(true) => Tri::Proven,
        Some(false) => Tri::Disproven,
        None => Tri::Unknown,
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Resolved trip count of a frame (task loop falls back to the hint).
fn frame_trip(f: &LoopFrame<'_>, tasks_hint: u32) -> u32 {
    f.trip.unwrap_or(tasks_hint)
}

/// Can sites `a` and `b` touch the same element of their (shared) array in
/// two *different* iterations of loop `lid`? Both sites must be enclosed
/// by `lid`. `Proven` additionally requires both sites to provably execute
/// (no enclosing `if`, no zero-trip enclosing loop inside `lid`).
pub fn cross_iteration_overlap(
    a: &AccessSite,
    b: &AccessSite,
    lid: LoopId,
    tasks_hint: u32,
) -> Tri {
    debug_assert_eq!(a.array, b.array);
    let (Some(pa), Some(pb)) = (a.frame_pos(lid), b.frame_pos(lid)) else {
        return Tri::Unknown;
    };
    let l_var = a.loops[pa].var;
    let t_l = frame_trip(&a.loops[pa], tasks_hint) as i64;
    if t_l < 2 {
        return Tri::Disproven;
    }
    // If an inner loop shadows `lid`'s variable name at either site, the
    // coefficient bookkeeping below would attribute it to the wrong loop.
    if a.binding(l_var).map(|(p, _)| p) != Some(pa) || b.binding(l_var).map(|(p, _)| p) != Some(pb)
    {
        return Tri::Unknown;
    }
    let (Some(fa), Some(fb)) = (affine_form(a.index), affine_form(b.index)) else {
        return Tri::Unknown;
    };

    // Build the difference equation f_a(...) - f_b(...) = 0 over
    // existential variables. Classification per variable:
    //
    // * `lid`'s own induction variable: equal coefficients fold into one
    //   difference variable Δ ∈ ±[1, t-1]; unequal coefficients become two
    //   independent variables i, i' ∈ [0, t-1] linked by an i ≠ i'
    //   constraint.
    // * Variables bound by loops *outside* `lid` (and runtime scalars):
    //   both iterations run under the same activation, so the value is
    //   shared — equal coefficients cancel, unequal ones contribute one
    //   exact (ca−cb)·x term (unbounded for scalars → Unknown).
    // * Variables bound by loops *inside* `lid`: each side re-executes the
    //   inner loop, so the two occurrences are independent per side.
    //
    // All three encodings are exact, so both Proven and Disproven are
    // trustworthy; Unknown arises only from non-affine forms, unbounded
    // scalars, inconsistent shadowing, or search-budget exhaustion.
    let mut terms: Vec<VarSpec> = Vec::new();
    let mut neq: Vec<(usize, usize)> = Vec::new();
    let ca_l = fa.coeff(l_var);
    let cb_l = fb.coeff(l_var);
    if ca_l == cb_l {
        // Substitute i' = i + Δ: the i terms cancel, leaving -coeff·Δ.
        // (With coeff 0 the term is inert and the constant test decides,
        // but the nonzero flag still demands a Δ value to exist.)
        terms.push(VarSpec {
            coeff: -cb_l,
            lo: -(t_l - 1),
            hi: t_l - 1,
            nonzero: true,
        });
    } else {
        let ia = terms.len();
        terms.push(VarSpec {
            coeff: ca_l,
            lo: 0,
            hi: t_l - 1,
            nonzero: false,
        });
        let ib = terms.len();
        terms.push(VarSpec {
            coeff: -cb_l,
            lo: 0,
            hi: t_l - 1,
            nonzero: false,
        });
        neq.push((ia, ib));
    }

    let mut vars: Vec<&String> = fa.terms.keys().chain(fb.terms.keys()).collect();
    vars.sort();
    vars.dedup();
    for v in vars {
        if v == l_var {
            continue;
        }
        let ca = fa.coeff(v);
        let cb = fb.coeff(v);
        match (a.binding(v), b.binding(v)) {
            (Some((ba, fra)), Some((bb, frb))) if ba < pa && bb < pb => {
                // Shared outer loop variable. Require both sites to agree
                // on which loop binds it (same id ⇒ same range).
                if fra.id != frb.id {
                    return Tri::Unknown;
                }
                if ca != cb {
                    let t = frame_trip(fra, tasks_hint) as i64;
                    terms.push(VarSpec {
                        coeff: ca - cb,
                        lo: 0,
                        hi: (t - 1).max(0),
                        nonzero: false,
                    });
                }
            }
            (None, None) => {
                // Runtime scalar: shared value, unbounded.
                if ca != cb {
                    return Tri::Unknown;
                }
            }
            _ => {
                // Bound inside `lid` on the side(s) that use it:
                // independent per side. A variable used by one side while
                // the other side binds it outside (shadowing mismatch) is
                // handled here too, conservatively per-side — but proof
                // would then be unsafe, so bail to Unknown unless each
                // side that *uses* the variable binds it inside `lid`.
                if ca != 0 {
                    match a.binding(v) {
                        Some((ba, fra)) if ba > pa => {
                            let t = frame_trip(fra, tasks_hint) as i64;
                            terms.push(VarSpec {
                                coeff: ca,
                                lo: 0,
                                hi: (t - 1).max(0),
                                nonzero: false,
                            });
                        }
                        _ => return Tri::Unknown,
                    }
                }
                if cb != 0 {
                    match b.binding(v) {
                        Some((bb, frb)) if bb > pb => {
                            let t = frame_trip(frb, tasks_hint) as i64;
                            terms.push(VarSpec {
                                coeff: -cb,
                                lo: 0,
                                hi: (t - 1).max(0),
                                nonzero: false,
                            });
                        }
                        _ => return Tri::Unknown,
                    }
                }
            }
        }
    }
    let c = fa.offset - fb.offset;
    let mut verdict = solve_eq(&terms, c, &neq);

    // `Proven` must also mean both iterations actually execute the access.
    if verdict == Tri::Proven {
        let executes = |s: &AccessSite, pos: usize| {
            !s.in_branch
                && s.loops[pos + 1..]
                    .iter()
                    .all(|f| frame_trip(f, tasks_hint) >= 1)
        };
        if !executes(a, pa) || !executes(b, pb) {
            verdict = Tri::Unknown;
        }
    }
    verdict
}

// ---------------------------------------------------------------------------
// Race detection & replication clearance
// ---------------------------------------------------------------------------

/// A proven cross-iteration write-write race under one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// The loop whose replication would be nondeterministic.
    pub loop_id: LoopId,
    /// The array written.
    pub array: String,
    /// Pre-order statement indices of the two conflicting writes (equal
    /// for a self-conflict).
    pub stmt_a: u32,
    /// See [`RaceFinding::stmt_a`].
    pub stmt_b: u32,
}

/// Searches for a proven write-write race under `lid`: two different
/// iterations writing the same element of the same array. Read-modify-write
/// accumulations are excluded (they are carried *flow* dependences, owned
/// by the recurrence machinery, not races), and so are arrays declared
/// inside `body` (the loop's own body): those are re-created per iteration,
/// so replication privatizes them and no cross-iteration conflict exists.
/// Returns the first finding in statement order.
pub fn find_write_race(
    sites: &[AccessSite<'_>],
    body: &[Stmt],
    lid: LoopId,
    tasks_hint: u32,
) -> Option<RaceFinding> {
    let mut private: HashSet<&str> = HashSet::new();
    collect_decl_names(body, &mut private);
    let writes: Vec<&AccessSite<'_>> = sites
        .iter()
        .filter(|s| s.write && !s.rmw && !private.contains(s.array) && s.frame_pos(lid).is_some())
        .collect();
    for (i, a) in writes.iter().enumerate() {
        for b in &writes[i..] {
            if a.array != b.array {
                continue;
            }
            if cross_iteration_overlap(a, b, lid, tasks_hint) == Tri::Proven {
                return Some(RaceFinding {
                    loop_id: lid,
                    array: a.array.to_string(),
                    stmt_a: a.stmt,
                    stmt_b: b.stmt,
                });
            }
        }
    }
    None
}

/// True when permuting the iteration order of `lid` provably cannot change
/// any output: every cross-iteration write-write *and* write-read pair on
/// every array is disproven, and no scalar that outlives one iteration is
/// written in the body (scalar recurrences both carry values between
/// iterations and reorder floating-point reductions).
///
/// This is exactly the property the randomized-interleaving oracle
/// validates: a cleared loop must produce bit-identical outputs under any
/// iteration order.
pub fn replication_safe(
    sites: &[AccessSite<'_>],
    body: &[Stmt],
    lid: LoopId,
    tasks_hint: u32,
) -> bool {
    // Scalars declared in the body (at any depth) are re-created per
    // iteration; any other scalar written under the loop is shared state.
    let mut private: HashSet<&str> = HashSet::new();
    collect_decl_names(body, &mut private);
    if writes_shared_scalar(body, &private) {
        return false;
    }
    // Arrays declared in the body are as private as body scalars: each
    // iteration gets a fresh copy, so their accesses cannot couple
    // iterations.
    let under: Vec<&AccessSite<'_>> = sites
        .iter()
        .filter(|s| s.frame_pos(lid).is_some() && !private.contains(s.array))
        .collect();
    let writes: Vec<&&AccessSite<'_>> = under.iter().filter(|s| s.write).collect();
    for (i, w) in writes.iter().enumerate() {
        // Write-write pairs, including the self pair.
        for w2 in &writes[i..] {
            if w.array == w2.array
                && cross_iteration_overlap(w, w2, lid, tasks_hint) != Tri::Disproven
            {
                return false;
            }
        }
        // Write-read pairs over the same array.
        for r in under.iter().filter(|s| !s.write && s.array == w.array) {
            if cross_iteration_overlap(w, r, lid, tasks_hint) != Tri::Disproven {
                return false;
            }
        }
    }
    true
}

fn collect_decl_names<'a>(stmts: &'a [Stmt], out: &mut HashSet<&'a str>) {
    for s in stmts {
        match s {
            Stmt::Decl { name, .. } | Stmt::DeclArr { name, .. } => {
                out.insert(name);
            }
            Stmt::For { var, body, .. } => {
                out.insert(var);
                collect_decl_names(body, out);
            }
            Stmt::If { then, els, .. } => {
                collect_decl_names(then, out);
                collect_decl_names(els, out);
            }
            _ => {}
        }
    }
}

fn writes_shared_scalar(stmts: &[Stmt], private: &HashSet<&str>) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign {
            lhs: LValue::Var(n),
            ..
        } => !private.contains(n.as_str()),
        Stmt::For { body, .. } => writes_shared_scalar(body, private),
        Stmt::If { then, els, .. } => {
            writes_shared_scalar(then, private) || writes_shared_scalar(els, private)
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Conservative recurrence scan (moved from hlsir::analysis)
// ---------------------------------------------------------------------------

/// Detects a loop-carried dependence in a loop body (excluding nested
/// loops, which carry their own). This is the conservative verdict that
/// bounds the estimator's II; it over-approximates (any read of a written
/// array with a matching coefficient counts) and is deliberately unchanged
/// from the historical `hlsir::analysis` scan so estimates stay
/// bit-identical.
pub fn conservative_carried(stmts: &[Stmt], loop_var: &str) -> Option<CarriedDep> {
    // Variables declared in this body are private per iteration.
    let mut private = HashSet::new();
    for s in stmts {
        if let Stmt::Decl { name, .. } | Stmt::DeclArr { name, .. } = s {
            private.insert(name.clone());
        }
    }
    let mut best: Option<CarriedDep> = None;
    scan_carried(stmts, loop_var, &private, &mut best);
    // Second pass: multi-statement recurrences flowing through scalar
    // temporaries (e.g. `h = f(cur[j]); cur[j+1] = h` in a DP wavefront).
    scan_carried_array_transitive(stmts, loop_var, &mut best);
    best
}

/// Per-scalar dataflow info accumulated while walking a loop body.
#[derive(Debug, Clone, Default)]
struct ScalarFlow {
    /// Array reads feeding this value: `(array, index expression)`.
    array_reads: Vec<(String, Expr)>,
    /// Operation chain from the deepest feeding read to this value.
    chain: OpCounts,
}

fn expr_flow(e: &Expr, flows: &std::collections::HashMap<String, ScalarFlow>) -> ScalarFlow {
    let mut out = ScalarFlow::default();
    crate::analysis::count_expr(e, &mut out.chain);
    fn walk(e: &Expr, out: &mut ScalarFlow, flows: &std::collections::HashMap<String, ScalarFlow>) {
        match e {
            Expr::Var(n) => {
                if let Some(f) = flows.get(n) {
                    out.array_reads.extend(f.array_reads.iter().cloned());
                    out.chain += f.chain;
                }
            }
            Expr::Index(n, idx) => {
                out.array_reads.push((n.clone(), idx.as_ref().clone()));
                walk(idx, out, flows);
            }
            Expr::Bin(_, _, a, b) => {
                walk(a, out, flows);
                walk(b, out, flows);
            }
            Expr::Neg(_, a) | Expr::Cast(_, _, a) => walk(a, out, flows),
            Expr::Call(_, _, args) => {
                for a in args {
                    walk(a, out, flows);
                }
            }
            Expr::Select(c, a, b) => {
                walk(c, out, flows);
                walk(a, out, flows);
                walk(b, out, flows);
            }
            Expr::ConstI(_) | Expr::ConstF(_) => {}
        }
    }
    walk(e, &mut out, flows);
    out
}

/// Detects recurrences whose cycle spans multiple statements by chaining
/// scalar definitions: an array write whose value transitively depends on
/// a read of the *same* array at a different (or loop-invariant) index is
/// loop-carried. Multi-statement cycles are conservatively non-reducible.
fn scan_carried_array_transitive(stmts: &[Stmt], loop_var: &str, best: &mut Option<CarriedDep>) {
    use std::collections::HashMap;
    let mut flows: HashMap<String, ScalarFlow> = HashMap::new();
    fn visit(
        stmts: &[Stmt],
        loop_var: &str,
        flows: &mut std::collections::HashMap<String, ScalarFlow>,
        best: &mut Option<CarriedDep>,
    ) {
        for s in stmts {
            match s {
                Stmt::Assign {
                    lhs: LValue::Var(v),
                    rhs,
                } => {
                    let f = expr_flow(rhs, flows);
                    flows.insert(v.clone(), f);
                }
                Stmt::Assign {
                    lhs: LValue::Index(arr, widx),
                    rhs,
                } => {
                    let f = expr_flow(rhs, flows);
                    for (rarr, ridx) in &f.array_reads {
                        if rarr != arr {
                            continue;
                        }
                        let carried = if ridx == widx.as_ref() {
                            // Same element: carried only when the index is
                            // loop-invariant (the cell is reused every
                            // iteration).
                            matches!(linear_coeff(ridx, loop_var), Some(0) | None)
                        } else {
                            true
                        };
                        if carried {
                            let mut chain = f.chain;
                            chain.mem_read += 1;
                            let cand = CarriedDep {
                                via: arr.clone(),
                                chain,
                                reducible: false,
                            };
                            // The single-statement pass already analyzed
                            // a recurrence through this carrier precisely
                            // (including reducibility) — don't override it.
                            let better = match best {
                                None => true,
                                Some(b) if b.via == cand.via => false,
                                Some(b) => chain_weight(&cand.chain) > chain_weight(&b.chain),
                            };
                            if better {
                                *best = Some(cand);
                            }
                        }
                    }
                }
                Stmt::Decl {
                    name,
                    init: Some(e),
                    ..
                } => {
                    let f = expr_flow(e, flows);
                    flows.insert(name.clone(), f);
                }
                Stmt::If { then, els, .. } => {
                    visit(then, loop_var, flows, best);
                    visit(els, loop_var, flows, best);
                }
                _ => {}
            }
        }
    }
    visit(stmts, loop_var, &mut flows, best);
}

fn scan_carried(
    stmts: &[Stmt],
    loop_var: &str,
    private: &HashSet<String>,
    best: &mut Option<CarriedDep>,
) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let cand =
                    match lhs {
                        LValue::Var(n) if !private.contains(n) => carried_through_scalar(n, rhs)
                            .map(|(chain, reducible)| CarriedDep {
                                via: n.clone(),
                                chain,
                                reducible,
                            }),
                        LValue::Index(n, widx) => carried_through_array(n, widx, rhs, loop_var)
                            .map(|(chain, reducible)| CarriedDep {
                                via: n.clone(),
                                chain,
                                reducible,
                            }),
                        _ => None,
                    };
                if let Some(c) = cand {
                    let better = match best {
                        None => true,
                        Some(b) => chain_weight(&c.chain) > chain_weight(&b.chain),
                    };
                    if better {
                        *best = Some(c);
                    }
                }
            }
            Stmt::If { then, els, .. } => {
                scan_carried(then, loop_var, private, best);
                scan_carried(els, loop_var, private, best);
            }
            _ => {}
        }
    }
}

fn chain_weight(c: &OpCounts) -> u32 {
    c.total_arith() + c.total_mem()
}

/// If `rhs` reads scalar `name`, return the op chain from that read to the
/// root and whether the cycle is a pure associative accumulation.
fn carried_through_scalar(name: &str, rhs: &Expr) -> Option<(OpCounts, bool)> {
    let chain = path_ops(rhs, &|e| matches!(e, Expr::Var(n) if n == name))?;
    let reducible = is_assoc_accum(rhs, &|e| matches!(e, Expr::Var(n) if n == name));
    Some((chain, reducible))
}

/// If `rhs` reads `name[...]` at an index offset from the written index
/// along `loop_var` (or at the same index — accumulation), the loop carries
/// a dependence through the array.
fn carried_through_array(
    name: &str,
    widx: &Expr,
    rhs: &Expr,
    loop_var: &str,
) -> Option<(OpCounts, bool)> {
    let w_coeff = linear_coeff(widx, loop_var);
    let matcher = |e: &Expr| -> bool {
        if let Expr::Index(n, ridx) = e {
            if n == name {
                match (w_coeff, linear_coeff(ridx, loop_var)) {
                    // Same stride in the loop var: same element is touched
                    // either this iteration (offset) or every iteration
                    // (coeff 0) — a genuine carried dependence unless the
                    // constant offsets provably differ with equal coeffs
                    // (forward-only). We stay conservative: any read of the
                    // written array with matching coefficient counts.
                    (Some(a), Some(b)) => a == b || a == 0 || b == 0,
                    _ => true, // irregular: assume carried
                }
            } else {
                false
            }
        } else {
            false
        }
    };
    let chain = path_ops(rhs, &matcher)?;
    let reducible = is_assoc_accum(rhs, &matcher);
    Some((chain, reducible))
}

/// Ops on the path from a leaf matching `is_carrier` to the root of `e`
/// (the recurrence cycle), or `None` if no leaf matches.
fn path_ops(e: &Expr, is_carrier: &dyn Fn(&Expr) -> bool) -> Option<OpCounts> {
    if is_carrier(e) {
        return Some(OpCounts::new());
    }
    match e {
        Expr::ConstI(_) | Expr::ConstF(_) | Expr::Var(_) => None,
        Expr::Index(_, idx) => {
            let mut c = path_ops(idx, is_carrier)?;
            c.mem_read += 1;
            Some(c)
        }
        Expr::Bin(op, kind, a, b) => {
            let hit = path_ops(a, is_carrier).or_else(|| path_ops(b, is_carrier))?;
            let mut c = hit;
            c.record_bin(*op, *kind);
            Some(c)
        }
        Expr::Neg(kind, a) => {
            let mut c = path_ops(a, is_carrier)?;
            if kind.is_float() {
                c.fadd += 1;
            } else {
                c.int_alu += 1;
            }
            Some(c)
        }
        Expr::Call(f, kind, args) => {
            let hit = args.iter().find_map(|a| path_ops(a, is_carrier))?;
            let mut c = hit;
            c.record_call(*f, *kind);
            Some(c)
        }
        Expr::Cast(_, _, a) => path_ops(a, is_carrier),
        Expr::Select(cnd, a, b) => {
            let hit = path_ops(cnd, is_carrier)
                .or_else(|| path_ops(a, is_carrier))
                .or_else(|| path_ops(b, is_carrier))?;
            let mut c = hit;
            c.int_alu += 1;
            Some(c)
        }
    }
}

/// True if `e` is `carrier + f(...)` / `f(...) + carrier` (or `min`/`max`
/// of the carrier) — the associative patterns tree reduction can rewrite.
fn is_assoc_accum(e: &Expr, is_carrier: &dyn Fn(&Expr) -> bool) -> bool {
    match e {
        Expr::Bin(CBinOp::Add, _, a, b) => {
            (is_carrier(a) && path_ops(b, is_carrier).is_none())
                || (is_carrier(b) && path_ops(a, is_carrier).is_none())
        }
        Expr::Call(CIntrinsic::Min | CIntrinsic::Max, _, args) => {
            args.len() == 2
                && ((is_carrier(&args[0]) && path_ops(&args[1], is_carrier).is_none())
                    || (is_carrier(&args[1]) && path_ops(&args[0], is_carrier).is_none()))
        }
        _ => false,
    }
}

/// Linear coefficient of `var` in `e`, if `e` is affine in it.
pub fn linear_coeff(e: &Expr, var: &str) -> Option<i64> {
    match e {
        Expr::ConstI(_) => Some(0),
        Expr::Var(n) => Some(if n == var { 1 } else { 0 }),
        Expr::Bin(op, _, a, b) => {
            let ca = linear_coeff(a, var)?;
            let cb = linear_coeff(b, var)?;
            match op {
                CBinOp::Add => Some(ca + cb),
                CBinOp::Sub => Some(ca - cb),
                CBinOp::Mul => {
                    // affine only if one side is var-free
                    if ca == 0 && cb == 0 {
                        Some(0)
                    } else if ca == 0 {
                        const_value(a).map(|k| k * cb)
                    } else if cb == 0 {
                        const_value(b).map(|k| k * ca)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        Expr::Cast(_, _, a) => linear_coeff(a, var),
        _ => None,
    }
}

/// Constant value of a var-free expression, when trivially foldable.
pub fn const_value(e: &Expr) -> Option<i64> {
    match e {
        Expr::ConstI(v) => Some(*v),
        Expr::Bin(op, _, a, b) => {
            let x = const_value(a)?;
            let y = const_value(b)?;
            match op {
                CBinOp::Add => Some(x + y),
                CBinOp::Sub => Some(x - y),
                CBinOp::Mul => Some(x * y),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CFunction, LoopAttrs};
    use crate::index::KernelIndex;
    use proptest::prelude::*;

    /// [`search`] with every variable enumerated, the last one included:
    /// the reference for its closed-form last level.
    fn enumerate(
        terms: &[VarSpec],
        acc: i64,
        neq: &[(usize, usize)],
        budget: &mut u64,
        vals: &mut Vec<i64>,
    ) -> Option<bool> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let i = vals.len();
        if i == terms.len() {
            return Some(acc == 0 && neq.iter().all(|&(a, b)| vals[a] != vals[b]));
        }
        let rest = &terms[i..];
        let lo: i64 = rest
            .iter()
            .map(|t| (t.coeff * t.lo).min(t.coeff * t.hi))
            .sum();
        let hi: i64 = rest
            .iter()
            .map(|t| (t.coeff * t.lo).max(t.coeff * t.hi))
            .sum();
        if acc + lo > 0 || acc + hi < 0 {
            return Some(false);
        }
        let t = terms[i];
        for v in (t.lo..=t.hi).filter(|&v| !(t.nonzero && v == 0)) {
            vals.push(v);
            let found = enumerate(terms, acc + t.coeff * v, neq, budget, vals);
            vals.pop();
            if found != Some(false) {
                return found;
            }
        }
        Some(false)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // The closed-form last level keeps the full enumeration's verdict,
        // including where the budget runs out (`Unknown`), which depends
        // on every level spending the same budget.
        #[test]
        fn closed_form_last_level_matches_enumeration(
            specs in proptest::collection::vec(
                (-3i64..=3, -4i64..=2, 0i64..=6, any::<bool>()),
                1..5,
            ),
            c in -8i64..=8,
            with_neq in any::<bool>(),
            budget in 1u64..=80,
        ) {
            let terms: Vec<VarSpec> = specs
                .iter()
                .map(|&(coeff, lo, width, nonzero)| VarSpec {
                    coeff,
                    lo,
                    hi: lo + width,
                    nonzero,
                })
                .collect();
            let neq = if with_neq && terms.len() >= 2 {
                vec![(0, terms.len() - 1)]
            } else {
                Vec::new()
            };
            let mut left = budget;
            let reference = match enumerate(&terms, c, &neq, &mut left, &mut Vec::new()) {
                Some(true) => Tri::Proven,
                Some(false) => Tri::Disproven,
                None => Tri::Unknown,
            };
            prop_assert_eq!(search(&terms, c, &neq, budget), reference);
        }
    }

    fn kernel(body: &[Stmt]) -> CFunction {
        CFunction {
            name: "k".into(),
            params: vec![],
            body: body.to_vec(),
        }
    }

    fn idx_write(arr: &str, idx: Expr, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Index(arr.into(), Box::new(idx)),
            rhs,
        }
    }

    fn for_loop(id: u32, var: &str, trip: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            id: LoopId(id),
            var: var.into(),
            bound: Expr::ConstI(trip as i64),
            trip_count: Some(trip),
            attrs: LoopAttrs::none(),
            body,
        }
    }

    /// The body of the loop `lid` somewhere under `stmts`.
    fn body_of(stmts: &[Stmt], lid: LoopId) -> &[Stmt] {
        fn walk(stmts: &[Stmt], lid: LoopId) -> Option<&[Stmt]> {
            for s in stmts {
                match s {
                    Stmt::For { id, body, .. } => {
                        if *id == lid {
                            return Some(body);
                        }
                        if let Some(b) = walk(body, lid) {
                            return Some(b);
                        }
                    }
                    Stmt::If { then, els, .. } => {
                        if let Some(b) = walk(then, lid).or_else(|| walk(els, lid)) {
                            return Some(b);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        walk(stmts, lid).expect("loop present")
    }

    /// `find_write_race` with the loop body located for the caller.
    fn find_race(sites: &[AccessSite<'_>], stmts: &[Stmt], lid: LoopId) -> Option<RaceFinding> {
        find_write_race(sites, body_of(stmts, lid), lid, 64)
    }

    #[test]
    fn affine_form_extraction() {
        // 8*t + j + 3
        let e = Expr::iadd(
            Expr::iadd(Expr::imul(Expr::var("t"), Expr::ConstI(8)), Expr::var("j")),
            Expr::ConstI(3),
        );
        let f = affine_form(&e).unwrap();
        assert_eq!(f.coeff("t"), 8);
        assert_eq!(f.coeff("j"), 1);
        assert_eq!(f.offset, 3);
        // t * j is not affine
        assert!(affine_form(&Expr::imul(Expr::var("t"), Expr::var("j"))).is_none());
    }

    #[test]
    fn unit_stride_writes_do_not_race() {
        // for i in 0..16 { a[i] = i }
        let body = vec![for_loop(
            0,
            "i",
            16,
            vec![idx_write("a", Expr::var("i"), Expr::var("i"))],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        assert!(find_race(&sites, &body, LoopId(0)).is_none());
    }

    #[test]
    fn constant_index_write_races() {
        // for i in 0..16 { a[0] = i } — every iteration writes a[0].
        let body = vec![for_loop(
            0,
            "i",
            16,
            vec![idx_write("a", Expr::ConstI(0), Expr::var("i"))],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        let race = find_race(&sites, &body, LoopId(0)).expect("race");
        assert_eq!(race.array, "a");
        assert_eq!(race.stmt_a, race.stmt_b);
    }

    #[test]
    fn rmw_accumulation_is_not_a_race() {
        // for i { a[0] = a[0] + 1 } — a carried flow dep, not a race.
        let body = vec![for_loop(
            0,
            "i",
            16,
            vec![idx_write(
                "a",
                Expr::ConstI(0),
                Expr::iadd(Expr::index("a", Expr::ConstI(0)), Expr::ConstI(1)),
            )],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        assert!(find_race(&sites, &body, LoopId(0)).is_none());
        // ... but it is not replication-safe either (write-read overlap).
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(!replication_safe(&sites, inner, LoopId(0), 64));
    }

    #[test]
    fn strided_cross_statement_race_is_proven() {
        // for i in 0..8 { a[2*i] = ...; a[i+4] = ... } — i=4 writes a[8]
        // and i'=2 writes a[8]? 2*4=8, 2+... i'=4: a[4+4]=a[8]; need two
        // *different* iterations: 2*i == i'+4 with i != i' → i=3, i'=2.
        let body = vec![for_loop(
            0,
            "i",
            8,
            vec![
                idx_write(
                    "a",
                    Expr::imul(Expr::var("i"), Expr::ConstI(2)),
                    Expr::ConstI(1),
                ),
                idx_write(
                    "a",
                    Expr::iadd(Expr::var("i"), Expr::ConstI(4)),
                    Expr::ConstI(2),
                ),
            ],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        let race = find_race(&sites, &body, LoopId(0)).expect("race");
        assert_eq!(race.array, "a");
        assert_ne!(race.stmt_a, race.stmt_b);
    }

    #[test]
    fn disjoint_strided_writes_cleared_by_gcd() {
        // for i { a[2*i] = ..; a[2*i + 1] = .. } — evens vs odds never
        // collide; the self pairs have stride 2 ≠ 0.
        let body = vec![for_loop(
            0,
            "i",
            16,
            vec![
                idx_write(
                    "a",
                    Expr::imul(Expr::var("i"), Expr::ConstI(2)),
                    Expr::ConstI(1),
                ),
                idx_write(
                    "a",
                    Expr::iadd(Expr::imul(Expr::var("i"), Expr::ConstI(2)), Expr::ConstI(1)),
                    Expr::ConstI(2),
                ),
            ],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        assert!(find_race(&sites, &body, LoopId(0)).is_none());
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(replication_safe(&sites, inner, LoopId(0), 64));
    }

    #[test]
    fn inner_loop_overlap_detected_across_outer_iterations() {
        // for i in 0..4 { for j in 0..8 { a[i + j] = .. } } — outer
        // iterations overlap (i=0,j=1 and i=1,j=0 both write a[1]).
        let body = vec![for_loop(
            0,
            "i",
            4,
            vec![for_loop(
                1,
                "j",
                8,
                vec![idx_write(
                    "a",
                    Expr::iadd(Expr::var("i"), Expr::var("j")),
                    Expr::ConstI(1),
                )],
            )],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        let race = find_race(&sites, &body, LoopId(0)).expect("outer race");
        assert_eq!(race.array, "a");
        // The inner loop alone is race-free (i fixed, j unit stride).
        assert!(find_race(&sites, &body, LoopId(1)).is_none());
    }

    #[test]
    fn blocked_writes_are_disjoint_across_outer_iterations() {
        // for i in 0..4 { for j in 0..8 { a[8*i + j] = .. } } — classic
        // blocked layout, provably disjoint.
        let body = vec![for_loop(
            0,
            "i",
            4,
            vec![for_loop(
                1,
                "j",
                8,
                vec![idx_write(
                    "a",
                    Expr::iadd(Expr::imul(Expr::var("i"), Expr::ConstI(8)), Expr::var("j")),
                    Expr::ConstI(1),
                )],
            )],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        assert!(find_race(&sites, &body, LoopId(0)).is_none());
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(replication_safe(&sites, inner, LoopId(0), 64));
    }

    #[test]
    fn conditional_write_cannot_prove_a_race() {
        // for i { if (c) { a[0] = i } } — a real hazard at runtime, but
        // never *proven* (the write may not execute); it still blocks
        // replication clearance.
        let body = vec![for_loop(
            0,
            "i",
            16,
            vec![Stmt::If {
                cond: Expr::var("c"),
                then: vec![idx_write("a", Expr::ConstI(0), Expr::var("i"))],
                els: vec![],
            }],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        assert!(find_race(&sites, &body, LoopId(0)).is_none());
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(!replication_safe(&sites, inner, LoopId(0), 64));
    }

    #[test]
    fn shared_scalar_write_blocks_replication() {
        // for i { s = s + 1 } with s declared outside.
        let body = vec![for_loop(
            0,
            "i",
            8,
            vec![Stmt::Assign {
                lhs: LValue::Var("s".into()),
                rhs: Expr::iadd(Expr::var("s"), Expr::ConstI(1)),
            }],
        )];
        let f = kernel(&body);
        let sites = KernelIndex::build(&f).sites;
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(!replication_safe(&sites, inner, LoopId(0), 64));
    }
}
