//! Control-flow graph lowered from the structured HLS C AST.
//!
//! The AST is fully structured (counted `for` loops and two-armed `if`s,
//! no `goto`/`break`), so the lowering is deterministic: every statement
//! receives a stable [`StmtId`] in source pre-order (compound statements
//! are numbered before their children), loops become a header block with a
//! back edge from the end of the body, and branches become a diamond.
//! [`KernelIndex`] numbers statements the same way, and the lint attaches
//! those ids to diagnostic spans; `tests/dataflow_prop.rs` checks that
//! every access site's statement, loop path and branch flag match the
//! CFG's, on random kernels and on the workloads before and after their
//! structural transforms.
//!
//! The CFG takes each loop's static trip count, each local array's length
//! and each array's representation from the [`KernelIndex`]. The variable
//! universe is interned ([`VarTable`]): scalars map to one [`VarId`] each,
//! and local arrays are either *element-resolved*
//! (every access in the function uses a compile-time-constant index, so
//! each element `a[k]` is its own variable with must-def semantics) or
//! *summarized* as a single whole-array variable whose writes are may-defs
//! (they never kill). Interface buffers are always summarized and are
//! defined at entry, so reads from them can never look uninitialized.

use crate::ast::{Expr, LValue, LoopId, ParamKind, Stmt};
use crate::index::KernelIndex;
use std::collections::{BTreeMap, HashMap};

/// Stable statement id: the statement's index in a source pre-order walk
/// of the function body (compound statements before their children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl std::fmt::Display for StmtId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Basic-block id (index into [`Cfg::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Interned variable id (index into [`VarTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// How an array participates in the dataflow variable universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayMode {
    /// Every access uses a constant index: one variable per element,
    /// writes are must-defs.
    PerElement,
    /// At least one non-constant index: one whole-array variable, writes
    /// are may-defs (they never kill a prior definition).
    Whole,
}

/// What an interned variable denotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarKind {
    /// A scalar (local, parameter, or induction variable).
    Scalar,
    /// One element of an element-resolved local array.
    Element {
        /// Array name.
        array: String,
        /// Element index.
        index: u32,
    },
    /// The summarized whole-array variable of an array.
    WholeArray {
        /// Array name.
        array: String,
    },
}

/// The interned variable universe of one function.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<(String, VarKind)>,
    index: HashMap<String, VarId>,
}

impl VarTable {
    /// Interns the variable displayed as `key`; `kind` is built, and the
    /// key copied, only the first time the key is seen.
    fn intern(&mut self, key: &str, kind: impl FnOnce() -> VarKind) -> VarId {
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let id = VarId(self.names.len() as u32);
        self.index.insert(key.to_string(), id);
        self.names.push((key.to_string(), kind()));
        id
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variable was interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Display name of a variable (`x`, `a[3]`, or `a[*]`).
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.0 as usize].0
    }

    /// What the variable denotes.
    pub fn kind(&self, id: VarId) -> &VarKind {
        &self.names[id.0 as usize].1
    }

    /// Looks up a variable by display name (a scalar's name, `a[3]`, or
    /// `a[*]`).
    pub fn scalar(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }
}

/// Statement classification inside the CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `Stmt::Decl` — scalar declaration.
    Decl,
    /// `Stmt::DeclArr` — local array declaration.
    DeclArr,
    /// `Stmt::Assign`.
    Assign,
    /// The header of a `for` loop: defines the induction variable, uses
    /// the bound.
    LoopHeader(LoopId),
    /// The condition of an `if`: uses only.
    Branch,
}

/// Per-statement dataflow facts extracted during lowering.
#[derive(Debug, Clone)]
pub struct StmtInfo {
    /// Classification.
    pub kind: StmtKind,
    /// Block the statement lives in.
    pub block: BlockId,
    /// Enclosing loops, outermost first.
    pub loop_path: Vec<LoopId>,
    /// True when the statement sits under at least one `if` arm.
    pub in_branch: bool,
    /// Variables this statement must-defines (kills other defs).
    pub defs: Vec<VarId>,
    /// Variables this statement may-define (whole-array writes; gen
    /// without kill).
    pub may_defs: Vec<VarId>,
    /// Variables this statement reads.
    pub uses: Vec<VarId>,
    /// True when the definition carries no value (`Decl` without an
    /// initializer, or a `DeclArr`): reads reached only by such defs are
    /// uninitialized reads.
    pub uninit: bool,
}

/// One basic block: straight-line statements plus edges.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in execution order (loop headers and branch conditions
    /// terminate their block).
    pub stmts: Vec<StmtId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
}

/// The control-flow graph of one kernel function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks; `blocks[0]` is the entry. Blocks are created in
    /// program order, so iterating in index order approximates reverse
    /// post-order for the forward analyses.
    pub blocks: Vec<Block>,
    /// Per-statement facts, indexed by [`StmtId`].
    pub stmts: Vec<StmtInfo>,
    /// The interned variable universe.
    pub vars: VarTable,
    /// Entry block (always `BlockId(0)`).
    pub entry: BlockId,
    /// Exit block (no successors).
    pub exit: BlockId,
    /// Static trip count per loop; `None` for the runtime-bounded task
    /// loop (it executes `n >= 1` times per batch by contract).
    pub loop_trips: BTreeMap<LoopId, Option<u32>>,
    /// Variables defined at function entry (parameters and interface
    /// buffers), never uninitialized.
    pub entry_defs: Vec<VarId>,
    /// Variables live at function exit (output-buffer summaries and
    /// elements).
    pub exit_live: Vec<VarId>,
    /// Representation chosen per array (locals and interface buffers).
    pub array_modes: BTreeMap<String, ArrayMode>,
    /// Declared length per local array.
    pub local_lens: BTreeMap<String, u32>,
}

/// Arrays with more constant-indexed elements than this are summarized
/// even when every index is constant (bounds the bitset width).
const MAX_ELEMENT_RESOLVED: u32 = 256;

impl Cfg {
    /// Lowers the indexed function to a CFG. Array modes, local lengths
    /// and loop trips come from the index.
    pub fn build(index: &KernelIndex<'_>) -> Cfg {
        let f = index.function;
        let mut b = Builder::new(index);
        b.lower(&f.body);
        b.finish()
    }

    /// True when the statement provably executes on every kernel run: it
    /// is not under an `if`, and every enclosing loop has a static trip
    /// count of at least one — or is the runtime-bounded task loop, which
    /// executes at least once per batch by contract.
    pub fn provably_executes(&self, id: StmtId) -> bool {
        let si = &self.stmts[id.0 as usize];
        !si.in_branch
            && si.loop_path.iter().all(|l| {
                self.loop_trips
                    .get(l)
                    .is_none_or(|t| t.is_none_or(|t| t >= 1))
            })
    }

    /// The statement's info.
    pub fn stmt(&self, id: StmtId) -> &StmtInfo {
        &self.stmts[id.0 as usize]
    }

    /// Number of statements.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }
}

struct Builder {
    blocks: Vec<Block>,
    stmts: Vec<StmtInfo>,
    vars: VarTable,
    loop_trips: BTreeMap<LoopId, Option<u32>>,
    array_modes: BTreeMap<String, ArrayMode>,
    local_lens: BTreeMap<String, u32>,
    entry_defs: Vec<VarId>,
    exit_live: Vec<VarId>,
    cur: BlockId,
    loop_path: Vec<LoopId>,
    branch_depth: u32,
    /// Reused buffer for array-variable display names, so interning an
    /// already-seen element or summary allocates nothing.
    key: String,
}

impl Builder {
    fn new(index: &KernelIndex<'_>) -> Builder {
        let f = index.function;
        // Interface buffers are summarized: their extent is per batch, not
        // statically resolvable per element.
        let mut array_modes: BTreeMap<String, ArrayMode> = f
            .buffers()
            .map(|p| (p.name.clone(), ArrayMode::Whole))
            .collect();
        let mut local_lens = BTreeMap::new();
        for a in &index.local_arrays {
            local_lens.insert(a.name.to_string(), a.len);
            let mode = if a.len <= MAX_ELEMENT_RESOLVED {
                ArrayMode::PerElement
            } else {
                ArrayMode::Whole
            };
            array_modes.entry(a.name.to_string()).or_insert(mode);
        }
        // One dynamic index demotes the whole array to summarized.
        for site in &index.sites {
            if super::depend::const_value(site.index).is_none() {
                match array_modes.get_mut(site.array) {
                    Some(mode) => *mode = ArrayMode::Whole,
                    None => {
                        array_modes.insert(site.array.to_string(), ArrayMode::Whole);
                    }
                }
            }
        }
        let mut b = Builder {
            blocks: vec![Block::default()],
            stmts: Vec::new(),
            vars: VarTable::default(),
            loop_trips: index.loops.iter().map(|l| (l.id, l.trip)).collect(),
            array_modes,
            local_lens,
            entry_defs: Vec::new(),
            exit_live: Vec::new(),
            cur: BlockId(0),
            loop_path: Vec::new(),
            branch_depth: 0,
            key: String::new(),
        };
        for p in &f.params {
            match p.kind {
                ParamKind::ScalarIn => {
                    let v = b.scalar(&p.name);
                    b.entry_defs.push(v);
                }
                ParamKind::BufIn | ParamKind::BufOut => {
                    let v = b.whole(&p.name);
                    b.entry_defs.push(v);
                    if p.kind == ParamKind::BufOut {
                        b.exit_live.push(v);
                    }
                }
            }
        }
        b
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        id
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        self.blocks[from.0 as usize].succs.push(to);
        self.blocks[to.0 as usize].preds.push(from);
    }

    fn scalar(&mut self, name: &str) -> VarId {
        self.vars.intern(name, || VarKind::Scalar)
    }

    /// Element `k` of an element-resolved array.
    fn element(&mut self, array: &str, k: u32) -> VarId {
        use std::fmt::Write;
        self.key.clear();
        let _ = write!(self.key, "{array}[{k}]");
        self.vars.intern(&self.key, || VarKind::Element {
            array: array.to_string(),
            index: k,
        })
    }

    /// The summarized whole-array variable of `array`.
    fn whole(&mut self, array: &str) -> VarId {
        self.key.clear();
        self.key.push_str(array);
        self.key.push_str("[*]");
        self.vars.intern(&self.key, || VarKind::WholeArray {
            array: array.to_string(),
        })
    }

    /// Interns the variable(s) a read of `name[idx]` touches and appends
    /// them to `uses`.
    fn use_index(&mut self, name: &str, idx: &Expr, uses: &mut Vec<VarId>) {
        match self.array_modes.get(name) {
            Some(ArrayMode::PerElement) => {
                if let Some(k) = super::depend::const_value(idx) {
                    if k >= 0 {
                        uses.push(self.element(name, k as u32));
                    }
                }
            }
            _ => uses.push(self.whole(name)),
        }
    }

    fn uses_of_expr(&mut self, e: &Expr, uses: &mut Vec<VarId>) {
        match e {
            Expr::ConstI(_) | Expr::ConstF(_) => {}
            Expr::Var(n) => uses.push(self.scalar(n)),
            Expr::Index(name, idx) => {
                self.use_index(name, idx, uses);
                self.uses_of_expr(idx, uses);
            }
            Expr::Bin(_, _, a, b) => {
                self.uses_of_expr(a, uses);
                self.uses_of_expr(b, uses);
            }
            Expr::Neg(_, a) | Expr::Cast(_, _, a) => self.uses_of_expr(a, uses),
            Expr::Call(_, _, args) => args.iter().for_each(|a| self.uses_of_expr(a, uses)),
            Expr::Select(c, a, b) => {
                self.uses_of_expr(c, uses);
                self.uses_of_expr(a, uses);
                self.uses_of_expr(b, uses);
            }
        }
    }

    fn push_stmt(
        &mut self,
        kind: StmtKind,
        defs: Vec<VarId>,
        may: Vec<VarId>,
        uses: Vec<VarId>,
        uninit: bool,
    ) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(StmtInfo {
            kind,
            block: self.cur,
            loop_path: self.loop_path.clone(),
            in_branch: self.branch_depth > 0,
            defs,
            may_defs: may,
            uses,
            uninit,
        });
        self.blocks[self.cur.0 as usize].stmts.push(id);
        id
    }

    fn lower(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Decl { name, init, .. } => {
                    let mut uses = Vec::new();
                    if let Some(e) = init {
                        self.uses_of_expr(e, &mut uses);
                    }
                    let v = self.scalar(name);
                    self.push_stmt(StmtKind::Decl, vec![v], Vec::new(), uses, init.is_none());
                }
                Stmt::DeclArr { name, len, .. } => {
                    let defs = match self.array_modes.get(name) {
                        Some(ArrayMode::PerElement) => {
                            (0..*len).map(|k| self.element(name, k)).collect()
                        }
                        _ => vec![self.whole(name)],
                    };
                    self.push_stmt(StmtKind::DeclArr, defs, Vec::new(), Vec::new(), true);
                }
                Stmt::Assign { lhs, rhs } => {
                    let mut uses = Vec::new();
                    self.uses_of_expr(rhs, &mut uses);
                    let (defs, may) = match lhs {
                        LValue::Var(n) => (vec![self.scalar(n)], Vec::new()),
                        LValue::Index(name, idx) => {
                            self.uses_of_expr(idx, &mut uses);
                            match self.array_modes.get(name) {
                                Some(ArrayMode::PerElement) => {
                                    match super::depend::const_value(idx) {
                                        Some(k) if k >= 0 => {
                                            (vec![self.element(name, k as u32)], Vec::new())
                                        }
                                        // Unreachable by mode construction;
                                        // stay safe anyway.
                                        _ => (Vec::new(), Vec::new()),
                                    }
                                }
                                _ => (Vec::new(), vec![self.whole(name)]),
                            }
                        }
                    };
                    self.push_stmt(StmtKind::Assign, defs, may, uses, false);
                }
                Stmt::For {
                    id,
                    var,
                    bound,
                    body,
                    ..
                } => {
                    let header = self.new_block();
                    self.edge(self.cur, header);
                    self.cur = header;
                    let mut uses = Vec::new();
                    self.uses_of_expr(bound, &mut uses);
                    let iv = self.scalar(var);
                    self.push_stmt(StmtKind::LoopHeader(*id), vec![iv], Vec::new(), uses, false);

                    let body_entry = self.new_block();
                    self.edge(header, body_entry);
                    self.cur = body_entry;
                    self.loop_path.push(*id);
                    self.lower(body);
                    self.loop_path.pop();
                    // Back edge from wherever the body ended to the header.
                    self.edge(self.cur, header);

                    let after = self.new_block();
                    self.edge(header, after);
                    self.cur = after;
                }
                Stmt::If { cond, then, els } => {
                    let mut uses = Vec::new();
                    self.uses_of_expr(cond, &mut uses);
                    self.push_stmt(StmtKind::Branch, Vec::new(), Vec::new(), uses, false);
                    let branch_block = self.cur;

                    let then_entry = self.new_block();
                    let els_entry = self.new_block();
                    let join = self.new_block();
                    self.edge(branch_block, then_entry);
                    self.edge(branch_block, els_entry);

                    self.branch_depth += 1;
                    self.cur = then_entry;
                    self.lower(then);
                    self.edge(self.cur, join);
                    self.cur = els_entry;
                    self.lower(els);
                    self.edge(self.cur, join);
                    self.branch_depth -= 1;
                    self.cur = join;
                }
            }
        }
    }

    fn finish(mut self) -> Cfg {
        // Output elements of element-resolved arrays never exist (outputs
        // are interface buffers, always summarized); exit_live was filled
        // from the parameter list.
        let exit = self.cur;
        // Reads of element-resolved arrays may have interned element vars
        // lazily; nothing else to fix up.
        let exit_live = std::mem::take(&mut self.exit_live);
        Cfg {
            blocks: self.blocks,
            stmts: self.stmts,
            vars: self.vars,
            entry: BlockId(0),
            exit,
            loop_trips: self.loop_trips,
            entry_defs: self.entry_defs,
            exit_live,
            array_modes: self.array_modes,
            local_lens: self.local_lens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::index::KernelIndex;

    /// `for i in 0..4 { if (c) { x = 1 } else { x = 2 } }`
    fn branchy() -> CFunction {
        CFunction {
            name: "k".into(),
            params: vec![Param {
                name: "c".into(),
                ty: CType::Int(32),
                kind: ParamKind::ScalarIn,
                elems_per_task: None,
                broadcast: false,
            }],
            body: vec![
                Stmt::Decl {
                    name: "x".into(),
                    ty: CType::Int(32),
                    init: None,
                },
                Stmt::counted_for(
                    LoopId(0),
                    "i",
                    4,
                    vec![Stmt::If {
                        cond: Expr::var("c"),
                        then: vec![Stmt::Assign {
                            lhs: LValue::Var("x".into()),
                            rhs: Expr::ConstI(1),
                        }],
                        els: vec![Stmt::Assign {
                            lhs: LValue::Var("x".into()),
                            rhs: Expr::ConstI(2),
                        }],
                    }],
                ),
            ],
        }
    }

    #[test]
    fn preorder_ids_and_structure() {
        let cfg = Cfg::build(&KernelIndex::build(&branchy()));
        // s0 = decl x, s1 = loop header, s2 = branch, s3 = then-assign,
        // s4 = else-assign.
        assert_eq!(cfg.stmt_count(), 5);
        assert_eq!(cfg.stmt(StmtId(1)).kind, StmtKind::LoopHeader(LoopId(0)));
        assert_eq!(cfg.stmt(StmtId(2)).kind, StmtKind::Branch);
        assert!(cfg.stmt(StmtId(3)).in_branch);
        assert!(cfg.stmt(StmtId(4)).in_branch);
        assert_eq!(cfg.stmt(StmtId(3)).loop_path, vec![LoopId(0)]);
        assert!(!cfg.stmt(StmtId(0)).in_branch);
    }

    #[test]
    fn loop_has_back_edge() {
        let cfg = Cfg::build(&KernelIndex::build(&branchy()));
        let header = cfg.stmt(StmtId(1)).block;
        // The header has two predecessors: the entry path and the back
        // edge from the body's join block.
        assert_eq!(cfg.blocks[header.0 as usize].preds.len(), 2);
        // And two successors: the body entry and the after block.
        assert_eq!(cfg.blocks[header.0 as usize].succs.len(), 2);
    }

    #[test]
    fn provably_executes_respects_branches_and_trips() {
        let cfg = Cfg::build(&KernelIndex::build(&branchy()));
        assert!(cfg.provably_executes(StmtId(0)));
        assert!(cfg.provably_executes(StmtId(2))); // the branch condition itself
        assert!(!cfg.provably_executes(StmtId(3))); // then-arm
        let mut f = branchy();
        if let Some(Stmt::For { trip_count, .. }) = f.body.get_mut(1) {
            *trip_count = Some(0);
        }
        let cfg = Cfg::build(&KernelIndex::build(&f));
        assert!(!cfg.provably_executes(StmtId(2)));
    }

    #[test]
    fn array_modes_follow_index_shape() {
        let f = CFunction {
            name: "k".into(),
            params: vec![],
            body: vec![
                Stmt::DeclArr {
                    name: "cst".into(),
                    ty: CType::Float,
                    len: 4,
                },
                Stmt::DeclArr {
                    name: "dyn".into(),
                    ty: CType::Float,
                    len: 4,
                },
                Stmt::Assign {
                    lhs: LValue::Index("cst".into(), Box::new(Expr::ConstI(1))),
                    rhs: Expr::ConstF(0.0),
                },
                Stmt::counted_for(
                    LoopId(0),
                    "i",
                    4,
                    vec![Stmt::Assign {
                        lhs: LValue::Index("dyn".into(), Box::new(Expr::var("i"))),
                        rhs: Expr::ConstF(0.0),
                    }],
                ),
            ],
        };
        let cfg = Cfg::build(&KernelIndex::build(&f));
        assert_eq!(cfg.array_modes["cst"], ArrayMode::PerElement);
        assert_eq!(cfg.array_modes["dyn"], ArrayMode::Whole);
        // The per-element write is a must-def of cst[1]; the dynamic write
        // is a may-def of dyn[*].
        let w_cst = cfg.stmt(StmtId(2));
        assert_eq!(w_cst.defs.len(), 1);
        assert_eq!(cfg.vars.name(w_cst.defs[0]), "cst[1]");
        let w_dyn = cfg.stmt(StmtId(4));
        assert!(w_dyn.defs.is_empty());
        assert_eq!(cfg.vars.name(w_dyn.may_defs[0]), "dyn[*]");
    }
}
