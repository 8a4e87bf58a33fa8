//! The HLS C abstract syntax tree.
//!
//! The AST is deliberately restricted to the subset an HLS frontend accepts
//! from S2FA's code generator: `for` loops counting from 0 to a bound,
//! constant-size local arrays, flat pointer parameters, and expressions
//! over numeric scalars. Loops carry a stable [`LoopId`] and a mutable
//! [`LoopAttrs`] record — the handle through which the Merlin-style
//! transformations and HLS pragmas are applied.

use std::fmt;

/// Scalar C types used on the accelerator interface and in kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CType {
    /// Signed integer of 8, 16, 32 or 64 bits.
    Int(u16),
    /// Unsigned integer of 8, 16, 32 or 64 bits.
    UInt(u16),
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE float.
    Double,
}

impl CType {
    /// Bit width of the type.
    pub fn bits(self) -> u32 {
        match self {
            CType::Int(b) | CType::UInt(b) => b as u32,
            CType::Float => 32,
            CType::Double => 64,
        }
    }

    /// True for `Float`/`Double`.
    pub fn is_float(self) -> bool {
        matches!(self, CType::Float | CType::Double)
    }

    /// The C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            CType::Int(8) => "char",
            CType::Int(16) => "short",
            CType::Int(32) => "int",
            CType::Int(64) => "long long",
            CType::UInt(8) => "unsigned char",
            CType::UInt(16) => "unsigned short",
            CType::UInt(32) => "unsigned int",
            CType::UInt(64) => "unsigned long long",
            CType::Float => "float",
            CType::Double => "double",
            CType::Int(_) | CType::UInt(_) => "int",
        }
    }

    /// The numeric evaluation kind of this type.
    pub fn num_kind(self) -> CNumKind {
        match self {
            CType::Float => CNumKind::F32,
            CType::Double => CNumKind::F64,
            CType::Int(64) | CType::UInt(64) => CNumKind::I64,
            _ => CNumKind::I32,
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.c_name())
    }
}

/// Numeric evaluation kind attached to arithmetic nodes; determines the
/// wrap/rounding semantics (mirrors `s2fa-sjvm`'s `NumKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CNumKind {
    /// 32-bit wrapping integer arithmetic.
    I32,
    /// 64-bit wrapping integer arithmetic.
    I64,
    /// `float` arithmetic (rounds through f32).
    F32,
    /// `double` arithmetic.
    F64,
}

impl CNumKind {
    /// True for floating kinds.
    pub fn is_float(self) -> bool {
        matches!(self, CNumKind::F32 | CNumKind::F64)
    }

    /// Bit width of values of this kind.
    pub fn bits(self) -> u32 {
        match self {
            CNumKind::I32 | CNumKind::F32 => 32,
            CNumKind::I64 | CNumKind::F64 => 64,
        }
    }
}

/// Binary operators (comparisons produce a 0/1 `I32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CBinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Remainder `%`.
    Rem,
    /// Shift left `<<`.
    Shl,
    /// Arithmetic shift right `>>`.
    Shr,
    /// Logical shift right (`>>>` in Java).
    UShr,
    /// Bitwise and `&`.
    And,
    /// Bitwise or `|`.
    Or,
    /// Bitwise xor `^`.
    Xor,
    /// Less-than comparison (yields 0/1).
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
}

impl CBinOp {
    /// True for the six comparison operators.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            CBinOp::Lt | CBinOp::Le | CBinOp::Gt | CBinOp::Ge | CBinOp::Eq | CBinOp::Ne
        )
    }

    /// The C spelling of the operator.
    pub fn c_symbol(self) -> &'static str {
        match self {
            CBinOp::Add => "+",
            CBinOp::Sub => "-",
            CBinOp::Mul => "*",
            CBinOp::Div => "/",
            CBinOp::Rem => "%",
            CBinOp::Shl => "<<",
            CBinOp::Shr => ">>",
            CBinOp::UShr => ">>",
            CBinOp::And => "&",
            CBinOp::Or => "|",
            CBinOp::Xor => "^",
            CBinOp::Lt => "<",
            CBinOp::Le => "<=",
            CBinOp::Gt => ">",
            CBinOp::Ge => ">=",
            CBinOp::Eq => "==",
            CBinOp::Ne => "!=",
        }
    }
}

/// Math intrinsics available in the HLS math library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CIntrinsic {
    /// `expf(x)`.
    Exp,
    /// `logf(x)`.
    Log,
    /// `sqrtf(x)`.
    Sqrt,
    /// `fabs(x)`.
    Abs,
    /// `fmin(a, b)`.
    Min,
    /// `fmax(a, b)`.
    Max,
}

impl CIntrinsic {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            CIntrinsic::Exp | CIntrinsic::Log | CIntrinsic::Sqrt | CIntrinsic::Abs => 1,
            CIntrinsic::Min | CIntrinsic::Max => 2,
        }
    }

    /// The C function name.
    pub fn c_name(self) -> &'static str {
        match self {
            CIntrinsic::Exp => "expf",
            CIntrinsic::Log => "logf",
            CIntrinsic::Sqrt => "sqrtf",
            CIntrinsic::Abs => "fabs",
            CIntrinsic::Min => "fmin",
            CIntrinsic::Max => "fmax",
        }
    }
}

/// An rvalue expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    ConstI(i64),
    /// Floating literal.
    ConstF(f64),
    /// Scalar variable reference.
    Var(String),
    /// Array element read `base[idx]`.
    Index(String, Box<Expr>),
    /// Binary operation with explicit numeric kind.
    Bin(CBinOp, CNumKind, Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(CNumKind, Box<Expr>),
    /// Math intrinsic call.
    Call(CIntrinsic, CNumKind, Vec<Expr>),
    /// Numeric conversion.
    Cast(CNumKind, CNumKind, Box<Expr>),
    /// Ternary `cond ? a : b`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Variable reference helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Array read helper.
    pub fn index(base: impl Into<String>, idx: Expr) -> Expr {
        Expr::Index(base.into(), Box::new(idx))
    }

    /// Binary operation helper.
    pub fn bin(op: CBinOp, kind: CNumKind, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, kind, Box::new(a), Box::new(b))
    }

    /// Integer-kind addition helper (common in index arithmetic).
    pub fn iadd(a: Expr, b: Expr) -> Expr {
        Expr::bin(CBinOp::Add, CNumKind::I32, a, b)
    }

    /// Integer-kind multiplication helper.
    pub fn imul(a: Expr, b: Expr) -> Expr {
        Expr::bin(CBinOp::Mul, CNumKind::I32, a, b)
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element `base[idx]`.
    Index(String, Box<Expr>),
}

impl LValue {
    /// The variable or array name being written.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Index(n, _) => n,
        }
    }
}

/// Pipeline directive state of a loop (Table 1's pipeline factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineMode {
    /// No pipelining: iterations execute sequentially.
    #[default]
    Off,
    /// Fine-grained pipelining of this loop.
    On,
    /// Merlin `flatten`: pipeline this loop and fully unroll all sub-loops.
    Flatten,
}

impl fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineMode::Off => write!(f, "off"),
            PipelineMode::On => write!(f, "on"),
            PipelineMode::Flatten => write!(f, "flatten"),
        }
    }
}

/// Optimization attributes attached to a loop (the applied directive state;
/// printed as `#pragma ACCEL` lines above the loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopAttrs {
    /// Pipeline directive.
    pub pipeline: PipelineMode,
    /// Parallel (unroll / PE replication) factor; 1 = off.
    pub parallel: u32,
    /// Tiling factor; `None` = off.
    pub tile: Option<u32>,
    /// Whether a tree-reduction rewrite was applied to the loop's
    /// accumulation (changes the recurrence latency seen by HLS).
    pub tree_reduce: bool,
}

impl LoopAttrs {
    /// Attributes with every optimization disabled (the area-driven state).
    pub fn none() -> LoopAttrs {
        LoopAttrs::default()
    }

    /// Effective parallel factor (always at least 1).
    pub fn parallel_factor(&self) -> u32 {
        self.parallel.max(1)
    }
}

/// Stable loop identifier, assigned by the code generator and preserved by
/// transformations so design-space factors stay attached to "their" loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `ty name[len];` — constant-size local array (all JVM `new` sites
    /// compile to these, per paper §3.3).
    DeclArr {
        /// Array name.
        name: String,
        /// Element type.
        ty: CType,
        /// Constant length.
        len: u32,
    },
    /// `ty name = init;`
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: CType,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `lhs = rhs;`
    Assign {
        /// The assigned location.
        lhs: LValue,
        /// The assigned value.
        rhs: Expr,
    },
    /// `for (int var = 0; var < bound; var++) { body }`
    For {
        /// Stable loop identifier.
        id: LoopId,
        /// Induction variable name.
        var: String,
        /// Loop bound; constant for every loop S2FA generates.
        bound: Expr,
        /// Statically resolved trip count, if the bound is constant.
        trip_count: Option<u32>,
        /// Applied optimization directives.
        attrs: LoopAttrs,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) { then } else { els }`
    If {
        /// Branch condition (non-zero = taken).
        cond: Expr,
        /// Taken branch.
        then: Vec<Stmt>,
        /// Fallthrough branch (may be empty).
        els: Vec<Stmt>,
    },
}

impl Stmt {
    /// Constant-bound counted loop helper.
    pub fn counted_for(id: LoopId, var: impl Into<String>, tc: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            id,
            var: var.into(),
            bound: Expr::ConstI(tc as i64),
            trip_count: Some(tc),
            attrs: LoopAttrs::default(),
            body,
        }
    }
}

/// Role of a top-level kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Scalar passed by value (e.g. the batch size `N`).
    ScalarIn,
    /// Input buffer (read-only pointer).
    BufIn,
    /// Output buffer (write-only pointer).
    BufOut,
}

/// A kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Element type.
    pub ty: CType,
    /// Role on the interface.
    pub kind: ParamKind,
    /// For buffers: number of elements *per task* (the flattened width of
    /// one RDD record). `None` for scalars.
    pub elems_per_task: Option<u32>,
    /// True for broadcast buffers: one copy shared by every task of the
    /// batch (captured closure state), cached on-chip by the generated
    /// design.
    pub broadcast: bool,
}

/// A generated HLS C kernel function.
///
/// By construction (paper §3.2), the outermost statement of `body` is the
/// template loop over tasks inserted to realize the RDD operator semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct CFunction {
    /// Kernel name.
    pub name: String,
    /// Interface parameters. The first is always the task count `N`.
    pub params: Vec<Param>,
    /// Statement list.
    pub body: Vec<Stmt>,
}

impl CFunction {
    /// Visits every loop in the function, outer loops before inner.
    pub fn visit_loops<'a>(&'a self, mut f: impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                match s {
                    Stmt::For { body, .. } => {
                        f(s);
                        walk(body, f);
                    }
                    Stmt::If { then, els, .. } => {
                        walk(then, f);
                        walk(els, f);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.body, &mut f);
    }

    /// Mutable loop lookup by id.
    pub fn loop_mut(&mut self, id: LoopId) -> Option<&mut Stmt> {
        fn walk(stmts: &mut [Stmt], id: LoopId) -> Option<&mut Stmt> {
            for s in stmts {
                match s {
                    Stmt::For { id: lid, .. } if *lid == id => return Some(s),
                    Stmt::For { body, .. } => {
                        if let Some(hit) = walk(body, id) {
                            return Some(hit);
                        }
                    }
                    Stmt::If { then, els, .. } => {
                        if let Some(hit) = walk(then, id) {
                            return Some(hit);
                        }
                        if let Some(hit) = walk(els, id) {
                            return Some(hit);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        walk(&mut self.body, id)
    }

    /// Immutable loop lookup by id.
    pub fn loop_stmt(&self, id: LoopId) -> Option<&Stmt> {
        let mut found = None;
        self.visit_loops(|s| {
            if let Stmt::For { id: lid, .. } = s {
                if *lid == id && found.is_none() {
                    found = Some(s);
                }
            }
        });
        found
    }

    /// Ids of all loops, outer before inner.
    pub fn loop_ids(&self) -> Vec<LoopId> {
        let mut ids = Vec::new();
        self.visit_loops(|s| {
            if let Stmt::For { id, .. } = s {
                ids.push(*id);
            }
        });
        ids
    }

    /// The buffer parameters (everything except scalars).
    pub fn buffers(&self) -> impl Iterator<Item = &Param> {
        self.params.iter().filter(|p| p.kind != ParamKind::ScalarIn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fn() -> CFunction {
        CFunction {
            name: "kernel".into(),
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
                    name: "out_1".into(),
                    ty: CType::Float,
                    kind: ParamKind::BufOut,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
            ],
            body: vec![Stmt::counted_for(
                LoopId(0),
                "i",
                128,
                vec![Stmt::counted_for(
                    LoopId(1),
                    "j",
                    8,
                    vec![Stmt::Assign {
                        lhs: LValue::Index("out_1".into(), Box::new(Expr::var("i"))),
                        rhs: Expr::index("in_1", Expr::var("j")),
                    }],
                )],
            )],
        }
    }

    #[test]
    fn loop_traversal_is_outer_first() {
        let f = sample_fn();
        assert_eq!(f.loop_ids(), vec![LoopId(0), LoopId(1)]);
    }

    #[test]
    fn loop_lookup() {
        let mut f = sample_fn();
        assert!(f.loop_stmt(LoopId(1)).is_some());
        assert!(f.loop_stmt(LoopId(9)).is_none());
        if let Some(Stmt::For { attrs, .. }) = f.loop_mut(LoopId(1)) {
            attrs.parallel = 4;
        }
        if let Some(Stmt::For { attrs, .. }) = f.loop_stmt(LoopId(1)) {
            assert_eq!(attrs.parallel, 4);
        } else {
            panic!("loop vanished");
        }
    }

    #[test]
    fn buffers_excludes_scalars() {
        let f = sample_fn();
        let names: Vec<_> = f.buffers().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["in_1", "out_1"]);
    }

    #[test]
    fn ctype_properties() {
        assert_eq!(CType::Float.bits(), 32);
        assert!(CType::Double.is_float());
        assert_eq!(CType::Int(8).c_name(), "char");
        assert_eq!(CType::UInt(64).num_kind(), CNumKind::I64);
        assert_eq!(CType::Int(16).num_kind(), CNumKind::I32);
    }

    #[test]
    fn cmp_ops_classified() {
        assert!(CBinOp::Le.is_cmp());
        assert!(!CBinOp::Add.is_cmp());
        assert_eq!(CBinOp::Ne.c_symbol(), "!=");
    }

    #[test]
    fn pipeline_mode_default_is_off() {
        assert_eq!(PipelineMode::default(), PipelineMode::Off);
        assert_eq!(LoopAttrs::none().parallel_factor(), 1);
    }
}
