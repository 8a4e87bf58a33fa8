#![warn(missing_docs)]

//! # s2fa-hlsir — the HLS C intermediate representation
//!
//! S2FA's bytecode-to-C compiler targets *HLS C*: sequential C with
//! constant-size arrays, no object orientation, and vendor pragmas. This
//! crate defines that target:
//!
//! * [`ast`] — the C AST ([`CFunction`], [`Stmt`], [`Expr`]) with per-loop
//!   optimization attributes ([`LoopAttrs`]) that the Merlin-style
//!   transformation library (`s2fa-merlin`) manipulates;
//! * [`printer`] — emission of compilable-looking HLS C source with
//!   `#pragma ACCEL` directives, the artifact a user would hand to the
//!   vendor flow;
//! * [`index`] — one pre-order walk of a kernel recording its loop table
//!   (with the one static trip-count rule), local arrays and array access
//!   sites, read by [`analysis`], the dependence engine and the lint's
//!   dataflow rules;
//! * [`analysis`] — the ROSE/polyhedral substitute: loop-nest extraction,
//!   trip counts, per-iteration operation counts and buffer accesses, and
//!   loop-carried-dependence detection, summarized in a [`KernelSummary`]
//!   that drives design-space identification (paper §4.1) and the HLS
//!   performance model (`s2fa-hlssim`);
//! * [`exec`] — a functional executor for the IR, used to prove that the
//!   generated C is equivalent to the original bytecode (same numeric
//!   semantics as the `s2fa-sjvm` interpreter);
//! * [`dataflow`] — the affine array-dependence engine behind the E302
//!   and E303 lint rules and the dependence-aware DSE prescreen.

pub mod analysis;
pub mod ast;
pub mod dataflow;
pub mod exec;
pub mod index;
pub mod opcount;
pub mod printer;

mod error;

pub use analysis::{Access, BufferDir, BufferInfo, CarriedDep, KernelSummary, LoopInfo};
pub use ast::{
    CBinOp, CFunction, CIntrinsic, CNumKind, CType, Expr, LValue, LoopAttrs, LoopId, Param,
    ParamKind, PipelineMode, Stmt,
};
pub use dataflow::KernelDataflow;
pub use error::HlsirError;
pub use exec::{CVal, Executor, Observed};
pub use opcount::OpCounts;
