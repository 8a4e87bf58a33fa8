//! Mini-Spark RDDs and the Blaze wrapper.
//!
//! The paper's Code 1 in this substrate:
//!
//! ```
//! # use s2fa_blaze::{AcceleratorRegistry, BlazeContext, Rdd};
//! # use s2fa_sjvm::HostValue;
//! let registry = AcceleratorRegistry::new();
//! let blaze = BlazeContext::new(&registry);
//! let pairs = Rdd::from_values(vec![HostValue::I(1), HostValue::I(2)]);
//! let blaze_pairs = blaze.wrap(pairs);
//! // `blaze_pairs.map(&acc_call)` routes to the accelerator if
//! // `acc_call.id` is registered, otherwise falls back to the JVM.
//! ```

use crate::accel::Accelerator;
use crate::service::AcceleratorRegistry;
use crate::BlazeError;
use s2fa_sjvm::{HostValue, Interp, KernelSpec, RddOp};

/// A resilient distributed dataset (single-node, in-memory slice of one).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rdd {
    data: Vec<HostValue>,
}

impl Rdd {
    /// Creates an RDD from records.
    pub fn from_values(data: Vec<HostValue>) -> Rdd {
        Rdd { data }
    }

    /// The records.
    pub fn collect(&self) -> &[HostValue] {
        &self.data
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.data.len()
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Native map transformation (driver-side; not offloadable).
    pub fn map_native(&self, f: impl FnMut(&HostValue) -> HostValue) -> Rdd {
        Rdd {
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl FromIterator<HostValue> for Rdd {
    fn from_iter<I: IntoIterator<Item = HostValue>>(iter: I) -> Self {
        Rdd {
            data: iter.into_iter().collect(),
        }
    }
}

/// The analogue of `class SW() extends Accelerator[I, O]` in Code 1: the
/// accelerator id plus the lambda (as compiled JVM bytecode) for the
/// fallback path.
#[derive(Debug, Clone)]
pub struct AccCall {
    /// Accelerator id to look up in the registry.
    pub id: String,
    /// The lambda, used when no accelerator is registered (Blaze falls
    /// back to executing the original Scala method on the JVM).
    pub spec: KernelSpec,
}

/// Which path executed an offloaded transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPath {
    /// Ran on the registered accelerator.
    Offloaded,
    /// Fell back to the single-threaded JVM executor.
    JvmFallback,
}

/// Timing/shape report of one transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadReport {
    /// Which path ran.
    pub path: ExecutionPath,
    /// Records processed.
    pub tasks: u64,
    /// Modelled wall-clock of the executed path in ms. `None` means the
    /// offloaded design had no time model attached — distinct from an
    /// actual 0 ms execution, so aggregates can skip unmodelled runs
    /// instead of averaging in zeros. The JVM path always measures.
    pub time_ms: Option<f64>,
    /// Bytes over the accelerator interface (0 on the JVM path).
    pub bytes: u64,
}

impl OffloadReport {
    /// The modelled time, or 0.0 for unmodelled offloads — the old
    /// lossy behaviour, for display code that needs *a* number.
    pub fn time_ms_or_zero(&self) -> f64 {
        self.time_ms.unwrap_or(0.0)
    }
}

/// The Blaze driver context: holds the accelerator registry.
#[derive(Debug, Clone, Copy)]
pub struct BlazeContext<'r> {
    registry: &'r AcceleratorRegistry,
}

impl<'r> BlazeContext<'r> {
    /// Creates a context over a registry.
    pub fn new(registry: &'r AcceleratorRegistry) -> Self {
        BlazeContext { registry }
    }

    /// Wraps an RDD for transparent offloading (Code 1, line 2).
    pub fn wrap(&self, rdd: Rdd) -> BlazeRdd<'r> {
        BlazeRdd {
            rdd,
            registry: self.registry,
        }
    }
}

/// A wrapped RDD whose transformations route through the accelerator
/// manager.
#[derive(Debug)]
pub struct BlazeRdd<'r> {
    rdd: Rdd,
    registry: &'r AcceleratorRegistry,
}

impl BlazeRdd<'_> {
    /// The wrapped records.
    pub fn collect(&self) -> &[HostValue] {
        self.rdd.collect()
    }

    /// Offloadable `map` (Code 1, line 3).
    ///
    /// # Errors
    ///
    /// Propagates operator, layout and execution errors from either path.
    pub fn map(&self, acc: &AccCall) -> Result<(Rdd, OffloadReport), BlazeError> {
        let (out, report) = dispatch(self.registry, acc, RddOp::Map, self.rdd.collect())?;
        Ok((Rdd::from_values(out), report))
    }

    /// Offloadable `reduce`: combines all records pairwise with the lambda.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::EmptyDataset`] for empty inputs; otherwise
    /// propagates operator, layout and execution errors.
    pub fn reduce(&self, acc: &AccCall) -> Result<(HostValue, OffloadReport), BlazeError> {
        let (out, report) = dispatch(self.registry, acc, RddOp::Reduce, self.rdd.collect())?;
        let v = out.into_iter().next().ok_or(BlazeError::EmptyDataset)?;
        Ok((v, report))
    }
}

/// The one operator rule: the stage's operator `op`, the lambda's and a
/// registered design's (if any) must agree. Every Blaze caller checks
/// its route with it, so a mismatch reads the same on every path.
pub(crate) fn check_operator(
    id: &str,
    op: RddOp,
    lambda: &KernelSpec,
    design: Option<&Accelerator>,
) -> Result<(), BlazeError> {
    let mut operators = std::iter::once(lambda.operator).chain(design.map(|a| a.operator));
    match operators.find(|&other| other != op) {
        None => Ok(()),
        Some(other) => Err(BlazeError::Config(format!(
            "accelerator `{id}` implements {}, not {}",
            other.name(),
            op.name()
        ))),
    }
}

/// Blaze's routing rule (paper §2): a transformation tagged with
/// `call.id` runs on the registered design when there is one, and
/// otherwise falls back to the original lambda on the JVM
/// ([`run_jvm`]). Either path yields the outputs and one
/// [`OffloadReport`].
///
/// # Errors
///
/// [`BlazeError::Config`] when the operators disagree
/// ([`check_operator`]), [`BlazeError::EmptyDataset`] for no records,
/// and the executed path's layout and execution errors.
pub(crate) fn dispatch(
    registry: &AcceleratorRegistry,
    call: &AccCall,
    op: RddOp,
    records: &[HostValue],
) -> Result<(Vec<HostValue>, OffloadReport), BlazeError> {
    let accel = registry.lookup(&call.id);
    check_operator(&call.id, op, &call.spec, accel.as_deref())?;
    match accel {
        Some(accel) => {
            let (out, stats) = accel.run_batch(records)?;
            let report = OffloadReport {
                path: ExecutionPath::Offloaded,
                tasks: stats.tasks,
                time_ms: stats.modelled_ms,
                bytes: stats.bytes,
            };
            Ok((out, report))
        }
        None => {
            let (out, ms) = run_jvm(&call.spec, records)?;
            let report = OffloadReport {
                path: ExecutionPath::JvmFallback,
                tasks: records.len() as u64,
                time_ms: Some(ms),
                bytes: 0,
            };
            Ok((out, report))
        }
    }
}

/// Runs the original lambda on the interpreter (the Blaze fallback) and
/// returns the outputs plus the cost model's modelled ms. A map applies
/// the lambda to each record; a reduce folds the records pairwise from
/// the first.
///
/// # Errors
///
/// [`BlazeError::EmptyDataset`] for no records; interpreter faults as
/// [`BlazeError::Jvm`].
pub(crate) fn run_jvm(
    spec: &KernelSpec,
    records: &[HostValue],
) -> Result<(Vec<HostValue>, f64), BlazeError> {
    let (first, rest) = records.split_first().ok_or(BlazeError::EmptyDataset)?;
    let mut interp = Interp::new(&spec.classes, &spec.methods);
    let mut total_ns = 0.0;
    let out = match spec.operator {
        RddOp::Map => {
            let mut out = Vec::with_capacity(records.len());
            for rec in records {
                let (v, stats) = interp.run(spec.entry, std::slice::from_ref(rec))?;
                total_ns += stats.ns;
                out.push(v);
            }
            out
        }
        RddOp::Reduce => {
            let mut acc = first.clone();
            for rec in rest {
                let (v, stats) = interp.run(spec.entry, &[acc, rec.clone()])?;
                total_ns += stats.ns;
                acc = v;
            }
            vec![acc]
        }
    };
    Ok((out, total_ns / 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_sjvm::builder::{Expr, FnBuilder};
    use s2fa_sjvm::{ClassTable, JType, MethodTable, Shape};

    /// x -> x * 3 lambda as a kernel spec.
    fn triple_spec() -> KernelSpec {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("call", &[("x", JType::Int)], Some(JType::Int));
        let x = b.param(0);
        b.ret(Expr::local(x).mul(Expr::const_i(3)));
        let entry = b.finish(&mut classes, &mut methods).unwrap();
        KernelSpec {
            name: "triple".into(),
            classes,
            methods,
            entry,
            operator: RddOp::Map,
            input_shape: Shape::Scalar(JType::Int),
            output_shape: Shape::Scalar(JType::Int),
        }
    }

    /// (a, b) -> a + b reduce lambda.
    fn sum_spec() -> KernelSpec {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new(
            "call",
            &[("a", JType::Int), ("b", JType::Int)],
            Some(JType::Int),
        );
        let a = b.param(0);
        let x = b.param(1);
        b.ret(Expr::local(a).add(Expr::local(x)));
        let entry = b.finish(&mut classes, &mut methods).unwrap();
        KernelSpec {
            name: "sum".into(),
            classes,
            methods,
            entry,
            operator: RddOp::Reduce,
            input_shape: Shape::Scalar(JType::Int),
            output_shape: Shape::Scalar(JType::Int),
        }
    }

    /// The shared JVM runner reproduces, bit for bit, the outputs and
    /// modelled ms the RDD wrapper's own fallback loop reported before
    /// the RDD, stream and serving loops became one.
    #[test]
    fn jvm_runner_matches_the_rdd_fallback_it_replaced() {
        let ints = |n: i64| (1..=n).map(HostValue::I).collect::<Vec<_>>();
        let (out, ms) = run_jvm(&triple_spec(), &ints(7)).unwrap();
        assert_eq!(
            out,
            (1..=7).map(|i| HostValue::I(3 * i)).collect::<Vec<_>>()
        );
        assert_eq!(ms, 1.9600000000000002e-5);
        let (out, ms) = run_jvm(&sum_spec(), &ints(10)).unwrap();
        assert_eq!(out, vec![HostValue::I(55)]);
        assert_eq!(ms, 1.8900000000000002e-5);
        // and the wrapper reports them unchanged
        let registry = AcceleratorRegistry::new();
        let call = AccCall {
            id: "sum".into(),
            spec: sum_spec(),
        };
        let (_, report) = BlazeContext::new(&registry)
            .wrap(Rdd::from_values(ints(10)))
            .reduce(&call)
            .unwrap();
        assert_eq!(
            report,
            OffloadReport {
                path: ExecutionPath::JvmFallback,
                tasks: 10,
                time_ms: Some(1.8900000000000002e-5),
                bytes: 0,
            }
        );
    }

    #[test]
    fn jvm_fallback_map() {
        let registry = AcceleratorRegistry::new();
        let blaze = BlazeContext::new(&registry);
        let rdd = Rdd::from_values(vec![HostValue::I(1), HostValue::I(5)]);
        let call = AccCall {
            id: "triple".into(),
            spec: triple_spec(),
        };
        let (out, report) = blaze.wrap(rdd).map(&call).unwrap();
        assert_eq!(out.collect(), &[HostValue::I(3), HostValue::I(15)]);
        assert_eq!(report.path, ExecutionPath::JvmFallback);
        assert!(report.time_ms.unwrap() > 0.0);
        assert_eq!(report.bytes, 0);
    }

    #[test]
    fn jvm_fallback_reduce() {
        let registry = AcceleratorRegistry::new();
        let blaze = BlazeContext::new(&registry);
        let rdd: Rdd = (1..=10).map(HostValue::I).collect();
        let call = AccCall {
            id: "sum".into(),
            spec: sum_spec(),
        };
        let (v, report) = blaze.wrap(rdd).reduce(&call).unwrap();
        assert_eq!(v, HostValue::I(55));
        assert_eq!(report.tasks, 10);
    }

    #[test]
    fn empty_dataset_rejected() {
        let registry = AcceleratorRegistry::new();
        let blaze = BlazeContext::new(&registry);
        let call = AccCall {
            id: "t".into(),
            spec: triple_spec(),
        };
        assert_eq!(
            blaze.wrap(Rdd::default()).map(&call).unwrap_err(),
            BlazeError::EmptyDataset
        );
    }

    #[test]
    fn native_map_and_collection() {
        let rdd = Rdd::from_values(vec![HostValue::I(1), HostValue::I(2)]);
        let doubled = rdd.map_native(|v| HostValue::I(v.as_i64().unwrap() * 2));
        assert_eq!(doubled.collect(), &[HostValue::I(2), HostValue::I(4)]);
        assert_eq!(doubled.count(), 2);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::serial::DataLayout;
    use s2fa_hlsir::{ast, CBinOp, CNumKind};
    use s2fa_sjvm::builder::{Expr as JE, FnBuilder};
    use s2fa_sjvm::{ClassTable, JType, MethodTable, Shape};

    fn identity_accel(id: &str) -> Accelerator {
        let shape = Shape::Scalar(JType::Int);
        Accelerator {
            id: id.into(),
            kernel: ast::CFunction {
                name: "idk".into(),
                params: vec![
                    ast::Param {
                        name: "n".into(),
                        ty: ast::CType::Int(32),
                        kind: ast::ParamKind::ScalarIn,
                        elems_per_task: None,
                        broadcast: false,
                    },
                    ast::Param {
                        name: "in_1".into(),
                        ty: ast::CType::Int(32),
                        kind: ast::ParamKind::BufIn,
                        elems_per_task: Some(1),
                        broadcast: false,
                    },
                    ast::Param {
                        name: "out_1".into(),
                        ty: ast::CType::Int(32),
                        kind: ast::ParamKind::BufOut,
                        elems_per_task: Some(1),
                        broadcast: false,
                    },
                ],
                body: vec![ast::Stmt::For {
                    id: ast::LoopId(0),
                    var: "i".into(),
                    bound: ast::Expr::var("n"),
                    trip_count: None,
                    attrs: Default::default(),
                    body: vec![ast::Stmt::Assign {
                        lhs: ast::LValue::Index("out_1".into(), Box::new(ast::Expr::var("i"))),
                        rhs: ast::Expr::bin(
                            CBinOp::Mul,
                            CNumKind::I32,
                            ast::Expr::index("in_1", ast::Expr::var("i")),
                            ast::Expr::ConstI(2),
                        ),
                    }],
                }],
            },
            operator: RddOp::Map,
            input_layout: DataLayout::from_shape(&shape, "in"),
            output_layout: DataLayout::from_shape(&shape, "out"),
            time_model: None,
        }
    }

    fn double_spec() -> KernelSpec {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("call", &[("x", JType::Int)], Some(JType::Int));
        let x = b.param(0);
        b.ret(JE::local(x).mul(JE::const_i(2)));
        let entry = b.finish(&mut classes, &mut methods).unwrap();
        KernelSpec {
            name: "dbl".into(),
            classes,
            methods,
            entry,
            operator: RddOp::Map,
            input_shape: Shape::Scalar(JType::Int),
            output_shape: Shape::Scalar(JType::Int),
        }
    }

    #[test]
    fn unmodelled_offload_is_distinguishable_from_zero_ms() {
        // identity_accel carries no time model: the offloaded report must
        // say "no model" (None), not claim a 0 ms execution.
        let registry = AcceleratorRegistry::new();
        registry.register(identity_accel("dbl"));
        let blaze = BlazeContext::new(&registry);
        let call = AccCall {
            id: "dbl".into(),
            spec: double_spec(),
        };
        let rdd = Rdd::from_values((0..4).map(HostValue::I).collect());
        let (_, report) = blaze.wrap(rdd).map(&call).unwrap();
        assert_eq!(report.path, ExecutionPath::Offloaded);
        assert_eq!(report.time_ms, None);
        assert_eq!(report.time_ms_or_zero(), 0.0);
    }

    #[test]
    fn operator_mismatch_is_reported() {
        let registry = AcceleratorRegistry::new();
        registry.register(identity_accel("dbl"));
        let blaze = BlazeContext::new(&registry);
        let mut spec = double_spec();
        spec.operator = RddOp::Reduce;
        // a reduce call against a map accelerator
        let call = AccCall {
            id: "dbl".into(),
            spec,
        };
        let rdd = Rdd::from_values((0..4).map(HostValue::I).collect());
        let err = blaze.wrap(rdd).reduce(&call).unwrap_err();
        assert!(matches!(err, BlazeError::Config(_)), "{err}");
    }
}
