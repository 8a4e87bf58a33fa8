//! A deployed accelerator: generated kernel + layouts + time model.

use crate::serial::DataLayout;
use crate::BlazeError;
use s2fa_hlsir::{CFunction, CVal, Executor};
use s2fa_sjvm::RddOp;
use std::collections::BTreeMap;

/// Timing model of a deployed accelerator, derived from the HLS estimate
/// of its final design (filled in by the `s2fa` pipeline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelTimeModel {
    /// Marginal kernel time per task in milliseconds (compute/transfer
    /// overlapped as estimated).
    pub per_task_ms: f64,
    /// Fixed invocation overhead (driver call, DMA setup) in ms.
    pub setup_ms: f64,
}

impl AccelTimeModel {
    /// The fixed driver-call and DMA setup, in ms, that every compiled
    /// design's model carries and the Fig. 4 baseline adds.
    pub const DRIVER_SETUP_MS: f64 = 0.15;

    /// Modelled wall-clock for a batch of `tasks`.
    pub fn batch_ms(&self, tasks: u64) -> f64 {
        self.setup_ms + self.per_task_ms * tasks as f64
    }
}

/// Execution statistics of one offloaded batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelStats {
    /// Tasks processed.
    pub tasks: u64,
    /// Bytes moved over the interface (in + out).
    pub bytes: u64,
    /// Modelled accelerator wall-clock in ms (`None` if no time model was
    /// attached).
    pub modelled_ms: Option<f64>,
}

/// A registered accelerator design: the generated HLS kernel, the
/// generated data layouts, and (optionally) its timing model.
#[derive(Debug, Clone)]
pub struct Accelerator {
    /// Blaze accelerator id (Code 1's `val id`).
    pub id: String,
    /// The generated HLS C kernel.
    pub kernel: CFunction,
    /// Operator semantics baked into the kernel's template loop.
    pub operator: RddOp,
    /// Input-side layout.
    pub input_layout: DataLayout,
    /// Output-side layout.
    pub output_layout: DataLayout,
    /// Timing model from the final design's HLS estimate.
    pub time_model: Option<AccelTimeModel>,
}

impl Accelerator {
    /// Executes a batch of records on the accelerator.
    ///
    /// Functional behaviour comes from executing the generated HLS IR over
    /// the serialized buffers; the modelled time comes from
    /// [`AccelTimeModel`] if attached. For [`RddOp::Map`] the result has
    /// one record per input; for [`RddOp::Reduce`] it has exactly one.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Layout`] on record/layout mismatches and
    /// [`BlazeError::Accel`] if the kernel faults.
    pub fn run_batch(
        &self,
        records: &[s2fa_sjvm::HostValue],
    ) -> Result<(Vec<s2fa_sjvm::HostValue>, AccelStats), BlazeError> {
        if records.is_empty() {
            return Err(BlazeError::EmptyDataset);
        }
        let n = records.len();
        let mut buffers = self.input_layout.serialize(records)?;
        let out_tasks = match self.operator {
            RddOp::Map => n,
            RddOp::Reduce => 1,
        };
        buffers.extend(self.output_layout.alloc(out_tasks));
        let mut scalars = BTreeMap::new();
        scalars.insert("n".to_string(), CVal::I(n as i64));
        Executor::new(&self.kernel).run(&scalars, &mut buffers)?;
        let out = self.output_layout.deserialize(&buffers, out_tasks)?;
        // Broadcast leaves move once per batch on *both* sides of the
        // interface: captured closure state in, once-per-batch results out.
        let bytes = self.input_layout.bytes_per_task() * n as u64
            + self.input_layout.broadcast_bytes()
            + self.output_layout.bytes_per_task() * out_tasks as u64
            + self.output_layout.broadcast_bytes();
        let stats = AccelStats {
            tasks: n as u64,
            bytes,
            modelled_ms: self.time_model.map(|m| m.batch_ms(n as u64)),
        };
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{ast, CBinOp, CNumKind, Expr, LValue, LoopId, Stmt};
    use s2fa_sjvm::{HostValue, JType, Shape};

    /// Hand-built kernel: out_1[i] = in_1[i] * 2
    fn doubler() -> Accelerator {
        let kernel = ast::CFunction {
            name: "dbl".into(),
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
                    ty: ast::CType::Float,
                    kind: ast::ParamKind::BufIn,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
                ast::Param {
                    name: "out_1".into(),
                    ty: ast::CType::Float,
                    kind: ast::ParamKind::BufOut,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
            ],
            body: vec![Stmt::For {
                id: LoopId(0),
                var: "i".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: Default::default(),
                body: vec![Stmt::Assign {
                    lhs: LValue::Index("out_1".into(), Box::new(Expr::var("i"))),
                    rhs: Expr::bin(
                        CBinOp::Mul,
                        CNumKind::F64,
                        Expr::index("in_1", Expr::var("i")),
                        Expr::ConstF(2.0),
                    ),
                }],
            }],
        };
        let shape = Shape::Scalar(JType::Double);
        Accelerator {
            id: "dbl".into(),
            kernel,
            operator: s2fa_sjvm::RddOp::Map,
            input_layout: DataLayout::from_shape(&shape, "in"),
            output_layout: DataLayout::from_shape(&shape, "out"),
            time_model: Some(AccelTimeModel {
                per_task_ms: 0.001,
                setup_ms: 0.5,
            }),
        }
    }

    /// Hand-built reduce kernel: out_1[0] = sum(in_1[0..n])
    fn summer() -> Accelerator {
        let kernel = ast::CFunction {
            name: "sum".into(),
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
                    ty: ast::CType::Float,
                    kind: ast::ParamKind::BufIn,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
                ast::Param {
                    name: "out_1".into(),
                    ty: ast::CType::Float,
                    kind: ast::ParamKind::BufOut,
                    elems_per_task: Some(1),
                    broadcast: false,
                },
            ],
            body: vec![Stmt::For {
                id: LoopId(0),
                var: "i".into(),
                bound: Expr::var("n"),
                trip_count: None,
                attrs: Default::default(),
                body: vec![Stmt::Assign {
                    lhs: LValue::Index("out_1".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::bin(
                        CBinOp::Add,
                        CNumKind::F64,
                        Expr::index("out_1", Expr::ConstI(0)),
                        Expr::index("in_1", Expr::var("i")),
                    ),
                }],
            }],
        };
        let shape = Shape::Scalar(JType::Double);
        Accelerator {
            id: "sum".into(),
            kernel,
            operator: s2fa_sjvm::RddOp::Reduce,
            input_layout: DataLayout::from_shape(&shape, "in"),
            output_layout: DataLayout::from_shape(&shape, "out"),
            time_model: Some(AccelTimeModel {
                per_task_ms: 0.25,
                setup_ms: 1.0,
            }),
        }
    }

    #[test]
    fn executes_map_batch() {
        let acc = doubler();
        let input: Vec<HostValue> = (0..5).map(|i| HostValue::F(i as f64)).collect();
        let (out, stats) = acc.run_batch(&input).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[3], HostValue::F(6.0));
        assert_eq!(stats.tasks, 5);
        assert_eq!(stats.bytes, 5 * 8 * 2);
        let ms = stats.modelled_ms.unwrap();
        assert!((ms - (0.5 + 0.005)).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_an_error() {
        let acc = doubler();
        assert_eq!(acc.run_batch(&[]), Err(BlazeError::EmptyDataset));
    }

    #[test]
    fn executes_reduce_batch() {
        let acc = summer();
        let input: Vec<HostValue> = (1..=6).map(|i| HostValue::F(i as f64)).collect();
        let (out, stats) = acc.run_batch(&input).unwrap();
        // reduce produces exactly one record regardless of batch size
        assert_eq!(out, vec![HostValue::F(21.0)]);
        assert_eq!(stats.tasks, 6);
        // 6 input records in, 1 output record back
        assert_eq!(stats.bytes, 6 * 8 + 8);
        let ms = stats.modelled_ms.unwrap();
        assert!((ms - (1.0 + 0.25 * 6.0)).abs() < 1e-12);
    }

    #[test]
    fn reduce_rejects_empty_batches_too() {
        let acc = summer();
        assert_eq!(acc.run_batch(&[]), Err(BlazeError::EmptyDataset));
    }

    /// Regression: output-side broadcast leaves must be counted in the
    /// interface byte total (they were silently dropped while the input
    /// side's were added).
    #[test]
    fn output_broadcast_bytes_are_counted() {
        let mut acc = doubler();
        // (per-task Double, broadcast Double) on the output side: out_1
        // sliced per task, out_2 a single once-per-batch copy.
        let out_shape = Shape::pair(
            Shape::Scalar(JType::Double),
            Shape::broadcast(Shape::Scalar(JType::Double)),
        );
        acc.output_layout = DataLayout::from_shape(&out_shape, "out");
        acc.kernel.params.push(ast::Param {
            name: "out_2".into(),
            ty: ast::CType::Float,
            kind: ast::ParamKind::BufOut,
            elems_per_task: Some(1),
            broadcast: true,
        });
        assert_eq!(acc.output_layout.broadcast_bytes(), 8);
        let input: Vec<HostValue> = (0..5).map(|i| HostValue::F(i as f64)).collect();
        let (out, stats) = acc.run_batch(&input).unwrap();
        assert_eq!(out.len(), 5);
        // 5 tasks in + 5 per-task out + one 8-byte broadcast out
        assert_eq!(stats.bytes, 5 * 8 + 5 * 8 + 8);
    }

    #[test]
    fn time_model_batches() {
        let m = AccelTimeModel {
            per_task_ms: 0.5,
            setup_ms: 2.0,
        };
        assert!((m.batch_ms(100) - 52.0).abs() < 1e-12);
    }
}
