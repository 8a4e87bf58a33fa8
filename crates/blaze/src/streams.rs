//! Java-8-streams-style integration.
//!
//! The paper notes that "the S2FA framework is able to compile any
//! Java/Scala method that satisfies the constraints listed in Section 3.3
//! to an FPGA kernel, so we can easily integrate S2FA with other JVM-based
//! runtime systems such as Hadoop and streaming APIs in Java 8" (§2).
//!
//! This module is that integration for a `java.util.stream`-like API: a
//! lazy pipeline of stages over [`HostValue`] elements whose accelerated
//! `map` stages route through the same [`AcceleratorRegistry`] Blaze uses.
//! Host-side stages (`filter`, `map_native`) compose freely around the
//! offloaded ones, and nothing about the compiled kernel changes — the
//! runtime system is just another consumer of the accelerator service.
//!
//! ```
//! # use s2fa_blaze::{AcceleratorRegistry, streams::Stream};
//! # use s2fa_sjvm::HostValue;
//! let registry = AcceleratorRegistry::new();
//! let out = Stream::of((0..4).map(HostValue::I).collect::<Vec<_>>(), &registry)
//!     .filter(|v| v.as_i64().unwrap_or(0) % 2 == 0)
//!     .map_native(|v| HostValue::I(v.as_i64().unwrap_or(0) + 100))
//!     .collect()?;
//! assert_eq!(out.len(), 2);
//! # Ok::<(), s2fa_blaze::BlazeError>(())
//! ```

use crate::rdd::{dispatch, AccCall};
use crate::service::AcceleratorRegistry;
use crate::{BlazeError, OffloadReport};
use s2fa_sjvm::{HostValue, RddOp};

/// A pipeline stage.
enum Stage {
    /// Host-side predicate.
    Filter(Box<dyn Fn(&HostValue) -> bool>),
    /// Host-side element transform.
    MapNative(Box<dyn Fn(&HostValue) -> HostValue>),
    /// Accelerated map through the registry (JVM fallback when the id is
    /// not registered).
    MapAccel(AccCall),
}

/// A lazy stream of host values with offloadable `map` stages.
pub struct Stream<'r> {
    source: Vec<HostValue>,
    stages: Vec<Stage>,
    registry: &'r AcceleratorRegistry,
    reports: Vec<OffloadReport>,
}

impl<'r> Stream<'r> {
    /// Creates a stream over `source`, resolving accelerated stages
    /// against `registry`.
    pub fn of(source: Vec<HostValue>, registry: &'r AcceleratorRegistry) -> Stream<'r> {
        Stream {
            source,
            stages: Vec::new(),
            registry,
            reports: Vec::new(),
        }
    }

    /// Adds a host-side filter stage.
    #[must_use]
    pub fn filter(mut self, pred: impl Fn(&HostValue) -> bool + 'static) -> Self {
        self.stages.push(Stage::Filter(Box::new(pred)));
        self
    }

    /// Adds a host-side map stage.
    #[must_use]
    pub fn map_native(mut self, f: impl Fn(&HostValue) -> HostValue + 'static) -> Self {
        self.stages.push(Stage::MapNative(Box::new(f)));
        self
    }

    /// Adds an *accelerated* map stage: executed on the registered design
    /// when available, on the JVM interpreter otherwise — Blaze's own
    /// dispatch, operator check included, reused by a different runtime
    /// system.
    #[must_use]
    pub fn map(mut self, call: AccCall) -> Self {
        self.stages.push(Stage::MapAccel(call));
        self
    }

    /// Runs the pipeline and returns the resulting elements.
    ///
    /// # Errors
    ///
    /// Propagates accelerator/JVM execution errors from offloaded stages.
    pub fn collect(mut self) -> Result<Vec<HostValue>, BlazeError> {
        let mut data = std::mem::take(&mut self.source);
        let stages = std::mem::take(&mut self.stages);
        for stage in &stages {
            data = self.run_stage(stage, data)?;
        }
        Ok(data)
    }

    /// Runs the pipeline and returns the elements plus the per-offload
    /// reports (which path ran, modelled time).
    ///
    /// # Errors
    ///
    /// Propagates accelerator/JVM execution errors from offloaded stages.
    pub fn collect_with_reports(
        mut self,
    ) -> Result<(Vec<HostValue>, Vec<OffloadReport>), BlazeError> {
        let mut data = std::mem::take(&mut self.source);
        let stages = std::mem::take(&mut self.stages);
        for stage in &stages {
            data = self.run_stage(stage, data)?;
        }
        Ok((data, self.reports))
    }

    fn run_stage(
        &mut self,
        stage: &Stage,
        data: Vec<HostValue>,
    ) -> Result<Vec<HostValue>, BlazeError> {
        match stage {
            Stage::Filter(p) => Ok(data.into_iter().filter(|v| p(v)).collect()),
            Stage::MapNative(f) => Ok(data.iter().map(f).collect()),
            Stage::MapAccel(call) => {
                if data.is_empty() {
                    return Ok(data);
                }
                let (out, report) = dispatch(self.registry, call, RddOp::Map, &data)?;
                self.reports.push(report);
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionPath;
    use s2fa_sjvm::builder::{Expr, FnBuilder};
    use s2fa_sjvm::{ClassTable, JType, KernelSpec, MethodTable, Shape};

    fn square_spec() -> KernelSpec {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("call", &[("x", JType::Int)], Some(JType::Int));
        let x = b.param(0);
        b.ret(Expr::local(x).mul(Expr::local(x)));
        let entry = b.finish(&mut classes, &mut methods).unwrap();
        KernelSpec {
            name: "sq".into(),
            classes,
            methods,
            entry,
            operator: RddOp::Map,
            input_shape: Shape::Scalar(JType::Int),
            output_shape: Shape::Scalar(JType::Int),
        }
    }

    #[test]
    fn mixed_pipeline_on_the_jvm_path() {
        let registry = AcceleratorRegistry::new();
        let call = AccCall {
            id: "sq".into(),
            spec: square_spec(),
        };
        let (out, reports) = Stream::of((1..=6).map(HostValue::I).collect(), &registry)
            .filter(|v| v.as_i64().unwrap() % 2 == 0) // 2, 4, 6
            .map(call) // 4, 16, 36
            .map_native(|v| HostValue::I(v.as_i64().unwrap() + 1)) // 5, 17, 37
            .collect_with_reports()
            .unwrap();
        assert_eq!(
            out,
            vec![HostValue::I(5), HostValue::I(17), HostValue::I(37)]
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].path, ExecutionPath::JvmFallback);
    }

    #[test]
    fn empty_streams_pass_through() {
        let registry = AcceleratorRegistry::new();
        let call = AccCall {
            id: "sq".into(),
            spec: square_spec(),
        };
        let out = Stream::of(vec![], &registry).map(call).collect().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn stages_compose_in_order() {
        let registry = AcceleratorRegistry::new();
        let out = Stream::of((0..5).map(HostValue::I).collect(), &registry)
            .map_native(|v| HostValue::I(v.as_i64().unwrap() * 10))
            .filter(|v| v.as_i64().unwrap() >= 20)
            .collect()
            .unwrap();
        assert_eq!(
            out,
            vec![HostValue::I(20), HostValue::I(30), HostValue::I(40)]
        );
    }
}
