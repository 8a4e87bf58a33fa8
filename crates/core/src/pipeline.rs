//! The end-to-end S2FA pipeline (paper Fig. 1).

use crate::codegen::{compile_kernel, GeneratedKernel};
use crate::S2faError;
use s2fa_blaze::{AccelTimeModel, Accelerator};
use s2fa_dse::{run_dse_profiled, DesignSpace, DseOptions, DseOutcome};
use s2fa_hlsir::{analysis, printer, KernelSummary};
use s2fa_hlssim::{Estimate, Estimator};
use s2fa_lint::{dataflow_errors, transform_new_errors, verify_function, LintReport};
use s2fa_merlin::{apply_structural, DesignConfig};
use s2fa_obs::Profiler;
use s2fa_sjvm::KernelSpec;
use s2fa_trace::{NullSink, TraceSink};
use std::sync::Arc;

/// Options of one compilation.
#[derive(Debug, Clone)]
pub struct S2faOptions {
    /// Nominal batch size: trip count assumed for the template loop and
    /// the batch the estimates refer to.
    pub tasks_hint: u32,
    /// DSE configuration (paper §4.3 defaults).
    pub dse: DseOptions,
}

impl Default for S2faOptions {
    fn default() -> Self {
        S2faOptions {
            tasks_hint: 1024,
            dse: DseOptions::s2fa(),
        }
    }
}

/// Everything the framework produces for one kernel.
#[derive(Debug, Clone)]
pub struct CompiledAccelerator {
    /// Generated C kernel plus layouts.
    pub generated: GeneratedKernel,
    /// Loop-nest / buffer analysis used for design-space identification.
    pub summary: KernelSummary,
    /// `log10` of the identified design-space size (Table 1).
    pub space_size_log10: f64,
    /// The DSE run, when one was performed.
    pub dse: Option<DseOutcome>,
    /// The selected design configuration.
    pub design: DesignConfig,
    /// HLS estimate of the selected design.
    pub estimate: Estimate,
    /// Final optimized HLS C source with pragmas.
    pub optimized_source: String,
    /// Deployable Blaze accelerator (functional kernel + layouts + timing).
    pub accelerator: Accelerator,
}

/// The S2FA framework: bytecode-to-C compilation, design space
/// identification/exploration, and Blaze integration.
#[derive(Debug, Clone, Default)]
pub struct S2fa {
    estimator: Estimator,
    options: S2faOptions,
    trace_sink: Option<Arc<dyn TraceSink>>,
    profiler: Profiler,
}

impl S2fa {
    /// Creates the framework with the given options and the default VU9P
    /// estimator.
    pub fn new(options: S2faOptions) -> Self {
        S2fa {
            estimator: Estimator::new(),
            options,
            trace_sink: None,
            profiler: Profiler::disabled(),
        }
    }

    /// Attaches a structured-event sink: [`compile`](Self::compile) then
    /// streams the DSE's virtual schedule (evaluations, partitions, run
    /// stop) and any legality prunes through it. Emission is purely
    /// observational — outcomes are identical with or without a sink.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Attaches a host-side profiler: [`compile`](Self::compile) then
    /// records wall-time spans over every stage (`compile{codegen, lint,
    /// analyze, dse, package}` plus the DSE's own span forest). Like
    /// tracing, profiling is purely observational — outcomes are
    /// bit-identical with the default [`Profiler::disabled`].
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The HLS estimator in use.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// The options in use.
    pub fn options(&self) -> &S2faOptions {
        &self.options
    }

    /// Full automatic flow: compile, identify the space, explore it, and
    /// package the best design.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors and returns
    /// [`S2faError::NoFeasibleDesign`] if the DSE never found a design
    /// that synthesizes.
    pub fn compile(&self, spec: &KernelSpec) -> Result<CompiledAccelerator, S2faError> {
        let mut lane = self.profiler.lane();
        let compile_span = lane.open("compile");
        let codegen_span = lane.open("codegen");
        let generated = compile_kernel(spec)?;
        lane.close(codegen_span);
        let lint_span = lane.open("lint");
        let wellformed = ensure_well_formed(&generated.cfunc)?;
        lane.close(lint_span);
        let analyze_span = lane.open("analyze");
        let mut summary = analysis::summarize(&generated.cfunc, self.options.tasks_hint)?;
        if self.options.dse.dataflow_prescreen {
            s2fa_hlsir::dataflow::attach(&mut summary, &generated.cfunc);
        }
        let space = DesignSpace::build(&summary);
        lane.close(analyze_span);
        let sink: Arc<dyn TraceSink> = match &self.trace_sink {
            Some(sink) => sink.clone(),
            None => Arc::new(NullSink),
        };
        // The driver records its own `dse` forest (stage spans, per-thread
        // tune/batch lanes); this wrapper span covers the same interval
        // from the compile lane's point of view.
        let dse_span = lane.open("dse");
        let dse = run_dse_profiled(
            &summary,
            &self.estimator,
            &self.options.dse,
            sink,
            &self.profiler,
        );
        lane.close(dse_span);
        let (design, estimate) = dse.best.clone().ok_or(S2faError::NoFeasibleDesign)?;
        let package_span = lane.open("package");
        let mut result = self.package(spec, generated, &wellformed, summary, design, estimate)?;
        lane.close(package_span);
        lane.close(compile_span);
        result.space_size_log10 = space.size_log10();
        result.dse = Some(dse);
        Ok(result)
    }

    /// Expert flow: compile and evaluate a *given* design configuration
    /// (used for the paper's manual reference designs).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; returns
    /// [`S2faError::NoFeasibleDesign`] if the given design does not
    /// synthesize.
    pub fn compile_with_config(
        &self,
        spec: &KernelSpec,
        design: &DesignConfig,
    ) -> Result<CompiledAccelerator, S2faError> {
        let generated = compile_kernel(spec)?;
        let wellformed = ensure_well_formed(&generated.cfunc)?;
        let summary = analysis::summarize(&generated.cfunc, self.options.tasks_hint)?;
        let space = DesignSpace::build(&summary);
        let estimate = self.estimator.evaluate(&summary, design);
        if !estimate.is_feasible() {
            return Err(S2faError::NoFeasibleDesign);
        }
        let mut result = self.package(
            spec,
            generated,
            &wellformed,
            summary,
            design.clone(),
            estimate,
        )?;
        result.space_size_log10 = space.size_log10();
        Ok(result)
    }

    fn package(
        &self,
        spec: &KernelSpec,
        generated: GeneratedKernel,
        wellformed: &LintReport,
        summary: KernelSummary,
        design: DesignConfig,
        estimate: Estimate,
    ) -> Result<CompiledAccelerator, S2faError> {
        let mut normalized = design.clone();
        normalized.normalize(&summary);
        // Structural rewrites (inner-loop tiling) where they apply cleanly,
        // attributes/pragmas for the rest — semantics are preserved, so
        // the same function is both the shipped source and the functional
        // kernel behind the registered accelerator.
        let (optimized, _transform_report) = apply_structural(&generated.cfunc, &normalized);
        ensure_no_new_errors(
            wellformed,
            &generated.cfunc,
            &optimized,
            self.options.tasks_hint,
        )?;
        let source = printer::to_c(&optimized);
        let time_model = AccelTimeModel {
            per_task_ms: estimate.time_ms / estimate.batch_tasks.max(1) as f64,
            setup_ms: AccelTimeModel::DRIVER_SETUP_MS,
        };
        let accelerator = Accelerator {
            id: spec.name.clone(),
            kernel: optimized,
            operator: spec.operator,
            input_layout: generated.input_layout.clone(),
            output_layout: generated.output_layout.clone(),
            time_model: Some(time_model),
        };
        Ok(CompiledAccelerator {
            generated,
            summary,
            space_size_log10: 0.0,
            dse: None,
            design: normalized,
            estimate,
            optimized_source: source,
            accelerator,
        })
    }
}

/// Runs the `s2fa-lint` well-formedness verifier over freshly generated
/// C and rejects the compilation on any error-severity finding.
fn ensure_well_formed(f: &s2fa_hlsir::CFunction) -> Result<LintReport, S2faError> {
    let report = verify_function(f);
    if report.has_errors() {
        let first = report.errors().next().expect("has_errors implies one");
        return Err(S2faError::IllFormed(first.to_string()));
    }
    Ok(report)
}

/// Differential verification around `apply_structural`: structural
/// rewrites must not *introduce* errors the pre-image did not have —
/// neither well-formedness errors (`E1xx`, exact-diagnostic diff) nor
/// dataflow errors (`E3xx`, diffed by code+subject since transforms
/// renumber statements and loops). `baseline` is the well-formedness
/// report [`ensure_well_formed`] already produced for `before`. The
/// post-image is checked first; `before`'s dataflow errors are computed
/// only when the post-image has one.
fn ensure_no_new_errors(
    baseline: &LintReport,
    before: &s2fa_hlsir::CFunction,
    after: &s2fa_hlsir::CFunction,
    tasks_hint: u32,
) -> Result<(), S2faError> {
    let introduced = transform_new_errors(
        baseline,
        || dataflow_errors(before, tasks_hint),
        after,
        tasks_hint,
    );
    match introduced.first() {
        Some(d) => Err(S2faError::IllFormed(format!(
            "structural transform introduced {d}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{CFunction, CType, Expr, LValue, LoopAttrs, LoopId, Param, ParamKind, Stmt};

    const HINT: u32 = 16;

    fn func(body: Vec<Stmt>) -> CFunction {
        CFunction {
            name: "k".into(),
            params: vec![Param {
                name: "out".into(),
                ty: CType::Float,
                kind: ParamKind::BufOut,
                elems_per_task: Some(1),
                broadcast: false,
            }],
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

    fn decl_x(init: Option<Expr>) -> Stmt {
        Stmt::Decl {
            name: "x".into(),
            ty: CType::Float,
            init,
        }
    }

    fn store_out(rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Index("out".into(), Box::new(Expr::ConstI(0))),
            rhs,
        }
    }

    /// `float acc[4]; for i < 8 { acc[0] = i }; out[0] = acc[0]`, the loop
    /// numbered `id`: every iteration writes `acc[0]`, an E303 race.
    fn racy(id: u32) -> Vec<Stmt> {
        vec![
            Stmt::DeclArr {
                name: "acc".into(),
                ty: CType::Float,
                len: 4,
            },
            counted(
                id,
                "i",
                8,
                vec![Stmt::Assign {
                    lhs: LValue::Index("acc".into(), Box::new(Expr::ConstI(0))),
                    rhs: Expr::var("i"),
                }],
            ),
            store_out(Expr::index("acc", Expr::ConstI(0))),
        ]
    }

    /// `float a[8]; for j < 16 { a[j] = j }`: `j` reaches 15, an E302.
    fn out_of_bounds(id: u32) -> Vec<Stmt> {
        vec![
            Stmt::DeclArr {
                name: "a".into(),
                ty: CType::Float,
                len: 8,
            },
            counted(
                id,
                "j",
                16,
                vec![Stmt::Assign {
                    lhs: LValue::Index("a".into(), Box::new(Expr::var("j"))),
                    rhs: Expr::var("j"),
                }],
            ),
        ]
    }

    /// Runs the pipeline's re-check on a hand-built pre-image and
    /// "rewrite"; the pre-image must be well-formed, as in the pipeline.
    fn recheck(before: &CFunction, after: &CFunction) -> Result<(), S2faError> {
        let wellformed = ensure_well_formed(before).expect("pre-image is well-formed");
        ensure_no_new_errors(&wellformed, before, after, HINT)
    }

    fn rejection(result: Result<(), S2faError>) -> String {
        match result {
            Err(S2faError::IllFormed(m)) => m,
            other => panic!("expected IllFormed, got {other:?}"),
        }
    }

    #[test]
    fn introduced_uninit_read_is_rejected_on_the_lazy_path() {
        // The pre-image is clean. The rewrite drops `x`'s initializer, and
        // only that error makes the check analyze the pre-image at all.
        let before = func(vec![
            decl_x(Some(Expr::ConstF(1.0))),
            store_out(Expr::var("x")),
        ]);
        let after = func(vec![decl_x(None), store_out(Expr::var("x"))]);
        assert!(!dataflow_errors(&before, HINT).has_errors());
        let m = rejection(recheck(&before, &after));
        assert!(m.contains("S2FA-E301"), "{m}");
        assert!(m.starts_with("structural transform introduced"), "{m}");
    }

    #[test]
    fn clean_rewrite_never_computes_the_pre_image_report() {
        let before = func(vec![
            decl_x(Some(Expr::ConstF(1.0))),
            store_out(Expr::var("x")),
        ]);
        let mut after = before.clone();
        after.body.push(store_out(Expr::ConstF(2.0)));
        let wellformed = verify_function(&before);
        let introduced = transform_new_errors(
            &wellformed,
            || panic!("the pre-image's dataflow report was computed"),
            &after,
            HINT,
        );
        assert!(introduced.is_empty(), "{introduced:?}");
        assert!(recheck(&before, &after).is_ok());
    }

    #[test]
    fn introduced_oob_index_is_rejected_on_the_eager_path() {
        // The pre-image carries an E303, so the post-image's errors are
        // diffed against the pre-image's: the race survives, the E302 is
        // new.
        let before = func(racy(0));
        let mut body = racy(0);
        body.extend(out_of_bounds(1));
        let after = func(body);
        let pre = dataflow_errors(&before, HINT);
        let codes: Vec<_> = pre.diagnostics.iter().map(|d| d.code.code).collect();
        assert_eq!(codes, vec!["S2FA-E303"]);
        let m = rejection(recheck(&before, &after));
        assert!(m.contains("S2FA-E302"), "{m}");
    }

    #[test]
    fn surviving_race_is_accepted() {
        // The rewrite renumbers the racy loop and moves its statements; the
        // E303 on `acc` matches the pre-image's by code and subject.
        let before = func(racy(0));
        let mut body = vec![store_out(Expr::ConstF(0.0))];
        body.extend(racy(5));
        let after = func(body);
        assert!(dataflow_errors(&after, HINT).has_errors());
        assert!(recheck(&before, &after).is_ok());
    }

    #[test]
    fn introduced_wellformedness_error_is_rejected() {
        // `y` is never declared: E101. Reads with no reaching definition
        // are not E301's, so this is the only finding.
        let before = func(vec![store_out(Expr::ConstF(0.0))]);
        let after = func(vec![store_out(Expr::var("y"))]);
        let m = rejection(recheck(&before, &after));
        assert!(m.contains("S2FA-E101"), "{m}");
    }
}
