//! Design-point legality pre-screen over `(KernelSummary, DesignConfig)`.
//!
//! Two layers with very different contracts:
//!
//! * **Warnings (`W21x`)** flag directives the Merlin normalization will
//!   repair or the estimator will price as waste — pipeline on an
//!   irreducible recurrence, factors the structural transform rejects,
//!   narrow ports. These never prune anything: the pipeline is defined to
//!   survive them.
//! * **Errors (`E201`/`E202`, and `E303` with attached write races)** are
//!   the pre-screen, [`prune_verdict`]: it reads the estimator's own
//!   feasibility verdict off the point's [`Estimate`], so a design point
//!   is marked statically dead **iff** [`Estimator::evaluate`] reports it
//!   infeasible — no second resource model, no false positives.

use crate::diag::{codes, Diagnostic, LintReport, Span};
use s2fa_hlsir::{CFunction, KernelSummary, LoopId, PipelineMode};
use s2fa_hlssim::{Device, Estimate, Estimator, Feasibility, KernelInvariants};
use s2fa_merlin::{check_factors, DesignConfig, TransformError};

/// Why the pre-screen rejected a point. The first two variants mirror the
/// estimator's only two infeasibility conditions, in check order; the
/// third is a *correctness* verdict from the attached write races and
/// only exists when `KernelSummary::dataflow` is attached (the
/// `--dataflow-prescreen` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneRule {
    /// `S2FA-E201`: the resource floor exceeds the utilization cap.
    ResourceCap,
    /// `S2FA-E202`: the replication product exceeds the routing bound.
    Unroutable,
    /// `S2FA-E303`: the point replicates a loop with a proven
    /// cross-iteration write-write race — the design is nondeterministic.
    WriteRace,
}

impl PruneRule {
    /// All rules, in stable reporting order.
    pub const ALL: [PruneRule; 3] = [
        PruneRule::ResourceCap,
        PruneRule::Unroutable,
        PruneRule::WriteRace,
    ];

    /// The lint code this rule reports under.
    pub fn code(self) -> crate::diag::LintCode {
        match self {
            PruneRule::ResourceCap => codes::RESOURCE_CAP,
            PruneRule::Unroutable => codes::UNROUTABLE,
            PruneRule::WriteRace => codes::REPLICATION_RACE,
        }
    }

    /// Dense index into per-rule counter arrays.
    pub fn index(self) -> usize {
        match self {
            PruneRule::ResourceCap => 0,
            PruneRule::Unroutable => 1,
            PruneRule::WriteRace => 2,
        }
    }
}

/// One pre-screen rejection: the rule and why it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneHit {
    /// Which rule fired.
    pub rule: PruneRule,
    /// For `E201`/`E202`, the estimator's infeasibility reason; for
    /// `E303`, the replicated loop and its race.
    pub reason: String,
}

/// The pre-screen verdict on one design point, read off the estimate the
/// estimator returned for it. `config` must be the normalized point that
/// `estimate` prices on `device`. Two rules, in this precedence:
///
/// 1. `E303`, only when write races are attached
///    (`KernelSummary::dataflow`, the `--dataflow-prescreen` path): the
///    point *replicates* a loop with a proven cross-iteration write-write
///    race — a parallel factor above one on the loop, or `flatten` on a
///    strict ancestor — so it is nondeterministic even when it would
///    synthesize (the estimator prices performance, not correctness).
/// 2. `E201`/`E202`: the estimate is infeasible; `E201` when it exceeds
///    the utilization cap, `E202` when only the routing bound fails.
///
/// Without attached facts the verdict is exactly the estimator's.
pub fn prune_verdict(
    summary: &KernelSummary,
    device: &Device,
    config: &DesignConfig,
    estimate: &Estimate,
) -> Option<PruneHit> {
    if let Some((id, reason)) = replicated_race(summary, config) {
        return Some(PruneHit {
            rule: PruneRule::WriteRace,
            reason: format!("replicating {id} is nondeterministic: {reason}"),
        });
    }
    let Feasibility::Infeasible(reason) = &estimate.feasibility else {
        return None;
    };
    let rule = if estimate.resources.max_utilization(device) > device.max_util {
        PruneRule::ResourceCap
    } else {
        PruneRule::Unroutable
    };
    Some(PruneHit {
        rule,
        reason: reason.clone(),
    })
}

/// `Some((loop, why))` when the normalized `config` replicates a loop
/// carrying a proven write-write race: a parallel factor above one on the
/// racy loop itself, or `flatten` on a strict ancestor (which fully
/// unrolls it). `None` without attached write races.
fn replicated_race(summary: &KernelSummary, config: &DesignConfig) -> Option<(LoopId, String)> {
    let df = summary.dataflow.as_ref()?;
    for (&id, race) in &df.loops {
        let Some(race) = race else {
            continue;
        };
        let replicated = config.loop_directive(id).parallel_factor() > 1
            || flattened_ancestor(summary, config, id);
        if replicated {
            return Some((
                id,
                format!(
                    "two iterations provably write the same element of `{}` \
                     (statements #{} and #{})",
                    race.array, race.stmt_a, race.stmt_b
                ),
            ));
        }
    }
    None
}

/// True when a strict ancestor of `id` is flattened in `config`.
fn flattened_ancestor(summary: &KernelSummary, config: &DesignConfig, id: LoopId) -> bool {
    let mut cur = summary.loop_info(id).and_then(|l| l.parent);
    while let Some(p) = cur {
        if config.loop_directive(p).pipeline == PipelineMode::Flatten {
            return true;
        }
        cur = summary.loop_info(p).and_then(|l| l.parent);
    }
    false
}

/// The design-point legality oracle for one kernel, for `s2fa_cli lint`.
///
/// Build once per kernel (it precomputes the estimator invariants) and
/// query many raw configurations: each query normalizes the point, prices
/// it, and asks [`prune_verdict`]. All methods are pure: the oracle keeps
/// no counters and emits no events, so diagnostic sampling (e.g. a
/// space's statically-dead fraction) can never perturb a search.
#[derive(Debug, Clone)]
pub struct Legality {
    summary: KernelSummary,
    estimator: Estimator,
    invariants: KernelInvariants,
}

impl Legality {
    /// An oracle for `summary` under `estimator`'s device and cost model.
    pub fn new(summary: &KernelSummary, estimator: &Estimator) -> Self {
        Legality {
            invariants: estimator.invariants(summary),
            summary: summary.clone(),
            estimator: estimator.clone(),
        }
    }

    /// The kernel this oracle screens.
    pub fn summary(&self) -> &KernelSummary {
        &self.summary
    }

    /// The pre-screen of a raw `config`: [`prune_verdict`] on its
    /// normalized form and that form's estimate. `Some` iff the estimator
    /// reports the point infeasible, or (with attached write races) the
    /// point replicates a racy loop.
    pub fn prescreen(&self, config: &DesignConfig) -> Option<PruneHit> {
        let mut norm = config.clone();
        norm.normalize(&self.summary);
        let estimate = self
            .estimator
            .evaluate_with(&self.summary, &self.invariants, &norm);
        prune_verdict(&self.summary, self.estimator.device(), &norm, &estimate)
    }

    /// True iff [`prescreen`](Self::prescreen) rejects the point.
    pub fn is_statically_dead(&self, config: &DesignConfig) -> bool {
        self.prescreen(config).is_some()
    }

    /// Full diagnostic check of one (raw) design point: `W21x` warnings
    /// for directives normalization will repair or the estimator will
    /// price as waste, plus the pre-screen verdict.
    pub fn check(&self, config: &DesignConfig) -> LintReport {
        let mut report = LintReport::new(&self.summary.name);
        self.warn_directives(config, &mut report);
        if let Some(hit) = self.prescreen(config) {
            report.push(hit.rule.code(), Span::kernel(), hit.reason);
        }
        report
    }

    fn warn_directives(&self, config: &DesignConfig, report: &mut LintReport) {
        for (&id, d) in &config.loops {
            let Some(l) = self.summary.loop_info(id) else {
                continue;
            };
            let tc = l.trip_count;
            if let Some(t) = d.tile {
                if t <= 1 || t >= tc {
                    report.push(
                        codes::FACTOR_OUT_OF_RANGE,
                        Span::at_loop(id),
                        format!("tile factor {t} is outside (1, {tc}); normalization drops it"),
                    );
                } else if tc % t != 0 {
                    report.push(
                        codes::NON_DIVIDING_FACTOR,
                        Span::at_loop(id),
                        format!("tile factor {t} does not divide trip count {tc}"),
                    );
                }
            }
            let u = d.parallel_factor();
            if u > tc {
                report.push(
                    codes::FACTOR_OUT_OF_RANGE,
                    Span::at_loop(id),
                    format!("parallel factor {u} exceeds trip count {tc}; normalization clamps it"),
                );
            } else if u > 1 && tc % u != 0 {
                report.push(
                    codes::NON_DIVIDING_FACTOR,
                    Span::at_loop(id),
                    format!("parallel factor {u} does not divide trip count {tc}"),
                );
            }
            let irreducible = l.carried.as_ref().is_some_and(|c| !c.reducible);
            let reducible = l.carried.as_ref().is_some_and(|c| c.reducible);
            if d.pipeline == PipelineMode::On && irreducible {
                report.push(
                    codes::PIPELINE_IRREDUCIBLE,
                    Span::at_loop(id),
                    format!("loop {id} carries an irreducible recurrence; the II stays chained"),
                );
            }
            if u > 1 && irreducible {
                report.push(
                    codes::PARALLEL_IRREDUCIBLE,
                    Span::at_loop(id),
                    format!(
                        "parallel {u} on the non-reducible recurrence of {id}; \
                         normalization resets it to 1"
                    ),
                );
            }
            if d.tree_reduce && !reducible {
                report.push(
                    codes::USELESS_TREE_REDUCE,
                    Span::at_loop(id),
                    format!("loop {id} has no reducible recurrence to tree-reduce"),
                );
            }
            if d.pipeline == PipelineMode::Flatten {
                let live: Vec<_> = self
                    .summary
                    .descendants(id)
                    .into_iter()
                    .filter(|sub| {
                        config.loops.get(sub).is_some_and(|sd| {
                            sd.tile.is_some()
                                || sd.parallel_factor() > 1
                                || sd.pipeline != PipelineMode::Off
                                || sd.tree_reduce
                        })
                    })
                    .collect();
                if !live.is_empty() {
                    let subs = live
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    report.push(
                        codes::FLATTEN_LIVE_SUBLOOPS,
                        Span::at_loop(id),
                        format!(
                            "flatten on {id} fully unrolls {subs}, whose own factors \
                             are dead; normalization zeroes them"
                        ),
                    );
                }
            }
        }
        for (name, &bits) in &config.buffer_bits {
            if let Some(b) = self.summary.buffer(name) {
                if bits < b.elem_bits {
                    report.push(
                        codes::NARROW_PORT,
                        Span::subject(name.as_str()),
                        format!(
                            "port width {bits} is below the {}-bit element of `{name}`; \
                             every access straddles words",
                            b.elem_bits
                        ),
                    );
                }
            }
        }
    }
}

/// Maps the [`TransformError`]s of [`check_factors`] against the real AST
/// into `W212`/`W213` diagnostics — the structural-transform view of the
/// factor rules, used by `s2fa_cli lint` where the generated `CFunction`
/// is at hand.
pub fn factor_diagnostics(f: &CFunction, config: &DesignConfig) -> Vec<Diagnostic> {
    check_factors(f, config)
        .into_iter()
        .map(|e| {
            let (code, span) = match &e {
                TransformError::NonDividingFactor { id, .. } => {
                    (codes::NON_DIVIDING_FACTOR, Span::at_loop(*id))
                }
                TransformError::BadFactor { id, .. } => {
                    (codes::FACTOR_OUT_OF_RANGE, Span::at_loop(*id))
                }
                TransformError::NoSuchLoop(id) | TransformError::DynamicBound(id) => {
                    (codes::FACTOR_OUT_OF_RANGE, Span::at_loop(*id))
                }
            };
            Diagnostic {
                code,
                span,
                message: e.to_string(),
            }
        })
        .collect()
}
