#![warn(missing_docs)]

//! # s2fa-lint — static legality & well-formedness analysis
//!
//! S2FA's DSE burns multi-minute virtual HLS evaluations; spending them on
//! design points that are *statically* doomed — or on kernels a transform
//! has silently corrupted — is pure waste. This crate lifts those checks
//! into a rule-based analyzer with stable `S2FA-Exxx` / `S2FA-Wxxx` codes
//! (rustc-style rendering, loop-path/buffer spans), in two families:
//!
//! * [`wellformed::verify_function`] — IR well-formedness over the
//!   generated [`CFunction`] AST: use-before-def, constant out-of-bounds
//!   indices, duplicate loop ids, writes to input buffers, intrinsic
//!   arity, silent truncation, dead loops. Runs after
//!   bytecode→C codegen, and differentially ([`wellformed::new_errors`])
//!   after every `merlin::apply_structural` rewrite.
//! * [`legality::prune_verdict`] — a design-point pre-screen over
//!   `(KernelSummary, DesignConfig)` and the point's estimate. The
//!   `E201`/`E202` errors mark a point statically dead **iff** the
//!   estimator reports it infeasible — the verdict is read off the
//!   estimate itself, so it has no false positives by construction.
//!   [`legality::Legality`] wraps it for raw points and adds the
//!   warnings: directives the Merlin normalization repairs (they are
//!   never pruned).
//! * [`dataflow_rules::dataflow_checks`] — dataflow-backed rules
//!   (`E3xx`/`W310`) from one syntax-directed pass over the kernel body
//!   (definite initialization forward, liveness backward) and the affine
//!   dependence engine of `hlsir::dataflow`: provably
//!   uninitialized reads, provably out-of-bounds affine indices,
//!   cross-iteration replication write-races, dead stores. The `E3xx`
//!   verdicts are validated dynamically against the IR interpreter
//!   (`tests/dataflow_prop.rs`).
//!
//! [`transform_new_errors`] is the differential check around a
//! `merlin::apply_structural` rewrite that combines the two: the rewrite
//! must introduce neither `E1xx` nor `E3xx` errors.
//!
//! The evaluation engine asks [`prune_verdict`] after each estimate and
//! charges a pruned point no virtual minutes (`pruned_illegal` on
//! `DseOutcome`, `Event::Prune` in the trace stream), and `s2fa_cli lint`
//! prints the per-kernel reports. The severity split is
//! load-bearing: only verdicts that provably match the dynamic pipeline
//! (`E`) may prune; everything heuristic stays `W`.

pub mod dataflow_rules;
pub mod diag;
pub mod legality;
pub mod wellformed;

pub use dataflow_rules::{dataflow_checks, dataflow_errors, new_dataflow_errors};
pub use diag::{codes, Diagnostic, LintCode, LintReport, Severity, Span};
pub use legality::{factor_diagnostics, prune_verdict, Legality, PruneHit, PruneRule};
pub use wellformed::{new_errors, verify_function};

use s2fa_hlsir::CFunction;

/// Error-severity findings a structural rewrite introduced into `after`:
/// first the well-formedness errors absent from `wellformed_before`, the
/// pre-image's [`verify_function`] report ([`new_errors`]), then the
/// dataflow errors absent from the pre-image's dataflow report
/// ([`new_dataflow_errors`]).
///
/// The pre-image's dataflow report is lazy: `dataflow_before` runs only
/// when `after` has a dataflow error. That is exact, because
/// [`new_dataflow_errors`] returns a subset of `after`'s errors. The
/// closure may return [`dataflow_checks`] or [`dataflow_errors`] of the
/// pre-image; the diff reads only errors, and the two agree on those.
pub fn transform_new_errors(
    wellformed_before: &LintReport,
    dataflow_before: impl FnOnce() -> LintReport,
    after: &CFunction,
    tasks_hint: u32,
) -> Vec<Diagnostic> {
    let mut introduced = new_errors(wellformed_before, &verify_function(after));
    let post = dataflow_errors(after, tasks_hint);
    if post.has_errors() {
        introduced.extend(new_dataflow_errors(&dataflow_before(), &post));
    }
    introduced
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{
        Access, BufferDir, BufferInfo, CarriedDep, KernelSummary, LoopId, LoopInfo, OpCounts,
        PipelineMode,
    };
    use s2fa_hlssim::{Estimator, Feasibility};
    use s2fa_merlin::DesignConfig;

    /// The dot-product fixture shared with the hlssim/engine test suites:
    /// task loop (1024) over a reducible reduction loop (64).
    fn summary() -> KernelSummary {
        let mut inner_ops = OpCounts::new();
        inner_ops.fadd = 1;
        inner_ops.fmul = 1;
        inner_ops.mem_read = 2;
        let mut chain = OpCounts::new();
        chain.fadd = 1;
        let mut outer_ops = OpCounts::new();
        outer_ops.mem_write = 1;
        KernelSummary {
            name: "dot".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "t".into(),
                    trip_count: 1024,
                    depth: 0,
                    parent: None,
                    children: vec![LoopId(1)],
                    body_ops: outer_ops,
                    accesses: vec![Access {
                        buffer: "out_1".into(),
                        write: true,
                    }],
                    carried: None,
                },
                LoopInfo {
                    id: LoopId(1),
                    var: "j".into(),
                    trip_count: 64,
                    depth: 1,
                    parent: Some(LoopId(0)),
                    children: vec![],
                    body_ops: inner_ops,
                    accesses: vec![
                        Access {
                            buffer: "in_1".into(),
                            write: false,
                        },
                        Access {
                            buffer: "w".into(),
                            write: false,
                        },
                    ],
                    carried: Some(CarriedDep {
                        via: "s".into(),
                        chain,
                        reducible: true,
                    }),
                },
            ],
            buffers: vec![
                BufferInfo {
                    name: "in_1".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "w".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "out_1".into(),
                    elem_bits: 32,
                    len: 1,
                    dir: BufferDir::Out,
                    broadcast: false,
                },
            ],
            task_loop: LoopId(0),
            tasks_hint: 1024,
            dataflow: None,
        }
    }

    /// The verdict on raw `cfg`: its normalized form and that form's
    /// estimate, as the evaluation engine hands them over.
    fn verdict(s: &KernelSummary, est: &Estimator, cfg: &DesignConfig) -> Option<PruneHit> {
        let mut norm = cfg.clone();
        norm.normalize(s);
        prune_verdict(s, est.device(), &norm, &est.evaluate(s, cfg))
    }

    #[test]
    fn prescreen_matches_the_estimator_verdict() {
        let s = summary();
        let est = Estimator::new();
        let oracle = Legality::new(&s, &est);
        let mut cfgs = vec![DesignConfig::area_seed(&s), DesignConfig::perf_seed(&s)];
        let mut huge = DesignConfig::perf_seed(&s);
        huge.loop_directive_mut(LoopId(0)).parallel = 512;
        huge.loop_directive_mut(LoopId(1)).parallel = 64;
        cfgs.push(huge);
        let mut pruned = 0;
        for cfg in &cfgs {
            let hit = verdict(&s, &est, cfg);
            let eval = est.evaluate(&s, cfg);
            assert_eq!(hit.is_some(), !eval.is_feasible(), "{cfg:?}");
            if let Some(hit) = &hit {
                assert_ne!(hit.rule, PruneRule::WriteRace);
                assert_eq!(
                    eval.feasibility,
                    Feasibility::Infeasible(hit.reason.clone())
                );
                pruned += 1;
            }
            assert_eq!(oracle.prescreen(cfg), hit, "the oracle asks the same rule");
        }
        assert!(pruned > 0, "the fixture must prune a point");
    }

    #[test]
    fn seed_verdicts_match_the_estimator() {
        let s = summary();
        let est = Estimator::new();
        let oracle = Legality::new(&s, &est);
        // The conservative area seed is always clean; the aggressive perf
        // seed may legitimately blow the cap — either way the E-verdict
        // must equal the estimator's.
        let area = oracle.check(&DesignConfig::area_seed(&s));
        assert!(!area.has_errors(), "{}", area.render());
        for cfg in [DesignConfig::area_seed(&s), DesignConfig::perf_seed(&s)] {
            let r = oracle.check(&cfg);
            assert_eq!(r.has_errors(), !est.evaluate(&s, &cfg).is_feasible());
        }
    }

    #[test]
    fn racy_replication_is_pruned_only_with_facts() {
        use s2fa_hlsir::dataflow::{KernelDataflow, RaceFinding};
        let mut s = summary();
        let est = Estimator::new();
        let mut par = DesignConfig::area_seed(&s);
        par.loop_directive_mut(LoopId(1)).parallel = 4;
        // Without attached facts the verdict is the estimator's: feasible.
        assert!(est.evaluate(&s, &par).is_feasible());
        assert!(verdict(&s, &est, &par).is_none());
        // Attach a proven race on L1.
        let mut loops = std::collections::BTreeMap::new();
        loops.insert(
            LoopId(1),
            Some(RaceFinding {
                loop_id: LoopId(1),
                array: "acc".into(),
                stmt_a: 3,
                stmt_b: 3,
            }),
        );
        s.dataflow = Some(KernelDataflow { loops });
        // Sequential execution of a racy loop stays legal...
        assert!(verdict(&s, &est, &DesignConfig::area_seed(&s)).is_none());
        // ...but replicating it is pruned as nondeterministic.
        let hit = verdict(&s, &est, &par).expect("replicated race");
        assert_eq!(hit.rule, PruneRule::WriteRace);
        assert_eq!(hit.rule.code().code, "S2FA-E303");
        // Flatten on the parent fully unrolls the racy child: pruned too.
        let mut flat = DesignConfig::area_seed(&s);
        flat.loop_directive_mut(LoopId(0)).pipeline = PipelineMode::Flatten;
        assert_eq!(
            verdict(&s, &est, &flat).expect("flattened race").rule,
            PruneRule::WriteRace
        );
        // The oracle's full check reports it under E303.
        assert!(Legality::new(&s, &est)
            .check(&par)
            .diagnostics
            .iter()
            .any(|d| d.code.code == "S2FA-E303"));
    }

    #[test]
    fn directive_smells_produce_w_codes() {
        let s = summary();
        let oracle = Legality::new(&s, &Estimator::new());
        let mut cfg = DesignConfig::area_seed(&s);
        {
            let d = cfg.loop_directive_mut(LoopId(1));
            d.tile = Some(48); // 48 does not divide 64
            d.parallel = 9999; // clamps
            d.tree_reduce = false;
        }
        cfg.loop_directive_mut(LoopId(0)).pipeline = PipelineMode::Flatten;
        cfg.loop_directive_mut(LoopId(0)).tree_reduce = true;
        cfg.buffer_bits.insert("in_1".into(), 16);
        let r = oracle.check(&cfg);
        let fired: Vec<_> = r.diagnostics.iter().map(|d| d.code.code).collect();
        for expect in [
            "S2FA-W211", // flatten over a live sub-loop
            "S2FA-W212", // non-dividing tile
            "S2FA-W213", // clamped parallel
            "S2FA-W216", // tree_reduce without a recurrence on L0
            "S2FA-W215", // 16-bit port under a 32-bit element
        ] {
            assert!(fired.contains(&expect), "missing {expect} in {fired:?}");
        }
    }
}
