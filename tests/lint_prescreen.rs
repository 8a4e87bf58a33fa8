//! The legality pre-screen inside the DSE: exact pruning must be free.
//!
//! `DseOptions::prescreen` hands every candidate's estimate to the
//! `s2fa-lint` legality verdict (`prune_verdict`). The verdict reads the
//! estimate of the engine's one model walk, so a pruned point keeps the
//! exact `+inf` objective the estimator gave it — the search trajectory
//! is value-identical, and only the virtual HLS clock shrinks: a pruned
//! point is charged zero minutes. These tests pin that bargain down over
//! the paper's eight workloads.

use s2fa::compile_kernel;
use s2fa_dse::{
    run_dse, run_dse_traced, DecisionTree, DesignSpace, DseOptions, DseOutcome, EvalEngine,
};
use s2fa_hlsir::{analysis, dataflow, KernelSummary, LoopId, PipelineMode};
use s2fa_hlssim::Estimator;
use s2fa_lint::Legality;
use s2fa_merlin::DesignConfig;
use s2fa_trace::RingSink;
use s2fa_workloads::all_workloads;
use std::sync::Arc;

fn summaries() -> Vec<(&'static str, KernelSummary)> {
    all_workloads()
        .iter()
        .map(|w| {
            let g = compile_kernel(&w.spec).expect(w.name);
            let s = analysis::summarize(&g.cfunc, 1024).expect(w.name);
            (w.name, s)
        })
        .collect()
}

fn prescreen_options() -> DseOptions {
    let mut opts = DseOptions::s2fa();
    opts.prescreen = true;
    opts
}

/// The fields that define an outcome's search trajectory (everything the
/// clock-accounting can influence), for bit-identity comparisons.
fn outcome_key(o: &DseOutcome) -> (Option<String>, Vec<(u64, u64)>, u64, u64) {
    (
        o.best.as_ref().map(|(c, e)| format!("{c:?} {e:?}")),
        o.convergence
            .iter()
            .map(|&(m, v)| (m.to_bits(), v.to_bits()))
            .collect(),
        o.total_evaluations,
        o.elapsed_minutes.to_bits(),
    )
}

#[test]
fn prescreen_keeps_qor_and_cuts_estimator_invocations() {
    // The tentpole acceptance property: on every workload the pre-screened
    // run reaches an equal-or-better QoR while invoking the estimator
    // (`cache.misses`) strictly fewer times; KMeans and S-W must actually
    // prune (their spaces are rich in statically infeasible points).
    let est = Estimator::new();
    for (name, s) in summaries() {
        let base = run_dse(&s, &est, &DseOptions::s2fa());
        let pre = run_dse(&s, &est, &prescreen_options());

        assert!(
            pre.best_value() <= base.best_value(),
            "{name}: prescreen QoR {} worse than base {}",
            pre.best_value(),
            base.best_value()
        );
        assert!(
            pre.cache.misses < base.cache.misses,
            "{name}: prescreen misses {} not below base {}",
            pre.cache.misses,
            base.cache.misses
        );
        assert!(
            pre.elapsed_minutes <= base.elapsed_minutes + 1e-9,
            "{name}: pruning must never lengthen the virtual run"
        );
        if name == "KMeans" || name == "S-W" {
            assert!(pre.pruned_illegal > 0, "{name}: expected pruned points");
        }
        // Bookkeeping invariant: the per-rule split sums back to the total.
        let by_rule: u64 = pre.pruned_by_rule.iter().map(|(_, n)| n).sum();
        assert_eq!(by_rule, pre.pruned_illegal, "{name}: rule split drifted");
        assert_eq!(base.pruned_illegal, 0, "{name}: base run must not prune");
    }
}

#[test]
fn prescreen_off_is_bit_identical_to_the_default() {
    // `prescreen: false` is the default; setting it explicitly (or
    // re-running) must reproduce the identical trajectory — the new
    // plumbing is invisible until opted into.
    let est = Estimator::new();
    for (name, s) in summaries().into_iter().take(3) {
        let a = run_dse(&s, &est, &DseOptions::s2fa());
        let mut explicit = DseOptions::s2fa();
        explicit.prescreen = false;
        let b = run_dse(&s, &est, &explicit);
        assert_eq!(outcome_key(&a), outcome_key(&b), "{name}");
    }
}

#[test]
fn pruned_points_never_win_and_convergence_stays_sane() {
    // The screen only ever removes `+inf` points from the estimator's
    // workload, so the winner must be a genuinely feasible design and the
    // best-so-far trace must stay non-increasing. (The full trajectory is
    // *not* bit-identical to the base run — pruned points charge zero
    // virtual minutes, so the clock buys extra exploration; that surplus
    // is exactly the point.)
    let est = Estimator::new();
    for (name, s) in summaries() {
        let pre = run_dse(&s, &est, &prescreen_options());
        let (_, best) = pre.best.as_ref().expect(name);
        assert!(best.is_feasible(), "{name}: a pruned point won the search");
        assert!(best.time_ms.is_finite(), "{name}");
        for w in pre.convergence.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-12,
                "{name}: convergence regressed from {} to {}",
                w[0].1,
                w[1].1
            );
        }
    }
}

#[test]
fn dead_fraction_is_a_share_on_every_partition_leaf() {
    // The whole-space figure `s2fa_cli lint` reports, taken on each leaf
    // of the DSE's partition tree instead.
    let est = Estimator::new();
    for (name, s) in summaries().into_iter().take(3) {
        let ds = DesignSpace::build(&s);
        let engine = EvalEngine::new(&s, &est);
        let tree = DecisionTree::build(&ds, &s, |cfgs| {
            cfgs.iter()
                .map(|cfg| engine.evaluate(&ds.decode(cfg)).objective())
                .collect()
        });
        let oracle = Legality::new(&s, &est);
        let leaves = tree.leaves();
        assert!(leaves.len() > 1, "{name}: the tree did not split");
        for (i, leaf) in leaves.iter().enumerate() {
            let dead = ds.dead_fraction(leaf, &oracle, 64, i as u64);
            assert!(
                (0.0..=1.0).contains(&dead),
                "{name}: leaf {i} dead_fraction {dead}"
            );
        }
    }
}

#[test]
fn prune_events_stream_through_the_trace_sink() {
    // Every pruned point emits exactly one `Event::Prune` carrying its
    // rule code; the stream totals must reconcile with the counters.
    let est = Estimator::new();
    let (name, s) = summaries().swap_remove(7); // S-W: prunes heavily
    let sink = Arc::new(RingSink::new(1 << 16));
    let out = run_dse_traced(&s, &est, &prescreen_options(), sink.clone());
    assert!(out.pruned_illegal > 0, "{name}: expected pruning");
    let prunes = sink.events_where(|e| e.kind() == "prune");
    assert_eq!(prunes.len() as u64, out.pruned_illegal, "{name}");
    for e in &prunes {
        match e {
            s2fa_trace::Event::Prune { rule } => {
                assert!(rule.starts_with("S2FA-E"), "{name}: odd rule {rule}")
            }
            other => panic!("{name}: non-prune event {other:?}"),
        }
    }
}

/// True when the normalized `cfg` replicates loop `id`: a parallel factor
/// above one on it, or `flatten` on a strict ancestor.
fn replicates(s: &KernelSummary, cfg: &DesignConfig, id: LoopId) -> bool {
    let mut cfg = cfg.clone();
    cfg.normalize(s);
    let mut flattened = false;
    let mut cur = s.loop_info(id).and_then(|l| l.parent);
    while let Some(p) = cur {
        flattened |= cfg.loop_directive(p).pipeline == PipelineMode::Flatten;
        cur = s.loop_info(p).and_then(|l| l.parent);
    }
    flattened || cfg.loop_directive(id).parallel_factor() > 1
}

#[test]
fn dataflow_prescreen_prunes_only_the_racy_kernels() {
    // With dependence facts attached, only AES and S-W carry a write race
    // (E303). On the other six the dependence screen has nothing to prune,
    // so the run must equal the resource-screen-only run; on all eight the
    // winner keeps every racy loop sequential.
    let est = Estimator::new();
    let mut opts = prescreen_options();
    opts.dataflow_prescreen = true;
    for w in all_workloads() {
        let name = w.name;
        let g = compile_kernel(&w.spec).expect(name);
        let plain = analysis::summarize(&g.cfunc, 1024).expect(name);
        let mut s = plain.clone();
        dataflow::attach(&mut s, &g.cfunc);
        let out = run_dse(&s, &est, &opts);
        let e303 = out
            .pruned_by_rule
            .iter()
            .find(|(code, _)| code == "S2FA-E303")
            .map_or(0, |&(_, n)| n);
        let racy: Vec<LoopId> = s
            .dataflow
            .as_ref()
            .expect("attached")
            .loops
            .iter()
            .filter_map(|(&id, race)| race.as_ref().map(|_| id))
            .collect();
        if name == "AES" || name == "S-W" {
            assert!(e303 > 0, "{name}: expected E303 prunes");
            assert!(!racy.is_empty(), "{name}: expected a racy loop");
        } else {
            assert_eq!(e303, 0, "{name}: unexpected E303 prunes");
            let base = run_dse(&plain, &est, &prescreen_options());
            assert_eq!(outcome_key(&out), outcome_key(&base), "{name}");
        }
        let (cfg, _) = out.best.as_ref().expect(name);
        for id in racy {
            assert!(!replicates(&s, cfg, id), "{name}: winner replicates {id:?}");
        }
    }
}
