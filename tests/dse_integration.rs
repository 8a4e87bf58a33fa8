//! DSE integration over real kernels: the §4.3 optimizations behave as the
//! paper describes when driven end to end.

use s2fa::compile_kernel;
use s2fa_dse::{run_dse, vanilla_options, DseOptions, StoppingKind};
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_tuner::StopReason;
use s2fa_workloads::{kmeans, knn};

fn summary_of(spec: &s2fa_sjvm::KernelSpec) -> s2fa_hlsir::KernelSummary {
    let g = compile_kernel(spec).unwrap();
    analysis::summarize(&g.cfunc, 1024).unwrap()
}

#[test]
fn s2fa_terminates_before_the_vanilla_time_limit() {
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    let s2 = run_dse(&s, &est, &DseOptions::s2fa());
    let va = run_dse(&s, &est, &vanilla_options());
    assert!(s2.elapsed_minutes < va.elapsed_minutes);
    assert!(
        (va.elapsed_minutes - 240.0).abs() < 1e-9,
        "vanilla runs the full 4 h"
    );
    // and at least one partition stopped via the entropy criterion
    assert!(s2
        .per_partition
        .iter()
        .any(|p| p.reason == StopReason::Converged));
}

#[test]
fn s2fa_matches_or_beats_vanilla_on_knn() {
    // KNN is a kernel where the partitioned, seeded search wins clearly in
    // this reproduction (cf. EXPERIMENTS.md).
    let s = summary_of(&knn::workload().spec);
    let est = Estimator::new();
    let s2 = run_dse(&s, &est, &DseOptions::s2fa());
    let va = run_dse(&s, &est, &vanilla_options());
    assert!(
        s2.best_value() <= va.best_value(),
        "s2fa {} vs vanilla {}",
        s2.best_value(),
        va.best_value()
    );
}

#[test]
fn kmeans_parity_is_the_documented_exception() {
    // Fig. 3: "OpenTuner also achieves the same performance as S2FA [for
    // KMeans] ... because the design space of KMeans is relatively small".
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    let s2 = run_dse(&s, &est, &DseOptions::s2fa());
    let va = run_dse(&s, &est, &vanilla_options());
    let ratio = va.best_value() / s2.best_value();
    assert!(
        (0.7..=1.4).contains(&ratio),
        "expected near-parity on KMeans, got ratio {ratio}"
    );
}

#[test]
fn seeds_make_the_first_minutes_productive() {
    // The QoR of the first explored points shows the seed effect (§5.2):
    // the seeded run has a feasible design almost immediately.
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    let seeded = run_dse(&s, &est, &DseOptions::s2fa());
    let first_feasible_minute = seeded
        .convergence
        .first()
        .map(|&(m, _)| m)
        .expect("something feasible was found");
    assert!(
        first_feasible_minute < 30.0,
        "first feasible design at minute {first_feasible_minute}"
    );
}

#[test]
fn all_stopping_kinds_run_to_completion() {
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    for kind in [
        StoppingKind::TimeLimit,
        StoppingKind::Trivial { k: 10 },
        StoppingKind::Entropy { theta: 0.1, n: 3 },
    ] {
        let mut opts = DseOptions::s2fa();
        opts.stopping = kind;
        opts.budget_minutes = 90.0;
        let out = run_dse(&s, &est, &opts);
        assert!(out.best.is_some(), "{kind:?} found a design");
        assert!(out.elapsed_minutes <= 90.0 + 1e-9);
    }
}

#[test]
fn partition_union_preserves_the_best_known_design() {
    // §4.3.1: "since all partitions are disjoint and the union of all
    // partitions is the original space, our design space partition
    // approach preserves the optimality" — the partitioned run must be
    // able to reach any design the unpartitioned run found, given the
    // same budget (within noise; we check it isn't catastrophically
    // worse).
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    let mut unpart = DseOptions::s2fa();
    unpart.partition = false;
    let part = run_dse(&s, &est, &DseOptions::s2fa());
    let flat = run_dse(&s, &est, &unpart);
    assert!(
        part.best_value() <= flat.best_value() * 2.0,
        "partitioned {} vs flat {}",
        part.best_value(),
        flat.best_value()
    );
}

#[test]
fn full_dse_is_deterministic_on_a_real_kernel() {
    // Thread scheduling must not leak into results: two complete runs on
    // the same kernel produce byte-identical outcomes.
    let s = summary_of(&kmeans::workload().spec);
    let est = Estimator::new();
    let mut opts = DseOptions::s2fa();
    opts.budget_minutes = 90.0;
    let a = run_dse(&s, &est, &opts);
    let b = run_dse(&s, &est, &opts);
    assert_eq!(a.best_value(), b.best_value());
    assert_eq!(a.total_evaluations, b.total_evaluations);
    assert_eq!(a.convergence, b.convergence);
    assert_eq!(a.partitions, b.partitions);
    for (pa, pb) in a.per_partition.iter().zip(&b.per_partition) {
        assert_eq!(pa.evaluations, pb.evaluations);
        assert_eq!(pa.best_value, pb.best_value);
        assert_eq!(pa.worker, pb.worker);
    }
}

#[test]
fn different_rng_seeds_explore_differently_but_converge_similarly() {
    // KNN's larger space guarantees post-seed improvements, so the traces
    // genuinely depend on the exploration RNG. (On KMeans the generated
    // seeds are already optimal and the traces would coincide.)
    let s = summary_of(&knn::workload().spec);
    let est = Estimator::new();
    let mut a_opts = DseOptions::s2fa();
    a_opts.budget_minutes = 120.0;
    let mut b_opts = a_opts.clone();
    b_opts.rng_seed = 777;
    let a = run_dse(&s, &est, &a_opts);
    let b = run_dse(&s, &est, &b_opts);
    // exploration differs ...
    assert_ne!(a.convergence, b.convergence);
    // ... but both land within 2x of each other on this small space
    let ratio = a.best_value() / b.best_value();
    assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn outcome_invariant_to_eval_threads_on_every_table2_kernel() {
    // The probe sample and the partitions run on the DSE's parallel map;
    // how many executors share that work must not reach the outcome.
    let est = Estimator::new();
    for w in s2fa_workloads::all_workloads() {
        let s = summary_of(&w.spec);
        let mut opts = DseOptions::s2fa();
        opts.budget_minutes = 60.0;
        let runs: Vec<_> = [1, 3]
            .into_iter()
            .map(|threads| {
                opts.eval_threads = threads;
                run_dse(&s, &est, &opts)
            })
            .collect();
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(a.best, b.best, "{}: best", w.name);
        assert_eq!(a.convergence, b.convergence, "{}: convergence", w.name);
        assert_eq!(a.total_evaluations, b.total_evaluations, "{}", w.name);
        assert_eq!(a.per_partition.len(), b.per_partition.len(), "{}", w.name);
        for (pa, pb) in a.per_partition.iter().zip(&b.per_partition) {
            let key = |p: &s2fa_dse::PartitionRun| {
                (p.rules.clone(), p.evaluations, p.best_value, p.worker)
            };
            assert_eq!(key(pa), key(pb), "{}: partition {}", w.name, pa.index);
        }
    }
}
