//! Integration smoke test of the DSE driver dynamics on a synthetic
//! dot-product kernel, asserting the §4.3 behaviours end to end.
use s2fa_dse::{run_dse, vanilla_options, DseOptions};
use s2fa_hlsir::*;
use s2fa_hlssim::Estimator;

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

#[test]
fn dse_dynamics_on_a_synthetic_kernel() {
    let s = summary();
    let est = Estimator::new();
    let out = run_dse(&s, &est, &DseOptions::s2fa());
    let van = run_dse(&s, &est, &vanilla_options());

    // Both flows find feasible designs of comparable quality.
    assert!(out.best_value().is_finite());
    assert!(van.best_value().is_finite());
    let ratio = van.best_value() / out.best_value();
    assert!((0.5..=2.0).contains(&ratio), "qor ratio {ratio}");

    // S2FA ran partitions in parallel across the 8 workers ...
    assert!(out.partitions >= 8, "partitions: {}", out.partitions);
    let workers: std::collections::HashSet<usize> =
        out.per_partition.iter().map(|p| p.worker).collect();
    assert!(workers.len() >= 4, "worker spread: {workers:?}");
    // ... every partition charged virtual time and evaluations ...
    for p in &out.per_partition {
        if p.evaluations > 0 {
            assert!(p.elapsed_minutes > 0.0, "partition {}: {p:?}", p.index);
            assert!(!p.rules.is_empty());
        }
    }
    // ... and the makespan respects the budget.
    assert!(out.elapsed_minutes <= 240.0 + 1e-9);
    assert!((van.elapsed_minutes - 240.0).abs() < 1e-9);

    // The seeded runs start from a feasible design immediately.
    let first = out.convergence.first().expect("improvements recorded");
    assert!(first.1.is_finite());
}
