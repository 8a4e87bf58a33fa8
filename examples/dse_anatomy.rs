//! Anatomy of the design-space exploration: what §4 of the paper actually
//! does, step by step, on one kernel.
//!
//! Shows the identified design space (Table 1), the decision-tree
//! partition rules (§4.3.1), the two generated seeds (§4.3.2), the
//! per-partition exploration with the Shannon-entropy stop (§4.3.3), and
//! the resulting convergence against vanilla OpenTuner.
//!
//! ```text
//! cargo run --release -p s2fa --example dse_anatomy
//! ```

use s2fa::compile_kernel;
use s2fa_dse::{run_dse, vanilla_options, DecisionTree, DesignSpace, DseOptions};
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_merlin::DesignConfig;
use s2fa_workloads::knn;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = knn::workload().spec;
    let estimator = Estimator::new();

    // --- design-space identification (§4.1) ------------------------------
    let generated = compile_kernel(&spec)?;
    let summary = analysis::summarize(&generated.cfunc, 1024)?;
    let space = DesignSpace::build(&summary);
    println!("=== design space (Table 1) for {} ===", summary.name);
    for p in space.space().params() {
        println!("  {:<16} {} values", p.name, p.cardinality());
    }
    println!("  total: 10^{:.1} design points\n", space.size_log10());

    // --- seeds (§4.3.2) ---------------------------------------------------
    let perf = DesignConfig::perf_seed(&summary);
    let area = DesignConfig::area_seed(&summary);
    println!("=== generated seeds ===");
    println!("  performance-driven: {}", perf.brief());
    println!("    -> {}", estimator.evaluate(&summary, &perf));
    println!("  area-driven:        {}", area.brief());
    println!("    -> {}\n", estimator.evaluate(&summary, &area));

    // --- static partitioning (§4.3.1) --------------------------------------
    let tree = DecisionTree::build(&space, &summary, |cfgs| {
        cfgs.iter()
            .map(|cfg| estimator.evaluate(&summary, &space.decode(cfg)).objective())
            .collect()
    });
    println!("=== decision-tree partitions (ranked, most promising first) ===");
    for (i, rule) in tree.describe().iter().enumerate() {
        println!("  {i:>2}: {rule}");
    }

    // --- the full DSE vs vanilla OpenTuner (§5.2) ---------------------------
    println!("\n=== exploration ===");
    let s2fa = run_dse(&summary, &estimator, &DseOptions::s2fa());
    let vanilla = run_dse(&summary, &estimator, &vanilla_options());
    println!(
        "  S2FA:      best {:.4} ms after {:.0} virtual minutes ({} evaluations)",
        s2fa.best_value(),
        s2fa.elapsed_minutes,
        s2fa.total_evaluations
    );
    for p in s2fa.per_partition.iter().take(4) {
        println!(
            "    partition {} on core {}: best {:.4} ms, {:?} after {:.0} min",
            p.index, p.worker, p.best_value, p.reason, p.elapsed_minutes
        );
    }
    println!(
        "  OpenTuner: best {:.4} ms after the fixed {:.0} minutes ({} evaluations)",
        vanilla.best_value(),
        vanilla.elapsed_minutes,
        vanilla.total_evaluations
    );
    println!(
        "\n  QoR ratio (vanilla / S2FA): {:.2}x; S2FA terminated {:.0} minutes earlier",
        vanilla.best_value() / s2fa.best_value(),
        vanilla.elapsed_minutes - s2fa.elapsed_minutes
    );
    Ok(())
}
