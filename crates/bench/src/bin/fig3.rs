//! Regenerates **Fig. 3** — the design-space exploration process of S2FA
//! (solid lines) versus vanilla OpenTuner (dashed lines), both on eight
//! cores, plus the §5.2 ablation of the trivial stopping criterion.
//!
//! The y-axis is the normalized execution cycle, normalized (as in the
//! paper) to the first design found from the random seed of the vanilla
//! OpenTuner run.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin fig3
//! ```

use s2fa::compile_kernel;
use s2fa_bench::chart::{convergence_rows, downsample, Series};
use s2fa_bench::results::save;
use s2fa_dse::{run_dse, vanilla_options, DseOptions, DseOutcome, StoppingKind};
use s2fa_hlsir::analysis;
use s2fa_hlssim::Estimator;
use s2fa_obs::Json;
use s2fa_workloads::all_workloads;

/// Minutes at which the series are sampled for the text plot.
const SAMPLES: &[f64] = &[10.0, 30.0, 60.0, 90.0, 120.0, 180.0, 240.0];

struct KernelResult {
    name: &'static str,
    s2fa: DseOutcome,
    vanilla: DseOutcome,
    trivial: DseOutcome,
    /// First point of the vanilla run (the normalization base).
    base: f64,
}

fn main() {
    let estimator = Estimator::new();
    let mut results = Vec::new();
    for w in all_workloads() {
        let g = compile_kernel(&w.spec).expect("workloads compile");
        let s = analysis::summarize(&g.cfunc, 1024).expect("workloads analyze");
        let vanilla = run_dse(&s, &estimator, &vanilla_options());
        let s2fa = run_dse(&s, &estimator, &DseOptions::s2fa());
        let mut trivial_opts = DseOptions::s2fa();
        trivial_opts.stopping = StoppingKind::Trivial { k: 10 };
        let trivial = run_dse(&s, &estimator, &trivial_opts);
        let base = vanilla
            .convergence
            .first()
            .map(|&(_, v)| v)
            .unwrap_or(f64::NAN);
        results.push(KernelResult {
            name: w.name,
            s2fa,
            vanilla,
            trivial,
            base,
        });
    }

    println!("Fig. 3: DSE process — normalized execution cycle vs exploration time");
    println!("(normalized to vanilla OpenTuner's random-seed starting design)");
    for r in &results {
        println!("\n=== {} ===", r.name);
        let s2 = &r.s2fa;
        let va = &r.vanilla;
        let base = r.base;
        let series: Vec<Series<'_>> = vec![
            ("S2FA", Box::new(move |m| s2.best_at_minute(m) / base)),
            ("OpenTuner", Box::new(move |m| va.best_at_minute(m) / base)),
        ];
        print!("{}", convergence_rows(SAMPLES, &series));
        println!(
            "  S2FA terminated at {:.0} min ({} evals); OpenTuner ran the fixed {:.0} min ({} evals)",
            r.s2fa.elapsed_minutes,
            r.s2fa.total_evaluations,
            r.vanilla.elapsed_minutes,
            r.vanilla.total_evaluations
        );
    }

    // --- Summary statistics (the §5.2 claims) -----------------------------
    println!("\nSummary");
    println!("-------");
    let mut time_savings = Vec::new();
    let mut qor_ratios = Vec::new();
    for r in &results {
        // Time for S2FA to reach (within 2 % of) vanilla's final QoR —
        // the tolerance keeps the metric meaningful when the two flows
        // converge to designs a hair apart.
        let target = r.vanilla.best_value() * 1.02;
        let t_s2fa = r
            .s2fa
            .convergence
            .iter()
            .find(|&&(_, v)| v <= target)
            .map(|&(m, _)| m);
        let saving = t_s2fa
            .map(|t| 100.0 * (1.0 - t / 240.0))
            .unwrap_or(f64::NAN);
        if saving.is_finite() {
            time_savings.push(saving);
        }
        let ratio = r.vanilla.best_value() / r.s2fa.best_value();
        qor_ratios.push(ratio);
        println!(
            "  {:<7} reach-vanilla-QoR time saving: {:>6} | final QoR ratio (vanilla/S2FA): {:.2}x | S2FA end: {:.1} h",
            r.name,
            t_s2fa
                .map(|t| format!("{:.1}%", 100.0 * (1.0 - t / 240.0)))
                .unwrap_or_else(|| "n/a".into()),
            ratio,
            r.s2fa.elapsed_minutes / 60.0,
        );
    }
    let avg_saving = time_savings.iter().sum::<f64>() / time_savings.len().max(1) as f64;
    let avg_end: f64 =
        results.iter().map(|r| r.s2fa.elapsed_minutes).sum::<f64>() / results.len() as f64 / 60.0;
    println!(
        "\n  Average time saving to reach vanilla's 4-hour QoR: {avg_saving:.1}% (paper: 52.5%)"
    );
    println!("  Average S2FA termination: {avg_end:.1} h (paper: ~1.9 h; vanilla fixed at 4 h)");
    let kmeans = results
        .iter()
        .find(|r| r.name == "KMeans")
        .expect("kmeans present");
    println!(
        "  KMeans exception (small space): vanilla reaches {:.2}x of S2FA's QoR (paper: parity)",
        kmeans.vanilla.best_value() / kmeans.s2fa.best_value()
    );

    // --- Trivial stopping criterion ablation ------------------------------
    println!("\nStopping-criterion ablation (entropy vs trivial 10-iteration rule):");
    let mut ent_end = 0.0;
    let mut triv_end = 0.0;
    let mut qor_delta = Vec::new();
    for r in &results {
        ent_end += r.s2fa.elapsed_minutes;
        triv_end += r.trivial.elapsed_minutes;
        qor_delta.push(r.s2fa.best_value() / r.trivial.best_value());
    }
    let n = results.len() as f64;
    let avg_delta = 100.0 * (qor_delta.iter().sum::<f64>() / qor_delta.len() as f64 - 1.0);
    println!(
        "  entropy ends at {:.1} h avg, trivial at {:.1} h avg; trivial QoR differs by {:+.1}% \
         (paper: trivial runs ~1 h longer for ~4% better QoR)",
        ent_end / n / 60.0,
        triv_end / n / 60.0,
        avg_delta
    );

    let series = |o: &DseOutcome, base: f64| {
        Json::Arr(
            downsample(&o.convergence, 64)
                .iter()
                .map(|&(m, v)| Json::Arr(vec![Json::num(m), Json::num(v / base)]))
                .collect(),
        )
    };
    save(
        "fig3",
        &Json::Arr(
            results
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("kernel", Json::str(r.name)),
                        ("normalization_base_ms", Json::num(r.base)),
                        ("s2fa", series(&r.s2fa, r.base)),
                        ("opentuner", series(&r.vanilla, r.base)),
                        ("trivial_stop", series(&r.trivial, r.base)),
                        ("s2fa_end_minutes", Json::num(r.s2fa.elapsed_minutes)),
                        ("s2fa_best_ms", Json::num(r.s2fa.best_value())),
                        ("opentuner_best_ms", Json::num(r.vanilla.best_value())),
                    ])
                })
                .collect(),
        ),
    );
}
