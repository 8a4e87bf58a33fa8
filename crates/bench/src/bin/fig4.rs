//! Regenerates **Fig. 4** — speedups of manual and S2FA-generated designs
//! over the original Spark transformation methods on a single-threaded
//! JVM executor (log scale) — plus the §5/§7 headline numbers.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin fig4
//! ```

use s2fa::report::geomean;
use s2fa::{S2fa, S2faOptions};
use s2fa_bench::chart::log_bar;
use s2fa_bench::results::save;
use s2fa_bench::{jvm_ns_per_task, speedup, BASELINE_TASKS, SAMPLE_TASKS};
use s2fa_hlsir::analysis;
use s2fa_obs::Json;
use s2fa_workloads::all_workloads;

struct Row {
    name: &'static str,
    category: &'static str,
    manual: f64,
    auto: f64,
}

fn main() {
    let framework = S2fa::new(S2faOptions::default());
    let mut rows = Vec::new();
    println!(
        "Baseline: single-threaded Spark executor on the JVM over {} tasks",
        BASELINE_TASKS
    );
    for w in all_workloads() {
        let sample = (w.gen_input)(SAMPLE_TASKS, 2018);
        let jvm_ns = jvm_ns_per_task(&w.spec, &sample);

        // Automatic flow on the user-written kernel.
        let auto = framework
            .compile(&w.spec)
            .unwrap_or_else(|e| panic!("{} auto: {e}", w.name));

        // Manual expert design: possibly a restructured kernel, plus a
        // hand-picked configuration evaluated without any DSE.
        let manual_generated =
            s2fa::compile_kernel(&w.manual_spec).expect("manual kernels compile");
        let manual_summary =
            analysis::summarize(&manual_generated.cfunc, 1024).expect("manual kernels analyze");
        let manual_cfg = (w.manual_config)(&manual_summary);
        let manual = framework
            .compile_with_config(&w.manual_spec, &manual_cfg)
            .unwrap_or_else(|e| panic!("{} manual: {e}", w.name));

        rows.push(Row {
            name: w.name,
            category: w.category,
            manual: speedup(jvm_ns, &manual.estimate, BASELINE_TASKS),
            auto: speedup(jvm_ns, &auto.estimate, BASELINE_TASKS),
        });
        println!(
            "  {:<7} jvm {:>9.1} ns/task | auto {:>9.4} ms/batch @ {:>3.0} MHz | manual {:>9.4} ms/batch @ {:>3.0} MHz",
            w.name,
            jvm_ns,
            auto.estimate.time_ms,
            auto.estimate.freq_mhz,
            manual.estimate.time_ms,
            manual.estimate.freq_mhz
        );
    }

    let max = rows
        .iter()
        .map(|r| r.manual.max(r.auto))
        .fold(1.0f64, f64::max);
    println!("\nFig. 4: Speedup over the JVM (log scale)");
    println!("----------------------------------------");
    for r in &rows {
        println!(
            "{:<7} manual {:>8.1}x |{}",
            r.name,
            r.manual,
            log_bar(r.manual, max, 40)
        );
        println!(
            "{:<7} S2FA   {:>8.1}x |{}",
            "",
            r.auto,
            log_bar(r.auto, max, 40)
        );
    }

    println!("\nHeadline numbers");
    println!("----------------");
    let ml: Vec<&Row> = rows
        .iter()
        .filter(|r| r.category != "string proc." && r.category != "graph proc.")
        .collect();
    let string: Vec<&Row> = rows
        .iter()
        .filter(|r| r.category == "string proc.")
        .collect();
    let ml_max = ml.iter().map(|r| r.auto).fold(0.0f64, f64::max);
    let string_max = string.iter().map(|r| r.auto).fold(0.0f64, f64::max);
    let auto_geo = geomean(&rows.iter().map(|r| r.auto).collect::<Vec<_>>());
    let of_manual: Vec<f64> = rows.iter().map(|r| (r.auto / r.manual).min(1.0)).collect();
    let avg_of_manual = 100.0 * of_manual.iter().sum::<f64>() / of_manual.len() as f64;
    println!("  max ML-kernel speedup (S2FA):          {ml_max:.1}x   (paper: up to 49.9x)");
    println!("  max string-kernel speedup (S2FA):      {string_max:.1}x   (paper: up to 1225.2x)");
    println!("  geometric-mean speedup (S2FA):         {auto_geo:.1}x   (paper mean: 181.5x)");
    println!(
        "  S2FA vs manual designs:                {avg_of_manual:.0}%    (paper: ~85% on average)"
    );
    let lr = rows.iter().find(|r| r.name == "LR").expect("LR present");
    println!(
        "  LR gap (deep float pipeline):          S2FA reaches {:.0}% of manual",
        100.0 * lr.auto / lr.manual
    );
    let pr = rows.iter().find(|r| r.name == "PR").expect("PR present");
    println!(
        "  PR (communication-bound):              manual only {:.1}x — \"even the manual HLS \
         implementation cannot achieve a high performance\"",
        pr.manual
    );

    save(
        "fig4",
        &Json::obj(vec![
            ("baseline_tasks", Json::int(BASELINE_TASKS)),
            (
                "kernels",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::str(r.name)),
                                ("category", Json::str(r.category)),
                                ("manual_speedup", Json::num(r.manual)),
                                ("s2fa_speedup", Json::num(r.auto)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("s2fa_geomean", Json::num(auto_geo)),
            ("s2fa_vs_manual_pct", Json::num(avg_of_manual)),
        ]),
    );
}
