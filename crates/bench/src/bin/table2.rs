//! Regenerates **Table 2** — resource utilization and clock frequency of
//! the best DSE-generated design for every kernel.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin table2
//! ```

use s2fa::report::{resource_table, ResourceRow};
use s2fa::{S2fa, S2faOptions};
use s2fa_bench::results::save;
use s2fa_obs::Json;
use s2fa_workloads::all_workloads;

/// The paper's Table 2 values, for side-by-side comparison.
const PAPER: &[(&str, [u32; 4], u32)] = &[
    ("PR", [25, 2, 16, 18], 250),
    ("KMeans", [73, 6, 10, 14], 230),
    ("KNN", [75, 6, 50, 50], 240),
    ("LR", [74, 3, 49, 74], 220),
    ("SVM", [74, 4, 48, 72], 250),
    ("LLS", [74, 3, 45, 21], 230),
    ("AES", [36, 0, 3, 6], 250),
    ("S-W", [33, 30, 54, 75], 100),
];

fn main() {
    let framework = S2fa::new(S2faOptions::default());
    let device = framework.estimator().device().clone();
    let mut rows = Vec::new();
    println!("Running the full automatic flow (codegen + DSE) per kernel ...");
    for w in all_workloads() {
        let compiled = framework
            .compile(&w.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        println!("  {:<7} best design: {}", w.name, compiled.design.brief());
        rows.push(ResourceRow::from_compiled(&compiled, w.category, &device));
    }
    println!();
    println!("Table 2: Resource Utilization and Clock Frequency (MHz) — measured");
    println!("{}", resource_table(&rows));
    println!("Paper's Table 2, for comparison:");
    println!("| Kernel   | Type           | BRAM | DSP | FF  | LUT | Freq |");
    println!("|----------|----------------|------|-----|-----|-----|------|");
    for (name, [b, d, f, l], freq) in PAPER {
        let cat = all_workloads()
            .iter()
            .find(|w| w.name == *name)
            .map(|w| w.category)
            .unwrap_or("");
        println!("| {name:<8} | {cat:<14} | {b:>4}% | {d:>3}% | {f:>3}% | {l:>3}% | {freq:>4} |");
    }
    println!();
    // Shape checks the paper calls out in §5.2.
    let find = |n: &str| rows.iter().find(|r| r.kernel == n).expect("row exists");
    let util_max = |r: &ResourceRow| r.bram_pct.max(r.dsp_pct).max(r.ff_pct).max(r.lut_pct);
    println!("Shape checks:");
    for name in ["AES", "PR"] {
        let r = find(name);
        println!(
            "  {name}: memory-bound — peak utilization {:.0}% (paper: low utilization)",
            util_max(r)
        );
    }
    let compute_bound: Vec<String> = ["KMeans", "KNN", "LR", "SVM", "LLS"]
        .iter()
        .map(|n| format!("{n}={:.0}%", util_max(find(n))))
        .collect();
    println!(
        "  compute-bound kernels saturate a resource: {}",
        compute_bound.join(", ")
    );
    let sw = find("S-W");
    println!(
        "  S-W clock: {:.0} MHz (paper: 100 MHz, degraded by the DP wavefront)",
        sw.freq_mhz
    );

    save(
        "table2",
        &Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj(vec![
                        ("kernel", Json::str(r.kernel.clone())),
                        ("category", Json::str(r.category.clone())),
                        ("bram_pct", Json::num(r.bram_pct)),
                        ("dsp_pct", Json::num(r.dsp_pct)),
                        ("ff_pct", Json::num(r.ff_pct)),
                        ("lut_pct", Json::num(r.lut_pct)),
                        ("freq_mhz", Json::num(r.freq_mhz)),
                    ])
                })
                .collect(),
        ),
    );
}
