//! Interpreter probe: host time per bytecode instruction of the JVM
//! fallback (`sjvm::Interp`) on each of the 8 workloads.
//!
//! Each pass builds one `Interp` and runs the kernel over a fixed set of
//! seeded records (64, or 4 for S-W); the probe reports the best of N
//! passes, so scheduling noise on a shared host inflates no row.
//!
//! ```text
//! cargo run --release -p s2fa --example interp_probe [-- passes]
//! ```

use s2fa_sjvm::Interp;
use s2fa_workloads::all_workloads;
use std::time::Instant;

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("passes must be a positive integer"))
        .unwrap_or(7);
    println!("| kernel | µs/record | instructions/record | ns/instruction |");
    println!("|---|---:|---:|---:|");
    for w in all_workloads() {
        let n = if w.name == "S-W" { 4 } else { 64 };
        let records = (w.gen_input)(n, 7);
        let mut best = f64::INFINITY;
        let mut instructions = 0;
        for _ in 0..passes.max(1) {
            let start = Instant::now();
            let mut interp = Interp::new(&w.spec.classes, &w.spec.methods);
            instructions = 0;
            for rec in &records {
                let (_, stats) = interp
                    .run(w.spec.entry, std::slice::from_ref(rec))
                    .expect("workload runs");
                instructions += stats.instructions;
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        println!(
            "| {} | {:.1} | {} | {:.2} |",
            w.name,
            best * 1e6 / n as f64,
            instructions / n as u64,
            best * 1e9 / instructions as f64
        );
    }
}
