//! Regenerates **Table 1** — the target design space — and reports the
//! identified space of every evaluation kernel.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin table1
//! ```

use s2fa::compile_kernel;
use s2fa_bench::results::save;
use s2fa_dse::DesignSpace;
use s2fa_hlsir::analysis;
use s2fa_obs::Json;
use s2fa_workloads::all_workloads;

fn main() {
    println!("Table 1: The Target Design Space");
    println!("--------------------------------");
    println!(
        "| Factor                               | Design Space (Values)                     |"
    );
    println!(
        "|--------------------------------------|-------------------------------------------|"
    );
    println!(
        "| Buffer bit-width                     | b = 2^n, 8 < b <= 512, per interface buf  |"
    );
    println!(
        "| Loop tiling                          | t = 2^n, 1 < t < TC(L), plus off          |"
    );
    println!(
        "| Loop parallel (coarse-/fine-grained) | u = 2^n, 1 < u < TC(L), plus off          |"
    );
    println!(
        "| Loop pipeline (coarse-/fine-grained) | p in {{on, off, flatten}}                   |"
    );
    println!();
    println!("Identified design space per kernel (batch hint = 1024 tasks):");
    println!();
    println!("| Kernel  | Loops | Interface buffers | Tunable params | Design points |");
    println!("|---------|-------|-------------------|----------------|---------------|");
    let mut largest = ("", 0.0f64);
    let mut json_rows = Vec::new();
    for w in all_workloads() {
        let g = compile_kernel(&w.spec).expect("workloads compile");
        let s = analysis::summarize(&g.cfunc, 1024).expect("workloads analyze");
        let ds = DesignSpace::build(&s);
        let n_buffers = g.input_layout.slots.len() + g.output_layout.slots.len();
        let log10 = ds.size_log10();
        if log10 > largest.1 {
            largest = (w.name, log10);
        }
        println!(
            "| {:<7} | {:>5} | {:>17} | {:>14} | 10^{:<10.1} |",
            w.name,
            s.loops.len(),
            n_buffers,
            ds.space().params().len(),
            log10
        );
        json_rows.push(Json::obj(vec![
            ("kernel", Json::str(w.name)),
            ("loops", Json::num(s.loops.len() as f64)),
            ("interface_buffers", Json::int(n_buffers as u64)),
            (
                "tunable_params",
                Json::num(ds.space().params().len() as f64),
            ),
            ("design_points_log10", Json::num(log10)),
        ]));
    }
    save("table1", &Json::Arr(json_rows));
    println!();
    println!(
        "Largest space: {} with ~10^{:.1} design points — \"it is impractical to \
         explore this tremendous design space exhaustively\" (§4.1).",
        largest.0, largest.1
    );
}
