//! `benchmark` — the end-to-end and per-layer benchmark of S2FA: four
//! workloads over `S2fa::compile` and Blaze serving (see `README.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--repeat <n>]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! One workload per process, so `peak_rss_mb` is the workload's own. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric, or
//! with `--trace 1` every per-layer metric.

mod compile;
mod harness;
mod metrics;
mod oracle;
mod serve;
mod stats;

use harness::{Plan, Reference};
use metrics::{Measured, Workload};

const USAGE: &str =
    "usage: benchmark --workload <compile_auto|compile_expert|serve_mix|serve_overload>
                 --seed <u64> [--seconds <s>] [--trace <0|1>] [--repeat <n>]
       benchmark --smoke";

/// Timed seconds when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Calls per untraced timed region: a p90 needs ten samples beyond it.
const MIN_CALLS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut seed = None;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(format!("bad value for {flag}: {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            "--repeat" => {
                a.repeat = value.parse().map_err(bad)?;
                if a.repeat == 0 {
                    return Err("--repeat needs at least 1".into());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.smoke {
        if a.workload.is_none() {
            return Err("--workload is required".into());
        }
        a.seed = seed.ok_or("--seed is required")?;
    }
    Ok(a)
}

/// The reference computation's median time, in µs, on the machine the
/// baseline in `README.md` was measured on, at its usual speed.
const REFERENCE_NOMINAL_US: f64 = 200.0;

/// Runs one workload once.
///
/// The end-to-end times are reported at the reference machine's usual
/// speed: each is scaled by `REFERENCE_NOMINAL_US` over the median time of
/// the reference computation sampled in the same phase of the same run
/// (beside the set-ups for `setup_s`, through the timed region for the
/// call metrics). Drift of the shared machine's speed between runs
/// cancels; a change in the program's own speed shows in full. The raw
/// values go to stderr.
fn run(workload: Workload, plan: &Plan) -> Result<Measured, String> {
    let mut reference = Reference::default();
    let mut m = match workload {
        Workload::CompileAuto => compile::compile_auto(plan, &mut reference),
        Workload::CompileExpert => compile::compile_expert(plan, &mut reference),
        Workload::ServeMix => serve::serve(&serve::MIX, plan, &mut reference),
        Workload::ServeOverload => serve::serve(&serve::OVERLOAD, plan, &mut reference),
    }?;
    m.set("peak_rss_mb", stats::peak_rss_mb()?);
    let (setup_us, loop_us) = reference.medians_us();
    m.set("bench.ref_loop_us", loop_us);
    let (setup_speed, loop_speed) = (
        REFERENCE_NOMINAL_US / setup_us,
        REFERENCE_NOMINAL_US / loop_us,
    );
    let mut raw = Vec::new();
    for (name, scale) in [
        ("setup_s", setup_speed),
        ("call_ms_p50", loop_speed),
        ("call_ms_p90", loop_speed),
        ("throughput_per_s", 1.0 / loop_speed),
    ] {
        if let Some(v) = m.values.get_mut(name) {
            raw.push(format!("{name} {v}"));
            *v *= scale;
        }
    }
    eprintln!(
        "benchmark: {} raw {}; reference {setup_us} us beside set-ups, {loop_us} us in the timed region",
        workload.name(),
        raw.join(", "),
    );
    Ok(m)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.smoke { smoke() } else { measure(&args) };
    if let Err(e) = outcome {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

/// Runs `args.repeat` runs (seeds `seed`, `seed + 1`, ...) and prints the
/// result line; with more than one run, each metric's median, quartiles
/// and spread first, and the medians in the result line.
fn measure(args: &Args) -> Result<(), String> {
    let workload = args.workload.expect("parse_args requires --workload");
    let mut runs = Vec::new();
    for r in 0..args.repeat {
        let plan = Plan {
            seed: args.seed.wrapping_add(r as u64),
            seconds: args.seconds,
            min_calls: if args.trace { 0 } else { MIN_CALLS },
            setups: SETUPS,
            trace: args.trace,
            smoke: false,
        };
        let m = run(workload, &plan).map_err(|e| format!("{}: {e}", workload.name()))?;
        let rows = metrics::rows(workload, &m, args.trace)?;
        runs.push((m, rows));
    }
    if let [(m, rows)] = runs.as_slice() {
        println!("{}", metrics::result_line(m, rows));
        return Ok(());
    }
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    let mut medians = Vec::new();
    for (i, (name, _, unit)) in runs[0].1.iter().enumerate() {
        let values = stats::sorted(&runs.iter().map(|(_, rows)| rows[i].1).collect::<Vec<_>>());
        let median = stats::median(&values).expect("at least one run");
        let (q1, q3) = stats::quartiles(&values).expect("at least two runs");
        let spread = if median == 0.0 {
            "-".to_string()
        } else {
            format!("{:.2}%", (q3 - q1) / median.abs() * 100.0)
        };
        println!("{name:<30} {median:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8}");
        medians.push((*name, median, *unit));
    }
    let total = Measured {
        attempted: runs.iter().map(|(m, _)| m.attempted).sum(),
        failed: runs.iter().map(|(m, _)| m.failed).sum(),
        values: Default::default(),
    };
    println!("{}", metrics::result_line(&total, &medians));
    Ok(())
}

/// Every workload at tiny sizes, untraced then traced: fails on any
/// failed call, missing metric, or deterministic metric that differs
/// between the two runs.
fn smoke() -> Result<(), String> {
    let mut bad = Vec::new();
    for w in Workload::ALL {
        let plan = |trace: bool| Plan {
            seed: 1,
            seconds: 0.0,
            min_calls: if trace { 0 } else { MIN_CALLS },
            setups: 1,
            trace,
            smoke: true,
        };
        let mut runs = Vec::new();
        for trace in [false, true] {
            match run(w, &plan(trace)).and_then(|m| metrics::rows(w, &m, trace).map(|_| m)) {
                Ok(m) if m.failed == 0 => runs.push(m),
                Ok(m) => bad.push(format!("{}: {} failed calls", w.name(), m.failed)),
                Err(e) => bad.push(format!("{}: {e}", w.name())),
            }
        }
        if let [off, on] = runs.as_slice() {
            for name in metrics::DETERMINISTIC {
                if let (Some(a), Some(b)) = (off.values.get(*name), on.values.get(*name)) {
                    if a.to_bits() != b.to_bits() {
                        bad.push(format!("{}: {name} {a} then {b}", w.name()));
                    }
                }
            }
            println!(
                "smoke: {} ok ({} + {} calls)",
                w.name(),
                off.attempted,
                on.attempted
            );
        }
    }
    if bad.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_the_rest() {
        let a = args("--workload serve_mix --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::ServeMix));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 3.0, true, 1));
        assert!(args("--smoke").expect("valid").smoke);
        for bad in [
            "--workload serve_mix",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload serve_mix --seed 1 --trace 2",
            "--workload serve_mix --seed x",
            "--workload serve_mix --seed 1 --repeat 0",
            "--workload serve_mix --seed 1 --seconds -1",
            "--workload serve_mix --seed 1 --bogus 1",
            "--workload serve_mix --seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
