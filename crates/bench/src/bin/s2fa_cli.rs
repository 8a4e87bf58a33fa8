//! `s2fa-cli` — drive the framework on any evaluation kernel from the
//! command line, the way a downstream user would.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel KMeans
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel S-W --budget 120 --emit-c
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel LR --manual --report
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel KMeans --trace kmeans.jsonl
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel KMeans --prescreen
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --kernel S-W --eval-threads 4
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- lint
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- lint --format json --save
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- profile --kernel S-W
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- report --kernel S-W
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- serve --util 1.5 --nodes 8
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- serve --kernel KMeans --trace serve.jsonl
//! cargo run --release -p s2fa-bench --bin s2fa_cli -- --list
//! ```
//!
//! `--trace <path>` attaches the flight recorder: every structured event
//! of the DSE run (evaluations on the virtual timeline, partition
//! lifecycles, the run's stop, and legality prunes under a pre-screen)
//! is appended to `<path>` as one JSON object per line.
//!
//! `--eval-threads <n>` sets the DSE's host executors: the calling thread
//! plus `n - 1` helper threads that price the partition probe and run the
//! partitions (default: the host's available parallelism).
//!
//! `profile` runs one kernel's automatic flow under full host-side
//! profiling and writes the flight-recorder artifacts:
//! `results/PROFILE_<kernel>.json` (validated against
//! `docs/profile.schema.json` before writing), a timing-free structure
//! document for the CI golden diff, and folded stacks for flamegraph
//! tooling — then prints the human-readable report.
//!
//! `report` re-renders a previously written profile without running
//! anything.
//!
//! `serve` compiles every workload (or one selected with `--kernel`)
//! through the manual expert flow, registers the designs with one Blaze
//! accelerator registry, and plays a deterministic multi-tenant request
//! stream through the serving runtime at `--util` times the modelled
//! cluster capacity on `--nodes` simulated worker nodes. It prints
//! throughput, latency percentiles, queueing, and batching aggregates;
//! `--trace <path>` appends every serving event (submit, admit,
//! enqueue, batch_formed, execute, reply, reject) to `<path>` as JSONL
//! on the same flight-recorder schema the DSE uses.
//!
//! `lint` runs the `s2fa-lint` static analyses over every workload (or
//! one selected with `--kernel`) *without* exploring anything: the IR
//! well-formedness verifier before and after the structural transforms,
//! the dataflow-backed rules (`E3xx`/`W310`: provably uninitialized
//! reads, out-of-bounds affine indices, replication write-races, dead
//! stores) with the same transform differential, the per-seed legality
//! verdicts, and the sampled statically-dead fraction of each design
//! space. The process exits non-zero if any kernel has an
//! error-severity well-formedness or dataflow *defect* (seed prescreen
//! verdicts and `E303` replication races are search-space facts and
//! only reported). `--format json`
//! emits a machine-readable document; `--save` also writes it to
//! `results/lint_report.json` for the CI golden diff. The document is
//! validated against `docs/lint_report.schema.json` first; a violation
//! prints nothing, saves nothing, and exits 1.
//!
//! `--dataflow-prescreen` (automatic flow) attaches the dependence
//! facts of `hlsir::dataflow` to the kernel summary before the DSE, so
//! the legality pre-screen additionally prunes design points that
//! replicate a loop with a proven cross-iteration write-race
//! (`S2FA-E303`). Off by default: without it, outcomes are
//! bit-identical to `--prescreen` (and, with neither, to no screen at
//! all).

use s2fa::lint::{
    dataflow_checks, factor_diagnostics, transform_new_errors, verify_function, Legality, Severity,
};
use s2fa::{S2fa, S2faOptions};
use s2fa_bench::results::save;
use s2fa_blaze::{AcceleratorRegistry, ServingConfig, ServingRuntime, TenantSpec};
use s2fa_dse::DesignSpace;
use s2fa_hlsir::analysis;
use s2fa_hlssim::{report, Estimator};
use s2fa_merlin::{apply_structural, DesignConfig};
use s2fa_obs::{aggregate_spans, validate, verify_spans, Json, Profile, Profiler};
use s2fa_trace::{JsonlSink, NullSink, TraceSink};
use s2fa_workloads::all_workloads;
use std::sync::Arc;

struct Args {
    lint: bool,
    profile: bool,
    report_cmd: bool,
    serve: bool,
    requests: usize,
    util: f64,
    nodes: usize,
    kernel: Option<String>,
    budget: f64,
    tasks: u32,
    manual: bool,
    emit_c: bool,
    report: bool,
    list: bool,
    trace: Option<String>,
    eval_threads: Option<usize>,
    profile_path: Option<String>,
    prescreen: bool,
    dataflow_prescreen: bool,
    format: Format,
    save: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lint: false,
        profile: false,
        report_cmd: false,
        serve: false,
        requests: 50,
        util: 0.75,
        nodes: 4,
        kernel: None,
        budget: 240.0,
        tasks: 1024,
        manual: false,
        emit_c: false,
        report: false,
        list: false,
        trace: None,
        eval_threads: None,
        profile_path: None,
        prescreen: false,
        dataflow_prescreen: false,
        format: Format::Text,
        save: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("lint") => {
            args.lint = true;
            it.next();
        }
        Some("profile") => {
            args.profile = true;
            it.next();
        }
        Some("report") => {
            args.report_cmd = true;
            it.next();
        }
        Some("serve") => {
            args.serve = true;
            it.next();
        }
        _ => {}
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kernel" => {
                args.kernel = Some(it.next().ok_or("--kernel needs a name")?);
            }
            "--budget" => {
                args.budget = it
                    .next()
                    .ok_or("--budget needs minutes")?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
                if !(args.budget > 0.0 && args.budget.is_finite()) {
                    return Err("--budget must be positive and finite".to_string());
                }
            }
            "--tasks" => {
                args.tasks = it
                    .next()
                    .ok_or("--tasks needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --tasks: {e}"))?;
                if args.tasks == 0 {
                    return Err("--tasks needs at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--profile" => {
                args.profile_path = Some(it.next().ok_or("--profile needs a path")?);
            }
            "--eval-threads" => {
                let threads = it
                    .next()
                    .ok_or("--eval-threads needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --eval-threads: {e}"))?;
                if threads == 0 {
                    return Err("--eval-threads needs at least 1".to_string());
                }
                args.eval_threads = Some(threads);
            }
            "--format" => {
                args.format = match it.next().ok_or("--format needs text|json")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("bad --format `{other}` (text|json)")),
                };
            }
            "--requests" => {
                args.requests = it
                    .next()
                    .ok_or("--requests needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
                if args.requests == 0 {
                    return Err("--requests needs at least 1".to_string());
                }
            }
            "--util" => {
                args.util = it
                    .next()
                    .ok_or("--util needs a capacity fraction")?
                    .parse()
                    .map_err(|e| format!("bad --util: {e}"))?;
                if !(args.util > 0.0 && args.util.is_finite()) {
                    return Err("--util must be positive and finite".to_string());
                }
            }
            "--nodes" => {
                args.nodes = it
                    .next()
                    .ok_or("--nodes needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?;
                if args.nodes == 0 {
                    return Err("--nodes needs at least 1".to_string());
                }
            }
            "--manual" => args.manual = true,
            "--emit-c" => args.emit_c = true,
            "--report" => args.report = true,
            "--list" => args.list = true,
            "--prescreen" => args.prescreen = true,
            "--dataflow-prescreen" => args.dataflow_prescreen = true,
            "--save" => args.save = true,
            "--help" | "-h" => {
                return Err(USAGE.to_string());
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: s2fa_cli --kernel <name> [--budget <minutes>] [--tasks <n>] \
[--manual] [--emit-c] [--report] [--prescreen] [--dataflow-prescreen] [--eval-threads <n>] \
[--trace <path>] | --list\n       \
s2fa_cli lint [--kernel <name>] [--tasks <n>] [--format text|json] [--save]\n       \
s2fa_cli profile --kernel <name> [--budget <minutes>] [--tasks <n>] [--eval-threads <n>]\n       \
s2fa_cli report (--kernel <name> | --profile <path>)\n       \
s2fa_cli serve [--kernel <name>] [--requests <n>] [--util <x>] [--nodes <n>] \
[--trace <path>]";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if args.lint {
        std::process::exit(run_lint(&args));
    }
    if args.profile {
        std::process::exit(run_profile(&args));
    }
    if args.report_cmd {
        std::process::exit(run_report(&args));
    }
    if args.serve {
        std::process::exit(run_serve(&args));
    }
    if args.list {
        println!("available kernels:");
        for w in all_workloads() {
            println!("  {:<8} ({})", w.name, w.category);
        }
        return;
    }
    let Some(name) = &args.kernel else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let Some(w) = all_workloads().into_iter().find(|w| w.name == *name) else {
        eprintln!("unknown kernel `{name}` — try --list");
        std::process::exit(2);
    };

    let options = compile_options(&args);
    let sink: Option<Arc<JsonlSink>> = args.trace.as_deref().map(|path| {
        Arc::new(JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot open trace file `{path}`: {e}");
            std::process::exit(2);
        }))
    });
    let mut framework = S2fa::new(options);
    if let Some(sink) = &sink {
        framework = framework.with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    }

    let wall = std::time::Instant::now();
    let compiled = if args.manual {
        let generated = s2fa::compile_kernel(&w.manual_spec).expect("manual kernel compiles");
        let summary =
            analysis::summarize(&generated.cfunc, args.tasks).expect("manual kernel analyzes");
        let cfg = (w.manual_config)(&summary);
        framework.compile_with_config(&w.manual_spec, &cfg)
    } else {
        framework.compile(&w.spec)
    };
    let compiled = compiled.unwrap_or_else(|e| {
        eprintln!("{}: {e}", w.name);
        std::process::exit(1);
    });
    let wall = wall.elapsed();

    println!(
        "{} [{}] — {} flow",
        w.name,
        w.category,
        if args.manual { "manual" } else { "automatic" }
    );
    println!("design: {}", compiled.design.brief());
    println!("estimate: {}", compiled.estimate);
    if let Some(dse) = &compiled.dse {
        println!(
            "dse: {} evaluations over {} partitions, terminated at {:.0} virtual minutes",
            dse.total_evaluations, dse.partitions, dse.elapsed_minutes
        );
        if dse.killed_evals > 0 {
            println!(
                "dse: {} evaluation(s) straddled the deadline (harvested, clamped to budget)",
                dse.killed_evals
            );
        }
        println!(
            "dse: {:.0} evals/sec wall-clock, {} charged evaluations",
            dse.total_evaluations as f64 / wall.as_secs_f64().max(1e-9),
            dse.cache.misses
        );
        if args.prescreen || args.dataflow_prescreen {
            println!(
                "dse: {} design point(s) pruned by the legality pre-screen",
                dse.pruned_illegal
            );
            for (code, n) in &dse.pruned_by_rule {
                if *n > 0 {
                    println!("  {code:<10} {n:>5}");
                }
            }
        }
        if !dse.techniques.is_empty() {
            println!(
                "  {:<24} {:>5} {:>9}  best objective",
                "technique", "evals", "improved"
            );
            for t in &dse.techniques {
                println!(
                    "  {:<24} {:>5} {:>9}  {:.4}",
                    t.technique, t.evals, t.improvements, t.best_value
                );
            }
        }
    }
    if let Some(sink) = &sink {
        sink.flush();
        println!(
            "trace: {} events written to {}",
            sink.emitted(),
            sink.path().display()
        );
    }
    if args.emit_c {
        println!("\n--- generated HLS C ---\n{}", compiled.optimized_source);
    }
    if args.report {
        println!(
            "\n{}",
            report::render(
                &compiled.summary,
                &compiled.design,
                &compiled.estimate,
                framework.estimator().device()
            )
        );
    }
}

/// Number of random design points sampled when estimating each space's
/// statically-dead fraction. Fixed (with the seed) so the JSON report is
/// reproducible and diffable in CI.
const DEAD_SAMPLES: usize = 256;
const DEAD_SEED: u64 = 2018;

/// The `lint` subcommand: run every static analysis, print or save the
/// report, and return the process exit code (0 = no well-formedness
/// errors anywhere).
fn run_lint(args: &Args) -> i32 {
    let workloads: Vec<_> = all_workloads()
        .into_iter()
        .filter(|w| args.kernel.as_deref().is_none_or(|k| k == w.name))
        .collect();
    if workloads.is_empty() {
        eprintln!(
            "unknown kernel `{}` — try --list",
            args.kernel.as_deref().unwrap_or("")
        );
        return 2;
    }

    let estimator = Estimator::new();
    let mut kernels = Vec::new();
    let mut total_errors = 0u64;

    for w in &workloads {
        let generated = s2fa::compile_kernel(&w.spec).expect("workload compiles");
        let wellformed = verify_function(&generated.cfunc);
        let dataflow = dataflow_checks(&generated.cfunc, args.tasks);
        let summary = analysis::summarize(&generated.cfunc, args.tasks).expect("workload analyzes");
        let ds = DesignSpace::build(&summary);
        let oracle = Legality::new(&summary, &estimator);

        // Differential check: the structural rewrite of the (normalized)
        // performance seed must not introduce errors the generated
        // function did not have — neither well-formedness (`E1xx`) nor
        // dataflow (`E3xx`) errors. The pipeline runs the same check.
        let mut perf = DesignConfig::perf_seed(&summary);
        perf.normalize(&summary);
        let (optimized, _) = apply_structural(&generated.cfunc, &perf);
        let introduced =
            transform_new_errors(&wellformed, || dataflow.clone(), &optimized, args.tasks);

        let seeds: Vec<(&str, DesignConfig)> = vec![
            ("perf", DesignConfig::perf_seed(&summary)),
            ("area", DesignConfig::area_seed(&summary)),
        ];
        let seed_docs: Vec<(String, Json)> = seeds
            .iter()
            .map(|(tag, cfg)| {
                let mut diags = oracle.check(cfg).diagnostics;
                diags.extend(factor_diagnostics(&generated.cfunc, cfg));
                let errors = diags
                    .iter()
                    .filter(|d| d.code.severity == Severity::Error)
                    .count();
                (
                    tag.to_string(),
                    Json::obj(vec![
                        ("errors", Json::int(errors as u64)),
                        ("warnings", Json::int((diags.len() - errors) as u64)),
                        (
                            "codes",
                            Json::Arr(diags.iter().map(|d| Json::str(d.code.code)).collect()),
                        ),
                    ]),
                )
            })
            .collect();

        let dead = ds.dead_fraction(ds.space(), &oracle, DEAD_SAMPLES, DEAD_SEED);
        let (wf_errors, wf_warnings) = wellformed.counts();
        let (df_all_errors, df_warnings) = dataflow.counts();
        // `E303` replication races are legality facts about the *search
        // space* (the kernel is sequentially correct; replicating the racy
        // loop is what would be nondeterministic) — like the seed
        // prescreen verdicts they are reported, not defects. Everything
        // else at error severity (uninit read, out-of-bounds index) is a
        // kernel defect and fails the lint run.
        let df_races = dataflow
            .diagnostics
            .iter()
            .filter(|d| d.code.code == "S2FA-E303")
            .count();
        let df_defects = df_all_errors - df_races;
        total_errors += (wf_errors + df_defects + introduced.len()) as u64;

        if args.format == Format::Text {
            println!("{}", wellformed.render());
            println!("{}", dataflow.render());
            if df_races > 0 {
                println!(
                    "  replication race(s) on {df_races} loop(s): sequentially sound, \
                     pruned from replication under --dataflow-prescreen"
                );
            }
            for d in &introduced {
                println!("  transform introduced: {d}");
            }
            for (tag, cfg) in &seeds {
                let r = oracle.check(cfg);
                let (e, warn) = r.counts();
                println!(
                    "  {tag} seed: {e} prescreen error(s), {warn} warning(s){}",
                    if e > 0 {
                        " [statically infeasible]"
                    } else {
                        ""
                    }
                );
            }
            println!(
                "  statically dead fraction: {:.1}% ({DEAD_SAMPLES} samples)\n",
                dead * 100.0
            );
        }

        kernels.push(Json::obj(vec![
            ("name", Json::str(w.name)),
            (
                "wellformed",
                Json::obj(vec![
                    ("errors", Json::int(wf_errors as u64)),
                    ("warnings", Json::int(wf_warnings as u64)),
                    (
                        "diagnostics",
                        Json::Arr(
                            wellformed
                                .diagnostics
                                .iter()
                                .map(|d| Json::str(d.to_string()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "dataflow",
                Json::obj(vec![
                    ("errors", Json::int(df_defects as u64)),
                    ("races", Json::int(df_races as u64)),
                    ("warnings", Json::int(df_warnings as u64)),
                    (
                        "diagnostics",
                        Json::Arr(
                            dataflow
                                .diagnostics
                                .iter()
                                .map(|d| Json::str(d.to_string()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("transform_new_errors", Json::num(introduced.len() as f64)),
            ("seeds", Json::Obj(seed_docs)),
            ("dead_fraction", Json::num(dead)),
        ]));
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("s2fa-lint-report/v2")),
        ("kernels", Json::Arr(kernels)),
        ("total_errors", Json::int(total_errors)),
        ("clean", Json::Bool(total_errors == 0)),
    ]);
    if !conforms(
        &doc,
        include_str!("../../../../docs/lint_report.schema.json"),
        "lint report violates docs/lint_report.schema.json",
    ) {
        return 1;
    }
    if args.format == Format::Json {
        print!("{}", doc.render());
    } else {
        println!(
            "lint: {} kernel(s), {} well-formedness error(s)",
            workloads.len(),
            total_errors
        );
    }
    if args.save {
        save("lint_report", &doc);
    }
    i32::from(total_errors > 0)
}

/// Validates `doc` against a checked-in JSON schema, printing `what` and
/// every violation to stderr; `false` means the document must not ship.
fn conforms(doc: &Json, schema: &str, what: &str) -> bool {
    let schema = Json::parse(schema).expect("checked-in schema parses");
    let violations = validate(&schema, doc);
    if !violations.is_empty() {
        eprintln!("{what}:");
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    violations.is_empty()
}

/// The framework options of an automatic-flow compile (`--kernel` and
/// `profile`): the defaults with the DSE flags applied.
fn compile_options(args: &Args) -> S2faOptions {
    let mut options = S2faOptions {
        tasks_hint: args.tasks,
        ..S2faOptions::default()
    };
    options.dse.budget_minutes = args.budget;
    options.dse.prescreen = args.prescreen;
    options.dse.dataflow_prescreen = args.dataflow_prescreen;
    if let Some(t) = args.eval_threads {
        options.dse.eval_threads = t;
    }
    options
}

/// The `profile` subcommand: run the kernel's automatic flow under full
/// profiling and write the flight-recorder artifacts. Returns the
/// process exit code.
fn run_profile(args: &Args) -> i32 {
    let Some(name) = &args.kernel else {
        eprintln!("{USAGE}");
        return 2;
    };
    let Some(w) = all_workloads().into_iter().find(|w| w.name == *name) else {
        eprintln!("unknown kernel `{name}` — try --list");
        return 2;
    };

    // 1. The profiled pipeline run.
    let profiler = Profiler::enabled();
    let framework = S2fa::new(compile_options(args)).with_profiler(profiler.clone());
    if let Err(e) = framework.compile(&w.spec) {
        eprintln!("{}: {e}", w.name);
        return 1;
    }
    let spans = profiler.take_spans();
    if let Err(e) = verify_spans(&spans) {
        eprintln!("internal error: recorded span forest is ill-formed: {e}");
        return 1;
    }

    let profile = Profile {
        kernel: w.name.to_string(),
        tree: aggregate_spans(&spans),
    };

    // 2. Validate against the checked-in schema before shipping anything.
    let doc = profile.to_json();
    if !conforms(
        &doc,
        include_str!("../../../../docs/profile.schema.json"),
        "profile violates docs/profile.schema.json",
    ) {
        return 1;
    }

    // 3. Artifacts: the full profile, the timing-free structure document
    // (CI's golden diff target), and folded stacks for flamegraphs.
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
        return 1;
    }
    let artifacts = [
        (format!("results/PROFILE_{}.json", w.name), doc.render()),
        (
            format!("results/PROFILE_structure_{}.json", w.name),
            profile.structure().render(),
        ),
        (
            format!("results/PROFILE_{}.folded", w.name),
            profile.folded(),
        ),
    ];
    for (path, contents) in &artifacts {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("(profile artifact written to {path})");
    }

    println!("\n{}", profile.render_text());
    0
}

/// The `report` subcommand: re-render a previously written profile.
/// Returns the process exit code.
fn run_report(args: &Args) -> i32 {
    let path = match (&args.profile_path, &args.kernel) {
        (Some(p), _) => p.clone(),
        (None, Some(k)) => format!("results/PROFILE_{k}.json"),
        (None, None) => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            return 2;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("`{path}` is not JSON: {e}");
            return 2;
        }
    };
    match Profile::from_json(&json) {
        Ok(profile) => {
            print!("{}", profile.render_text());
            0
        }
        Err(e) => {
            eprintln!("`{path}` is not a profile document: {e}");
            2
        }
    }
}

/// The `serve` subcommand: compile the manual designs, register them,
/// and play a multi-tenant request stream through the serving runtime.
fn run_serve(args: &Args) -> i32 {
    let framework = S2fa::new(S2faOptions::default());
    let registry = AcceleratorRegistry::new();
    let records_per_request = 16;
    let workloads: Vec<_> = match &args.kernel {
        Some(name) => {
            let Some(w) = all_workloads().into_iter().find(|w| w.name == name) else {
                eprintln!("unknown kernel `{name}` — try --list");
                return 2;
            };
            vec![w]
        }
        None => all_workloads(),
    };

    // Manual expert flow per workload (fast: no DSE), one shared registry.
    let mut request_ms = Vec::new();
    for w in &workloads {
        let generated = s2fa::compile_kernel(&w.manual_spec).expect("manual kernel compiles");
        let summary =
            analysis::summarize(&generated.cfunc, args.tasks).expect("manual kernel analyzes");
        let cfg = (w.manual_config)(&summary);
        let compiled = framework
            .compile_with_config(&w.manual_spec, &cfg)
            .expect("manual design synthesizes");
        let ms = compiled
            .accelerator
            .time_model
            .map(|m| m.batch_ms(records_per_request as u64))
            .unwrap_or(0.1);
        request_ms.push((
            compiled.accelerator.id.clone(),
            w.spec.clone(),
            w.gen_input,
            ms,
        ));
        registry.register(compiled.accelerator);
    }

    let config = ServingConfig {
        nodes: args.nodes,
        exec_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ..ServingConfig::default()
    };
    let n = request_ms.len() as f64;
    let tenants: Vec<TenantSpec> = request_ms
        .iter()
        .enumerate()
        .map(|(i, (accel_id, fallback, gen_input, ms))| TenantSpec {
            name: accel_id.clone(),
            accel_id: accel_id.clone(),
            fallback: fallback.clone(),
            rate_per_ms: args.util * args.nodes as f64 / (n * ms.max(1e-6)),
            requests: args.requests,
            records_per_request,
            gen_input: *gen_input,
            seed: 0x5345_5256 ^ ((i as u64 + 1) * 0x9E37),
        })
        .collect();

    let runtime = ServingRuntime::new(&registry, config).expect("valid serving config");
    let outcome = match &args.trace {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("cannot open trace file `{path}`: {e}");
                std::process::exit(2);
            });
            let out = runtime.serve(&tenants, &sink, &Profiler::disabled());
            sink.flush();
            out
        }
        None => runtime.serve(&tenants, &NullSink, &Profiler::disabled()),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serving failed: {e}");
            return 1;
        }
    };

    let stats = &outcome.stats;
    let snap = outcome.latency_us();
    println!(
        "served {} tenants at {:.0}% of modelled capacity on {} nodes",
        tenants.len(),
        args.util * 100.0,
        args.nodes
    );
    println!(
        "requests: {} submitted, {} completed ({} accel / {} fallback), {} rejected",
        stats.submitted,
        stats.completed(),
        stats.completed_accel,
        stats.completed_fallback,
        stats.rejected
    );
    println!(
        "throughput: {:.1} req/s over {:.2} virtual ms",
        if stats.makespan_ms > 0.0 {
            stats.completed() as f64 / stats.makespan_ms * 1000.0
        } else {
            0.0
        },
        stats.makespan_ms
    );
    println!(
        "latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        snap.p50 as f64 / 1000.0,
        snap.p90 as f64 / 1000.0,
        snap.p99 as f64 / 1000.0,
        snap.max as f64 / 1000.0
    );
    println!(
        "batching: {} batches, mean size {:.2}, max queue depth {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.max_queue_depth
    );
    if stats.fallback_fraction() > 0.0 {
        println!(
            "fallback fraction: {:.1}%",
            stats.fallback_fraction() * 100.0
        );
    }
    if let Some(path) = &args.trace {
        println!("trace: serving events appended to {path}");
    }
    0
}
