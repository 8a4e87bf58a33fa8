//! The `compile_auto` and `compile_expert` workloads.

use crate::harness::{self, ms_since, Plan, Reference, StageTotals};
use crate::metrics::Measured;
use crate::oracle;
use crate::stats::{self, Seeds};
use s2fa::{compile_kernel, CompiledAccelerator, S2fa, S2faOptions};
use s2fa_dse::DesignSpace;
use s2fa_hlsir::{analysis, printer};
use s2fa_lint::{dataflow_checks, new_dataflow_errors, new_errors, verify_function};
use s2fa_merlin::{apply_structural, DesignConfig};
use s2fa_obs::Profiler;
use s2fa_sjvm::KernelSpec;
use s2fa_workloads::{all_workloads, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Evaluation threads per DSE: the host's two cores. Every other option
/// keeps the paper's default, including `workers = 8`, which models the
/// f1.2xlarge host's cores on the virtual clock.
const EVAL_THREADS: usize = 2;

/// Calls whose outcomes feed the deterministic metrics and the output
/// oracle: the first two rounds over the eight kernels.
const CHECKED_CALLS: usize = 16;

/// Records each checked design runs through the oracle.
const ORACLE_RECORDS: usize = 4;

// Seed streams.
const WARMUP: u64 = 0;
const CALL: u64 = 1;
const ORACLE: u64 = 2;
const ORDER: u64 = 3;

fn options(rng_seed: u64) -> S2faOptions {
    let mut o = S2faOptions::default();
    o.dse.eval_threads = EVAL_THREADS;
    o.dse.rng_seed = rng_seed;
    o
}

/// Runs `records` drawn from `seed` through `compiled` and the
/// interpreter on `spec`; true when every output matches.
fn outputs_match(
    w: &Workload,
    spec: &KernelSpec,
    compiled: &CompiledAccelerator,
    seed: u64,
) -> bool {
    let records = (w.gen_input)(ORACLE_RECORDS, seed);
    match compiled.accelerator.run_batch(&records) {
        Ok((outputs, _)) => oracle::mismatches(spec, &records, &outputs) == 0,
        Err(_) => false,
    }
}

/// `S2fa::compile` with the paper's DSE over the eight Table-2 kernels,
/// round-robin, with a fresh DSE `rng_seed` per call.
pub fn compile_auto(plan: &Plan, reference: &mut Reference) -> Result<Measured, String> {
    let seeds = Seeds::new(plan.seed, "compile_auto");
    let mut m = Measured::default();
    let ws = harness::setup(plan, reference, &mut m, || {
        let ws = all_workloads();
        for (k, w) in ws.iter().enumerate() {
            S2fa::new(options(seeds.at(WARMUP, k as u64)))
                .compile(&w.spec)
                .map_err(|e| format!("warm-up compile of {}: {e}", w.name))?;
        }
        Ok(ws)
    })?;

    let mut stages = StageTotals::new(&[
        "core.codegen_ms",
        "core.lint_ms",
        "core.analyze_ms",
        "core.dse_ms",
        "core.package_ms",
        "dse.space_ms",
        "dse.partition_ms",
        "dse.seeds_ms",
        "dse.explore_ms",
        "dse.merge_ms",
        "tuner.tune_ms",
        "hlssim.estimate_ms",
        "engine.batch_wait_ms",
    ]);
    let span_map = [
        ("codegen", Some("compile"), "core.codegen_ms"),
        ("lint", Some("compile"), "core.lint_ms"),
        ("analyze", Some("compile"), "core.analyze_ms"),
        ("dse", Some("compile"), "core.dse_ms"),
        ("package", Some("compile"), "core.package_ms"),
        ("space_identification", Some("dse"), "dse.space_ms"),
        ("partition", Some("dse"), "dse.partition_ms"),
        ("seeds", Some("dse"), "dse.seeds_ms"),
        ("explore", Some("dse"), "dse.explore_ms"),
        ("merge", Some("dse"), "dse.merge_ms"),
        ("tune", None, "tuner.tune_ms"),
        ("estimate", None, "hlssim.estimate_ms"),
        ("pool_chunk", None, "hlssim.estimate_ms"),
        ("wait", None, "engine.batch_wait_ms"),
    ];
    let mut checked: Vec<(usize, u64, CompiledAccelerator)> = Vec::new();
    let calls = harness::timed_loop(plan, reference, ws.len(), CHECKED_CALLS, |i, traced| {
        let k = i % ws.len();
        let rng_seed = seeds.at(CALL, i as u64);
        let profiler = if traced {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let framework = S2fa::new(options(rng_seed)).with_profiler(profiler.clone());
        let t0 = Instant::now();
        let result = framework.compile(&ws[k].spec);
        let ms = ms_since(t0);
        if traced {
            stages.fold(&profiler.take_spans(), "compile", &span_map);
        }
        match result {
            Ok(c) if i < CHECKED_CALLS && !traced => checked.push((k, rng_seed, c)),
            Ok(c) => drop(black_box(c)),
            Err(_) => m.failed += 1,
        }
        ms
    });
    calls.record(plan, calls.count() as f64, &mut m)?;
    if plan.trace {
        stages.record(&mut m)?;
    }

    // Outside the timed region: the oracle on every checked design, and
    // the determinism contract on the first round (same seed, same
    // design, estimate and source).
    for (n, (k, rng_seed, c)) in checked.iter().enumerate() {
        let w = &ws[*k];
        let mut ok = outputs_match(w, &w.spec, c, seeds.at(ORACLE, n as u64));
        if n < ws.len() {
            ok &= S2fa::new(options(*rng_seed))
                .compile(&w.spec)
                .is_ok_and(|again| {
                    again.design == c.design
                        && again.estimate.time_ms.to_bits() == c.estimate.time_ms.to_bits()
                        && again.optimized_source == c.optimized_source
                });
        }
        m.failed += u64::from(!ok);
    }
    let dse: Vec<_> = checked
        .iter()
        .filter_map(|(_, _, c)| c.dse.as_ref())
        .collect();
    let per_compile = |f: &dyn Fn(&s2fa_dse::DseOutcome) -> f64| {
        stats::mean(&dse.iter().map(|d| f(d)).collect::<Vec<_>>()).ok_or("no checked compiles")
    };
    m.set(
        "tuner.evaluations",
        per_compile(&|d| d.total_evaluations as f64)?,
    );
    m.set(
        "hlssim.estimator_calls",
        per_compile(&|d| d.cache.misses as f64)?,
    );
    m.set(
        "engine.cache_lookups",
        per_compile(&|d| (d.cache.hits + d.cache.misses) as f64)?,
    );
    m.set(
        "engine.cache_hit_rate",
        per_compile(&|d| d.cache.hit_rate())?,
    );
    m.set("dse.partitions", per_compile(&|d| d.partitions as f64)?);
    m.set("dse.killed_evals", per_compile(&|d| d.killed_evals as f64)?);
    m.set("dse.vmin_mean", per_compile(&|d| d.elapsed_minutes)?);
    set_design_geomean(&mut m, checked.iter().map(|(_, _, c)| c))?;
    Ok(m)
}

/// Records `design.ms_geomean` over `designs`.
pub fn set_design_geomean<'a>(
    m: &mut Measured,
    designs: impl Iterator<Item = &'a CompiledAccelerator>,
) -> Result<(), String> {
    let times: Vec<f64> = designs.map(|c| c.estimate.time_ms).collect();
    m.set(
        "design.ms_geomean",
        stats::geomean(&times).ok_or("no compiled designs")?,
    );
    Ok(())
}

/// `S2fa::compile_with_config` with each kernel's expert design: no DSE,
/// only the front and back end. Each round visits the eight kernels in a
/// seed-derived order.
pub fn compile_expert(plan: &Plan, reference: &mut Reference) -> Result<Measured, String> {
    let seeds = Seeds::new(plan.seed, "compile_expert");
    let mut m = Measured::default();
    let framework = S2fa::new(options(0));
    let (ws, configs, designs) = harness::setup(plan, reference, &mut m, || {
        let ws = all_workloads();
        let mut configs = Vec::new();
        let mut designs = Vec::new();
        for w in &ws {
            let cfg = expert_config(w, framework.options().tasks_hint)?;
            designs.push(
                framework
                    .compile_with_config(&w.manual_spec, &cfg)
                    .map_err(|e| format!("warm-up compile of {}: {e}", w.name))?,
            );
            configs.push(cfg);
        }
        Ok((ws, configs, designs))
    })?;

    let n = ws.len();
    let mut stages = StageTotals::new(&EXPERT_STAGES);
    let mut checked: Vec<(usize, CompiledAccelerator)> = Vec::new();
    let calls = harness::timed_loop(plan, reference, n, CHECKED_CALLS, |i, traced| {
        let k = round_order(n, &seeds, (i / n) as u64)[i % n];
        let spec = &ws[k].manual_spec;
        if traced {
            let mut ms = [0.0; EXPERT_STAGES.len()];
            let t0 = Instant::now();
            let result = staged_compile(&framework, spec, &configs[k], &mut ms);
            let call_ms = ms_since(t0);
            for (name, v) in EXPERT_STAGES.iter().zip(ms) {
                stages.add(name, v);
            }
            stages.end_call(call_ms, ms.iter().sum());
            // The timed stages must do the work `compile_with_config` does.
            if result.as_ref() != Ok(&designs[k].optimized_source) {
                m.failed += 1;
            }
            return call_ms;
        }
        let t0 = Instant::now();
        let result = framework.compile_with_config(spec, &configs[k]);
        let ms = ms_since(t0);
        match result {
            Ok(c) if i < CHECKED_CALLS => checked.push((k, c)),
            Ok(c) => drop(black_box(c)),
            Err(_) => m.failed += 1,
        }
        ms
    });
    calls.record(plan, calls.count() as f64, &mut m)?;
    if plan.trace {
        stages.record(&mut m)?;
    }
    for (n, (k, c)) in checked.iter().enumerate() {
        let w = &ws[*k];
        m.failed += u64::from(!outputs_match(
            w,
            &w.manual_spec,
            c,
            seeds.at(ORACLE, n as u64),
        ));
    }
    // Expert designs do not depend on the seed: the set-up's compiles,
    // in kernel order, give the same geomean in every run.
    set_design_geomean(&mut m, designs.iter())?;
    Ok(m)
}

/// The expert design of `w`, built against its manual kernel's summary.
pub fn expert_config(w: &Workload, tasks_hint: u32) -> Result<DesignConfig, String> {
    let generated = compile_kernel(&w.manual_spec).map_err(|e| format!("{}: {e}", w.name))?;
    let summary = analysis::summarize(&generated.cfunc, tasks_hint)
        .map_err(|e| format!("{}: {e}", w.name))?;
    Ok((w.manual_config)(&summary))
}

/// The order of the `n` kernels in round `round`: a Fisher-Yates shuffle
/// drawn from seed stream `ORDER`.
fn round_order(n: usize, seeds: &Seeds, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for j in (1..n).rev() {
        let r = seeds.at(ORDER, round * n as u64 + j as u64);
        order.swap(j, (r % (j as u64 + 1)) as usize);
    }
    order
}

/// Layers of the expert flow, in call order.
const EXPERT_STAGES: [&str; 8] = [
    "core.codegen_ms",
    "core.lint_ms",
    "hlsir.summarize_ms",
    "dse.space_ms",
    "hlssim.evaluate_ms",
    "merlin.structural_ms",
    "lint.recheck_ms",
    "hlsir.print_ms",
];

/// The public calls `compile_with_config` makes, in its order, each timed
/// into `ms` (indexed as `EXPERT_STAGES`). Returns the optimized source.
fn staged_compile(
    framework: &S2fa,
    spec: &KernelSpec,
    design: &DesignConfig,
    ms: &mut [f64; EXPERT_STAGES.len()],
) -> Result<String, String> {
    let tasks_hint = framework.options().tasks_hint;
    let mut lap = Instant::now();
    let mut stage = |i: usize| {
        ms[i] += ms_since(lap);
        lap = Instant::now();
    };
    let generated = compile_kernel(spec).map_err(|e| e.to_string())?;
    stage(0);
    if verify_function(&generated.cfunc).has_errors() {
        return Err("generated C is ill-formed".into());
    }
    stage(1);
    let mut summary =
        analysis::summarize(&generated.cfunc, tasks_hint).map_err(|e| e.to_string())?;
    if framework.options().dse.dataflow_prescreen {
        s2fa_hlsir::dataflow::attach(&mut summary, &generated.cfunc);
    }
    stage(2);
    black_box(DesignSpace::build(&summary).size_log10());
    stage(3);
    let estimate = framework.estimator().evaluate(&summary, design);
    if !estimate.is_feasible() {
        return Err("expert design does not synthesize".into());
    }
    stage(4);
    let mut normalized = design.clone();
    normalized.normalize(&summary);
    let (optimized, _) = apply_structural(&generated.cfunc, &normalized);
    stage(5);
    let fresh = new_errors(
        &verify_function(&generated.cfunc),
        &verify_function(&optimized),
    );
    let dataflow = new_dataflow_errors(
        &dataflow_checks(&generated.cfunc, tasks_hint),
        &dataflow_checks(&optimized, tasks_hint),
    );
    if !fresh.is_empty() || !dataflow.is_empty() {
        return Err("structural transform introduced an error".into());
    }
    stage(6);
    let source = printer::to_c(&optimized);
    stage(7);
    Ok(source)
}
