//! Workloads, metric names and units, and the result line.
//!
//! The tables here and `BENCHMARK.json` name the same metrics; a unit test
//! keeps them in step.

use std::collections::BTreeMap;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `S2fa::compile` (full DSE) over the eight Table-2 kernels.
    CompileAuto,
    /// `S2fa::compile_with_config` with each kernel's expert design.
    CompileExpert,
    /// Blaze serving of all eight expert designs at 75% of capacity.
    ServeMix,
    /// Blaze serving of seven kernels past capacity, KNN on the JVM.
    ServeOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CompileAuto,
        Workload::CompileExpert,
        Workload::ServeMix,
        Workload::ServeOverload,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileAuto => "compile_auto",
            Workload::CompileExpert => "compile_expert",
            Workload::ServeMix => "serve_mix",
            Workload::ServeOverload => "serve_overload",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric and the workloads that exercise its layer. A
/// traced run of any other workload reports it as 0: the workload does
/// no work in that layer.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub on: &'static [Workload],
}

const AUTO: &[Workload] = &[Workload::CompileAuto];
const EXPERT: &[Workload] = &[Workload::CompileExpert];
const COMPILE: &[Workload] = &[Workload::CompileAuto, Workload::CompileExpert];
const SERVE: &[Workload] = &[Workload::ServeMix, Workload::ServeOverload];

const fn layer(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Layer {
    Layer { name, unit, on }
}

/// Per-layer metrics, reported by every traced run. Times are means per
/// call (one compile, or one `serve` call) unless the name says
/// otherwise.
pub const PER_LAYER: &[Layer] = &[
    // Stage spans `S2fa::compile` records under an enabled profiler.
    layer("core.codegen_ms", "ms", COMPILE),
    layer("core.lint_ms", "ms", COMPILE),
    layer("core.analyze_ms", "ms", AUTO),
    layer("core.dse_ms", "ms", AUTO),
    layer("core.package_ms", "ms", AUTO),
    layer("dse.space_ms", "ms", COMPILE),
    layer("dse.partition_ms", "ms", AUTO),
    layer("dse.seeds_ms", "ms", AUTO),
    layer("dse.explore_ms", "ms", AUTO),
    layer("dse.merge_ms", "ms", AUTO),
    layer("tuner.tune_ms", "ms", AUTO),
    layer("hlssim.estimate_ms", "ms", AUTO),
    layer("engine.batch_wait_ms", "ms", AUTO),
    // DSE work counts, means per compile.
    layer("tuner.evaluations", "count", AUTO),
    layer("hlssim.estimator_calls", "count", AUTO),
    layer("engine.cache_lookups", "count", AUTO),
    layer("engine.cache_hit_rate", "fraction", AUTO),
    layer("dse.partitions", "count", AUTO),
    layer("dse.killed_evals", "count", AUTO),
    layer("dse.vmin_mean", "min", AUTO),
    // Modelled latency of the compiled (or served) designs.
    layer("design.ms_geomean", "ms", &Workload::ALL),
    // The expert flow's stages, timed around their public calls.
    layer("hlsir.summarize_ms", "ms", EXPERT),
    layer("hlssim.evaluate_ms", "ms", EXPERT),
    layer("merlin.structural_ms", "ms", EXPERT),
    layer("lint.recheck_ms", "ms", EXPERT),
    layer("hlsir.print_ms", "ms", EXPERT),
    // Serving phases (`serve` spans), per `serve` call.
    layer("blaze.loadgen_ms", "ms", SERVE),
    layer("blaze.fallback_ms", "ms", SERVE),
    layer("blaze.simulate_ms", "ms", SERVE),
    layer("blaze.execute_ms", "ms", SERVE),
    // Serving outcomes on the virtual clock.
    layer("blaze.batches", "count", SERVE),
    layer("blaze.mean_batch_size", "count", SERVE),
    layer("blaze.max_queue_depth", "count", SERVE),
    layer("blaze.rejected_inflight", "count", SERVE),
    layer("blaze.rejected_queue_full", "count", SERVE),
    layer("blaze.reject_fraction", "fraction", SERVE),
    layer("blaze.fallback_fraction", "fraction", SERVE),
    layer("blaze.vlatency_ms_p50", "ms", SERVE),
    layer("blaze.vlatency_ms_p90", "ms", SERVE),
    layer("blaze.goodput_rps", "1/s", SERVE),
    // Host cost per record of each design on `hlsir::exec`
    // (`Accelerator::run_batch`) and on the `sjvm` interpreter.
    layer("exec.PR_us_per_record", "us", SERVE),
    layer("exec.KMeans_us_per_record", "us", SERVE),
    layer("exec.KNN_us_per_record", "us", SERVE),
    layer("exec.LR_us_per_record", "us", SERVE),
    layer("exec.SVM_us_per_record", "us", SERVE),
    layer("exec.LLS_us_per_record", "us", SERVE),
    layer("exec.AES_us_per_record", "us", SERVE),
    layer("exec.S-W_us_per_record", "us", SERVE),
    layer("sjvm.PR_us_per_record", "us", SERVE),
    layer("sjvm.KMeans_us_per_record", "us", SERVE),
    layer("sjvm.KNN_us_per_record", "us", SERVE),
    layer("sjvm.LR_us_per_record", "us", SERVE),
    layer("sjvm.SVM_us_per_record", "us", SERVE),
    layer("sjvm.LLS_us_per_record", "us", SERVE),
    layer("sjvm.AES_us_per_record", "us", SERVE),
    layer("sjvm.S-W_us_per_record", "us", SERVE),
    // Share of call wall time inside named stages, and the cost of
    // tracing (traced over untraced median call time, minus one).
    layer("bench.attributed_fraction", "fraction", &Workload::ALL),
    layer("bench.trace_overhead", "fraction", &Workload::ALL),
    // Median time of the benchmark's own reference computation: the
    // machine's speed during the run.
    layer("bench.ref_loop_us", "us", &Workload::ALL),
];

/// Metrics that are a function of `--seed` alone: two runs with one
/// seed, traced or not, must report them bit-identical. `--smoke`
/// checks this.
pub const DETERMINISTIC: &[&str] = &[
    "tuner.evaluations",
    "engine.cache_lookups",
    "dse.partitions",
    "dse.killed_evals",
    "dse.vmin_mean",
    "design.ms_geomean",
    "blaze.batches",
    "blaze.mean_batch_size",
    "blaze.max_queue_depth",
    "blaze.rejected_inflight",
    "blaze.rejected_queue_full",
    "blaze.reject_fraction",
    "blaze.fallback_fraction",
    "blaze.vlatency_ms_p50",
    "blaze.vlatency_ms_p90",
    "blaze.goodput_rps",
];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Calls made in the timed region.
    pub attempted: u64,
    /// Calls that returned an error or failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Measured {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// The `(name, value, unit)` rows a run prints: every end-to-end metric
/// untraced, every per-layer metric traced.
///
/// # Errors
///
/// A metric of the table that the run did not measure, a per-layer value
/// from a layer the table says the workload does not exercise, or a
/// non-finite value.
pub fn rows(
    workload: Workload,
    m: &Measured,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    if trace {
        for l in PER_LAYER {
            let value = m.values.get(l.name).copied();
            let v = match (l.on.contains(&workload), value) {
                (true, Some(v)) => v,
                (true, None) => return Err(format!("{} not measured", l.name)),
                (false, None) => 0.0,
                (false, Some(_)) => {
                    return Err(format!("{} measured outside its layer", l.name));
                }
            };
            out.push((l.name, v, l.unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = m
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("{name} not measured"))?;
            out.push((name, v, unit));
        }
    }
    if let Some((name, v, _)) = out.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is {v}"));
    }
    Ok(out)
}

/// The one-line JSON result.
pub fn result_line(m: &Measured, rows: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_obs::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|n| n.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for n in &all {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {n}"
            );
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        for d in DETERMINISTIC {
            assert!(PER_LAYER.iter().any(|l| l.name == *d), "{d} is not a layer");
        }
    }

    #[test]
    fn rows_zero_fill_only_unexercised_layers() {
        let mut m = Measured {
            attempted: 1,
            ..Default::default()
        };
        for l in PER_LAYER
            .iter()
            .filter(|l| l.on.contains(&Workload::ServeMix))
        {
            m.set(l.name, 1.0);
        }
        let traced = rows(Workload::ServeMix, &m, true).expect("complete");
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().any(|r| r.0 == "core.dse_ms" && r.1 == 0.0));
        assert!(rows(Workload::CompileAuto, &m, true).is_err());
        assert!(
            rows(Workload::ServeMix, &m, false).is_err(),
            "no end-to-end values"
        );
        let line = result_line(&m, &traced);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(Json::parse(&line).is_ok());
    }
}
