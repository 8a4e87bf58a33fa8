//! Serving-runtime evaluation — `results/BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p s2fa-bench --bin serving [-- --smoke]
//! ```
//!
//! Compiles all eight Table-2 workloads through the manual expert flow
//! (no DSE), registers the resulting designs with one Blaze accelerator
//! registry, and serves one tenant per workload through the blaze
//! serving runtime (admission control → per-accelerator queues → batch
//! forming → simulated cluster execution → reply) under three arrival
//! regimes:
//!
//! * `light`    — 25% of the cluster's modelled capacity,
//! * `moderate` — 75%,
//! * `overload` — 150%.
//!
//! The capacity these shares refer to is *unbatched*: one request per
//! accelerator invocation. Batching amortizes each invocation's setup
//! over up to `max_batch` requests, so even `overload` stays short of
//! saturation — its queues stay shallow and admission control rejects
//! nothing (`rejected: 0` in all three regimes of the committed
//! artifact).
//!
//! Per-tenant arrival rates are sized from each design's own time model
//! (`setup_ms + per_task_ms × records`), so every workload contributes
//! the same utilization share regardless of how fast its design is.
//! The whole run is a deterministic virtual-clock simulation: numbers
//! are bit-identical across hosts and `--smoke`/full only differ in
//! request counts.
//!
//! For each regime the JSON artifact reports offered vs delivered
//! throughput, p50/p90/p99 latency (via the `s2fa-obs` log-linear
//! histogram, recorded in microseconds), queue depth, the batch-size
//! distribution, the fallback fraction, and per-tenant counters.
//!
//! Every run validates the artifact before writing it: against
//! `docs/bench_serving.schema.json` (three regimes, every field present
//! with its type and range, nothing extra), then the invariants the
//! schema subset cannot state: positive throughput, conservation
//! (submitted = completed + rejected), and a fallback fraction of
//! exactly zero (all eight kernels are registered, so nothing may take
//! the JVM path). Any violation exits non-zero without writing. `--smoke`
//! is the CI gate: the same run with fewer requests.

use s2fa::{S2fa, S2faOptions};
use s2fa_bench::results::save;
use s2fa_blaze::{AccelTimeModel, ServeOutcome};
use s2fa_blaze::{AcceleratorRegistry, ServingConfig, ServingRuntime, TenantSpec};
use s2fa_hlsir::analysis;
use s2fa_obs::{validate, Json, Profiler};
use s2fa_trace::NullSink;
use s2fa_workloads::all_workloads;

/// One registered design being served.
struct Served {
    name: &'static str,
    accel_id: String,
    fallback: s2fa_sjvm::KernelSpec,
    gen_input: fn(usize, u64) -> Vec<s2fa_sjvm::HostValue>,
    /// Modelled ms to execute one request's records on the design.
    request_ms: f64,
}

/// (utilization label, fraction of modelled cluster capacity offered).
const REGIMES: [(&str, f64); 3] = [("light", 0.25), ("moderate", 0.75), ("overload", 1.5)];

/// Compiles every workload through the manual flow and registers the
/// designs. Returns the serving table plus the shared registry.
fn build_cluster(records_per_request: usize) -> (AcceleratorRegistry, Vec<Served>) {
    let framework = S2fa::new(S2faOptions::default());
    let registry = AcceleratorRegistry::new();
    let mut served = Vec::new();
    for w in all_workloads() {
        let generated = s2fa::compile_kernel(&w.manual_spec).expect("manual kernels compile");
        let summary = analysis::summarize(&generated.cfunc, 1024).expect("manual kernels analyze");
        let cfg = (w.manual_config)(&summary);
        let compiled = framework
            .compile_with_config(&w.manual_spec, &cfg)
            .unwrap_or_else(|e| panic!("{} manual flow: {e}", w.name));
        let model = compiled.accelerator.time_model.unwrap_or(AccelTimeModel {
            per_task_ms: 0.001,
            setup_ms: 0.1,
        });
        served.push(Served {
            name: w.name,
            accel_id: compiled.accelerator.id.clone(),
            fallback: w.spec.clone(),
            gen_input: w.gen_input,
            request_ms: model.batch_ms(records_per_request as u64),
        });
        registry.register(compiled.accelerator);
    }
    (registry, served)
}

/// Sizes per-tenant arrival rates so the aggregate offered load equals
/// `utilization` × the modelled capacity of `nodes` workers, split
/// evenly across tenants. Tenant i's capacity share is
/// `nodes / (tenants × request_ms_i)` requests per virtual ms.
fn tenants_for(
    served: &[Served],
    utilization: f64,
    nodes: usize,
    requests: usize,
    records_per_request: usize,
) -> Vec<TenantSpec> {
    let n = served.len() as f64;
    served
        .iter()
        .enumerate()
        .map(|(i, s)| TenantSpec {
            name: s.name.to_string(),
            accel_id: s.accel_id.clone(),
            fallback: s.fallback.clone(),
            rate_per_ms: utilization * nodes as f64 / (n * s.request_ms.max(1e-6)),
            requests,
            records_per_request,
            gen_input: s.gen_input,
            seed: 0x53_46_41 ^ ((i as u64 + 1) * 0x9E37),
        })
        .collect()
}

/// Runs one regime and folds the outcome into a JSON object.
fn run_regime(
    registry: &AcceleratorRegistry,
    served: &[Served],
    config: ServingConfig,
    label: &str,
    utilization: f64,
    requests: usize,
    records_per_request: usize,
) -> (Json, ServeOutcome) {
    let tenants = tenants_for(
        served,
        utilization,
        config.nodes,
        requests,
        records_per_request,
    );
    let runtime = ServingRuntime::new(registry, config).expect("valid serving config");
    let outcome = runtime
        .serve(&tenants, &NullSink, &Profiler::disabled())
        .unwrap_or_else(|e| panic!("regime {label}: {e}"));
    let stats = &outcome.stats;

    // Latency percentiles via the obs histogram, in µs for resolution.
    let snap = outcome.latency_us();
    let us = |v: u64| v as f64 / 1000.0;

    let offered_per_ms: f64 = tenants.iter().map(|t| t.rate_per_ms).sum();
    let throughput_per_ms = if stats.makespan_ms > 0.0 {
        stats.completed() as f64 / stats.makespan_ms
    } else {
        0.0
    };

    let batch_sizes = Json::Obj(
        stats
            .batch_sizes
            .iter()
            .map(|(size, count)| (size.to_string(), Json::int(*count)))
            .collect(),
    );
    let per_tenant = Json::Arr(
        tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let done = outcome
                    .outcomes
                    .iter()
                    .filter(|o| o.tenant == i && o.latency_ms().is_some())
                    .count();
                let rejected = t.requests - done;
                Json::obj(vec![
                    ("tenant", Json::str(t.name.clone())),
                    ("rate_per_ms", Json::num(t.rate_per_ms)),
                    ("completed", Json::int(done as u64)),
                    ("rejected", Json::int(rejected as u64)),
                ])
            })
            .collect(),
    );

    let doc = Json::obj(vec![
        ("regime", Json::str(label)),
        ("utilization", Json::num(utilization)),
        ("offered_rps", Json::num(offered_per_ms * 1000.0)),
        ("throughput_rps", Json::num(throughput_per_ms * 1000.0)),
        (
            "latency_ms",
            Json::obj(vec![
                ("p50", Json::num(us(snap.p50))),
                ("p90", Json::num(us(snap.p90))),
                ("p99", Json::num(us(snap.p99))),
                ("mean", Json::num(snap.mean() / 1000.0)),
                ("max", Json::num(us(snap.max))),
            ]),
        ),
        ("submitted", Json::int(stats.submitted)),
        ("completed", Json::num(stats.completed() as f64)),
        ("rejected", Json::int(stats.rejected)),
        ("fallback_fraction", Json::num(stats.fallback_fraction())),
        ("max_queue_depth", Json::int(stats.max_queue_depth)),
        ("batches", Json::int(stats.batches)),
        ("mean_batch_size", Json::num(stats.mean_batch_size())),
        ("batch_sizes", batch_sizes),
        ("makespan_ms", Json::num(stats.makespan_ms)),
        ("per_tenant", per_tenant),
    ]);
    (doc, outcome)
}

/// Checks the artifact against `docs/bench_serving.schema.json`, then
/// per regime the invariants the schema subset cannot state. Returns
/// human-readable violations (empty = valid).
fn validate_doc(doc: &Json) -> Vec<String> {
    let schema = Json::parse(include_str!("../../../../docs/bench_serving.schema.json"))
        .expect("checked-in schema parses");
    let bad = validate(&schema, doc);
    if !bad.is_empty() {
        return bad;
    }
    let regimes = doc
        .get("regimes")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut bad = Vec::new();
    for r in regimes {
        let name = r.get("regime").and_then(Json::as_str).unwrap_or("?");
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        if num("throughput_rps") <= 0.0 {
            bad.push(format!("{name}: throughput_rps is not positive"));
        }
        let fallback = num("fallback_fraction");
        if fallback != 0.0 {
            bad.push(format!(
                "{name}: fallback fraction {fallback} != 0 with all kernels registered"
            ));
        }
        if num("submitted") != num("completed") + num("rejected") {
            bad.push(format!("{name}: submitted != completed + rejected"));
        }
    }
    bad
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (requests, records_per_request) = if smoke { (40, 16) } else { (200, 64) };
    let config = ServingConfig {
        nodes: 4,
        // Functional batch execution only: outcomes are the same for any
        // thread count.
        exec_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        max_batch: 8,
        max_wait_ms: 2.0,
        max_inflight: 32,
        queue_capacity: 64,
    };

    println!(
        "Serving bench: 8 manual designs on {} simulated nodes, {} requests/tenant x {} records",
        config.nodes, requests, records_per_request
    );
    let (registry, served) = build_cluster(records_per_request);
    println!("Registered designs:");
    for s in &served {
        println!(
            "  {:<7} {:>9.4} ms per {}-record request",
            s.name, s.request_ms, records_per_request
        );
    }

    let mut regime_docs = Vec::new();
    println!(
        "\n{:<9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>6} {:>6} {:>7}",
        "regime",
        "offered r/s",
        "actual r/s",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "rej",
        "qdepth",
        "batch"
    );
    for (label, utilization) in REGIMES {
        let (doc, outcome) = run_regime(
            &registry,
            &served,
            config,
            label,
            utilization,
            requests,
            records_per_request,
        );
        let stats = &outcome.stats;
        let snap = outcome.latency_us();
        println!(
            "{:<9} {:>11.1} {:>11.1} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>6} {:>7.2}",
            label,
            tenants_for(
                &served,
                utilization,
                config.nodes,
                requests,
                records_per_request
            )
            .iter()
            .map(|t| t.rate_per_ms)
            .sum::<f64>()
                * 1000.0,
            if stats.makespan_ms > 0.0 {
                stats.completed() as f64 / stats.makespan_ms * 1000.0
            } else {
                0.0
            },
            snap.p50 as f64 / 1000.0,
            snap.p90 as f64 / 1000.0,
            snap.p99 as f64 / 1000.0,
            stats.rejected,
            stats.max_queue_depth,
            stats.mean_batch_size(),
        );
        if stats.fallback_fraction() > 0.0 {
            eprintln!(
                "warning: {label}: {:.1}% of requests fell back to the JVM",
                stats.fallback_fraction() * 100.0
            );
        }
        regime_docs.push(doc);
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("serving")),
        ("smoke", Json::Bool(smoke)),
        ("nodes", Json::int(config.nodes as u64)),
        ("max_batch", Json::int(config.max_batch as u64)),
        ("max_wait_ms", Json::num(config.max_wait_ms)),
        ("max_inflight", Json::int(config.max_inflight as u64)),
        ("queue_capacity", Json::int(config.queue_capacity as u64)),
        ("requests_per_tenant", Json::int(requests as u64)),
        ("records_per_request", Json::int(records_per_request as u64)),
        (
            "kernels",
            Json::Arr(served.iter().map(|s| Json::str(s.name)).collect()),
        ),
        ("regimes", Json::Arr(regime_docs)),
    ]);
    let bad = validate_doc(&doc);
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("BENCH_serving.json FAIL: {b}");
        }
        std::process::exit(1);
    }
    println!("\nBENCH_serving.json conforms to its schema, fallback fraction 0 in all regimes");
    save("BENCH_serving", &doc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Json {
        Json::parse(include_str!("../../../../results/BENCH_serving.json"))
            .expect("checked-in artifact parses")
    }

    /// Replaces member `key` of the first regime.
    fn with_first_regime(doc: &mut Json, key: &str, value: Json) {
        let Json::Obj(top) = doc else { unreachable!() };
        let (_, Json::Arr(regimes)) = top.iter_mut().find(|(k, _)| k == "regimes").unwrap() else {
            unreachable!()
        };
        let Json::Obj(first) = &mut regimes[0] else {
            unreachable!()
        };
        first.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
    }

    #[test]
    fn checked_in_artifact_conforms() {
        assert_eq!(validate_doc(&artifact()), Vec::<String>::new());
    }

    #[test]
    fn violations_are_reported() {
        for (key, value, want) in [
            (
                "fallback_fraction",
                Json::num(0.5),
                "light: fallback fraction 0.5",
            ),
            (
                "rejected",
                Json::int(3),
                "light: submitted != completed + rejected",
            ),
            (
                "throughput_rps",
                Json::num(0.0),
                "light: throughput_rps is not positive",
            ),
            (
                "regime",
                Json::str("heavy"),
                "$.regimes[0].regime: not one of the enum",
            ),
            (
                "batches",
                Json::num(1.5),
                "$.regimes[0].batches: expected type integer",
            ),
            (
                "latency_ms",
                Json::Null,
                "$.regimes[0].latency_ms: expected type object",
            ),
        ] {
            let mut doc = artifact();
            with_first_regime(&mut doc, key, value);
            let bad = validate_doc(&doc).join("\n");
            assert!(bad.contains(want), "{key}: {bad}");
        }
    }
}
