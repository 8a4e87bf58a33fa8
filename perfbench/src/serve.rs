//! The `serve_mix` and `serve_overload` workloads.

use crate::compile::{expert_config, set_design_geomean};
use crate::harness::{self, ms_since, Plan, Reference, StageTotals};
use crate::metrics::{Measured, Workload as Bench};
use crate::oracle;
use crate::stats::{self, Seeds};
use s2fa::{CompiledAccelerator, S2fa, S2faOptions};
use s2fa_blaze::rdd::ExecutionPath;
use s2fa_blaze::serving::{generate, Disposition, RejectReason};
use s2fa_blaze::{AcceleratorRegistry, ServeOutcome, ServingConfig, ServingRuntime, TenantSpec};
use s2fa_obs::Profiler;
use s2fa_sjvm::{HostValue, Interp, Shape};
use s2fa_trace::NullSink;
use s2fa_workloads::{all_workloads, Workload};
use std::sync::OnceLock;
use std::time::Instant;

/// Functional-execution threads: the host's two cores. The other serving
/// options keep their defaults (2 simulated nodes, batches of up to 8
/// requests or 2 ms, 16 inflight requests per tenant, 64 queued per
/// accelerator).
const EXEC_THREADS: usize = 2;

/// Traffic of one serving workload.
#[derive(Debug)]
pub struct Traffic {
    workload: Bench,
    /// Kernels with no tenant.
    idle: &'static [&'static str],
    /// Kernels whose tenant finds no registered accelerator and takes the
    /// JVM fallback.
    unregistered: &'static [&'static str],
    /// Offered load as a share of the nodes' modelled capacity when every
    /// request runs alone and pays the design's set-up time. Batching up
    /// to 8 requests amortizes that set-up, so real capacity is higher.
    utilization: f64,
    /// Requests per tenant per `serve` call.
    requests: usize,
}

impl Traffic {
    /// Whether kernel `name` has a registered accelerator.
    fn registers(&self, name: &str) -> bool {
        !self.idle.contains(&name) && !self.unregistered.contains(&name)
    }
}

/// All eight expert designs at 75% of capacity: S-W's DP loop nest on
/// `hlsir::exec` dominates host time.
pub const MIX: Traffic = Traffic {
    workload: Bench::ServeMix,
    idle: &[],
    unregistered: &[],
    utilization: 0.75,
    requests: 1,
};

/// The seven kernels other than S-W past capacity even with full batches,
/// so admission control rejects part of the requests (about 8%); KNN runs
/// on the JVM fallback. Many small batches load admission, batch forming
/// and the fallback path.
pub const OVERLOAD: Traffic = Traffic {
    workload: Bench::ServeOverload,
    idle: &["S-W"],
    unregistered: &["KNN"],
    utilization: 16.0,
    requests: 32,
};

/// Records per request of the four tenants that share each kernel, so
/// every `serve` call carries the same work.
const TENANT_RECORDS: [usize; 4] = [1, 2, 3, 4];

/// Requests whose outcomes feed the deterministic metrics: the first
/// calls that submit at least this many.
const CHECKED_REQUESTS: usize = 128;

/// `serve` calls whose every reply goes through the output oracle.
const ORACLE_CALLS: usize = 2;

/// Records and repetitions of each per-record cost probe.
const PROBE_RECORDS: usize = 4;
const PROBE_REPS: usize = 9;

// Seed streams.
const WARMUP: u64 = 0;
const CALL: u64 = 1;
const PROBE: u64 = 2;

/// Seed of the one model each kernel serves: the broadcast state of its
/// records (LR, SVM and LLS weights, KMeans centroids, KNN reference
/// points).
const MODEL_SEED: u64 = 0x5EED_0F0D;

/// Per kernel, in `all_workloads` order: its input generator, its record
/// shape, and a record whose broadcast leaves are the served model.
#[allow(clippy::type_complexity)]
fn served() -> &'static [(fn(usize, u64) -> Vec<HostValue>, Shape, HostValue)] {
    static SERVED: OnceLock<Vec<(fn(usize, u64) -> Vec<HostValue>, Shape, HostValue)>> =
        OnceLock::new();
    SERVED.get_or_init(|| {
        all_workloads()
            .into_iter()
            .map(|w| {
                let model = (w.gen_input)(1, MODEL_SEED).remove(0);
                (w.gen_input, w.spec.input_shape, model)
            })
            .collect()
    })
}

/// `v` with its broadcast leaves taken from `model`.
fn with_model(v: &HostValue, model: &HostValue, shape: &Shape) -> HostValue {
    match (v, model, shape) {
        (_, _, Shape::Bcast(_)) => model.clone(),
        (HostValue::Tuple(vs), HostValue::Tuple(ms), Shape::Composite(fs)) => HostValue::Tuple(
            vs.iter()
                .zip(ms)
                .zip(fs)
                .map(|((v, m), f)| with_model(v, m, f))
                .collect(),
        ),
        _ => v.clone(),
    }
}

/// Records of kernel `K` drawn from `seed`, carrying the kernel's served
/// model as their broadcast state. Blaze ships broadcast leaves once per
/// batch, so requests coalesced into one batch must share them: a tenant
/// queries one deployed model.
fn served_input<const K: usize>(n: usize, seed: u64) -> Vec<HostValue> {
    let (generate, shape, model) = &served()[K];
    generate(n, seed)
        .iter()
        .map(|r| with_model(r, model, shape))
        .collect()
}

const SERVED_INPUTS: [fn(usize, u64) -> Vec<HostValue>; 8] = [
    served_input::<0>,
    served_input::<1>,
    served_input::<2>,
    served_input::<3>,
    served_input::<4>,
    served_input::<5>,
    served_input::<6>,
    served_input::<7>,
];

/// A tenant: its kernel's workload and expert design, and its request
/// generator and size.
struct Tenant<'a> {
    w: &'a Workload,
    design: &'a CompiledAccelerator,
    input: fn(usize, u64) -> Vec<HostValue>,
    records: usize,
}

fn config() -> ServingConfig {
    ServingConfig {
        exec_threads: EXEC_THREADS,
        ..ServingConfig::default()
    }
}

/// Tenant specs of one `serve` call: each tenant draws its arrival and
/// payload seed from `seeds`, and its rate is its even share of
/// `utilization` of the nodes' modelled capacity.
fn tenant_specs(
    t: &Traffic,
    tenants: &[Tenant],
    requests: usize,
    seeds: &Seeds,
    stream: u64,
    call: u64,
) -> Vec<TenantSpec> {
    let n = tenants.len() as f64;
    let nodes = config().nodes as f64;
    tenants
        .iter()
        .enumerate()
        .map(|(k, tenant)| {
            let model = tenant
                .design
                .accelerator
                .time_model
                .expect("compiled designs carry a time model");
            TenantSpec {
                name: format!("{}-{}", tenant.w.name, tenant.records),
                accel_id: tenant.design.accelerator.id.clone(),
                fallback: tenant.w.spec.clone(),
                rate_per_ms: t.utilization * nodes / (n * model.batch_ms(tenant.records as u64)),
                requests,
                records_per_request: tenant.records,
                gen_input: tenant.input,
                seed: seeds.at(stream, call * 64 + k as u64),
            }
        })
        .collect()
}

/// Replies of one call that fail the oracle: accelerator replies against
/// the interpreter on the expert kernel that was compiled, fallback
/// replies against the interpreter on the user's kernel.
fn wrong_replies(tenants: &[Tenant], specs: &[TenantSpec], outcome: &ServeOutcome) -> usize {
    let requests = generate(specs);
    if outcome.outcomes.len() != requests.len() {
        return requests.len().max(1);
    }
    outcome
        .outcomes
        .iter()
        .zip(&requests)
        .filter(|(o, r)| match &o.disposition {
            Disposition::Completed { output, path, .. } => {
                let w = tenants[r.tenant].w;
                let spec = match path {
                    ExecutionPath::Offloaded => &w.manual_spec,
                    ExecutionPath::JvmFallback => &w.spec,
                };
                oracle::mismatches(spec, &r.records, output) > 0
            }
            Disposition::Rejected { .. } => false,
        })
        .count()
}

/// Serves `traffic` with `ServingRuntime::serve`, one call per window of
/// `traffic.requests` requests per tenant.
pub fn serve(
    traffic: &Traffic,
    plan: &Plan,
    reference: &mut Reference,
) -> Result<Measured, String> {
    let seeds = Seeds::new(plan.seed, traffic.workload.name());
    let (requests, records) = if plan.smoke {
        (1, &TENANT_RECORDS[..1])
    } else {
        (traffic.requests, &TENANT_RECORDS[..])
    };
    let mut m = Measured::default();
    let (ws, designs, registry) = harness::setup(plan, reference, &mut m, || {
        let ws = all_workloads();
        let framework = S2fa::new(S2faOptions::default());
        let mut designs = Vec::new();
        for w in &ws {
            let cfg = expert_config(w, framework.options().tasks_hint)?;
            designs.push(
                framework
                    .compile_with_config(&w.manual_spec, &cfg)
                    .map_err(|e| format!("{}: {e}", w.name))?,
            );
        }
        let registry = AcceleratorRegistry::new();
        for (w, design) in ws.iter().zip(&designs) {
            if traffic.registers(w.name) {
                registry.register(design.accelerator.clone());
            }
        }
        let tenants = tenants_of(traffic, &ws, &designs, records);
        let runtime = ServingRuntime::new(&registry, config()).map_err(|e| e.to_string())?;
        runtime
            .serve(
                &tenant_specs(traffic, &tenants, 1, &seeds, WARMUP, 0),
                &NullSink,
                &Profiler::disabled(),
            )
            .map_err(|e| format!("warm-up serve: {e}"))?;
        Ok((ws, designs, registry))
    })?;
    let tenants = tenants_of(traffic, &ws, &designs, records);
    let runtime = ServingRuntime::new(&registry, config()).map_err(|e| e.to_string())?;

    let mut stages = StageTotals::new(&[
        "blaze.loadgen_ms",
        "blaze.fallback_ms",
        "blaze.simulate_ms",
        "blaze.execute_ms",
    ]);
    let span_map = [
        ("loadgen", Some("serve"), "blaze.loadgen_ms"),
        ("fallback_precompute", Some("serve"), "blaze.fallback_ms"),
        ("simulate", Some("serve"), "blaze.simulate_ms"),
        ("execute_batches", Some("serve"), "blaze.execute_ms"),
    ];
    let checked_calls = CHECKED_REQUESTS.div_ceil(tenants.len() * requests);
    let mut executed = 0u64;
    let mut checked: Vec<(Vec<TenantSpec>, ServeOutcome)> = Vec::new();
    let calls = harness::timed_loop(plan, reference, 1, checked_calls, |i, traced| {
        let specs = tenant_specs(traffic, &tenants, requests, &seeds, CALL, i as u64);
        let profiler = if traced {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let t0 = Instant::now();
        let result = runtime.serve(&specs, &NullSink, &profiler);
        let ms = ms_since(t0);
        if traced {
            stages.fold(&profiler.take_spans(), "serve", &span_map);
        }
        match result {
            Ok(outcome) => {
                executed += outcome.stats.total_tasks;
                if i < checked_calls && !traced {
                    checked.push((specs, outcome));
                }
            }
            Err(_) => m.failed += 1,
        }
        ms
    });
    calls.record(plan, executed as f64, &mut m)?;
    if plan.trace {
        stages.record(&mut m)?;
        probe_layers(&ws, &designs, &seeds, &mut m)?;
    }

    for (specs, outcome) in checked.iter().take(ORACLE_CALLS) {
        m.failed += u64::from(wrong_replies(&tenants, specs, outcome) > 0);
    }
    record_outcomes(&checked, &mut m)?;
    let registered = ws
        .iter()
        .zip(&designs)
        .filter(|(w, _)| traffic.registers(w.name));
    set_design_geomean(&mut m, registered.map(|(_, d)| d))?;
    Ok(m)
}

/// One tenant per kernel served by `t` and per entry of `records`.
fn tenants_of<'a>(
    t: &Traffic,
    ws: &'a [Workload],
    designs: &'a [CompiledAccelerator],
    records: &[usize],
) -> Vec<Tenant<'a>> {
    let mut tenants = Vec::new();
    for ((w, design), input) in ws.iter().zip(designs).zip(SERVED_INPUTS) {
        if t.idle.contains(&w.name) {
            continue;
        }
        for &records in records {
            tenants.push(Tenant {
                w,
                design,
                input,
                records,
            });
        }
    }
    tenants
}

/// Virtual-clock outcomes of the checked calls: functions of the seed.
fn record_outcomes(
    checked: &[(Vec<TenantSpec>, ServeOutcome)],
    m: &mut Measured,
) -> Result<(), String> {
    let calls = checked.len() as f64;
    let mut latencies = Vec::new();
    let (mut submitted, mut rejected, mut completed, mut fallback) = (0u64, 0u64, 0u64, 0u64);
    let (mut batches, mut batched, mut depth) = (0u64, 0u64, 0u64);
    let (mut inflight, mut queue_full, mut makespan) = (0u64, 0u64, 0.0f64);
    for (_, o) in checked {
        let s = &o.stats;
        latencies.extend(o.latencies_ms());
        submitted += s.submitted;
        rejected += s.rejected;
        completed += s.completed();
        fallback += s.completed_fallback;
        batches += s.batches;
        batched += s
            .batch_sizes
            .iter()
            .map(|(size, n)| *size as u64 * n)
            .sum::<u64>();
        depth = depth.max(s.max_queue_depth);
        makespan += s.makespan_ms;
        for out in &o.outcomes {
            match out.disposition {
                Disposition::Rejected {
                    reason: RejectReason::InflightLimit,
                    ..
                } => inflight += 1,
                Disposition::Rejected {
                    reason: RejectReason::QueueFull,
                    ..
                } => queue_full += 1,
                Disposition::Completed { .. } => {}
            }
        }
    }
    let latencies = stats::sorted(&latencies);
    m.set("blaze.batches", batches as f64 / calls);
    m.set(
        "blaze.mean_batch_size",
        batched as f64 / batches.max(1) as f64,
    );
    m.set("blaze.max_queue_depth", depth as f64);
    m.set("blaze.rejected_inflight", inflight as f64 / calls);
    m.set("blaze.rejected_queue_full", queue_full as f64 / calls);
    m.set(
        "blaze.reject_fraction",
        rejected as f64 / submitted.max(1) as f64,
    );
    m.set(
        "blaze.fallback_fraction",
        fallback as f64 / completed.max(1) as f64,
    );
    m.set(
        "blaze.vlatency_ms_p50",
        stats::median(&latencies).ok_or("no completed requests")?,
    );
    m.set(
        "blaze.vlatency_ms_p90",
        stats::percentile(&latencies, 90.0).ok_or("too few completed requests for a p90")?,
    );
    m.set("blaze.goodput_rps", completed as f64 / makespan * 1e3);
    Ok(())
}

/// Host µs per record of every expert design on `hlsir::exec` (through
/// `Accelerator::run_batch`) and of its kernel on the `sjvm` interpreter:
/// the median of `PROBE_REPS` repetitions over the same records, the two
/// engines timed back to back in each so drift of the machine hits both.
fn probe_layers(
    ws: &[Workload],
    designs: &[CompiledAccelerator],
    seeds: &Seeds,
    m: &mut Measured,
) -> Result<(), String> {
    for (k, (w, design)) in ws.iter().zip(designs).enumerate() {
        let records = (w.gen_input)(PROBE_RECORDS, seeds.at(PROBE, k as u64));
        let spec = &w.manual_spec;
        let padded: Vec<_> = records
            .iter()
            .map(|r| oracle::pad_to_shape(r, &spec.input_shape))
            .collect();
        let mut interp = Interp::new(&spec.classes, &spec.methods);
        let fault = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
        let (mut exec_us, mut jvm_us) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            design
                .accelerator
                .run_batch(&records)
                .map_err(|e| fault(&e))?;
            exec_us.push(ms_since(t0) * 1e3 / PROBE_RECORDS as f64);
            let t0 = Instant::now();
            for r in &padded {
                interp
                    .run(spec.entry, std::slice::from_ref(r))
                    .map_err(|e| fault(&e))?;
            }
            jvm_us.push(ms_since(t0) * 1e3 / PROBE_RECORDS as f64);
        }
        let median = |v: &[f64]| stats::median(&stats::sorted(v)).expect("PROBE_REPS > 0");
        m.set(&format!("exec.{}_us_per_record", w.name), median(&exec_us));
        m.set(&format!("sjvm.{}_us_per_record", w.name), median(&jvm_us));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_blaze::serving::Request;

    fn requests(seed: u64) -> Vec<Request> {
        let ws = all_workloads();
        let framework = S2fa::new(S2faOptions::default());
        let designs: Vec<_> = ws
            .iter()
            .map(|w| {
                let cfg = expert_config(w, 1024).expect("expert config");
                framework
                    .compile_with_config(&w.manual_spec, &cfg)
                    .expect("expert design")
            })
            .collect();
        let tenants = tenants_of(&MIX, &ws, &designs, &TENANT_RECORDS);
        let seeds = Seeds::new(seed, "serve_mix");
        generate(&tenant_specs(&MIX, &tenants, 1, &seeds, CALL, 0))
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = requests(1);
        assert_eq!(a.len(), 32);
        assert_eq!(a, requests(1));
        assert_ne!(a, requests(2));
    }

    #[test]
    fn requests_of_a_kernel_share_its_model() {
        // LR records are (features, label, broadcast weights).
        let lr = SERVED_INPUTS[3];
        let (a, b) = (lr(2, 1), lr(2, 2));
        let field = |r: &HostValue, i: usize| match r {
            HostValue::Tuple(fs) => fs[i].clone(),
            other => panic!("LR record is a tuple, got {other:?}"),
        };
        assert_ne!(field(&a[0], 0), field(&b[0], 0));
        assert_eq!(field(&a[0], 2), field(&b[1], 2));
    }
}
