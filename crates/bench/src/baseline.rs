//! Baseline measurement utilities.
//!
//! Fig. 4 normalizes accelerator performance against "a single-threaded
//! Spark executor on the JVM ... because only one thread is necessary for
//! launching FPGA and other threads are able to perform other tasks
//! simultaneously" (§5.2). The JVM time comes from the cost-model
//! interpreter over a sample of records, scaled to the full dataset.

use s2fa_blaze::AccelTimeModel;
use s2fa_sjvm::{HostValue, Interp, KernelSpec, Shape};

/// Tasks in the evaluation dataset (per Spark partition).
pub const BASELINE_TASKS: u64 = 1 << 20;

/// Records actually interpreted to estimate the per-task JVM cost.
pub const SAMPLE_TASKS: usize = 8;

/// Pads string/array leaves to the record shape (what the Spark runtime's
/// serialized records look like on both paths).
pub fn pad_to_shape(v: &HostValue, shape: &Shape) -> HostValue {
    match (v, shape) {
        (HostValue::Str(s), Shape::Array(_, n)) => {
            let mut bytes: Vec<HostValue> = s.bytes().map(|b| HostValue::I(b as i64)).collect();
            bytes.resize(*n as usize, HostValue::I(0));
            HostValue::Arr(bytes)
        }
        (HostValue::Arr(items), Shape::Array(_, n)) => {
            let mut items = items.clone();
            while items.len() < *n as usize {
                items.push(match items.first() {
                    Some(HostValue::F(_)) => HostValue::F(0.0),
                    _ => HostValue::I(0),
                });
            }
            HostValue::Arr(items)
        }
        (HostValue::Tuple(vs) | HostValue::Obj(_, vs), Shape::Composite(fs)) => {
            HostValue::Tuple(vs.iter().zip(fs).map(|(v, f)| pad_to_shape(v, f)).collect())
        }
        (v, Shape::Bcast(inner)) => pad_to_shape(v, inner),
        _ => v.clone(),
    }
}

/// Average modelled JVM nanoseconds per task for a kernel over a sample.
///
/// # Panics
///
/// Panics if the sample is empty or the kernel faults (the workloads are
/// all verified by the test suite first).
pub fn jvm_ns_per_task(spec: &KernelSpec, sample: &[HostValue]) -> f64 {
    assert!(!sample.is_empty(), "need at least one sample record");
    let mut interp = Interp::new(&spec.classes, &spec.methods);
    let mut total = 0.0;
    for rec in sample {
        let padded = pad_to_shape(rec, &spec.input_shape);
        let (_, stats) = interp
            .run(spec.entry, std::slice::from_ref(&padded))
            .expect("workload kernels execute on the JVM path");
        total += stats.ns;
    }
    total / sample.len() as f64
}

/// End-to-end accelerator time for `tasks` records given the final
/// design's estimate (amortized batch scaling plus a fixed driver setup).
pub fn fpga_time_ms(estimate: &s2fa_hlssim::Estimate, tasks: u64) -> f64 {
    AccelTimeModel::DRIVER_SETUP_MS + estimate.time_ms_for_tasks(tasks)
}

/// Speedup of an accelerator over the JVM baseline for `tasks` records.
pub fn speedup(jvm_ns_per_task: f64, estimate: &s2fa_hlssim::Estimate, tasks: u64) -> f64 {
    let jvm_ms = jvm_ns_per_task * tasks as f64 / 1e6;
    jvm_ms / fpga_time_ms(estimate, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_workloads::all_workloads;

    #[test]
    fn jvm_baseline_is_positive_for_every_workload() {
        for w in all_workloads() {
            let sample = (w.gen_input)(2, 3);
            let ns = jvm_ns_per_task(&w.spec, &sample);
            assert!(ns > 0.0, "{}", w.name);
        }
    }

    #[test]
    fn sw_is_the_most_expensive_jvm_kernel() {
        let mut costs: Vec<(&str, f64)> = all_workloads()
            .iter()
            .map(|w| {
                let sample = (w.gen_input)(2, 3);
                (w.name, jvm_ns_per_task(&w.spec, &sample))
            })
            .collect();
        costs.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(costs[0].0, "S-W", "order: {costs:?}");
    }
}
