//! Cross-checks the executable forms of every evaluation kernel:
//!
//! 1. the JVM bytecode interpreter (the Spark baseline),
//! 2. the generated HLS C executed by the IR executor (the accelerator).
//!
//! (The native Rust references are cross-checked against (1) inside the
//! workload crate's own unit tests, closing the triangle.)
//!
//! Equivalence of (1) and (2) on every workload is the core guarantee of
//! the bytecode-to-C compiler: "the S2FA framework is able to compile any
//! Java/Scala method that satisfies the constraints ... to an FPGA kernel".
//! It must also survive the Merlin transforms at any design point, not
//! only at the expert's.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa::{compile_kernel, S2faOptions};
use s2fa_blaze::Accelerator;
use s2fa_dse::DesignSpace;
use s2fa_hlsir::analysis;
use s2fa_merlin::apply_structural;
use s2fa_sjvm::{HostValue, Interp, RddOp};
use s2fa_workloads::all_workloads;

fn canon(v: &HostValue) -> HostValue {
    match v {
        HostValue::Str(s) => HostValue::Arr(s.bytes().map(|b| HostValue::I(b as i64)).collect()),
        HostValue::Tuple(vs) | HostValue::Obj(_, vs) => {
            HostValue::Tuple(vs.iter().map(canon).collect())
        }
        HostValue::Arr(vs) => HostValue::Arr(vs.iter().map(canon).collect()),
        other => other.clone(),
    }
}

/// Pads string/array leaves to the record shape so the JVM path sees the
/// same padded bytes the serializer sends to the accelerator.
fn pad_to_shape(v: &HostValue, shape: &s2fa_sjvm::Shape) -> HostValue {
    use s2fa_sjvm::Shape;
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

#[test]
fn all_workloads_jvm_vs_accelerator() {
    for w in all_workloads() {
        let generated =
            compile_kernel(&w.spec).unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
        let accel = Accelerator {
            id: w.name.to_string(),
            kernel: generated.cfunc.clone(),
            operator: w.spec.operator,
            input_layout: generated.input_layout.clone(),
            output_layout: generated.output_layout.clone(),
            time_model: None,
        };
        let records = (w.gen_input)(3, 0xBEEF);
        let (hw, _) = accel
            .run_batch(&records)
            .unwrap_or_else(|e| panic!("{} accelerator run failed: {e}", w.name));
        let mut interp = Interp::new(&w.spec.classes, &w.spec.methods);
        assert_eq!(w.spec.operator, RddOp::Map, "all table-2 kernels are maps");
        for (i, rec) in records.iter().enumerate() {
            let padded = pad_to_shape(rec, &w.spec.input_shape);
            let (jvm, _) = interp
                .run(w.spec.entry, std::slice::from_ref(&padded))
                .unwrap_or_else(|e| panic!("{} jvm run failed: {e}", w.name));
            assert_eq!(
                canon(&jvm),
                canon(&hw[i]),
                "{}: record {i} diverged between JVM and accelerator",
                w.name
            );
        }
    }
}

#[test]
fn manual_specs_also_compile_and_agree() {
    for w in all_workloads() {
        let generated = compile_kernel(&w.manual_spec)
            .unwrap_or_else(|e| panic!("{} manual spec failed to compile: {e}", w.name));
        let accel = Accelerator {
            id: format!("{}-manual", w.name),
            kernel: generated.cfunc.clone(),
            operator: w.manual_spec.operator,
            input_layout: generated.input_layout.clone(),
            output_layout: generated.output_layout.clone(),
            time_model: None,
        };
        let records = (w.gen_input)(2, 7);
        let (hw, _) = accel.run_batch(&records).expect("manual accelerator runs");
        let mut interp = Interp::new(&w.manual_spec.classes, &w.manual_spec.methods);
        for (i, rec) in records.iter().enumerate() {
            let padded = pad_to_shape(rec, &w.manual_spec.input_shape);
            let (jvm, _) = interp
                .run(w.manual_spec.entry, std::slice::from_ref(&padded))
                .expect("jvm runs");
            assert_eq!(canon(&jvm), canon(&hw[i]), "{} manual record {i}", w.name);
        }
    }
}

#[test]
fn batch_sizes_do_not_change_results() {
    // Serializer layouts index buffers as task*count+k: verify there is no
    // batch-size dependence anywhere in the offload path.
    for w in all_workloads() {
        let generated = compile_kernel(&w.spec).expect("compiles");
        let accel = Accelerator {
            id: w.name.to_string(),
            kernel: generated.cfunc.clone(),
            operator: w.spec.operator,
            input_layout: generated.input_layout.clone(),
            output_layout: generated.output_layout.clone(),
            time_model: None,
        };
        let records = (w.gen_input)(5, 0xABCD);
        // run the full batch, then each record alone; results must agree
        let (all, _) = accel.run_batch(&records).expect("batch runs");
        for (i, rec) in records.iter().enumerate() {
            let (one, _) = accel
                .run_batch(std::slice::from_ref(rec))
                .expect("singleton runs");
            assert_eq!(
                canon(&one[0]),
                canon(&all[i]),
                "{}: record {i} depends on batch size",
                w.name
            );
        }
    }
}

#[test]
fn random_design_points_after_merlin_transforms_agree() {
    // Uniform points of each kernel's identified design space, normalized
    // and applied the way `S2fa::compile` packages its winner.
    const POINTS: u64 = 4;
    let mut tiled = 0;
    for w in all_workloads() {
        let generated = compile_kernel(&w.spec).expect("compiles");
        let summary = analysis::summarize(&generated.cfunc, S2faOptions::default().tasks_hint)
            .expect("analyzes");
        let space = DesignSpace::build(&summary);
        let mut interp = Interp::new(&w.spec.classes, &w.spec.methods);
        for point in 0..POINTS {
            let mut rng = SmallRng::seed_from_u64(0xD1FF ^ point);
            let mut design = space.decode(&space.space().random(&mut rng));
            design.normalize(&summary);
            let (kernel, _) = apply_structural(&generated.cfunc, &design);
            tiled += usize::from(kernel.loop_ids().len() > generated.cfunc.loop_ids().len());
            let accel = Accelerator {
                id: w.name.to_string(),
                kernel,
                operator: w.spec.operator,
                input_layout: generated.input_layout.clone(),
                output_layout: generated.output_layout.clone(),
                time_model: None,
            };
            let records = (w.gen_input)(3, 0x5EED + point);
            let (hw, _) = accel
                .run_batch(&records)
                .unwrap_or_else(|e| panic!("{} point {point}: {e}", w.name));
            for (i, rec) in records.iter().enumerate() {
                let padded = pad_to_shape(rec, &w.spec.input_shape);
                let (jvm, _) = interp
                    .run(w.spec.entry, std::slice::from_ref(&padded))
                    .expect("jvm runs");
                assert_eq!(
                    canon(&jvm),
                    canon(&hw[i]),
                    "{} point {point} ({design:?}): record {i} diverged",
                    w.name
                );
            }
        }
    }
    assert!(
        tiled > 0,
        "no random design point tiled a loop: the structural path went untested"
    );
}
