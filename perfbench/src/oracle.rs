//! Output oracle: accelerator results against the JVM interpreter.
//!
//! `canon` and `pad_to_shape` follow `tests/functional_equivalence.rs`:
//! the interpreter sees the same padded bytes the serializer sends to the
//! accelerator, and strings, tuples and objects compare by their flat
//! contents.

use s2fa_sjvm::{HostValue, Interp, KernelSpec, RddOp, Shape};

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

/// `v` with string and array leaves padded to `shape`.
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

/// Records of a map kernel's `outputs` that differ exactly from the
/// interpreter running `spec` on `records`. A wrong output count or an
/// interpreter fault counts every record as wrong.
pub fn mismatches(spec: &KernelSpec, records: &[HostValue], outputs: &[HostValue]) -> usize {
    if spec.operator != RddOp::Map || outputs.len() != records.len() {
        return records.len().max(1);
    }
    let mut interp = Interp::new(&spec.classes, &spec.methods);
    records
        .iter()
        .zip(outputs)
        .filter(|(rec, out)| {
            let padded = pad_to_shape(rec, &spec.input_shape);
            match interp.run(spec.entry, std::slice::from_ref(&padded)) {
                Ok((jvm, _)) => canon(&jvm) != canon(out),
                Err(_) => true,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_blaze::Accelerator;
    use s2fa_workloads::all_workloads;

    #[test]
    fn a_corrupted_output_is_counted() {
        let w = all_workloads().remove(0);
        let generated = s2fa::compile_kernel(&w.spec).expect("PR compiles");
        let accel = Accelerator {
            id: w.name.to_string(),
            kernel: generated.cfunc.clone(),
            operator: w.spec.operator,
            input_layout: generated.input_layout.clone(),
            output_layout: generated.output_layout.clone(),
            time_model: None,
        };
        let records = (w.gen_input)(3, 11);
        let (mut outputs, _) = accel.run_batch(&records).expect("PR runs");
        assert_eq!(mismatches(&w.spec, &records, &outputs), 0);
        outputs[1] = HostValue::I(-1);
        assert_eq!(mismatches(&w.spec, &records, &outputs), 1);
        outputs.pop();
        assert_eq!(mismatches(&w.spec, &records, &outputs), records.len());
    }
}
