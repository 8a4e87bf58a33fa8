//! Generated data-processing methods — the (de)serializers.
//!
//! S2FA's "data processing method generator ... accepts the data layout
//! configuration from the bytecode-to-C compiler and generates
//! corresponding Scala methods ... The generated method uses Java
//! reflection to access object fields and reorganizes them to fit the
//! accelerator interface" (§3.2).
//!
//! [`DataLayout`] is that layout configuration: one [`BufferSlot`] per
//! primitive leaf of the record [`Shape`], naming the flat C buffer the
//! leaf is packed into. [`DataLayout::serialize`] is the generated
//! reflection method (it walks [`HostValue`] trees by field path);
//! [`DataLayout::deserialize`] rebuilds records from accelerator output.

use crate::BlazeError;
use s2fa_hlsir::CVal;
use s2fa_sjvm::{HostValue, JType, Shape, ShapeLeaf};
use std::collections::BTreeMap;

/// One flattened interface buffer: which leaf of the record it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSlot {
    /// C kernel buffer name (`in_1`, `out_2`, ...).
    pub buffer: String,
    /// The record leaf packed into it.
    pub leaf: ShapeLeaf,
}

/// The layout configuration of one side (input or output) of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DataLayout {
    /// The record shape.
    pub shape: Shape,
    /// One slot per primitive leaf, in leaf order.
    pub slots: Vec<BufferSlot>,
}

impl DataLayout {
    /// Builds the layout for a record shape, naming buffers
    /// `{prefix}_1 .. {prefix}_k` (the paper's `in_1`/`out_1` convention).
    pub fn from_shape(shape: &Shape, prefix: &str) -> DataLayout {
        let slots = shape
            .leaves()
            .into_iter()
            .enumerate()
            .map(|(i, leaf)| BufferSlot {
                buffer: format!("{prefix}_{}", i + 1),
                leaf,
            })
            .collect();
        DataLayout {
            shape: shape.clone(),
            slots,
        }
    }

    /// Bytes of one serialized record (excluding broadcast leaves, which
    /// move once per batch — see [`broadcast_bytes`](Self::broadcast_bytes)).
    pub fn bytes_per_task(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| !s.leaf.broadcast)
            .map(|s| (s.leaf.elem.bits() as u64 / 8).max(1) * s.leaf.count as u64)
            .sum()
    }

    /// Bytes of the broadcast (once-per-batch) leaves.
    pub fn broadcast_bytes(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.leaf.broadcast)
            .map(|s| (s.leaf.elem.bits() as u64 / 8).max(1) * s.leaf.count as u64)
            .sum()
    }

    /// Whether two records carry equal broadcast leaves. A batch ships
    /// the broadcast leaves of its first record only (see
    /// [`serialize`](Self::serialize)), so records may share a batch only
    /// when this holds.
    pub fn same_broadcast(&self, a: &HostValue, b: &HostValue) -> bool {
        self.slots
            .iter()
            .filter(|s| s.leaf.broadcast)
            .all(|s| navigate(a, &s.leaf.path) == navigate(b, &s.leaf.path))
    }

    /// Serializes a batch of records into per-buffer flat vectors
    /// (`buffer[task * count + k]` layout).
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Layout`] if any record does not match the
    /// shape (wrong arity, wrong primitive kind, over-length array).
    pub fn serialize(
        &self,
        records: &[HostValue],
    ) -> Result<BTreeMap<String, Vec<CVal>>, BlazeError> {
        let mut buffers: BTreeMap<String, Vec<CVal>> = self
            .slots
            .iter()
            .map(|s| {
                (
                    s.buffer.clone(),
                    Vec::with_capacity(records.len() * s.leaf.count as usize),
                )
            })
            .collect();
        for (ti, rec) in records.iter().enumerate() {
            for slot in &self.slots {
                // Broadcast leaves are shipped once (from the first
                // record): Blaze sends captured closure state per batch.
                if slot.leaf.broadcast && ti > 0 {
                    continue;
                }
                let v = navigate(rec, &slot.leaf.path).ok_or_else(|| {
                    BlazeError::Layout(format!(
                        "record {ti}: missing field at path {:?}",
                        slot.leaf.path
                    ))
                })?;
                let buf = buffers.get_mut(&slot.buffer).expect("slot buffer exists");
                pack_leaf(v, &slot.leaf, buf, ti)?;
            }
        }
        Ok(buffers)
    }

    /// Allocates zeroed output buffers for `tasks` records.
    pub fn alloc(&self, tasks: usize) -> BTreeMap<String, Vec<CVal>> {
        self.slots
            .iter()
            .map(|s| {
                let zero = if s.leaf.elem.is_float() {
                    CVal::F(0.0)
                } else {
                    CVal::I(0)
                };
                (s.buffer.clone(), vec![zero; tasks * s.leaf.count as usize])
            })
            .collect()
    }

    /// Rebuilds `tasks` records from flat buffers.
    ///
    /// `char[]` leaves come back as [`HostValue::Str`] (trailing NULs
    /// trimmed), matching how Blaze surfaces strings to Spark.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Layout`] if a buffer is missing or too short.
    pub fn deserialize(
        &self,
        buffers: &BTreeMap<String, Vec<CVal>>,
        tasks: usize,
    ) -> Result<Vec<HostValue>, BlazeError> {
        let mut out = Vec::with_capacity(tasks);
        for ti in 0..tasks {
            out.push(self.rebuild(&self.shape, &mut self.slots.iter(), buffers, ti)?);
        }
        Ok(out)
    }

    fn rebuild<'a>(
        &self,
        shape: &Shape,
        slots: &mut std::slice::Iter<'a, BufferSlot>,
        buffers: &BTreeMap<String, Vec<CVal>>,
        task: usize,
    ) -> Result<HostValue, BlazeError> {
        match shape {
            Shape::Bcast(inner) => self.rebuild(inner, slots, buffers, task),
            Shape::Composite(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for f in fields {
                    vals.push(self.rebuild(f, slots, buffers, task)?);
                }
                Ok(HostValue::Tuple(vals))
            }
            Shape::Scalar(_) | Shape::Array(..) => {
                let is_array = matches!(shape, Shape::Array(..));
                let slot = slots
                    .next()
                    .ok_or_else(|| BlazeError::Layout("slot underflow".into()))?;
                let buf = buffers.get(&slot.buffer).ok_or_else(|| {
                    BlazeError::Layout(format!("missing buffer `{}`", slot.buffer))
                })?;
                let base = if slot.leaf.broadcast {
                    0
                } else {
                    task * slot.leaf.count as usize
                };
                let end = base + slot.leaf.count as usize;
                if buf.len() < end {
                    return Err(BlazeError::Layout(format!(
                        "buffer `{}` too short: {} < {end}",
                        slot.buffer,
                        buf.len()
                    )));
                }
                let vals = &buf[base..end];
                Ok(unpack_leaf(vals, &slot.leaf, is_array))
            }
        }
    }
}

/// Walks a host value by field-index path.
fn navigate<'a>(v: &'a HostValue, path: &[usize]) -> Option<&'a HostValue> {
    let mut cur = v;
    for &i in path {
        cur = cur.elements()?.get(i)?;
    }
    Some(cur)
}

fn pack_leaf(
    v: &HostValue,
    leaf: &ShapeLeaf,
    buf: &mut Vec<CVal>,
    task: usize,
) -> Result<(), BlazeError> {
    let err = |msg: String| BlazeError::Layout(format!("record {task}: {msg}"));
    if leaf.count == 1 && !matches!(v, HostValue::Arr(_) | HostValue::Str(_)) {
        let c = match (v, leaf.elem.is_float()) {
            (HostValue::I(x), false) => CVal::I(*x),
            (HostValue::I(x), true) => CVal::F(*x as f64),
            (HostValue::F(x), true) => CVal::F(*x),
            other => return Err(err(format!("scalar mismatch: {other:?}"))),
        };
        buf.push(c);
        return Ok(());
    }
    let zero = if leaf.elem.is_float() {
        CVal::F(0.0)
    } else {
        CVal::I(0)
    };
    match v {
        HostValue::Str(s) => {
            let bytes = s.as_bytes();
            if bytes.len() > leaf.count as usize {
                return Err(err(format!(
                    "string of {} bytes exceeds slot of {}",
                    bytes.len(),
                    leaf.count
                )));
            }
            buf.extend(bytes.iter().map(|&b| CVal::I(b as i64)));
            buf.resize(buf.len() + leaf.count as usize - bytes.len(), zero);
        }
        HostValue::Arr(items) => {
            if items.len() > leaf.count as usize {
                return Err(err(format!(
                    "array of {} elements exceeds slot of {}",
                    items.len(),
                    leaf.count
                )));
            }
            for it in items {
                let c = match (it, leaf.elem.is_float()) {
                    (HostValue::I(x), false) => CVal::I(*x),
                    (HostValue::I(x), true) => CVal::F(*x as f64),
                    (HostValue::F(x), true) => CVal::F(*x),
                    other => return Err(err(format!("array element mismatch: {other:?}"))),
                };
                buf.push(c);
            }
            buf.resize(buf.len() + leaf.count as usize - items.len(), zero);
        }
        other => return Err(err(format!("expected array/string, got {other}"))),
    }
    Ok(())
}

fn unpack_leaf(vals: &[CVal], leaf: &ShapeLeaf, is_array: bool) -> HostValue {
    if !is_array {
        return match vals[0] {
            CVal::I(x) => HostValue::I(x),
            CVal::F(x) => HostValue::F(x),
        };
    }
    if leaf.elem == JType::Char {
        // strings round-trip as char arrays; trim trailing NULs
        let bytes: Vec<u8> = vals
            .iter()
            .map(|v| match v {
                CVal::I(x) => *x as u8,
                CVal::F(x) => *x as u8,
            })
            .collect();
        let end = bytes
            .iter()
            .rposition(|&b| b != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        return HostValue::Str(String::from_utf8_lossy(&bytes[..end]).into_owned());
    }
    HostValue::Arr(
        vals.iter()
            .map(|v| match v {
                CVal::I(x) => HostValue::I(*x),
                CVal::F(x) => HostValue::F(*x),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> DataLayout {
        // (Double, [F;3])
        let shape = Shape::pair(Shape::Scalar(JType::Double), Shape::Array(JType::Float, 3));
        DataLayout::from_shape(&shape, "in")
    }

    #[test]
    fn buffer_naming_matches_paper() {
        let l = layout();
        assert_eq!(l.slots[0].buffer, "in_1");
        assert_eq!(l.slots[1].buffer, "in_2");
        assert_eq!(l.bytes_per_task(), 8 + 3 * 4);
    }

    #[test]
    fn serialize_roundtrip() {
        let l = layout();
        let recs = vec![
            HostValue::pair(HostValue::F(1.5), HostValue::f64_array(&[1.0, 2.0, 3.0])),
            HostValue::pair(HostValue::F(-2.0), HostValue::f64_array(&[4.0, 5.0, 6.0])),
        ];
        let bufs = l.serialize(&recs).unwrap();
        assert_eq!(bufs["in_1"], vec![CVal::F(1.5), CVal::F(-2.0)]);
        assert_eq!(bufs["in_2"].len(), 6);
        let back = l.deserialize(&bufs, 2).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn short_arrays_are_padded() {
        let l = layout();
        let recs = vec![HostValue::pair(
            HostValue::F(0.0),
            HostValue::f64_array(&[9.0]),
        )];
        let bufs = l.serialize(&recs).unwrap();
        assert_eq!(bufs["in_2"], vec![CVal::F(9.0), CVal::F(0.0), CVal::F(0.0)]);
    }

    #[test]
    fn strings_pack_as_char_arrays() {
        let shape = Shape::pair(Shape::Array(JType::Char, 8), Shape::Array(JType::Char, 8));
        let l = DataLayout::from_shape(&shape, "in");
        let recs = vec![HostValue::pair(
            HostValue::Str("ACGT".into()),
            HostValue::Str("TTT".into()),
        )];
        let bufs = l.serialize(&recs).unwrap();
        assert_eq!(bufs["in_1"].len(), 8);
        assert_eq!(bufs["in_1"][0], CVal::I(b'A' as i64));
        let back = l.deserialize(&bufs, 1).unwrap();
        assert_eq!(
            back[0],
            HostValue::pair(HostValue::Str("ACGT".into()), HostValue::Str("TTT".into()))
        );
    }

    #[test]
    fn mismatched_record_is_rejected() {
        let l = layout();
        let recs = vec![HostValue::I(3)];
        assert!(matches!(l.serialize(&recs), Err(BlazeError::Layout(_))));
        let too_long = vec![HostValue::pair(
            HostValue::F(0.0),
            HostValue::f64_array(&[1.0, 2.0, 3.0, 4.0]),
        )];
        assert!(l.serialize(&too_long).is_err());
    }

    #[test]
    fn alloc_sizes_outputs() {
        let l = layout();
        let bufs = l.alloc(5);
        assert_eq!(bufs["in_1"].len(), 5);
        assert_eq!(bufs["in_2"].len(), 15);
        assert_eq!(bufs["in_1"][0], CVal::F(0.0));
    }

    #[test]
    fn int_scalars_widen_to_float_slots() {
        let shape = Shape::Scalar(JType::Double);
        let l = DataLayout::from_shape(&shape, "in");
        let bufs = l.serialize(&[HostValue::I(3)]).unwrap();
        assert_eq!(bufs["in_1"], vec![CVal::F(3.0)]);
    }
}
