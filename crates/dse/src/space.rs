//! Design-space identification (paper §4.1, Table 1).
//!
//! Builds the tunable parameter space from a [`KernelSummary`]:
//!
//! | Factor            | Values                                           |
//! |-------------------|--------------------------------------------------|
//! | Buffer bit-width  | `b = 2^n, 8 < b ≤ 512` per interface buffer      |
//! | Loop tiling       | `t = 2^n, 1 < t < TC(L)` (plus *off*) per loop   |
//! | Loop parallel     | `u = 2^n, 1 < u < TC(L)` (plus *off*) per loop   |
//! | Loop pipeline     | `{off, on, flatten}` per loop                    |
//!
//! and maps index-encoded tuner configurations back to Merlin
//! [`DesignConfig`]s.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa_hlsir::{BufferDir, KernelSummary, LoopId, PipelineMode};
use s2fa_lint::Legality;
use s2fa_merlin::DesignConfig;
use s2fa_tuner::{Config, ParamDef, ParamKind, SearchSpace};

/// What one tuner parameter controls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Tiling factor of a loop (decoded value 1 = off).
    LoopTile(LoopId),
    /// Parallel factor of a loop (decoded value 1 = off).
    LoopParallel(LoopId),
    /// Pipeline mode of a loop (enum index 0/1/2 = off/on/flatten).
    LoopPipeline(LoopId),
    /// Port bit-width of an interface buffer.
    BufferBits(String),
}

/// The identified design space of one kernel: a tuner [`SearchSpace`] plus
/// the mapping from parameters to Merlin directives.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    space: SearchSpace,
    slots: Vec<Slot>,
}

/// Cap on parallel/tile factors (beyond this no design routes anyway).
const MAX_FACTOR: u32 = 512;

fn pow2_below(tc: u32) -> u32 {
    // largest power of two strictly less than tc, at least 1
    if tc <= 2 {
        1
    } else {
        1 << (tc - 1).ilog2()
    }
}

impl DesignSpace {
    /// Identifies the design space of a kernel per Table 1.
    pub fn build(summary: &KernelSummary) -> DesignSpace {
        let mut params = Vec::new();
        let mut slots = Vec::new();
        for l in &summary.loops {
            let max_factor = pow2_below(l.trip_count).min(MAX_FACTOR);
            params.push(ParamDef::new(
                format!("{}.tile", l.id),
                ParamKind::PowerOfTwo {
                    min: 1,
                    max: max_factor,
                },
            ));
            slots.push(Slot::LoopTile(l.id));
            params.push(ParamDef::new(
                format!("{}.parallel", l.id),
                ParamKind::PowerOfTwo {
                    min: 1,
                    max: max_factor,
                },
            ));
            slots.push(Slot::LoopParallel(l.id));
            params.push(ParamDef::new(
                format!("{}.pipeline", l.id),
                ParamKind::Enum { n: 3 },
            ));
            slots.push(Slot::LoopPipeline(l.id));
        }
        for b in &summary.buffers {
            if b.dir != BufferDir::Local {
                params.push(ParamDef::new(
                    format!("{}.bits", b.name),
                    ParamKind::PowerOfTwo { min: 16, max: 512 },
                ));
                slots.push(Slot::BufferBits(b.name.clone()));
            }
        }
        DesignSpace {
            space: SearchSpace::new(params),
            slots,
        }
    }

    /// The tuner search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The parameter-to-directive mapping, parallel to
    /// [`SearchSpace::params`].
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Base-10 log of the number of design points.
    pub fn size_log10(&self) -> f64 {
        self.space.size_log10()
    }

    /// Estimates the statically-dead fraction of `space` (a subspace of
    /// this design space, e.g. one partition leaf): samples `samples`
    /// uniform configurations with an RNG derived *only* from `seed` and
    /// returns the share that `oracle` proves infeasible.
    ///
    /// Purely diagnostic: the side RNG stream never touches the search's
    /// RNG, and the oracle is counter-free, so reporting the fraction
    /// cannot perturb a run.
    pub fn dead_fraction(
        &self,
        space: &SearchSpace,
        oracle: &Legality,
        samples: usize,
        seed: u64,
    ) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let dead = (0..samples)
            .filter(|_| oracle.is_statically_dead(&self.decode(&space.random(&mut rng))))
            .count();
        dead as f64 / samples as f64
    }

    /// Decodes a tuner configuration into a Merlin design configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not match the space's arity.
    pub fn decode(&self, cfg: &Config) -> DesignConfig {
        assert_eq!(cfg.len(), self.slots.len(), "config arity mismatch");
        let mut out = DesignConfig::new();
        for ((slot, &idx), def) in self.slots.iter().zip(cfg).zip(self.space.params()) {
            match slot {
                Slot::LoopTile(id) => {
                    let t = def.value_at(idx);
                    if t > 1 {
                        out.loop_directive_mut(*id).tile = Some(t);
                    }
                }
                Slot::LoopParallel(id) => {
                    out.loop_directive_mut(*id).parallel = def.value_at(idx);
                }
                Slot::LoopPipeline(id) => {
                    out.loop_directive_mut(*id).pipeline = match def.value_at(idx) {
                        0 => PipelineMode::Off,
                        1 => PipelineMode::On,
                        _ => PipelineMode::Flatten,
                    };
                }
                Slot::BufferBits(name) => {
                    out.buffer_bits.insert(name.clone(), def.value_at(idx));
                }
            }
        }
        out
    }

    /// Encodes a Merlin design configuration into the nearest tuner
    /// configuration (used to inject the generated seeds).
    pub fn encode(&self, dc: &DesignConfig) -> Config {
        self.slots
            .iter()
            .zip(self.space.params())
            .map(|(slot, def)| {
                let value = match slot {
                    Slot::LoopTile(id) => dc.loop_directive(*id).tile.unwrap_or(1),
                    Slot::LoopParallel(id) => dc.loop_directive(*id).parallel_factor(),
                    Slot::LoopPipeline(id) => match dc.loop_directive(*id).pipeline {
                        PipelineMode::Off => 0,
                        PipelineMode::On => 1,
                        PipelineMode::Flatten => 2,
                    },
                    Slot::BufferBits(name) => dc.buffer_width(name),
                };
                nearest_index(def, value)
            })
            .collect()
    }

    /// True if parameter `i` controls a factor of the template (task)
    /// loop — the partition rules prefer splitting on these (§4.3.1,
    /// "partition the design space according to the RDD transformation
    /// semantics ... the scheduling of the outermost loop").
    pub fn is_task_loop_param(&self, i: usize, summary: &KernelSummary) -> bool {
        matches!(
            &self.slots[i],
            Slot::LoopTile(id) | Slot::LoopParallel(id) | Slot::LoopPipeline(id)
                if *id == summary.task_loop
        )
    }

    /// Nesting depth of the loop controlled by parameter `i` (`None` for
    /// buffer parameters) — the loop-hierarchy partition rule.
    pub fn param_loop_depth(&self, i: usize, summary: &KernelSummary) -> Option<u32> {
        match &self.slots[i] {
            Slot::LoopTile(id) | Slot::LoopParallel(id) | Slot::LoopPipeline(id) => {
                summary.loop_info(*id).map(|l| l.depth)
            }
            Slot::BufferBits(_) => None,
        }
    }
}

/// Domain index whose decoded value is nearest to `value`.
fn nearest_index(def: &ParamDef, value: u32) -> u32 {
    let mut best = 0;
    let mut best_d = u32::MAX;
    for i in 0..def.cardinality() {
        let v = def.value_at(i);
        let d = v.abs_diff(value);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{BufferInfo, LoopInfo, OpCounts};

    fn summary() -> KernelSummary {
        KernelSummary {
            name: "k".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "t".into(),
                    trip_count: 1024,
                    depth: 0,
                    parent: None,
                    children: vec![LoopId(1)],
                    body_ops: OpCounts::new(),
                    accesses: vec![],
                    carried: None,
                },
                LoopInfo {
                    id: LoopId(1),
                    var: "j".into(),
                    trip_count: 8,
                    depth: 1,
                    parent: Some(LoopId(0)),
                    children: vec![],
                    body_ops: OpCounts::new(),
                    accesses: vec![],
                    carried: None,
                },
            ],
            buffers: vec![
                BufferInfo {
                    name: "in_1".into(),
                    elem_bits: 32,
                    len: 8,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "scratch".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::Local,
                    broadcast: false,
                },
            ],
            task_loop: LoopId(0),
            tasks_hint: 1024,
            dataflow: None,
        }
    }

    #[test]
    fn space_matches_table1() {
        let ds = DesignSpace::build(&summary());
        // 2 loops × 3 factors + 1 interface buffer
        assert_eq!(ds.space().params().len(), 7);
        let names: Vec<&str> = ds
            .space()
            .params()
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(names.contains(&"L0.parallel"));
        assert!(names.contains(&"L1.pipeline"));
        assert!(names.contains(&"in_1.bits"));
        // local arrays are not interface factors
        assert!(!names.iter().any(|n| n.starts_with("scratch")));
        // parallel on L0: 1..512 (clamped below TC=1024) → 10 values
        let i = ds.space().param_index("L0.parallel").unwrap();
        assert_eq!(ds.space().params()[i].cardinality(), 10);
        // parallel on L1 (TC=8): 1,2,4 → 3 values (u < TC)
        let i = ds.space().param_index("L1.parallel").unwrap();
        assert_eq!(ds.space().params()[i].cardinality(), 3);
        // bit-widths: 16..512 → 6 values
        let i = ds.space().param_index("in_1.bits").unwrap();
        assert_eq!(ds.space().params()[i].cardinality(), 6);
    }

    #[test]
    fn decode_roundtrips_seed() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let perf = DesignConfig::perf_seed(&s);
        let enc = ds.encode(&perf);
        let dec = ds.decode(&enc);
        assert_eq!(dec.loop_directive(LoopId(0)).parallel, 32);
        // L1 parallel was clamped to 8, nearest encodable value is 4 (u<TC)
        assert!(dec.loop_directive(LoopId(1)).parallel >= 4);
        assert_eq!(dec.buffer_width("in_1"), 512);
        assert_eq!(dec.loop_directive(LoopId(0)).pipeline, PipelineMode::On);
    }

    #[test]
    fn decode_pipeline_enum() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let i = ds.space().param_index("L0.pipeline").unwrap();
        let mut cfg: Config = vec![0; ds.space().params().len()];
        cfg[i] = 2;
        let dc = ds.decode(&cfg);
        assert_eq!(dc.loop_directive(LoopId(0)).pipeline, PipelineMode::Flatten);
    }

    #[test]
    fn task_loop_params_flagged() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let i0 = ds.space().param_index("L0.parallel").unwrap();
        let i1 = ds.space().param_index("L1.parallel").unwrap();
        let ib = ds.space().param_index("in_1.bits").unwrap();
        assert!(ds.is_task_loop_param(i0, &s));
        assert!(!ds.is_task_loop_param(i1, &s));
        assert!(!ds.is_task_loop_param(ib, &s));
        assert_eq!(ds.param_loop_depth(i1, &s), Some(1));
        assert_eq!(ds.param_loop_depth(ib, &s), None);
    }

    #[test]
    fn pow2_below_is_total() {
        let cases = [
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 4),
            (64, 32),
            (65, 64),
        ];
        for (tc, p) in cases {
            assert_eq!(pow2_below(tc), p, "tc = {tc}");
        }
        assert_eq!(pow2_below(u32::MAX), 1 << 31);
    }

    #[test]
    fn size_is_large() {
        let ds = DesignSpace::build(&summary());
        // 10*10*3 × 3*3*3 × 6 ≈ 4.8e4 points for this toy kernel
        assert!(ds.size_log10() > 4.0);
    }
}
