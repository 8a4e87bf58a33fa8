//! Design configurations — points of Table 1's design space.

use s2fa_hlsir::{BufferDir, KernelSummary, LoopId, PipelineMode};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Directives applied to one loop (one row of Table 1 per factor family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopDirective {
    /// Loop tiling factor `t`, `1 < t < TC(L)`; `None` = off.
    pub tile: Option<u32>,
    /// Parallel (coarse-/fine-grained unroll) factor `u`; 1 = off.
    pub parallel: u32,
    /// Pipeline mode `p ∈ {on, off, flatten}`.
    pub pipeline: PipelineMode,
    /// Tree-reduction rewrite of the loop's accumulation.
    pub tree_reduce: bool,
}

impl LoopDirective {
    /// The all-off directive.
    pub fn none() -> Self {
        Self::default()
    }

    /// Effective parallel factor (≥ 1).
    pub fn parallel_factor(&self) -> u32 {
        self.parallel.max(1)
    }
}

/// A complete design point: directives for every loop plus interface buffer
/// bit-widths.
///
/// Buffer bit-width is the off-chip port width `b = 2^n, 8 < b ≤ 512`
/// (Table 1); wider ports move more bytes per cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DesignConfig {
    /// Per-loop directives (absent loop = all off).
    pub loops: BTreeMap<LoopId, LoopDirective>,
    /// Interface buffer name → port bit-width.
    pub buffer_bits: BTreeMap<String, u32>,
}

/// Minimum configurable port width.
pub const MIN_BUFFER_BITS: u32 = 16;
/// Maximum configurable port width (one AXI beat on the F1 shell).
pub const MAX_BUFFER_BITS: u32 = 512;
/// The parallel factor of the performance-driven seed (§4.3.2).
pub const PERF_SEED_PARALLEL: u32 = 32;

impl DesignConfig {
    /// The empty (all-off) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Directive of a loop (all-off if unset).
    pub fn loop_directive(&self, id: LoopId) -> LoopDirective {
        self.loops.get(&id).copied().unwrap_or_default()
    }

    /// Mutable directive accessor, inserting the default if absent.
    pub fn loop_directive_mut(&mut self, id: LoopId) -> &mut LoopDirective {
        self.loops.entry(id).or_default()
    }

    /// Port width of a buffer (minimum width if unset).
    pub fn buffer_width(&self, name: &str) -> u32 {
        self.buffer_bits
            .get(name)
            .copied()
            .unwrap_or(MIN_BUFFER_BITS)
    }

    /// The *area-driven* seed (§4.3.2): "disable all optimizations so all
    /// loops are performed sequentially and all off-chip buffers are set to
    /// the minimum bit-width" — guaranteed feasible.
    pub fn area_seed(summary: &KernelSummary) -> Self {
        let mut cfg = DesignConfig::new();
        for l in &summary.loops {
            cfg.loops.insert(l.id, LoopDirective::none());
        }
        for b in &summary.buffers {
            if b.dir != BufferDir::Local {
                cfg.buffer_bits
                    .insert(b.name.clone(), b.elem_bits.max(MIN_BUFFER_BITS));
            }
        }
        cfg
    }

    /// The *performance-driven* seed (§4.3.2): "enable pipelining for all
    /// loops, set the parallel factor of every loop to 32, and set the
    /// buffer bit-width to 512" — may fail synthesis but converges fast
    /// when it doesn't.
    pub fn perf_seed(summary: &KernelSummary) -> Self {
        let mut cfg = DesignConfig::new();
        for l in &summary.loops {
            cfg.loops.insert(
                l.id,
                LoopDirective {
                    tile: None,
                    parallel: PERF_SEED_PARALLEL.min(l.trip_count.max(1)),
                    pipeline: PipelineMode::On,
                    tree_reduce: l.carried.as_ref().is_some_and(|c| c.reducible),
                },
            );
        }
        for b in &summary.buffers {
            if b.dir != BufferDir::Local {
                cfg.buffer_bits.insert(b.name.clone(), MAX_BUFFER_BITS);
            }
        }
        cfg
    }

    /// Enforces the factor-dependency rules of the design space
    /// (Impediment 2), returning whether the configuration changed:
    ///
    /// * every loop of `summary` gets an explicit directive (all-off if
    ///   absent);
    /// * a parallel factor above the trip count is clamped to it, and a
    ///   tile factor outside `(1, TC)` is dropped;
    /// * a parallel factor on a loop whose recurrence is *not* reducible is
    ///   reset to 1 and its `tree_reduce` dropped (the transformation is
    ///   illegal without tree reduction);
    /// * a parallel factor above 1 on a reducible recurrence implies
    ///   `tree_reduce`; `tree_reduce` is dropped where no recurrence
    ///   exists;
    /// * `flatten` on a loop **invalidates every directive of its
    ///   descendants** (they are fully unrolled by definition);
    /// * buffer widths round up to a power of two within
    ///   [`MIN_BUFFER_BITS`]`..=`[`MAX_BUFFER_BITS`].
    ///
    /// Idempotent: a second call returns `false`.
    pub fn normalize(&mut self, summary: &KernelSummary) -> bool {
        let mut changed = false;
        let mut any_flatten = false;
        // Clamp factors and legality per loop.
        for l in &summary.loops {
            let d = match self.loops.entry(l.id) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    changed = true;
                    e.insert(LoopDirective::none())
                }
            };
            let before = *d;
            if d.parallel > l.trip_count {
                d.parallel = l.trip_count.max(1);
            }
            if d.tile.is_some_and(|t| t <= 1 || t >= l.trip_count) {
                d.tile = None;
            }
            match &l.carried {
                Some(c) if !c.reducible => {
                    d.parallel = d.parallel.min(1);
                    d.tree_reduce = false;
                }
                // Parallelizing a reduction requires the tree rewrite.
                Some(_) => d.tree_reduce |= d.parallel > 1,
                None => d.tree_reduce = false,
            }
            changed |= *d != before;
            any_flatten |= d.pipeline == PipelineMode::Flatten;
        }
        // Flatten invalidates descendants (top-down so nested flattens
        // collapse deterministically).
        if any_flatten {
            for l in &summary.loops {
                if self.loop_directive(l.id).pipeline == PipelineMode::Flatten {
                    changed |= self.clear_below(summary, l.id);
                }
            }
        }
        // Clamp buffer widths into range and to powers of two.
        for bits in self.buffer_bits.values_mut() {
            let clamped = bits
                .next_power_of_two()
                .clamp(MIN_BUFFER_BITS, MAX_BUFFER_BITS);
            changed |= clamped != *bits;
            *bits = clamped;
        }
        changed
    }

    /// Resets every strict descendant of loop `id` to the all-off
    /// directive; true if any was not already off.
    fn clear_below(&mut self, summary: &KernelSummary, id: LoopId) -> bool {
        let mut changed = false;
        for &c in summary.loop_info(id).map_or(&[][..], |l| &l.children) {
            let d = self.loops.entry(c).or_default();
            changed |= *d != LoopDirective::none();
            *d = LoopDirective::none();
            changed |= self.clear_below(summary, c);
        }
        changed
    }

    /// A short one-line summary of the configuration (for traces/logs).
    pub fn brief(&self) -> String {
        let loops = self
            .loops
            .iter()
            .map(|(id, d)| {
                format!(
                    "{id}:p{}{}{}{}",
                    d.parallel_factor(),
                    match d.pipeline {
                        PipelineMode::Off => "",
                        PipelineMode::On => "+pipe",
                        PipelineMode::Flatten => "+flat",
                    },
                    d.tile.map(|t| format!("+t{t}")).unwrap_or_default(),
                    if d.tree_reduce { "+tree" } else { "" }
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        let bufs = self
            .buffer_bits
            .iter()
            .map(|(n, b)| format!("{n}:{b}b"))
            .collect::<Vec<_>>()
            .join(" ");
        format!("[{loops} | {bufs}]")
    }
}

impl fmt::Display for DesignConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.brief())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{Access, BufferInfo, CarriedDep, LoopInfo, OpCounts};

    fn summary() -> KernelSummary {
        let mut chain = OpCounts::new();
        chain.fadd = 1;
        KernelSummary {
            name: "k".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "i".into(),
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
                    accesses: vec![Access {
                        buffer: "in_1".into(),
                        write: false,
                    }],
                    carried: Some(CarriedDep {
                        via: "s".into(),
                        chain,
                        reducible: true,
                    }),
                },
            ],
            buffers: vec![BufferInfo {
                name: "in_1".into(),
                elem_bits: 32,
                len: 8,
                dir: BufferDir::In,
                broadcast: false,
            }],
            task_loop: LoopId(0),
            tasks_hint: 1024,
            dataflow: None,
        }
    }

    #[test]
    fn seeds_match_paper() {
        let s = summary();
        let perf = DesignConfig::perf_seed(&s);
        assert_eq!(perf.loop_directive(LoopId(0)).parallel, 32);
        // clamped to the 8-iteration inner loop
        assert_eq!(perf.loop_directive(LoopId(1)).parallel, 8);
        assert_eq!(perf.loop_directive(LoopId(0)).pipeline, PipelineMode::On);
        assert_eq!(perf.buffer_width("in_1"), 512);

        let area = DesignConfig::area_seed(&s);
        assert_eq!(area.loop_directive(LoopId(0)), LoopDirective::none());
        assert_eq!(area.buffer_width("in_1"), 32);
    }

    #[test]
    fn flatten_invalidates_descendants() {
        let s = summary();
        let mut cfg = DesignConfig::perf_seed(&s);
        cfg.loop_directive_mut(LoopId(0)).pipeline = PipelineMode::Flatten;
        assert!(cfg.normalize(&s));
        assert_eq!(cfg.loop_directive(LoopId(1)), LoopDirective::none());
    }

    #[test]
    fn parallel_clamped_to_trip_count() {
        let s = summary();
        let mut cfg = DesignConfig::new();
        cfg.loop_directive_mut(LoopId(1)).parallel = 999;
        cfg.normalize(&s);
        assert_eq!(cfg.loop_directive(LoopId(1)).parallel, 8);
    }

    #[test]
    fn parallel_reduction_requires_tree() {
        let s = summary();
        let mut cfg = DesignConfig::new();
        cfg.loop_directive_mut(LoopId(1)).parallel = 4;
        cfg.normalize(&s);
        assert!(cfg.loop_directive(LoopId(1)).tree_reduce);
    }

    #[test]
    fn non_reducible_recurrence_blocks_parallel() {
        let mut s = summary();
        s.loops[1].carried.as_mut().unwrap().reducible = false;
        let mut cfg = DesignConfig::new();
        cfg.loop_directive_mut(LoopId(1)).parallel = 4;
        cfg.loop_directive_mut(LoopId(1)).tree_reduce = true;
        assert!(cfg.normalize(&s));
        assert_eq!(cfg.loop_directive(LoopId(1)).parallel, 1);
        assert!(!cfg.loop_directive(LoopId(1)).tree_reduce);
    }

    #[test]
    fn bad_tile_dropped_and_width_clamped() {
        let s = summary();
        let mut cfg = DesignConfig::new();
        cfg.loop_directive_mut(LoopId(1)).tile = Some(8); // == TC → dropped
        cfg.buffer_bits.insert("in_1".into(), 100); // → 128
        cfg.normalize(&s);
        assert_eq!(cfg.loop_directive(LoopId(1)).tile, None);
        assert_eq!(cfg.buffer_width("in_1"), 128);
    }

    #[test]
    fn brief_is_compact() {
        let s = summary();
        let cfg = DesignConfig::perf_seed(&s);
        let b = cfg.brief();
        assert!(b.contains("L0:p32+pipe"));
        assert!(b.contains("in_1:512b"));
    }
}
