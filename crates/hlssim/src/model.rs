//! The latency / resource / frequency model.
//!
//! Evaluates one design point — a ([`KernelSummary`], [`DesignConfig`])
//! pair — the way Vivado HLS scheduling plus a coarse place-&-route model
//! would:
//!
//! * **Latency** is computed bottom-up over the loop nest. A pipelined leaf
//!   achieves `cycles = depth + (TC/u - 1) · II` with
//!   `II = max(recurrence MII, memory-port MII)`; a non-pipelined loop pays
//!   its full body latency every iteration; `flatten` collapses the subtree
//!   into one wide body (fully unrolled sub-loops); coarse-grained
//!   parallelism replicates PEs and divides the trip count.
//! * **Memory-port MII** couples the buffer bit-width factor to
//!   performance: an interface buffer moves `port_bits / elem_bits`
//!   elements per cycle, so narrow ports throttle unrolled loops.
//! * **Resources** scale with functional-unit replication (`ops · u / II`
//!   per PE) plus BRAM for local arrays, tiling stage buffers, and port
//!   FIFOs.
//! * **Frequency** degrades with utilization, replication fan-out, and the
//!   deep combinational chains produced by flattening recurrent loops.

use crate::cost::{HlsCosts, OpProfile};
use crate::device::Device;
use crate::invariants::{BufferBase, KernelInvariants, LoopInvariants, MemPort};
use crate::resource::ResourceUsage;
use s2fa_hlsir::{KernelSummary, LoopId, PipelineMode};
use s2fa_merlin::DesignConfig;

/// Result of evaluating one loop subtree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopEval {
    /// Total cycles to execute all iterations once.
    pub cycles: f64,
    /// Achieved initiation interval (1.0 when not pipelined). Kept for
    /// model introspection in tests and future stage-balancing work.
    #[allow(dead_code)]
    pub ii: f64,
}

/// Mutable evaluation state threaded through the recursion.
pub(crate) struct ModelCtx<'a> {
    pub summary: &'a KernelSummary,
    pub config: &'a DesignConfig,
    pub costs: &'a HlsCosts,
    pub inv: &'a KernelInvariants,
    pub resources: ResourceUsage,
    /// Maximum PE replication product reached at any leaf.
    pub max_replication: f64,
    /// Total combinational depth contributed by flattened recurrences
    /// (drives the frequency penalty).
    pub deep_logic: f64,
    /// Worst II over all pipelined loops (reported).
    pub worst_ii: f64,
    /// Whether the task loop is tiled (enables transfer/compute overlap
    /// through double buffering).
    pub overlap: bool,
}

impl<'a> ModelCtx<'a> {
    pub fn new(
        summary: &'a KernelSummary,
        config: &'a DesignConfig,
        costs: &'a HlsCosts,
        inv: &'a KernelInvariants,
    ) -> Self {
        ModelCtx {
            summary,
            config,
            costs,
            inv,
            resources: ResourceUsage::new(),
            max_replication: 1.0,
            deep_logic: 0.0,
            worst_ii: 1.0,
            overlap: false,
        }
    }

    /// Evaluates the whole kernel: returns compute cycles for one batch of
    /// `summary.tasks_hint` tasks.
    pub fn evaluate(&mut self) -> f64 {
        self.base_resources();
        let task = self.summary.task_loop;
        if self.config.loop_directive(task).tile.is_some() {
            self.overlap = true;
        }
        let ev = self.eval_loop(task, 1.0);
        ev.cycles
    }

    /// Static overhead: AXI/control logic plus per-buffer port FIFOs and
    /// local arrays. Width-independent BRAM comes precomputed from the
    /// invariants; only the port-width terms are evaluated here.
    fn base_resources(&mut self) {
        let dev_frac = ResourceUsage {
            bram_18k: 40.0,
            dsp: 4.0,
            ff: 14_000.0,
            lut: 11_000.0,
        };
        self.resources += dev_frac;
        let inv = self.inv;
        for bb in &inv.buffer_base {
            match bb {
                BufferBase::Local { bram } => {
                    // Local arrays live in BRAM: banks sized 18 kbit.
                    self.resources.bram_18k += bram;
                }
                BufferBase::Iface {
                    name,
                    broadcast_bram,
                } => {
                    let width = self.config.buffer_width(name) as f64;
                    // Port FIFO + width converter.
                    self.resources.bram_18k += (width / 72.0).ceil();
                    self.resources.lut += width * 14.0;
                    self.resources.ff += width * 20.0;
                    // Broadcast inputs are cached on-chip for the whole
                    // batch (Merlin's coalesced buffer for closure state).
                    self.resources.bram_18k += broadcast_bram;
                }
            }
        }
    }

    /// Evaluates one loop subtree, recursing into its children.
    fn eval_loop(&mut self, id: LoopId, repl: f64) -> LoopEval {
        let Some(li) = self.summary.loop_info(id) else {
            return LoopEval {
                cycles: 0.0,
                ii: 1.0,
            };
        };
        let linv = self.inv.of(id);
        let d = self.config.loop_directive(id);
        let tc = li.trip_count.max(1) as f64;
        let u = (d.parallel_factor() as f64).min(tc);
        let iters = (tc / u).ceil();
        self.max_replication = self.max_replication.max(repl * u);

        let locality = if d.tile.is_some() { 0.6 } else { 1.0 };

        match d.pipeline {
            PipelineMode::Flatten if !li.children.is_empty() => {
                // Fully unroll the subtree; pipeline this loop over it.
                let flat_iters = linv.flattened_iters;
                let mut iter_lat = linv.subtree_critical_path;
                // Recurrent descendants become *systolic chains*: HLS
                // registers the unrolled recurrence every few stages, so
                // the flattened body is a deep pipeline rather than pure
                // combinational logic. Latency grows with chain length
                // (divided by the register spacing), and timing closure
                // suffers from the residual carry/compare chains — the
                // effect that pins the paper's S-W design at 100 MHz.
                for &(chain_lat, deep) in &linv.flatten_chain {
                    iter_lat += chain_lat;
                    self.deep_logic = self.deep_logic.max(deep);
                }

                let rec = rec_mii(li.carried.as_ref(), &d, linv.rec_chain_latency);
                // Merlin fully partitions local arrays and inserts on-chip
                // caches for the interface data a flattened body touches,
                // so memory ports do not bound the II here; the recurrence
                // does.
                let ii = rec.max(1.0);
                self.worst_ii = self.worst_ii.max(ii);
                let _ = locality;

                // Fully spatial body. Recurrent subtrees route as systolic
                // chains (nearest-neighbour interconnect); only
                // recurrence-free flattening pays the crossbar.
                self.charge_classes(&linv.subtree_classes, repl * u, ii, linv.systolic);
                // Partitioned local arrays + interface caches.
                self.resources.bram_18k += 2.0 * flat_iters.sqrt();
                self.resources.bram_18k += linv.flatten_iface_bram;

                LoopEval {
                    cycles: iter_lat + (iters - 1.0) * ii,
                    ii,
                }
            }
            PipelineMode::On | PipelineMode::Flatten if li.children.is_empty() => {
                // Fine-grained pipeline of a leaf loop.
                let rec = rec_mii(li.carried.as_ref(), &d, linv.rec_chain_latency);
                let mem = self.mem_mii_leaf(linv, u, locality);
                let ii = rec.max(mem).max(1.0);
                self.worst_ii = self.worst_ii.max(ii);
                let mut iter_lat = linv.body_critical_path;
                if d.tree_reduce && u > 1.0 {
                    // adder tree depth
                    iter_lat += u.log2().ceil() * self.costs.fadd.latency as f64;
                }
                self.charge_classes(&linv.body_classes, repl * u, ii, false);
                LoopEval {
                    cycles: iter_lat + (iters - 1.0) * ii,
                    ii,
                }
            }
            PipelineMode::On => {
                // Coarse-grained (dataflow) pipelining over child stages.
                let body_lat = linv.body_critical_path;
                let mut stage_sum = body_lat;
                let mut stage_max = body_lat;
                for &c in &li.children {
                    let ev = self.eval_loop(c, repl * u);
                    stage_sum += ev.cycles;
                    stage_max = stage_max.max(ev.cycles);
                }
                self.charge_classes(&linv.body_classes, repl * u, 1.0, false);
                // Double buffers between stages.
                self.resources.bram_18k += 2.0 * li.children.len() as f64;
                LoopEval {
                    cycles: stage_sum + (iters - 1.0) * stage_max,
                    ii: stage_max,
                }
            }
            PipelineMode::Off | PipelineMode::Flatten => {
                // Sequential iterations (PE-replicated u ways).
                let body_lat = linv.body_critical_path;
                let mut per_iter = body_lat + 2.0; // loop control overhead
                for &c in &li.children {
                    let ev = self.eval_loop(c, repl * u);
                    per_iter += ev.cycles;
                }
                // Sequential bodies share functional units over time.
                self.charge_classes(&linv.body_classes, repl * u, 4.0, false);
                LoopEval {
                    cycles: iters * per_iter,
                    ii: 1.0,
                }
            }
        }
    }

    /// Memory-port MII of a leaf loop: the worst buffer contention.
    /// Banked (local/broadcast) buffers see `u` banks × 2 ports; off-chip
    /// ports move `port_bits / elem_bits` elements per cycle, so narrow
    /// ports throttle unrolled loops.
    fn mem_mii_leaf(&self, linv: &LoopInvariants, u: f64, locality: f64) -> f64 {
        let mut worst: f64 = 1.0;
        for m in &linv.mem_accesses {
            let mii = match &m.kind {
                MemPort::Banked => (m.count * u / (2.0 * u)).ceil().max(1.0),
                MemPort::Ported { elem_bits } => {
                    let width = self.config.buffer_width(&m.name) as f64;
                    let elems_per_cycle = (width / elem_bits).max(1.0);
                    (m.count * u * locality / elems_per_cycle).ceil().max(1.0)
                }
                MemPort::Unknown => 1.0,
            };
            worst = worst.max(mii);
        }
        worst
    }

    /// Adds the functional units needed for `ops` at replication `repl`
    /// and initiation interval `ii` (larger II → more unit sharing).
    ///
    /// Beyond the operator cores themselves, every processing element pays
    /// interconnect (data muxing, control fan-out): that cost grows
    /// super-linearly with replication, which is what makes extreme
    /// parallel factors infeasible on a real device (the paper's
    /// "performing coarse-grained parallelism with factor 256 ... might be
    /// infeasible for most designs due to high routing complexity").
    fn charge_classes(&mut self, classes: &[(u32, OpProfile)], repl: f64, ii: f64, systolic: bool) {
        let mut total_units = 0.0;
        for &(count, ref p) in classes {
            let units = ((count as f64 * repl) / ii.max(1.0)).max(1.0);
            total_units += units;
            self.resources.dsp += p.dsp * units;
            self.resources.lut += p.lut * units;
            self.resources.ff += p.ff * units;
        }
        let interconnect = if systolic {
            // Nearest-neighbour routing: linear in the PE count.
            40.0 * total_units
        } else {
            14.0 * total_units * total_units.sqrt()
        };
        self.resources.lut += interconnect;
        self.resources.ff += interconnect * 0.6;
    }

    /// BRAM for tiling stage buffers (double-buffered task staging).
    pub fn charge_tiling(&mut self) {
        for l in &self.summary.loops {
            if let Some(t) = self.config.loop_directive(l.id).tile {
                if l.id == self.summary.task_loop {
                    let (inb, outb) = self.inv.interface_bytes;
                    let bits = (inb + outb) as f64 * 8.0 * t as f64 * 2.0;
                    self.resources.bram_18k += (bits / 18_432.0).ceil();
                } else {
                    // Reuse buffer proportional to the tile.
                    self.resources.bram_18k += ((t as f64 * 64.0) / 18_432.0).ceil();
                }
            }
        }
    }
}

/// Recurrence-constrained MII of a loop, with the chain latency supplied
/// from the precomputed invariants. `dep` is the loop's carried
/// dependence from the conservative scan
/// ([`LoopInfo::carried`](s2fa_hlsir::LoopInfo::carried)).
fn rec_mii(
    dep: Option<&s2fa_hlsir::CarriedDep>,
    d: &s2fa_merlin::LoopDirective,
    chain_latency: f64,
) -> f64 {
    match dep {
        Some(dep) => {
            if d.tree_reduce && dep.reducible {
                1.0
            } else {
                chain_latency
            }
        }
        None => 1.0,
    }
}

/// Post-scheduling frequency model: starts at the device target and
/// degrades with utilization, replication fan-out, and deep combinational
/// chains from flattened recurrences. Returns MHz.
pub(crate) fn achieved_frequency(
    device: &Device,
    resources: &ResourceUsage,
    max_replication: f64,
    deep_logic: f64,
) -> f64 {
    let mut f = device.target_mhz;
    let (_, _, ffu, lutu) = resources.utilization(device);
    let congestion = ffu.max(lutu);
    if congestion > 0.45 {
        f *= 1.0 - 0.5 * (congestion - 0.45);
    }
    if max_replication > 64.0 {
        f *= (64.0 / max_replication).powf(0.12);
    }
    if deep_logic > 24.0 {
        // Deep carry/compare chains (e.g. flattened DP wavefronts) force
        // long routes: the systolic S-W shape lands near 100 MHz.
        f *= (24.0 / deep_logic).powf(0.35);
    }
    // P&R timing closure snaps to 10 MHz steps on the F1 shell clocks and
    // never closes below 60 MHz on this device.
    let f = f.max(60.0);
    (f / 10.0).round() * 10.0
}

#[cfg(test)]
mod freq_tests {
    use super::*;

    #[test]
    fn nominal_design_hits_target() {
        let d = Device::vu9p();
        let r = ResourceUsage {
            bram_18k: 100.0,
            dsp: 50.0,
            ff: 50_000.0,
            lut: 40_000.0,
        };
        assert_eq!(achieved_frequency(&d, &r, 4.0, 0.0), 250.0);
    }

    #[test]
    fn deep_logic_halves_frequency() {
        let d = Device::vu9p();
        let r = ResourceUsage::new();
        let f = achieved_frequency(&d, &r, 4.0, 300.0);
        assert!(f <= 130.0, "deep logic should degrade clock, got {f}");
        assert!(f >= 60.0);
    }

    #[test]
    fn congestion_degrades_frequency() {
        let d = Device::vu9p();
        let r = ResourceUsage {
            bram_18k: 0.0,
            dsp: 0.0,
            ff: 0.0,
            lut: d.lut as f64 * 0.74,
        };
        let f = achieved_frequency(&d, &r, 4.0, 0.0);
        assert!(f < 250.0);
        assert!(f >= 200.0);
    }
}
