//! The public estimator interface — what "running HLS" returns.

use crate::cost::HlsCosts;
use crate::device::Device;
use crate::invariants::{BufferBase, KernelInvariants};
use crate::model::{achieved_frequency, ModelCtx};
use crate::resource::ResourceUsage;
use s2fa_hlsir::KernelSummary;
use s2fa_merlin::DesignConfig;
use std::fmt;

/// Whether a design point synthesizes and routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// The design fits and routes.
    Feasible,
    /// Synthesis/implementation fails for the given reason.
    Infeasible(String),
}

impl Feasibility {
    /// True if the design is feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible)
    }
}

/// Replication product beyond which no design routes — the estimator's
/// "unroutable" feasibility bound.
pub const MAX_REPLICATION: f64 = 1024.0;

/// The report returned for one design point — the information a DSE gets
/// back from the Xilinx SDx flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Compute cycles for one batch of `tasks_hint` tasks.
    pub compute_cycles: u64,
    /// Off-chip transfer cycles for the batch.
    pub transfer_cycles: u64,
    /// End-to-end cycles (overlapped if the task loop is tiled).
    pub total_cycles: u64,
    /// Worst initiation interval over all pipelined loops.
    pub ii_critical: f64,
    /// Achieved clock after the place-&-route model.
    pub freq_mhz: f64,
    /// Batch execution time in milliseconds at the achieved clock.
    pub time_ms: f64,
    /// Number of tasks in the batch the cycle counts refer to.
    pub batch_tasks: u32,
    /// Absolute resource usage.
    pub resources: ResourceUsage,
    /// Feasibility verdict.
    pub feasibility: Feasibility,
    /// Virtual HLS evaluation cost in minutes (Impediment 1).
    pub hls_minutes: f64,
}

impl Estimate {
    /// True if the design synthesized.
    pub fn is_feasible(&self) -> bool {
        self.feasibility.is_feasible()
    }

    /// The DSE objective: batch time in ms, `+inf` for infeasible points.
    pub fn objective(&self) -> f64 {
        if self.is_feasible() {
            self.time_ms
        } else {
            f64::INFINITY
        }
    }

    /// Execution time in milliseconds for `n` tasks (amortized scaling of
    /// the evaluated batch).
    pub fn time_ms_for_tasks(&self, n: u64) -> f64 {
        self.time_ms * n as f64 / self.batch_tasks.max(1) as f64
    }

    /// Throughput in tasks per second.
    pub fn tasks_per_second(&self) -> f64 {
        self.batch_tasks as f64 / (self.time_ms / 1e3)
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms/batch @ {:.0} MHz (II={:.0}, {}, {})",
            self.time_ms,
            self.freq_mhz,
            self.ii_critical,
            self.resources,
            if self.is_feasible() {
                "feasible"
            } else {
                "INFEASIBLE"
            }
        )
    }
}

/// The analytical HLS + P&R estimator (the SDx stand-in).
///
/// ```
/// use s2fa_hlssim::Estimator;
///
/// let est = Estimator::new();
/// assert_eq!(est.device().name, "xcvu9p (AWS F1)");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    device: Device,
    costs: HlsCosts,
}

impl Estimator {
    /// Estimator for the default VU9P device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimator for a custom device envelope.
    pub fn with_device(device: Device) -> Self {
        Estimator {
            device,
            costs: HlsCosts::default(),
        }
    }

    /// The device being targeted.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The operator characterization in use.
    pub fn costs(&self) -> &HlsCosts {
        &self.costs
    }

    /// Precomputes the configuration-independent facts of a kernel.
    ///
    /// Build once per [`KernelSummary`] and evaluate many design points
    /// against it with [`evaluate_with`](Self::evaluate_with) — the result
    /// is identical to [`evaluate`](Self::evaluate), minus the repeated
    /// subtree walks and operator-class scans.
    pub fn invariants(&self, summary: &KernelSummary) -> KernelInvariants {
        KernelInvariants::build(summary, &self.costs)
    }

    /// Runs "HLS" for one design point.
    ///
    /// The configuration is normalized (factor dependencies enforced)
    /// before evaluation, exactly as the Merlin flow rewrites directives.
    pub fn evaluate(&self, summary: &KernelSummary, config: &DesignConfig) -> Estimate {
        let inv = self.invariants(summary);
        let mut cfg = config.clone();
        cfg.normalize(summary);
        self.evaluate_with(summary, &inv, &cfg)
    }

    /// [`evaluate`](Self::evaluate) of an already normalized `config`
    /// against precomputed invariants — the hot path, one model walk and
    /// nothing else. `inv` must come from [`invariants`](Self::invariants)
    /// on the same `summary` and estimator, and `config` must be a fixed
    /// point of [`DesignConfig::normalize`] (checked in debug builds);
    /// the result then equals `evaluate(summary, config)`.
    pub fn evaluate_with(
        &self,
        summary: &KernelSummary,
        inv: &KernelInvariants,
        config: &DesignConfig,
    ) -> Estimate {
        debug_assert_normalized(summary, config);
        let mut ctx = ModelCtx::new(summary, config, &self.costs, inv);
        let compute = ctx.evaluate();
        ctx.charge_tiling();
        let resources = ctx.resources;
        let freq = achieved_frequency(
            &self.device,
            &resources,
            ctx.max_replication,
            ctx.deep_logic,
        );

        // Transfer: bytes for the batch over the configured port widths,
        // capped by DDR bandwidth.
        let (inb, outb) = inv.interface_bytes;
        let total_bytes =
            (inb + outb) as f64 * summary.tasks_hint as f64 + inv.broadcast_bytes as f64;
        let mut port_bytes_per_cycle = 0.0;
        for bb in &inv.buffer_base {
            if let BufferBase::Iface { name, .. } = bb {
                port_bytes_per_cycle += config.buffer_width(name) as f64 / 8.0;
            }
        }
        let ddr_cap = self.device.ddr_bytes_per_cycle(freq);
        let bpc = (port_bytes_per_cycle * 0.8).min(ddr_cap).max(1.0);
        let transfer = total_bytes / bpc;

        let total = if ctx.overlap {
            compute.max(transfer) + 0.05 * compute.min(transfer)
        } else {
            compute + transfer
        };

        // Feasibility: the 75 % utilization cap, then a routing sanity
        // bound. The `s2fa-lint` pre-screen reads this verdict, in this
        // order, off the estimate.
        let util = resources.max_utilization(&self.device);
        let feasibility = if util > self.device.max_util {
            Feasibility::Infeasible(format!(
                "{} utilization {:.0}% exceeds the {:.0}% cap",
                resources.bottleneck(&self.device),
                util * 100.0,
                self.device.max_util * 100.0
            ))
        } else if ctx.max_replication > MAX_REPLICATION {
            Feasibility::Infeasible(format!(
                "replication {} unroutable",
                ctx.max_replication as u64
            ))
        } else {
            Feasibility::Feasible
        };

        // Virtual HLS wall-clock. Calibrated to Impediment 1: "only tens
        // of design points can be evaluated in one hour" → a few minutes
        // for small designs, tens of minutes for heavily replicated ones.
        let work = resources.lut / 1000.0 + resources.dsp;
        let mut hls_minutes =
            (2.5 + 2.2 * (1.0 + work / 800.0).ln() + 0.6 * (1.0 + ctx.max_replication).log2())
                .min(25.0);
        // Designs that fail synthesis are the *slowest* evaluations: the
        // tool chews through scheduling/binding (or place & route) before
        // giving up, so exploring the infeasible region costs extra
        // wall-clock — exactly why the conservative seed matters (§4.3.2).
        if !feasibility.is_feasible() {
            hls_minutes = (hls_minutes * 1.75).min(45.0);
        }

        let time_ms = total / (freq * 1e3);
        Estimate {
            compute_cycles: compute as u64,
            transfer_cycles: transfer as u64,
            total_cycles: total as u64,
            ii_critical: ctx.worst_ii,
            freq_mhz: freq,
            time_ms,
            batch_tasks: summary.tasks_hint,
            resources,
            feasibility,
            hls_minutes,
        }
    }
}

/// Debug-build check of the `_with` contract: `config` is already
/// normalized, so the model never sees a raw point.
fn debug_assert_normalized(summary: &KernelSummary, config: &DesignConfig) {
    debug_assert!(
        !config.clone().normalize(summary),
        "design point is not normalized: {config}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{
        Access, BufferDir, BufferInfo, CarriedDep, LoopId, LoopInfo, OpCounts, PipelineMode,
    };

    /// A dot-product style kernel: task loop (1024) over an inner
    /// reduction loop (64) with 2 float ops and 2 reads per iteration.
    fn summary() -> KernelSummary {
        let mut inner_ops = OpCounts::new();
        inner_ops.fadd = 1;
        inner_ops.fmul = 1;
        inner_ops.mem_read = 2;
        let mut chain = OpCounts::new();
        chain.fadd = 1;
        let mut outer_ops = OpCounts::new();
        outer_ops.mem_write = 1;
        KernelSummary {
            name: "dot".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "t".into(),
                    trip_count: 1024,
                    depth: 0,
                    parent: None,
                    children: vec![LoopId(1)],
                    body_ops: outer_ops,
                    accesses: vec![Access {
                        buffer: "out_1".into(),
                        write: true,
                    }],
                    carried: None,
                },
                LoopInfo {
                    id: LoopId(1),
                    var: "j".into(),
                    trip_count: 64,
                    depth: 1,
                    parent: Some(LoopId(0)),
                    children: vec![],
                    body_ops: inner_ops,
                    accesses: vec![
                        Access {
                            buffer: "in_1".into(),
                            write: false,
                        },
                        Access {
                            buffer: "w".into(),
                            write: false,
                        },
                    ],
                    carried: Some(CarriedDep {
                        via: "s".into(),
                        chain,
                        reducible: true,
                    }),
                },
            ],
            buffers: vec![
                BufferInfo {
                    name: "in_1".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "w".into(),
                    elem_bits: 32,
                    len: 64,
                    dir: BufferDir::In,
                    broadcast: false,
                },
                BufferInfo {
                    name: "out_1".into(),
                    elem_bits: 32,
                    len: 1,
                    dir: BufferDir::Out,
                    broadcast: false,
                },
            ],
            task_loop: LoopId(0),
            tasks_hint: 1024,
            dataflow: None,
        }
    }

    #[test]
    fn baseline_is_feasible_and_slow() {
        let s = summary();
        let est = Estimator::new();
        let base = est.evaluate(&s, &DesignConfig::area_seed(&s));
        assert!(base.is_feasible());
        assert!(base.freq_mhz >= 240.0, "unoptimized design meets timing");
        assert!(base.compute_cycles > 100_000);
    }

    #[test]
    fn pipelining_the_reduction_helps() {
        let s = summary();
        let est = Estimator::new();
        let base = est.evaluate(&s, &DesignConfig::area_seed(&s));
        let mut cfg = DesignConfig::area_seed(&s);
        cfg.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::On;
        cfg.loop_directive_mut(LoopId(1)).tree_reduce = true;
        let piped = est.evaluate(&s, &cfg);
        assert!(piped.is_feasible());
        assert!(
            piped.compute_cycles < base.compute_cycles / 2,
            "pipelining should cut compute at least 2x: {} vs {}",
            piped.compute_cycles,
            base.compute_cycles
        );
    }

    #[test]
    fn recurrence_without_tree_limits_ii() {
        let s = summary();
        let est = Estimator::new();
        let mut cfg = DesignConfig::area_seed(&s);
        cfg.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::On;
        let e = est.evaluate(&s, &cfg);
        // fadd chain latency (7) bounds the II
        assert!(e.ii_critical >= 7.0, "II was {}", e.ii_critical);
    }

    #[test]
    fn narrow_ports_throttle_unrolled_loops() {
        let s = summary();
        let est = Estimator::new();
        let mut wide = DesignConfig::area_seed(&s);
        wide.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::On;
        wide.loop_directive_mut(LoopId(1)).parallel = 16;
        wide.loop_directive_mut(LoopId(1)).tree_reduce = true;
        let mut narrow = wide.clone();
        for (_, b) in narrow.buffer_bits.iter_mut() {
            *b = 32;
        }
        for (_, b) in wide.buffer_bits.iter_mut() {
            *b = 512;
        }
        let ew = est.evaluate(&s, &wide);
        let en = est.evaluate(&s, &narrow);
        assert!(
            ew.compute_cycles < en.compute_cycles,
            "512-bit ports should beat 32-bit: {} vs {}",
            ew.compute_cycles,
            en.compute_cycles
        );
        assert!(
            en.ii_critical >= 8.0 * ew.ii_critical,
            "port contention should dominate the II: {} vs {}",
            en.ii_critical,
            ew.ii_critical
        );
    }

    #[test]
    fn massive_parallelism_is_infeasible() {
        let s = summary();
        let est = Estimator::new();
        let mut cfg = DesignConfig::perf_seed(&s);
        // crank the task loop PE count
        cfg.loop_directive_mut(LoopId(0)).parallel = 512;
        cfg.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::On;
        cfg.loop_directive_mut(LoopId(1)).parallel = 64;
        let e = est.evaluate(&s, &cfg);
        assert!(!e.is_feasible(), "512x64 PEs must blow the 75% cap: {e}");
    }

    #[test]
    fn tiling_task_loop_overlaps_transfer() {
        let s = summary();
        let est = Estimator::new();
        let mut cfg = DesignConfig::perf_seed(&s);
        cfg.loop_directive_mut(LoopId(0)).parallel = 1;
        let no_tile = est.evaluate(&s, &cfg);
        cfg.loop_directive_mut(LoopId(0)).tile = Some(16);
        let tiled = est.evaluate(&s, &cfg);
        assert!(tiled.total_cycles < no_tile.total_cycles);
    }

    #[test]
    fn hls_minutes_in_paper_range() {
        let s = summary();
        let est = Estimator::new();
        let e1 = est.evaluate(&s, &DesignConfig::area_seed(&s));
        let e2 = est.evaluate(&s, &DesignConfig::perf_seed(&s));
        assert!(e1.hls_minutes >= 2.5 && e1.hls_minutes <= 25.0);
        assert!(
            e2.hls_minutes > e1.hls_minutes,
            "bigger designs take longer"
        );
    }

    #[test]
    fn objective_is_infinite_when_infeasible() {
        let s = summary();
        let est = Estimator::new();
        let mut cfg = DesignConfig::perf_seed(&s);
        cfg.loop_directive_mut(LoopId(0)).parallel = 1024;
        cfg.loop_directive_mut(LoopId(1)).parallel = 64;
        let e = est.evaluate(&s, &cfg);
        if !e.is_feasible() {
            assert!(e.objective().is_infinite());
        }
        let ok = est.evaluate(&s, &DesignConfig::area_seed(&s));
        assert!(ok.objective().is_finite());
    }

    #[test]
    fn time_scaling_helpers() {
        let s = summary();
        let est = Estimator::new();
        let e = est.evaluate(&s, &DesignConfig::area_seed(&s));
        let t2 = e.time_ms_for_tasks(2048);
        assert!((t2 / e.time_ms - 2.0).abs() < 1e-9);
        assert!(e.tasks_per_second() > 0.0);
    }

    #[test]
    fn determinism() {
        let s = summary();
        let est = Estimator::new();
        let cfg = DesignConfig::perf_seed(&s);
        assert_eq!(est.evaluate(&s, &cfg), est.evaluate(&s, &cfg));
    }
}
