//! Per-kernel invariants hoisted out of the evaluation hot path.
//!
//! The model is evaluated tens of thousands of times per DSE run with the
//! *same* [`KernelSummary`]; only the
//! [`DesignConfig`](s2fa_merlin::DesignConfig) changes between calls.
//! Everything the model derives from the summary alone — interface byte
//! totals, subtree operation counts, flattening trip products, recurrence
//! chain latencies, per-loop operator classes — would otherwise be
//! re-derived by allocating subtree walks on every call.
//!
//! [`KernelInvariants`] computes those facts once per kernel.
//! [`Estimator::evaluate`](crate::Estimator::evaluate) is
//! [`Estimator::invariants`](crate::Estimator::invariants) followed by
//! [`Estimator::evaluate_with`](crate::Estimator::evaluate_with) on the
//! normalized point, so there is one model and the DSE engine only skips
//! recomputing the invariants; `crates/hlssim/tests/prop.rs` pins that
//! `evaluate` on a raw point equals `evaluate_with` on its normal form.

use crate::cost::{HlsCosts, OpProfile};
use s2fa_hlsir::{BufferDir, KernelSummary, LoopId};
use std::collections::BTreeMap;

/// What the base-resource pass adds for one buffer (in `buffers` order).
#[derive(Debug, Clone)]
pub(crate) enum BufferBase {
    /// Local array: fixed BRAM banks.
    Local {
        /// BRAM-18k banks for the array.
        bram: f64,
    },
    /// Interface buffer: the width-dependent FIFO cost is computed at
    /// evaluation time; the broadcast cache (if any) is fixed.
    Iface {
        /// Buffer name (port width lookup key).
        name: String,
        /// BRAM banks for the on-chip broadcast cache (0 if not broadcast).
        broadcast_bram: f64,
    },
}

/// How a leaf-loop access hits memory, for the port-contention MII.
#[derive(Debug, Clone)]
pub(crate) enum MemPort {
    /// Local or broadcast-cached buffer: banked with the unroll factor.
    Banked,
    /// Off-chip port: throughput set by the configured width.
    Ported {
        /// Element width in bits.
        elem_bits: f64,
    },
    /// Unknown buffer (defensive; contributes no contention).
    Unknown,
}

/// Per-buffer access pressure of one leaf loop.
#[derive(Debug, Clone)]
pub(crate) struct MemAccess {
    /// Buffer name (port width lookup key).
    pub name: String,
    /// Accesses per iteration.
    pub count: f64,
    /// Port kind.
    pub kind: MemPort,
}

/// Configuration-independent facts about one loop.
#[derive(Debug, Clone)]
pub(crate) struct LoopInvariants {
    /// `critical_path(body_ops)`.
    pub body_critical_path: f64,
    /// `classes(body_ops)` with owned profiles.
    pub body_classes: Vec<(u32, OpProfile)>,
    /// `critical_path(subtree_ops(id))`.
    pub subtree_critical_path: f64,
    /// `classes(subtree_ops(id))`.
    pub subtree_classes: Vec<(u32, OpProfile)>,
    /// `flattened_iters(id)`.
    pub flattened_iters: f64,
    /// Per recurrent descendant, in pre-order: the systolic-chain latency
    /// added to the flattened iteration, and the deep-logic candidate.
    pub flatten_chain: Vec<(f64, f64)>,
    /// Whether any descendant carries a recurrence (systolic routing).
    pub systolic: bool,
    /// BRAM for the interface caches a flattened body allocates
    /// (whole-valued ceil sum, so pre-summing is exact).
    pub flatten_iface_bram: f64,
    /// `chain_latency` of this loop's carried dependence (1.0 if none).
    pub rec_chain_latency: f64,
    /// Per-buffer access pressure, in buffer-name order.
    pub mem_accesses: Vec<MemAccess>,
}

/// Everything the estimator needs from a [`KernelSummary`] that does not
/// depend on the design configuration. Build once per kernel with
/// [`Estimator::invariants`](crate::Estimator::invariants) and evaluate
/// many configurations against it.
#[derive(Debug, Clone)]
pub struct KernelInvariants {
    /// `interface_bytes_per_task()`.
    pub(crate) interface_bytes: (u64, u64),
    /// `broadcast_bytes()`.
    pub(crate) broadcast_bytes: u64,
    /// Base-resource contribution per buffer, in `buffers` order.
    pub(crate) buffer_base: Vec<BufferBase>,
    /// Per-loop invariants.
    pub(crate) loops: BTreeMap<LoopId, LoopInvariants>,
}

impl KernelInvariants {
    /// Precomputes the invariants of `summary` under `costs`.
    pub(crate) fn build(summary: &KernelSummary, costs: &HlsCosts) -> Self {
        const REGISTER_SPACING: f64 = 4.0;

        let buffer_base = summary
            .buffers
            .iter()
            .map(|b| match b.dir {
                BufferDir::Local => {
                    let bits = b.elem_bits as f64 * b.len as f64;
                    BufferBase::Local {
                        bram: (bits / 18_432.0).ceil().max(1.0),
                    }
                }
                _ => {
                    let broadcast_bram = if b.broadcast {
                        let bits = b.elem_bits as f64 * b.len as f64;
                        (bits / 18_432.0).ceil().max(1.0)
                    } else {
                        0.0
                    };
                    BufferBase::Iface {
                        name: b.name.clone(),
                        broadcast_bram,
                    }
                }
            })
            .collect();

        let flatten_iface_bram: f64 = summary
            .buffers
            .iter()
            .filter(|b| b.dir == BufferDir::In && !b.broadcast)
            .map(|b| (b.elem_bits as f64 * b.len as f64 / 18_432.0).ceil())
            .sum();

        let mut loops = BTreeMap::new();
        for li in &summary.loops {
            let subtree_ops = summary.subtree_ops(li.id);
            let descendants = summary.descendants(li.id);

            let mut flatten_chain = Vec::new();
            let mut systolic = false;
            for c in &descendants {
                if let Some(cl) = summary.loop_info(*c) {
                    if let Some(dep) = &cl.carried {
                        systolic = true;
                        let per = costs.chain_latency(&dep.chain) as f64;
                        let tc_c = cl.trip_count as f64;
                        flatten_chain.push((per * tc_c / REGISTER_SPACING, per * tc_c / 2.0));
                    }
                }
            }

            let mut per_buffer: BTreeMap<&str, f64> = BTreeMap::new();
            for a in &li.accesses {
                *per_buffer.entry(a.buffer.as_str()).or_insert(0.0) += 1.0;
            }
            let mem_accesses = per_buffer
                .into_iter()
                .map(|(name, count)| {
                    let kind = match summary.buffer(name) {
                        Some(b) if b.dir == BufferDir::Local || b.broadcast => MemPort::Banked,
                        Some(b) => MemPort::Ported {
                            elem_bits: b.elem_bits as f64,
                        },
                        None => MemPort::Unknown,
                    };
                    MemAccess {
                        name: name.to_string(),
                        count,
                        kind,
                    }
                })
                .collect();

            loops.insert(
                li.id,
                LoopInvariants {
                    body_critical_path: costs.critical_path(&li.body_ops) as f64,
                    body_classes: costs
                        .classes(&li.body_ops)
                        .into_iter()
                        .map(|(c, p)| (c, *p))
                        .collect(),
                    subtree_critical_path: costs.critical_path(&subtree_ops) as f64,
                    subtree_classes: costs
                        .classes(&subtree_ops)
                        .into_iter()
                        .map(|(c, p)| (c, *p))
                        .collect(),
                    flattened_iters: summary.flattened_iters(li.id) as f64,
                    flatten_chain,
                    systolic,
                    flatten_iface_bram,
                    // The conservative scan's carried dependence bounds
                    // the II by its chain latency.
                    rec_chain_latency: li
                        .carried
                        .as_ref()
                        .map(|dep| (costs.chain_latency(&dep.chain) as f64).max(1.0))
                        .unwrap_or(1.0),
                    mem_accesses,
                },
            );
        }

        KernelInvariants {
            interface_bytes: summary.interface_bytes_per_task(),
            broadcast_bytes: summary.broadcast_bytes(),
            buffer_base,
            loops,
        }
    }

    /// Invariants of one loop (panics on an id absent from the summary the
    /// invariants were built from — a caller bug by construction).
    pub(crate) fn of(&self, id: LoopId) -> &LoopInvariants {
        &self.loops[&id]
    }
}
