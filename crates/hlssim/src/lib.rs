#![warn(missing_docs)]

//! # s2fa-hlssim — the Xilinx SDx substitute
//!
//! S2FA evaluates every design point by running high-level synthesis:
//! "we use the Xilinx SDx to perform HLS for resource and cycle estimation
//! instead of building an analytical model. However, HLS takes several
//! minutes to evaluate one design point" (§4.2, Impediment 1).
//!
//! Without the vendor toolchain, this crate provides an analytical HLS +
//! place-&-route model of the paper's device (a Virtex UltraScale+ VU9P on
//! an AWS F1 `f1.2xlarge`). The DSE layers above observe only what the real
//! flow reports — `(cycles, resources, frequency, feasible?, minutes)` —
//! and the model reproduces the landscape features the paper's results
//! depend on:
//!
//! * initiation intervals bounded by recurrence chains and by memory-port
//!   contention (buffer bit-width × unroll factor);
//! * resource usage scaling with parallelism and flattening, with the 75 %
//!   utilization feasibility cap (footnote 5);
//! * clock-frequency degradation under heavy replication/congestion;
//! * compute- vs memory-bound behaviour (transfer vs compute overlap);
//! * multi-minute evaluation cost per design point, charged to a virtual
//!   clock so DSE experiments measure "hours" deterministically.

pub mod cost;
pub mod device;
pub mod estimate;
pub mod invariants;
pub mod model;
pub mod report;
pub mod resource;

pub use cost::HlsCosts;
pub use device::Device;
pub use estimate::{Estimate, Estimator, Feasibility, MAX_REPLICATION};
pub use invariants::KernelInvariants;
pub use resource::ResourceUsage;
