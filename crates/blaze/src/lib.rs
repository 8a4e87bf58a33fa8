#![warn(missing_docs)]

//! # s2fa-blaze — the Spark + Blaze runtime substrate
//!
//! Blaze "abstracts FPGA accelerators as a service": Spark programs wrap an
//! RDD, tag a transformation with an accelerator id, and the runtime routes
//! each task batch either to a registered FPGA accelerator or back to the
//! JVM (paper §2, Code 1). This crate reproduces that integration surface:
//!
//! * [`Rdd`] / [`BlazeContext::wrap`] — the mini-Spark dataset and the
//!   Blaze wrapper;
//! * [`AccCall`] — the analogue of `class SW() extends Accelerator`:
//!   an accelerator id plus the Scala lambda (as a [`KernelSpec`]) used
//!   when the runtime falls back to the JVM;
//! * [`AcceleratorRegistry`] — the Blaze accelerator-manager service;
//! * [`DataLayout`] — the generated data-processing methods (paper §3.2's
//!   "data processing method generator"): reflection-style (de)serializers
//!   between [`HostValue`] records and the flat buffers of the generated
//!   accelerator interface;
//! * [`Accelerator::run_batch`] — functional offload through the HLS IR
//!   executor plus a PCIe/DMA + kernel time model, so application-level
//!   speedups can be reported end to end;
//! * [`streams`] — a Java-8-streams-style pipeline over the same
//!   accelerator service, demonstrating §2's claim that S2FA plugs into
//!   other JVM runtime systems unchanged;
//! * [`serving`] — the datacenter serving side: a deterministic
//!   multi-tenant request path (admission → queueing → batch forming →
//!   simulated cluster execution → reply) over the same registry, with
//!   trace events and host-time spans threaded through.
//!
//! [`KernelSpec`]: s2fa_sjvm::KernelSpec
//! [`HostValue`]: s2fa_sjvm::HostValue

pub mod accel;
pub mod rdd;
pub mod serial;
pub mod service;
pub mod serving;
pub mod streams;

mod error;

pub use accel::{AccelStats, AccelTimeModel, Accelerator};
pub use error::BlazeError;
pub use rdd::{AccCall, BlazeContext, BlazeRdd, ExecutionPath, OffloadReport, Rdd};
pub use serial::{BufferSlot, DataLayout};
pub use service::AcceleratorRegistry;
pub use serving::{ServeOutcome, ServingConfig, ServingRuntime, TenantSpec};
