#![warn(missing_docs)]

//! # s2fa-obs — host-side profiling
//!
//! The `s2fa-trace` layer answers "what did the search decide, and at
//! which *virtual* minute" — it is deterministic by design and knows
//! nothing about real time. This crate answers the complementary
//! question: **where does the host wall-clock go?**
//!
//! Host time has one instrument: [`Profiler`] / [`Lane`] record
//! hierarchical **spans** over the pipeline stages (codegen → lint →
//! space identification → partitioning → tuning → merge) and over every
//! evaluator worker thread. Monotonic clocks only; spans carry parent
//! ids so nesting reconstructs a call tree ([`verify_spans`] checks
//! well-formedness, the property tests enforce it). Lanes are per-thread
//! with implicit parenting, so cross-thread parenting is impossible *by
//! construction*, and completed spans buffer thread-locally — one lock
//! per lane lifetime, not per span.
//!
//! [`Histogram`] is a plain log-linear value type (p50/p90/p99/max) the
//! serving reports summarize request latencies with; nothing records
//! into it implicitly.
//!
//! ## Zero cost when disabled
//!
//! Everything hangs off a [`Profiler`] handle whose disabled form (the
//! default everywhere) is a `None`: no clock reads, no allocation, one
//! branch per instrumentation point. The determinism tests in `s2fa-dse`
//! pin profiling-enabled ≡ profiling-disabled DSE outcomes bit-for-bit.
//!
//! [`report`] turns a recorded session into the shipped artifacts: the
//! aggregated span tree, folded stacks for flamegraphs, the timing-free
//! structure golden, and the JSON profile `s2fa_cli profile` writes and
//! `s2fa_cli report` re-renders ([`Json`] is the workspace's one JSON
//! type, re-exported from `s2fa-trace`; [`schema`] the validator CI's
//! `profile-smoke` job runs).

pub mod metrics;
pub mod report;
pub mod schema;
pub mod span;

pub use metrics::{Histogram, HistogramSnapshot};
pub use report::{aggregate_spans, Profile, SpanNode};
pub use s2fa_trace::Json;
pub use schema::validate;
pub use span::{verify_spans, Lane, Profiler, SpanRecord};
