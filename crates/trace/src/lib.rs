#![warn(missing_docs)]

//! # s2fa-trace — virtual-clock accounting and structured observability
//!
//! Every time-series claim this reproduction makes (Fig. 3 is *normalized
//! cycles vs wall-clock minutes*) rests on the minute stamped on a trace
//! event, so clock arithmetic must live in exactly one audited place. This
//! crate is that place, plus the structured-event layer the rest of the
//! pipeline reports through:
//!
//! * [`BatchClock`] — the virtual clock of a batched tuning run. A batch
//!   of `k` parallel evaluations advances the clock by its *slowest*
//!   member (footnote 3 of the paper), and **every** event of the batch is
//!   stamped with the batch-completion minute. This replaces the old
//!   per-event running prefix-max in `TuningRun::run`, which stamped
//!   events inside one batch with inconsistent, proposal-order-dependent
//!   minutes.
//! * [`Event`] — typed pipeline events: evaluations, legality prunes,
//!   partition start/stop, run stop reasons and the serving request
//!   path. Events serialize to single-line JSON
//!   for flight recording.
//! * [`TraceSink`] — the pluggable emission channel: [`NullSink`] (drop
//!   everything), [`RingSink`] (bounded in-memory ring, for tests and
//!   post-hoc inspection), and [`JsonlSink`] (a JSONL flight recorder,
//!   driven by `s2fa_cli --trace out.jsonl`).
//! * [`TechniqueTable`] / [`TechniqueStats`] — per-technique counters
//!   (evaluations, improvements, best value) the DSE merge credits from
//!   every partition's replayed trajectory onto `DseOutcome`.
//! * [`par::parallel_map`] — the one host-parallel map: the DSE's probe
//!   and partitions and Blaze serving's batch execution run through it.
//!
//! ## Two time domains
//!
//! Events carrying a `minute` live on the *virtual* clock — the simulated
//! HLS wall-clock of the paper's experiments, fully deterministic given
//! the RNG seed. `prune` events have no minute: they are *host-side*
//! events recording real pre-screen activity, emitted by whichever host
//! thread evaluated the point, so their position among each other under
//! a multi-threaded run is OS-dependent even though their count is
//! deterministic. They appear only with a pre-screen on, so a default
//! run's flight record is the same bytes at any thread count. Host
//! *wall-time* is a third concern and deliberately lives outside this
//! crate, in `s2fa-obs` — events never carry host timestamps.

pub mod agg;
pub mod clock;
pub mod event;
pub mod json;
pub mod par;
pub mod sink;

pub use agg::{TechniqueStats, TechniqueTable};
pub use clock::BatchClock;
pub use event::Event;
pub use json::Json;
pub use sink::{JsonlSink, NullSink, RingSink, TraceSink};
