#![warn(missing_docs)]

//! # s2fa-tuner — the OpenTuner substitute
//!
//! S2FA builds its DSE "on the top of OpenTuner, an open-source framework
//! for building domain-specific program tuners. The OpenTuner runtime
//! allows multiple reinforcement learning algorithms to work simultaneously
//! ... and adopts a multi-armed bandit algorithm to judge the effectiveness
//! of each search technique and allocate design points according to the
//! judgment" (§4.2).
//!
//! This crate reimplements that machinery:
//!
//! * [`SearchSpace`] / [`Config`] — an index-encoded parameter space with
//!   per-parameter bounds (sub-spaces implement the DSE's partitions);
//! * the paper's four techniques — [`GreedyMutation`],
//!   [`DifferentialEvolution`], [`ParticleSwarm`], [`SimulatedAnnealing`];
//! * [`AucBandit`] — the sliding-window area-under-curve multi-armed
//!   bandit that arbitrates among techniques;
//! * [`TuningRun`] — the driver with a *virtual clock*: every evaluation
//!   charges its HLS minutes, and with `parallel_evals = k` the run batches
//!   `k` candidates per iteration, advancing the clock by the slowest
//!   (the footnote-3 behaviour of vanilla OpenTuner on 8 cores);
//! * pluggable [`StoppingCriterion`]s (time limit, no-improvement window;
//!   the Shannon-entropy criterion lives in `s2fa-dse`).
//!
//! Everything is deterministic given `TuningOptions::rng_seed`.

pub mod bandit;
pub mod history;
pub mod objective;
pub mod param;
pub mod runtime;
pub mod stopping;
pub mod technique;

pub use bandit::AucBandit;
pub use history::{Evaluation, History, Measurement};
pub use objective::Objective;
pub use param::{Config, ParamDef, ParamKind, SearchSpace};
pub use runtime::{TuningOptions, TuningOutcome, TuningRun};
pub use stopping::{NoImprovement, StopReason, StoppingCriterion, TimeLimitOnly};
pub use technique::{
    DifferentialEvolution, GreedyMutation, ParticleSwarm, RandomSearch, SearchTechnique,
    SimulatedAnnealing,
};
