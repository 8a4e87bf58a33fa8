#![warn(missing_docs)]

//! # s2fa-dse — S2FA's parallel learning-based design space exploration
//!
//! This crate implements the paper's §4: the design-space identification of
//! Table 1 and the three DSE accelerations of §4.3 layered on top of the
//! OpenTuner substitute (`s2fa-tuner`):
//!
//! 1. **Design-space partition** ([`partition`]) — a regression decision
//!    tree (information gain, variance impurity, Eq. 1) built over probe
//!    samples, with split candidates biased toward the template (RDD
//!    operator) loop's factors; leaves become disjoint sub-spaces explored
//!    in parallel by a first-come-first-serve scheduler over 8 workers.
//! 2. **Seed generation** ([`DesignConfig::perf_seed`] /
//!    [`DesignConfig::area_seed`], re-exported from `s2fa-merlin`) — each
//!    partition starts from a performance-driven and an area-driven
//!    (conservative) seed clipped into its sub-space.
//! 3. **Early stopping** ([`entropy::EntropyStop`]) — the Shannon-entropy
//!    criterion of Eq. 2 over per-factor uphill probabilities.
//!
//! [`driver::run_dse`] runs the full S2FA flow; [`driver::vanilla_options`]
//! configures the Fig. 3 baseline (no partition, random seed, top-8
//! parallel evaluation, 4-hour time limit). All runs are deterministic.
//!
//! [`DesignConfig::perf_seed`]: s2fa_merlin::DesignConfig::perf_seed
//! [`DesignConfig::area_seed`]: s2fa_merlin::DesignConfig::area_seed

pub mod driver;
pub mod entropy;
pub mod partition;
pub mod space;

pub use driver::{
    run_dse, run_dse_profiled, run_dse_traced, vanilla_options, CacheStats, DseOptions, DseOutcome,
    PartitionRun, StoppingKind,
};
pub use entropy::EntropyStop;
pub use partition::DecisionTree;
pub use s2fa_engine::EvalEngine;
pub use space::DesignSpace;
