#![warn(missing_docs)]

//! # s2fa-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) from
//! this reproduction:
//!
//! * `table1` — the identified design space per kernel (Table 1);
//! * `table2` — resource utilization and clock frequency of the best
//!   DSE designs (Table 2);
//! * `fig3`  — DSE convergence, S2FA vs vanilla OpenTuner vs the trivial
//!   stopping criterion (Fig. 3);
//! * `fig4`  — speedups of manual and S2FA-generated designs over the
//!   single-threaded JVM (Fig. 4) and the headline numbers of §5/§7.
//!
//! The library half holds shared measurement utilities (JVM baseline
//! timing, speedup math, ASCII rendering) so the binaries stay thin.

pub mod baseline;
pub mod chart;
pub mod results;

pub use baseline::{fpga_time_ms, jvm_ns_per_task, speedup, BASELINE_TASKS, SAMPLE_TASKS};
