//! Stopping criteria.
//!
//! Vanilla OpenTuner "does not have a systematic stopping criteria but only
//! adopts the limitation of either execution time or searched point count"
//! (§4.3.3). This module defines the criterion interface plus the two
//! baselines the paper compares against; S2FA's Shannon-entropy criterion
//! is implemented in `s2fa-dse`.

use crate::history::History;

/// Why a tuning run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The virtual time budget ran out.
    TimeLimit,
    /// The stopping criterion fired before the time limit.
    Converged,
    /// The iteration cap was reached.
    IterationLimit,
    /// Proposal could not find any unseen configuration for a whole
    /// batch: the (sub-)space has been evaluated dry.
    SpaceExhausted,
}

impl StopReason {
    /// The variant's name, as trace events and reports print it.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::TimeLimit => "TimeLimit",
            StopReason::Converged => "Converged",
            StopReason::IterationLimit => "IterationLimit",
            StopReason::SpaceExhausted => "SpaceExhausted",
        }
    }
}

/// A pluggable early-stopping criterion, consulted once per iteration.
pub trait StoppingCriterion {
    /// Name for traces.
    fn name(&self) -> &'static str;

    /// Returns `true` to terminate the run now.
    fn should_stop(&mut self, history: &History) -> bool;
}

/// The vanilla behaviour: never stop early (time/iteration limits only).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeLimitOnly;

impl StoppingCriterion for TimeLimitOnly {
    fn name(&self) -> &'static str {
        "time-limit-only"
    }

    fn should_stop(&mut self, _history: &History) -> bool {
        false
    }
}

/// The "trivial criteria" of §5.2: stop after `k` consecutive iterations
/// without a new best result.
#[derive(Debug, Clone, Copy)]
pub struct NoImprovement {
    k: usize,
    streak: usize,
    last_len: usize,
}

impl NoImprovement {
    /// Stops after `k` consecutive non-improving evaluations (the paper
    /// evaluates `k = 10`).
    pub fn new(k: usize) -> Self {
        NoImprovement {
            k,
            streak: 0,
            last_len: 0,
        }
    }
}

impl StoppingCriterion for NoImprovement {
    fn name(&self) -> &'static str {
        "no-improvement"
    }

    fn should_stop(&mut self, history: &History) -> bool {
        let evals = history.evaluations();
        for e in &evals[self.last_len..] {
            if e.improved {
                self.streak = 0;
            } else {
                self.streak += 1;
            }
        }
        self.last_len = evals.len();
        // Require at least one feasible result before declaring
        // convergence, otherwise nothing was ever learned.
        history.best().is_some() && self.streak >= self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Measurement;

    #[test]
    fn stop_reason_names_match_their_debug_form() {
        for r in [
            StopReason::TimeLimit,
            StopReason::Converged,
            StopReason::IterationLimit,
            StopReason::SpaceExhausted,
        ] {
            assert_eq!(r.as_str(), format!("{r:?}"));
        }
    }

    #[test]
    fn time_limit_only_never_stops() {
        let mut c = TimeLimitOnly;
        let h = History::new();
        assert!(!c.should_stop(&h));
    }

    #[test]
    fn no_improvement_counts_streaks() {
        let mut c = NoImprovement::new(3);
        let mut h = History::new();
        h.record(vec![0], Measurement::new(10.0, 1.0), vec![], 0.0, 0, "test");
        assert!(!c.should_stop(&h));
        h.record(vec![1], Measurement::new(20.0, 1.0), vec![], 0.0, 0, "test");
        h.record(vec![2], Measurement::new(21.0, 1.0), vec![], 0.0, 0, "test");
        assert!(!c.should_stop(&h)); // streak = 2
        h.record(vec![3], Measurement::new(22.0, 1.0), vec![], 0.0, 0, "test");
        assert!(c.should_stop(&h)); // streak = 3
    }

    #[test]
    fn improvement_resets_streak() {
        let mut c = NoImprovement::new(2);
        let mut h = History::new();
        h.record(vec![0], Measurement::new(10.0, 1.0), vec![], 0.0, 0, "test");
        h.record(vec![1], Measurement::new(11.0, 1.0), vec![], 0.0, 0, "test");
        h.record(vec![2], Measurement::new(5.0, 1.0), vec![], 0.0, 0, "test"); // improves
        assert!(!c.should_stop(&h));
        h.record(vec![3], Measurement::new(9.0, 1.0), vec![], 0.0, 0, "test");
        h.record(vec![4], Measurement::new(9.5, 1.0), vec![], 0.0, 0, "test");
        assert!(c.should_stop(&h));
    }

    #[test]
    fn needs_a_feasible_best() {
        let mut c = NoImprovement::new(2);
        let mut h = History::new();
        h.record(
            vec![0],
            Measurement::infeasible(1.0),
            vec![],
            0.0,
            0,
            "test",
        );
        h.record(
            vec![1],
            Measurement::infeasible(1.0),
            vec![],
            0.0,
            0,
            "test",
        );
        h.record(
            vec![2],
            Measurement::infeasible(1.0),
            vec![],
            0.0,
            0,
            "test",
        );
        assert!(!c.should_stop(&h));
    }
}
