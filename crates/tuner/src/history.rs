//! Evaluation history shared by techniques, the bandit, and stopping
//! criteria.

use crate::param::Config;
use std::collections::HashSet;

/// Result of evaluating one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Objective value (lower is better; `+inf` = infeasible design).
    pub value: f64,
    /// Evaluation cost in virtual minutes (the HLS run time).
    pub minutes: f64,
}

impl Measurement {
    /// A feasible measurement.
    pub fn new(value: f64, minutes: f64) -> Self {
        Measurement { value, minutes }
    }

    /// An infeasible design (objective `+inf`).
    pub fn infeasible(minutes: f64) -> Self {
        Measurement {
            value: f64::INFINITY,
            minutes,
        }
    }

    /// True if the design synthesized.
    pub fn is_feasible(&self) -> bool {
        self.value.is_finite()
    }
}

/// One evaluated point: the run's only record of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The configuration evaluated.
    pub config: Config,
    /// Its measurement.
    pub measurement: Measurement,
    /// Parameters that differed from the incumbent best when proposed
    /// (used by the entropy stopping criterion to attribute uphill moves).
    pub mutated_params: Vec<usize>,
    /// Whether this evaluation improved on the incumbent best.
    pub improved: bool,
    /// Virtual minute the evaluation's *batch* completed, as the clock
    /// read it: every evaluation of one batch carries the same minute, and
    /// the final batch's may lie past the budget (a deadline kill), so
    /// readers clamp it to whatever budget they replay.
    pub minute: f64,
    /// Iteration (batch) index.
    pub iteration: u64,
    /// Technique that proposed the point (`"seed"` for seeds).
    pub technique: &'static str,
}

/// Append-only history of a tuning run.
#[derive(Debug, Clone, Default)]
pub struct History {
    evals: Vec<Evaluation>,
    seen: HashSet<Config>,
    best: Option<(Config, f64)>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an evaluation proposed by `technique` whose batch
    /// `iteration` completed at `minute`; returns `true` if it is a new
    /// best.
    pub fn record(
        &mut self,
        config: Config,
        measurement: Measurement,
        mutated_params: Vec<usize>,
        minute: f64,
        iteration: u64,
        technique: &'static str,
    ) -> bool {
        let improved = match &self.best {
            None => measurement.is_feasible(),
            Some((_, b)) => measurement.value < *b,
        };
        if improved {
            self.best = Some((config.clone(), measurement.value));
        }
        self.seen.insert(config.clone());
        self.evals.push(Evaluation {
            config,
            measurement,
            mutated_params,
            improved,
            minute,
            iteration,
            technique,
        });
        improved
    }

    /// True if the configuration was already evaluated.
    pub fn seen(&self, config: &Config) -> bool {
        self.seen.contains(config)
    }

    /// The incumbent best `(config, value)`.
    pub fn best(&self) -> Option<(&Config, f64)> {
        self.best.as_ref().map(|(c, v)| (c, *v))
    }

    /// All evaluations, in order.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evals
    }

    /// Number of evaluations.
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// True if nothing was evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// The feasible evaluations only.
    pub fn feasible(&self) -> impl Iterator<Item = &Evaluation> {
        self.evals.iter().filter(|e| e.measurement.is_feasible())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(h: &mut History, config: Config, m: Measurement, mutated: Vec<usize>) -> bool {
        h.record(config, m, mutated, 0.0, 0, "test")
    }

    #[test]
    fn best_tracking() {
        let mut h = History::new();
        assert!(record(&mut h, vec![0], Measurement::new(10.0, 1.0), vec![]));
        assert!(!record(
            &mut h,
            vec![1],
            Measurement::new(20.0, 1.0),
            vec![0]
        ));
        assert!(record(&mut h, vec![2], Measurement::new(5.0, 1.0), vec![0]));
        assert_eq!(h.best().unwrap().1, 5.0);
        assert_eq!(h.len(), 3);
        assert!(h.seen(&vec![1]));
        assert!(!h.seen(&vec![9]));
    }

    #[test]
    fn infeasible_never_becomes_best() {
        let mut h = History::new();
        assert!(!record(
            &mut h,
            vec![0],
            Measurement::infeasible(3.0),
            vec![]
        ));
        assert!(h.best().is_none());
        assert!(record(&mut h, vec![1], Measurement::new(8.0, 1.0), vec![]));
        assert!(!record(
            &mut h,
            vec![2],
            Measurement::infeasible(3.0),
            vec![]
        ));
        assert_eq!(h.best().unwrap().1, 8.0);
        assert_eq!(h.feasible().count(), 1);
    }
}
