//! The virtual batch clock.
//!
//! A tuning run charges every evaluation's virtual HLS minutes to a
//! shared clock; with `k`-wide parallel evaluation the clock advances per
//! *batch*, by the slowest member. The accounting rule this module owns:
//! a batch completes as one unit, so **every** event of a batch is
//! stamped with the same batch-completion minute. Stamping events with a
//! running prefix-max instead (the pre-[`BatchClock`] behaviour of
//! `TuningRun::run`) hands out minutes that depend on proposal order
//! within the batch — a spread of inconsistent timestamps for work that,
//! in the modelled machine, all lands at once.

/// A virtual wall-clock advanced batch-by-batch against a budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchClock {
    clock: f64,
    budget: f64,
}

impl BatchClock {
    /// A clock at minute zero with the given budget.
    pub fn new(budget_minutes: f64) -> Self {
        BatchClock {
            clock: 0.0,
            budget: budget_minutes,
        }
    }

    /// Current virtual minute.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The budget in minutes.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// True while a new batch may still start (the tuning loop condition).
    pub fn within_budget(&self) -> bool {
        self.clock < self.budget
    }

    /// Completes a batch: advances the clock by the *slowest* of the
    /// batch's per-evaluation minutes and returns the batch-completion
    /// minute — the stamp every event of the batch must carry. An empty
    /// batch advances the clock by nothing.
    pub fn complete_batch<I>(&mut self, minutes: I) -> f64
    where
        I: IntoIterator<Item = f64>,
    {
        let slowest = minutes.into_iter().fold(0.0f64, f64::max);
        self.clock += slowest;
        self.clock
    }

    /// Clamps the clock to the budget (the deadline-kill: the clock never
    /// reads past the budget) and returns the final reading.
    pub fn clamp_to_budget(&mut self) -> f64 {
        if self.clock > self.budget {
            self.clock = self.budget;
        }
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_by_the_slowest_member() {
        let mut c = BatchClock::new(100.0);
        let stamp = c.complete_batch([3.0, 7.0, 5.0]);
        assert_eq!(stamp, 7.0);
        assert_eq!(c.now(), 7.0);
        let stamp = c.complete_batch([2.0]);
        assert_eq!(stamp, 9.0);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut c = BatchClock::new(10.0);
        assert_eq!(c.complete_batch(std::iter::empty()), 0.0);
        assert!(c.within_budget());
    }

    #[test]
    fn overrun_and_clamp() {
        let mut c = BatchClock::new(10.0);
        c.complete_batch([8.0]);
        assert!(c.within_budget());
        c.complete_batch([5.0]);
        assert!(!c.within_budget());
        assert_eq!(c.now(), 13.0);
        assert_eq!(c.clamp_to_budget(), 10.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    fn exact_budget_is_not_an_overrun() {
        let mut c = BatchClock::new(10.0);
        c.complete_batch([10.0]);
        assert!(!c.within_budget());
        assert_eq!(c.now(), 10.0);
        assert_eq!(c.clamp_to_budget(), 10.0);
    }
}
