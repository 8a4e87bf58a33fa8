//! The objective-function interface.
//!
//! [`TuningRun`](crate::TuningRun) proposes whole batches of candidates
//! before it looks at any result (footnote 3's top-k-per-iteration
//! semantics), so the batch is the unit an objective measures.
//!
//! [`Objective`] captures that contract. `measure` evaluates one
//! configuration; `measure_batch` evaluates a slice and returns
//! measurements **in input order** — the driver replays its bookkeeping
//! (bandit rewards, trace events, the virtual clock) sequentially over
//! that vector, so an `Objective` may reorder the *work* freely as long as
//! it never reorders the *results*. Any `FnMut(&Config) -> Measurement`
//! closure is an `Objective` via the blanket impl, measuring serially.

use crate::history::Measurement;
use crate::param::Config;

/// Something that can measure design points ("run HLS on them").
pub trait Objective {
    /// Measures one configuration.
    fn measure(&mut self, config: &Config) -> Measurement;

    /// Measures a batch, returning measurements in input order.
    ///
    /// The default implementation measures serially; implementations may
    /// parallelize as long as `result[i]` corresponds to `configs[i]` and
    /// equals what `measure(&configs[i])` would have returned.
    fn measure_batch(&mut self, configs: &[Config]) -> Vec<Measurement> {
        configs.iter().map(|c| self.measure(c)).collect()
    }
}

impl<F: FnMut(&Config) -> Measurement> Objective for F {
    fn measure(&mut self, config: &Config) -> Measurement {
        self(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of(c: &Config) -> f64 {
        c.iter().map(|&v| v as f64).sum::<f64>() + 1.0
    }

    #[test]
    fn closures_are_objectives() {
        let mut calls = 0;
        let mut obj = |c: &Config| {
            calls += 1;
            Measurement::new(value_of(c), 1.0)
        };
        let configs = vec![vec![1, 2], vec![3, 4]];
        let ms = Objective::measure_batch(&mut obj, &configs);
        assert_eq!(calls, 2);
        assert_eq!(ms[0].value, 4.0);
        assert_eq!(ms[1].value, 8.0);
    }
}
