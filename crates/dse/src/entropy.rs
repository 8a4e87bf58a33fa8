//! The Shannon-entropy early-stopping criterion (paper §4.3.3, Eq. 2).
//!
//! After `i` iterations, let `D_i` be the explored results and `D_i^u` the
//! subset that improved on the incumbent ("uphill"). For each design factor
//! `t_j`, the experimental conditional probability `P(D_i^u | t_j)` is the
//! fraction of proposals mutating `t_j` that were uphill. The criterion
//! terminates the search when the entropy
//! `H(D_i) = -Σ_j P(D_i^u|t_j) · log P(D_i^u|t_j)` stabilizes:
//! `|H(D_i) − H(D_{i−1})| ≤ θ` for `N` consecutive iterations — i.e. when
//! the uncertainty of finding a better result by mutating any factor has
//! stopped changing.

use s2fa_tuner::{History, StoppingCriterion};

/// Entropy-based stopping (Eq. 2).
#[derive(Debug, Clone)]
pub struct EntropyStop {
    /// Termination threshold θ.
    theta: f64,
    /// Consecutive below-threshold iterations required (pulse rejection).
    n_consecutive: usize,
    /// Minimum evaluations before the criterion may fire.
    min_evals: usize,
    // running state
    mutated_count: Vec<u64>,
    uphill_count: Vec<u64>,
    processed: usize,
    last_entropy: f64,
    streak: usize,
}

impl EntropyStop {
    /// Creates the criterion with threshold `theta` over `n_params`
    /// factors, requiring `n_consecutive` stable iterations.
    pub fn new(n_params: usize, theta: f64, n_consecutive: usize) -> Self {
        EntropyStop {
            theta,
            n_consecutive,
            min_evals: 10,
            mutated_count: vec![0; n_params],
            uphill_count: vec![0; n_params],
            processed: 0,
            last_entropy: f64::NAN,
            streak: 0,
        }
    }

    /// Overrides the minimum evaluation count before stopping is allowed.
    pub fn with_min_evals(mut self, min_evals: usize) -> Self {
        self.min_evals = min_evals;
        self
    }

    /// Current entropy `H(D_i)`.
    pub fn entropy(&self) -> f64 {
        let mut h = 0.0;
        for (&m, &u) in self.mutated_count.iter().zip(&self.uphill_count) {
            if m == 0 {
                continue;
            }
            let p = u as f64 / m as f64;
            if p > 0.0 {
                h -= p * p.ln();
            }
        }
        h
    }
}

impl StoppingCriterion for EntropyStop {
    fn name(&self) -> &'static str {
        "shannon-entropy"
    }

    fn should_stop(&mut self, history: &History) -> bool {
        let evals = history.evaluations();
        for e in &evals[self.processed..] {
            for &j in &e.mutated_params {
                if j < self.mutated_count.len() {
                    self.mutated_count[j] += 1;
                    if e.improved {
                        self.uphill_count[j] += 1;
                    }
                }
            }
        }
        let new_points = evals.len() - self.processed;
        self.processed = evals.len();
        if new_points == 0 {
            return false;
        }

        let h = self.entropy();
        let stable = (h - self.last_entropy).abs() <= self.theta;
        self.last_entropy = h;
        if stable {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        // A partition whose every point fails synthesis carries no
        // information at all — H(D) is identically zero, so the criterion
        // fires as soon as the minimum sample is in.
        if history.best().is_none() {
            return self.processed >= 2 * self.min_evals;
        }
        self.processed >= self.min_evals && self.streak >= self.n_consecutive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_tuner::Measurement;

    fn record(h: &mut History, cfg: Vec<u32>, value: f64, mutated: Vec<usize>) {
        h.record(cfg, Measurement::new(value, 1.0), mutated, 0.0, 0, "test");
    }

    #[test]
    fn stops_when_entropy_stabilizes() {
        let mut c = EntropyStop::new(3, 0.05, 3).with_min_evals(5);
        let mut h = History::new();
        // improving phase: entropy moves
        record(&mut h, vec![0, 0, 0], 100.0, vec![]);
        record(&mut h, vec![1, 0, 0], 50.0, vec![0]);
        assert!(!c.should_stop(&h));
        record(&mut h, vec![1, 1, 0], 25.0, vec![1]);
        assert!(!c.should_stop(&h));
        // plateau: many non-improving mutations of the same factors
        let mut stopped = false;
        for i in 0..30 {
            record(&mut h, vec![2 + i, 0, 0], 30.0 + i as f64, vec![0, 1, 2]);
            if c.should_stop(&h) {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "criterion never fired on a long plateau");
    }

    #[test]
    fn does_not_stop_before_min_evals() {
        let mut c = EntropyStop::new(2, 10.0, 1).with_min_evals(50);
        let mut h = History::new();
        for i in 0..20 {
            record(&mut h, vec![i, 0], 10.0, vec![0]);
            assert!(!c.should_stop(&h));
        }
    }

    #[test]
    fn entropy_reflects_uphill_distribution() {
        let mut c = EntropyStop::new(2, 0.01, 99);
        let mut h = History::new();
        record(&mut h, vec![0, 0], 100.0, vec![]);
        // factor 0 mutations: 50% uphill → nonzero entropy term
        record(&mut h, vec![1, 0], 50.0, vec![0]);
        record(&mut h, vec![2, 0], 80.0, vec![0]);
        c.should_stop(&h);
        let e = c.entropy();
        assert!(e > 0.0);
        // p=0.5: term = -0.5 ln 0.5 ≈ 0.3466
        assert!((e - 0.3466).abs() < 0.01, "H = {e}");
    }

    #[test]
    fn pulse_does_not_terminate() {
        // stable, stable, big jump, stable... with n_consecutive=3 the
        // jump resets the streak.
        let mut c = EntropyStop::new(1, 0.001, 3).with_min_evals(0);
        let mut h = History::new();
        record(&mut h, vec![0], 100.0, vec![]);
        record(&mut h, vec![1], 90.0, vec![0]); // uphill p=1
        assert!(!c.should_stop(&h));
        record(&mut h, vec![2], 95.0, vec![0]); // p drops to 1/2 → entropy jump
        assert!(!c.should_stop(&h));
        record(&mut h, vec![3], 96.0, vec![0]); // p=1/3 → still moving
        assert!(!c.should_stop(&h));
    }
}
