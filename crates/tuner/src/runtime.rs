//! The tuning driver with a virtual clock.
//!
//! Reproduces OpenTuner's run loop under the paper's timing regime: each
//! evaluation is an HLS run costing minutes of wall-clock, so the driver
//! charges every measurement's [`minutes`](crate::Measurement::minutes) to
//! a virtual clock. With `parallel_evals = k` the driver proposes `k`
//! candidates per iteration and advances the clock by the *slowest* of the
//! batch — footnote 3's "the OpenTuner ... uses the eight cores to evaluate
//! top-8 candidates at one iteration".
//!
//! Clock arithmetic is delegated to [`s2fa_trace::BatchClock`]: a batch
//! completes as one unit, so every [`Evaluation`](crate::history::Evaluation)
//! of a batch carries the same batch-completion minute. The run's
//! [`History`] is its only per-evaluation record — configuration,
//! measurement, minute, iteration and proposing technique — and the DSE
//! driver replays it into `s2fa_trace` events, convergence curves and
//! per-technique counters when it merges partitions.

use crate::bandit::AucBandit;
use crate::history::History;
use crate::objective::Objective;
use crate::param::{Config, SearchSpace};
use crate::stopping::{StopReason, StoppingCriterion};
use crate::technique::{default_portfolio, SearchTechnique};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa_trace::BatchClock;

/// Options controlling one tuning run.
#[derive(Debug, Clone)]
pub struct TuningOptions {
    /// Virtual wall-clock budget in minutes (the paper caps vanilla
    /// OpenTuner at 4 hours).
    pub budget_minutes: f64,
    /// Candidates evaluated concurrently per iteration.
    pub parallel_evals: usize,
    /// Configurations evaluated before any technique proposes (the DSE's
    /// generated seeds; vanilla uses one random seed).
    pub seeds: Vec<Config>,
    /// RNG seed — runs are fully deterministic given this.
    pub rng_seed: u64,
    /// Hard cap on evaluations (a safety net, not a paper knob).
    pub max_evaluations: u64,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            budget_minutes: 240.0,
            parallel_evals: 1,
            seeds: Vec::new(),
            rng_seed: 0xC0FFEE,
            max_evaluations: 100_000,
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Virtual minutes consumed, clamped to the budget.
    pub elapsed_minutes: f64,
    /// Evaluations of the final batch that were still in flight when the
    /// budget ran out. Their measurements are *harvested* — recorded into
    /// the history and eligible to become its best — but their batch
    /// minute lies past the budget. See the deadline-kill note in
    /// [`TuningRun::run`].
    pub killed_evals: u64,
    /// Why the run ended.
    pub reason: StopReason,
    /// Every evaluation, in order: the run's trajectory.
    pub history: History,
}

impl TuningOutcome {
    /// Best objective value, `+inf` if nothing was feasible.
    pub fn best_value(&self) -> f64 {
        self.history.best().map_or(f64::INFINITY, |(_, v)| v)
    }
}

/// A configured tuning run over one search (sub-)space.
pub struct TuningRun {
    space: SearchSpace,
    options: TuningOptions,
    techniques: Vec<Box<dyn SearchTechnique + Send>>,
}

impl TuningRun {
    /// Creates a run with the paper's default technique portfolio.
    pub fn new(space: SearchSpace, options: TuningOptions) -> Self {
        TuningRun {
            space,
            options,
            techniques: default_portfolio(),
        }
    }

    /// Runs to completion.
    ///
    /// `objective` evaluates configurations ("runs HLS"); each iteration
    /// is handed to [`Objective::measure_batch`] whole. `stop` is the
    /// early-stopping criterion consulted once per iteration. The run's
    /// decisions depend only on the *order* of batch results, which every
    /// `Objective` must preserve.
    ///
    /// ## Deadline-kill semantics
    ///
    /// The final batch may straddle the budget: its evaluations were in
    /// flight when the deadline hit. Their measurements are still
    /// harvested — the HLS results existed by the time the driver noticed
    /// the clock, so they are recorded into the history and may become its
    /// best — with their raw batch minute, past the budget. The outcome's
    /// clock is clamped to the budget, and [`TuningOutcome::killed_evals`]
    /// reports how many evaluations overran it. `truncate_to_budget` in
    /// `s2fa-dse` mirrors exactly these semantics when it replays a
    /// trajectory under a shorter budget.
    pub fn run(
        mut self,
        objective: &mut dyn Objective,
        stop: &mut dyn StoppingCriterion,
    ) -> TuningOutcome {
        let mut rng = SmallRng::seed_from_u64(self.options.rng_seed);
        let mut bandit = AucBandit::new(self.techniques.len());
        let mut history = History::new();
        let mut clock = BatchClock::new(self.options.budget_minutes);
        let mut iteration = 0u64;
        let mut reason = StopReason::TimeLimit;

        // Seed evaluations: one batch — the clock advances by the slowest
        // member and every seed carries the batch-completion minute.
        if !self.options.seeds.is_empty() {
            let mut seeds = std::mem::take(&mut self.options.seeds);
            for seed in seeds.iter_mut() {
                self.space.clamp(seed);
            }
            let measurements = objective.measure_batch(&seeds);
            let minute = clock.complete_batch(measurements.iter().map(|m| m.minutes));
            for (seed, m) in seeds.into_iter().zip(measurements) {
                history.record(seed, m, vec![], minute, iteration, "seed");
            }
            iteration += 1;
        }

        while clock.within_budget() {
            if history.len() as u64 >= self.options.max_evaluations {
                reason = StopReason::IterationLimit;
                break;
            }
            if stop.should_stop(&history) {
                reason = StopReason::Converged;
                break;
            }
            // Phase 1: propose the whole batch from the *same* history
            // snapshot — parallel workers cannot see each other's pending
            // results (footnote 3: evaluating top-k per iteration "is not
            // scalable in terms of the efficiency").
            let mut batch: Vec<(usize, Config, Vec<usize>)> = Vec::new();
            let mut batch_seen: Vec<Config> = Vec::new();
            for _ in 0..self.options.parallel_evals.max(1) {
                if (history.len() + batch.len()) as u64 >= self.options.max_evaluations {
                    break;
                }
                let arm = bandit.select();
                let mut cfg = self.techniques[arm].propose(&self.space, &history, &mut rng);
                // Dedupe against history and the in-flight batch: don't
                // waste an HLS run on a repeat.
                let mut tries = 0;
                while (history.seen(&cfg) || batch_seen.contains(&cfg)) && tries < 16 {
                    self.space.mutate_one(&mut cfg, &mut rng);
                    tries += 1;
                }
                if history.seen(&cfg) || batch_seen.contains(&cfg) {
                    // Space (or partition) is effectively exhausted around
                    // the incumbent — draw fresh.
                    cfg = self.space.random(&mut rng);
                    if history.seen(&cfg) || batch_seen.contains(&cfg) {
                        // The slot is abandoned; a batch that loses every
                        // slot this way ends the run as `SpaceExhausted`.
                        continue;
                    }
                }
                let mutated = mutated_params(&history, &cfg);
                batch_seen.push(cfg.clone());
                batch.push((arm, cfg, mutated));
            }
            // The cap leaves room for at least one slot, so only
            // abandoned slots can empty a batch.
            if batch.is_empty() {
                reason = StopReason::SpaceExhausted;
                break;
            }
            // Phase 2: measure the whole batch, and only then feed
            // results back, in proposal order. The batch completes as one
            // unit: one clock advance, one shared minute.
            let configs: Vec<Config> = batch.iter().map(|(_, c, _)| c.clone()).collect();
            let measurements = objective.measure_batch(&configs);
            let minute = clock.complete_batch(measurements.iter().map(|m| m.minutes));
            for ((arm, cfg, mutated), m) in batch.into_iter().zip(measurements) {
                self.techniques[arm].feedback(&cfg, &m);
                let technique = self.techniques[arm].name();
                let improved = history.record(cfg, m, mutated, minute, iteration, technique);
                bandit.reward(arm, improved);
            }
            iteration += 1;
        }

        // Deadline kill (see the method docs): count the final batch's
        // overrunning evaluations, then clamp the clock to the budget — it
        // never reads past it.
        let killed_evals = history
            .evaluations()
            .iter()
            .filter(|e| e.minute > self.options.budget_minutes)
            .count() as u64;
        TuningOutcome {
            elapsed_minutes: clock.clamp_to_budget(),
            killed_evals,
            reason,
            history,
        }
    }
}

/// Factors on which `cfg` differs from the incumbent best (attribution for
/// the entropy stopping criterion).
fn mutated_params(history: &History, cfg: &Config) -> Vec<usize> {
    match history.best() {
        Some((best, _)) => cfg
            .iter()
            .zip(best)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Measurement;
    use crate::param::{ParamDef, ParamKind};
    use crate::stopping::{NoImprovement, TimeLimitOnly};

    fn space() -> SearchSpace {
        SearchSpace::new(vec![
            ParamDef::new("a", ParamKind::IntRange { lo: 0, hi: 31 }),
            ParamDef::new("b", ParamKind::IntRange { lo: 0, hi: 31 }),
        ])
    }

    fn objective(c: &Config) -> Measurement {
        let v = (c[0] as f64 - 20.0).powi(2) + (c[1] as f64 - 3.0).powi(2) + 1.0;
        Measurement::new(v, 5.0)
    }

    #[test]
    fn finds_good_points_and_respects_budget() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 200.0,
                parallel_evals: 1,
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut TimeLimitOnly);
        assert!(out.best_value() < 20.0, "best = {}", out.best_value());
        assert!(out.elapsed_minutes >= 200.0);
        assert_eq!(out.reason, StopReason::TimeLimit);
        // 5 minutes per eval, sequential → ~40 evaluations
        assert!((38..=42).contains(&out.history.len()));
    }

    #[test]
    fn parallel_evals_amortize_the_clock() {
        let seq = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 100.0,
                parallel_evals: 1,
                ..TuningOptions::default()
            },
        )
        .run(&mut objective, &mut TimeLimitOnly);
        let par = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 100.0,
                parallel_evals: 8,
                ..TuningOptions::default()
            },
        )
        .run(&mut objective, &mut TimeLimitOnly);
        assert!(
            par.history.len() >= seq.history.len() * 6,
            "8-wide should evaluate ~8x the points: {} vs {}",
            par.history.len(),
            seq.history.len()
        );
    }

    #[test]
    fn seeds_are_evaluated_first() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 30.0,
                seeds: vec![vec![20, 3], vec![0, 0]],
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut TimeLimitOnly);
        let evals = out.history.evaluations();
        assert_eq!(evals[0].technique, "seed");
        assert_eq!(evals[1].technique, "seed");
        // the good seed is optimal; nothing beats value 1.0
        assert!((out.best_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn early_stopping_fires() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 10_000.0,
                seeds: vec![vec![20, 3]],
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut NoImprovement::new(5));
        assert_eq!(out.reason, StopReason::Converged);
        assert!(out.elapsed_minutes < 10_000.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            TuningRun::new(
                space(),
                TuningOptions {
                    budget_minutes: 100.0,
                    rng_seed: 99,
                    ..TuningOptions::default()
                },
            )
            .run(&mut objective, &mut TimeLimitOnly)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.best_value(), b.best_value());
        // every field of every evaluation: config, measurement, minute,
        // iteration, technique, `improved`, `mutated_params`
        assert_eq!(a.history.evaluations(), b.history.evaluations());
    }

    #[test]
    fn no_repeat_evaluations() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 400.0,
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut TimeLimitOnly);
        let mut seen = std::collections::HashSet::new();
        for e in out.history.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn tiny_space_exhausts_and_converges() {
        let s = SearchSpace::new(vec![ParamDef::new("x", ParamKind::Enum { n: 3 })]);
        let run = TuningRun::new(
            s,
            TuningOptions {
                budget_minutes: 1_000_000.0,
                max_evaluations: 1000,
                ..TuningOptions::default()
            },
        );
        let out = run.run(
            &mut |c: &Config| Measurement::new(c[0] as f64 + 1.0, 1.0),
            &mut TimeLimitOnly,
        );
        assert!(
            out.history.len() <= 5,
            "exhausted after ~3: {}",
            out.history.len()
        );
        assert_eq!(out.best_value(), 1.0);
        // the run must report *why* it ended: the whole space was
        // evaluated dry, well before the time/iteration limits.
        assert_eq!(out.reason, StopReason::SpaceExhausted);
    }

    #[test]
    fn evaluation_cap_ends_the_run_as_iteration_limit() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: f64::INFINITY,
                max_evaluations: 10,
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut TimeLimitOnly);
        assert_eq!(out.history.len(), 10);
        assert_eq!(out.reason, StopReason::IterationLimit);
    }

    // --- trajectory integrity -------------------------------------------

    /// Per-eval minutes that differ within a batch: evaluation `i` of a
    /// batch takes `3 + (i % 5)` minutes, so a prefix-max stamping would
    /// hand out several distinct minutes inside one iteration.
    fn jagged_objective() -> impl FnMut(&Config) -> Measurement {
        let mut i = 0usize;
        move |c: &Config| {
            i += 1;
            let v = (c[0] as f64 - 20.0).powi(2) + (c[1] as f64 - 3.0).powi(2) + 1.0;
            Measurement::new(v, 3.0 + (i % 5) as f64)
        }
    }

    #[test]
    fn all_events_of_a_batch_share_the_batch_completion_minute() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 150.0,
                parallel_evals: 8,
                seeds: vec![vec![20, 3], vec![0, 0], vec![5, 5]],
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut jagged_objective(), &mut TimeLimitOnly);
        assert!(out.history.len() > 16, "need several batches");
        let mut by_iter: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for e in out.history.evaluations() {
            by_iter.entry(e.iteration).or_default().push(e.minute);
        }
        for (iter, minutes) in &by_iter {
            assert!(
                minutes.iter().all(|&m| m == minutes[0]),
                "iteration {iter} has spread minutes {minutes:?}"
            );
        }
    }

    #[test]
    fn trace_minutes_are_monotone_non_decreasing() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 150.0,
                parallel_evals: 4,
                seeds: vec![vec![20, 3], vec![0, 0]],
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut jagged_objective(), &mut TimeLimitOnly);
        for w in out.history.evaluations().windows(2) {
            assert!(
                w[1].minute >= w[0].minute,
                "minutes went backwards: {} after {}",
                w[1].minute,
                w[0].minute
            );
        }
    }

    #[test]
    fn killed_evals_are_recorded_but_clamped() {
        // 7-minute evaluations against a 10-minute budget: the second
        // batch is in flight at the deadline (raw completion minute 14).
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 10.0,
                parallel_evals: 1,
                ..TuningOptions::default()
            },
        );
        let out = run.run(
            &mut |c: &Config| Measurement::new(objective(c).value, 7.0),
            &mut TimeLimitOnly,
        );
        assert_eq!(out.killed_evals, 1, "second batch overran the deadline");
        // harvested: the measurement is in the history and may be best,
        // stamped with its raw batch minute for readers to clamp
        assert_eq!(out.history.len(), 2);
        assert_eq!(out.history.evaluations()[1].minute, 14.0);
        // but the clock never reads past the budget
        assert_eq!(out.elapsed_minutes, 10.0);
        // a batch finishing exactly at the budget is not killed
        let exact = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 10.0,
                parallel_evals: 1,
                ..TuningOptions::default()
            },
        )
        .run(
            &mut |c: &Config| Measurement::new(objective(c).value, 5.0),
            &mut TimeLimitOnly,
        );
        assert_eq!(exact.killed_evals, 0);
        assert_eq!(exact.history.len(), 2);
    }

    #[test]
    fn technique_stats_account_for_every_evaluation() {
        let run = TuningRun::new(
            space(),
            TuningOptions {
                budget_minutes: 100.0,
                seeds: vec![vec![20, 3], vec![0, 0]],
                ..TuningOptions::default()
            },
        );
        let out = run.run(&mut objective, &mut TimeLimitOnly);
        let mut table = s2fa_trace::TechniqueTable::new();
        for e in out.history.evaluations() {
            table.record(e.technique, e.measurement.value, e.improved);
        }
        let rows = table.into_rows();
        let counted: u64 = rows.iter().map(|t| t.evals).sum();
        assert_eq!(counted, out.history.len() as u64);
        let seed_row = rows
            .iter()
            .find(|t| t.technique == "seed")
            .expect("seed row present");
        assert_eq!(seed_row.evals, 2);
        assert_eq!(seed_row.best_value, 1.0);
        // every non-seed point names a technique of the portfolio
        let names: Vec<&str> = default_portfolio().iter().map(|t| t.name()).collect();
        for e in &out.history.evaluations()[2..] {
            assert!(names.contains(&e.technique), "{}", e.technique);
        }
        // rows are sorted by name
        for w in rows.windows(2) {
            assert!(w[0].technique < w[1].technique);
        }
    }
}
