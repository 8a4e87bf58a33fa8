//! Set-up timing, the closed-loop call driver, host-speed reference
//! samples, and span folding shared by every workload.

use crate::metrics::Measured;
use crate::stats;
use s2fa_obs::SpanRecord;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A run stops adding calls after this long even if it has not reached
/// `min_calls`, so a badly regressed build still ends within the driver's
/// per-run limit (the missing percentile then fails the run).
const HARD_CAP_S: f64 = 120.0;

/// How one run of a workload is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// Minimum wall time of the timed region.
    pub seconds: f64,
    /// Minimum calls in the timed region (enough for the p90).
    pub min_calls: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`: serve calls carry one one-record request per tenant.
    pub smoke: bool,
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time between two samples of the reference computation.
const REFERENCE_EVERY: Duration = Duration::from_millis(50);

/// Samples of a fixed computation that belongs to the benchmark, not to
/// the program, timed beside each set-up and between calls. The machine
/// this runs on is shared: its speed drifts by ±20% over minutes, and the
/// medians of these samples track that drift (see `README.md`).
#[derive(Debug, Default)]
pub struct Reference {
    setup_ms: Vec<f64>,
    loop_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    /// Times one pass of the reference computation after an untimed one,
    /// so the cache state the program left behind does not count.
    fn time() -> f64 {
        black_box(reference_work(black_box(160)));
        let t0 = Instant::now();
        black_box(reference_work(black_box(160)));
        ms_since(t0)
    }

    fn sample_loop(&mut self) {
        self.loop_ms.push(Self::time());
        self.last = Some(Instant::now());
    }

    /// Median µs of the samples beside the set-ups and of those through
    /// the timed region.
    pub fn medians_us(&self) -> (f64, f64) {
        let median_us = |ms: &[f64]| {
            stats::median(&stats::sorted(ms)).expect("every phase takes a sample") * 1e3
        };
        (median_us(&self.setup_ms), median_us(&self.loop_ms))
    }
}

/// The reference computation: a Smith-Waterman score over two `n`-symbol
/// strings, a hash-map tally and string formatting — the array, hashing
/// and allocation mix the program spends its time in.
fn reference_work(n: u32) -> u64 {
    let symbol = |i: u32, k: u32| (i.wrapping_mul(k) >> 13) % 4;
    let mut prev = vec![0i32; n as usize + 1];
    let mut cur = prev.clone();
    let mut best = 0;
    for i in 0..n {
        for j in 0..n as usize {
            let s = if symbol(i, 2_654_435_761) == symbol(j as u32, 40_503) {
                2
            } else {
                -1
            };
            cur[j + 1] = 0.max(prev[j] + s).max(prev[j + 1] - 1).max(cur[j] - 1);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let mut tally = std::collections::HashMap::new();
    for i in 0..u64::from(n) * 12 {
        *tally
            .entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 997)
            .or_insert(0u64) += i;
    }
    let words: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
    best as u64 + tally.values().sum::<u64>() + words.iter().map(|w| w.len() as u64).sum::<u64>()
}

/// Runs the workload's set-up `plan.setups` times, records the median
/// wall time as `setup_s`, and returns the last set-up's state.
pub fn setup<T>(
    plan: &Plan,
    reference: &mut Reference,
    m: &mut Measured,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut secs = Vec::new();
    let mut state = None;
    for _ in 0..plan.setups.max(1) {
        drop(state.take());
        reference.setup_ms.push(Reference::time());
        let t0 = Instant::now();
        state = Some(f()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    m.set(
        "setup_s",
        stats::median(&stats::sorted(&secs)).expect("at least one set-up"),
    );
    Ok(state.expect("at least one set-up"))
}

/// Samples kept per timed region. The cap keeps the benchmark's own
/// memory, which `peak_rss_mb` includes, independent of how many calls a
/// run makes.
const MAX_SAMPLES: usize = 1 << 14;

/// A uniform systematic sample of a run's values in bounded memory: once
/// full, every other sample is dropped and only every `stride`-th value
/// is kept from then on.
#[derive(Debug)]
struct Samples {
    kept: Vec<f64>,
    stride: usize,
    seen: usize,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            kept: Vec::with_capacity(MAX_SAMPLES),
            stride: 1,
            seen: 0,
        }
    }

    fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == MAX_SAMPLES {
                let mut index = 0;
                self.kept.retain(|_| {
                    index += 1;
                    index % 2 == 1
                });
                self.stride *= 2;
            }
            // `seen` is a multiple of the doubled stride too: the buffer
            // filled on an even count of kept samples.
            self.kept.push(v);
        }
        self.seen += 1;
    }
}

/// Call times of one timed region: untraced, each call's ms; traced, each
/// input's traced-over-untraced time ratio.
#[derive(Debug)]
pub struct Calls {
    samples: Samples,
    count: u64,
    wall_s: f64,
}

/// The closed-loop driver: one caller issues each call only after the
/// previous one returned. `call(i, traced)` runs input `i` and returns
/// the call's duration in ms. A traced run runs every input twice, traced
/// and untraced in alternating order, so the pair measures the tracing
/// overhead on identical work. The loop stops at a round boundary once
/// `plan.seconds` passed and both `plan.min_calls` and the workload's
/// `checked` inputs were run.
pub fn timed_loop(
    plan: &Plan,
    reference: &mut Reference,
    round: usize,
    checked: usize,
    mut call: impl FnMut(usize, bool) -> f64,
) -> Calls {
    let mut calls = Calls {
        samples: Samples::new(),
        count: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let min_calls = plan.min_calls.max(checked);
    let mut i = 0;
    reference.sample_loop();
    loop {
        if i % round == 0 {
            let t = start.elapsed().as_secs_f64();
            if (i >= min_calls && t >= plan.seconds) || t >= HARD_CAP_S {
                break;
            }
        }
        if reference
            .last
            .is_none_or(|t| t.elapsed() >= REFERENCE_EVERY)
        {
            reference.sample_loop();
        }
        if plan.trace {
            let first = i % 2 == 0;
            let a = call(i, first);
            let b = call(i, !first);
            let (traced, untraced) = if first { (a, b) } else { (b, a) };
            calls.samples.push(traced / untraced);
            calls.count += 2;
        } else {
            calls.samples.push(call(i, false));
            calls.count += 1;
        }
        i += 1;
    }
    calls.wall_s = start.elapsed().as_secs_f64();
    calls
}

impl Calls {
    /// Calls made.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records the call metrics: untraced, the call-time median and p90
    /// and `items` per second of the timed region; traced, the tracing
    /// overhead as the median traced-over-untraced ratio, minus one.
    pub fn record(&self, plan: &Plan, items: f64, m: &mut Measured) -> Result<(), String> {
        m.attempted = self.count;
        let sorted = stats::sorted(&self.samples.kept);
        let p50 = stats::median(&sorted).ok_or("no calls")?;
        if plan.trace {
            m.set("bench.trace_overhead", p50 - 1.0);
            return Ok(());
        }
        let p90 = stats::percentile(&sorted, 90.0)
            .ok_or_else(|| format!("{} calls are too few for a p90", sorted.len()))?;
        m.set("call_ms_p50", p50);
        m.set("call_ms_p90", p90);
        m.set("throughput_per_s", items / self.wall_s);
        Ok(())
    }
}

/// Per-layer times summed over traced calls, reported as means per call.
#[derive(Debug)]
pub struct StageTotals {
    ms: BTreeMap<&'static str, f64>,
    calls: usize,
    wall_ms: f64,
    attributed_ms: f64,
}

impl StageTotals {
    /// Totals over `names`, each reported even if no call touched it.
    pub fn new(names: &[&'static str]) -> StageTotals {
        StageTotals {
            ms: names.iter().map(|n| (*n, 0.0)).collect(),
            calls: 0,
            wall_ms: 0.0,
            attributed_ms: 0.0,
        }
    }

    /// Adds `ms` to layer `name`.
    pub fn add(&mut self, name: &'static str, ms: f64) {
        *self
            .ms
            .get_mut(name)
            .expect("layer declared in StageTotals::new") += ms;
    }

    /// Closes one call of `wall_ms`, `attributed_ms` of which lay inside
    /// named top-level stages.
    pub fn end_call(&mut self, wall_ms: f64, attributed_ms: f64) {
        self.calls += 1;
        self.wall_ms += wall_ms;
        self.attributed_ms += attributed_ms;
    }

    /// Folds one traced call's spans: each span named in `map` adds its
    /// duration to the mapped layer (when `under` is given, only spans
    /// whose parent is a root span of that name count); the call's wall
    /// time is the root span named `root`, and its direct children are
    /// the attributed stages.
    pub fn fold(
        &mut self,
        spans: &[SpanRecord],
        root: &str,
        map: &[(&str, Option<&str>, &'static str)],
    ) {
        let ms = |s: &SpanRecord| s.duration_ns() as f64 / 1e6;
        let root_of = |name: &str| {
            spans
                .iter()
                .find(|s| s.parent.is_none() && s.name == name)
                .map(|s| s.id)
        };
        for &(name, under, layer) in map {
            let parent = under.map(root_of);
            for s in spans.iter().filter(|s| s.name == name) {
                let counted = match parent {
                    None => true,
                    Some(p) => p.is_some() && s.parent == p,
                };
                if counted {
                    self.add(layer, ms(s));
                }
            }
        }
        let Some(top) = spans.iter().find(|s| s.parent.is_none() && s.name == root) else {
            return;
        };
        let attributed = spans
            .iter()
            .filter(|s| s.parent == Some(top.id))
            .map(ms)
            .sum();
        self.end_call(ms(top), attributed);
    }

    /// Writes the per-call means and `bench.attributed_fraction`.
    pub fn record(&self, m: &mut Measured) -> Result<(), String> {
        if self.calls == 0 {
            return Err("no traced calls".into());
        }
        for (name, total) in &self.ms {
            m.set(name, total / self.calls as f64);
        }
        m.set(
            "bench.attributed_fraction",
            self.attributed_ms / self.wall_ms,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_bounded_and_evenly_spaced() {
        let mut s = Samples::new();
        for v in 0..100_000 {
            s.push(f64::from(v));
        }
        assert_eq!(s.stride, 8);
        assert_eq!(s.kept.len(), 12_500);
        assert!(s.kept.iter().enumerate().all(|(i, v)| *v == (i * 8) as f64));
        assert_eq!(s.kept.capacity(), MAX_SAMPLES, "never reallocated");
    }
}
