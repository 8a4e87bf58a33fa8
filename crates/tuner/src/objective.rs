//! The objective-function interface.
//!
//! [`TuningRun`](crate::TuningRun) proposes whole batches of candidates
//! before it looks at any result (footnote 3's top-k-per-iteration
//! semantics), which makes the batch the natural unit of *real*
//! parallelism: every configuration in a batch can be measured on its own
//! OS thread without changing what the search observes.
//!
//! [`Objective`] captures that contract. `measure` evaluates one
//! configuration; `measure_batch` evaluates a slice and returns
//! measurements **in input order** — the driver replays its bookkeeping
//! (bandit rewards, trace events, the virtual clock) sequentially over
//! that vector, so an `Objective` may reorder the *work* freely as long as
//! it never reorders the *results*. Any `FnMut(&Config) -> Measurement`
//! closure is an `Objective` via the blanket impl, measuring serially.
//!
//! [`ThreadedObjective`] is the parallel implementation: it submits the
//! batch to a borrowed [`WorkerPool`] as contiguous index chunks (and
//! helps execute them on the calling thread), then the measurements land
//! by index in a pre-sized buffer. Because each configuration's
//! measurement is a pure function of the configuration, the result
//! vector is identical to the serial one no matter how the pool
//! schedules the chunks — and because the workers persist across
//! batches, no per-batch OS-thread spawn cost is paid.

use crate::history::Measurement;
use crate::param::Config;
use s2fa_engine::WorkerPool;
use s2fa_obs::{Lane, Profiler};

/// A raw results pointer that may cross threads: every chunk writes a
/// disjoint index range, so concurrent writers never alias.
#[derive(Clone, Copy)]
struct ResultsPtr(*mut Option<Measurement>);
unsafe impl Send for ResultsPtr {}
unsafe impl Sync for ResultsPtr {}

impl ResultsPtr {
    /// # Safety
    /// `i` must be in bounds of the backing buffer, written by exactly
    /// one thread, and the buffer must outlive the write.
    unsafe fn write(self, i: usize, m: Measurement) {
        unsafe { *self.0.add(i) = Some(m) };
    }
}

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

/// An [`Objective`] that measures batches on a borrowed worker pool.
///
/// Wraps a thread-safe evaluation function (`Fn + Sync` — e.g. a closure
/// over an `EvalEngine`) and a [`WorkerPool`]; batches run on
/// `pool.workers() + 1` executors, the calling thread being the last
/// ([`JobHandle::help`](s2fa_engine::JobHandle::help)). Each batch is
/// one pool job cut by [`WorkerPool::auto_chunk`] into contiguous chunks
/// claimed first-come-first-served, so executors stay busy even when
/// per-point costs vary. Results are written back by index, keeping the
/// output order — and therefore every downstream decision of the tuning
/// run — identical to a serial evaluation. A 0-worker pool measures
/// every batch serially on the caller.
pub struct ThreadedObjective<'a> {
    eval: &'a (dyn Fn(&Config) -> Measurement + Sync),
    pool: &'a WorkerPool,
    profiler: Profiler,
    lane: Lane,
}

impl<'a> ThreadedObjective<'a> {
    /// Wraps `eval`, measuring batches on `pool`'s workers plus the
    /// calling thread. Profiling is off; see
    /// [`with_profiler`](Self::with_profiler).
    pub fn new(eval: &'a (dyn Fn(&Config) -> Measurement + Sync), pool: &'a WorkerPool) -> Self {
        ThreadedObjective {
            eval,
            pool,
            profiler: Profiler::disabled(),
            lane: Profiler::disabled().lane(),
        }
    }

    /// Attaches a profiler: `measure_batch` then records the batch-loop
    /// span shape the flight recorder attributes (`batch` with
    /// `submit`/`estimate`/`wait`/`merge` children on the calling lane,
    /// plus a `pool_chunk` root span per worker-executed chunk). With
    /// the default disabled profiler every instrumentation point is a
    /// single branch — the measured results are identical either way
    /// (the determinism tests in `s2fa-dse` pin this).
    pub fn with_profiler(mut self, profiler: &Profiler) -> Self {
        self.profiler = profiler.clone();
        self.lane = profiler.lane();
        self
    }

    /// Flushes buffered spans to the profiler (a no-op when disabled).
    pub fn flush_profile(&mut self) {
        self.lane.flush();
    }
}

impl Objective for ThreadedObjective<'_> {
    fn measure(&mut self, config: &Config) -> Measurement {
        (self.eval)(config)
    }

    fn measure_batch(&mut self, configs: &[Config]) -> Vec<Measurement> {
        let executors = self.pool.workers() + 1;
        if executors.min(configs.len()) <= 1 {
            // Serial path: the whole batch is one `estimate` phase.
            let batch_id = self.lane.open("batch");
            let est_id = self.lane.open("estimate");
            let out = configs.iter().map(self.eval).collect();
            self.lane.close(est_id);
            self.lane.close(batch_id);
            return out;
        }
        let chunk = WorkerPool::auto_chunk(configs.len(), executors);

        let mut results: Vec<Option<Measurement>> = vec![None; configs.len()];
        let results_ptr = ResultsPtr(results.as_mut_ptr());
        let eval = self.eval;
        let profiler = &self.profiler;
        let spans_on = self.profiler.is_enabled();
        let task = move |start: usize, end: usize, is_worker: bool| {
            // Worker-side chunks get their own root span on a fresh
            // lane; caller-side chunks are covered by the caller's
            // `estimate` span. The disabled path opens no lane and
            // reads no clock.
            let mut wlane = (is_worker && spans_on).then(|| profiler.lane());
            let wid = wlane.as_mut().map(|l| l.open("pool_chunk"));
            for (i, config) in configs.iter().enumerate().take(end).skip(start) {
                let m = eval(config);
                // SAFETY: chunks cover disjoint index ranges and every
                // index is claimed exactly once, so no two writers alias
                // and the buffer outlives the job (waited below).
                unsafe { results_ptr.write(i, m) }
            }
            if let (Some(l), Some(id)) = (wlane.as_mut(), wid) {
                l.close(id);
            }
        };

        let lane = &mut self.lane;
        let batch_id = lane.open("batch");
        let submit_id = lane.open("submit");
        let handle = self.pool.submit(configs.len(), chunk, &task);
        lane.close(submit_id);
        // The caller is the pool's extra executor: its chunks run inside
        // its own `estimate` span.
        let est_id = lane.open("estimate");
        handle.help();
        lane.close(est_id);
        let wait_id = lane.open("wait");
        handle.wait();
        lane.close(wait_id);
        let merge_id = lane.open("merge");
        let out: Vec<Measurement> = results
            .into_iter()
            .map(|m| m.expect("every index measured"))
            .collect();
        lane.close(merge_id);
        lane.close(batch_id);
        out
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

    #[test]
    fn threaded_matches_serial_in_order() {
        let eval = |c: &Config| Measurement::new(value_of(c), c[0] as f64);
        let configs: Vec<Config> = (0..37u32).map(|i| vec![i, i * 2]).collect();
        let serial: Vec<Measurement> = configs.iter().map(eval).collect();
        for workers in [0, 1, 7, 63] {
            let pool = WorkerPool::new(workers);
            let mut obj = ThreadedObjective::new(&eval, &pool);
            assert_eq!(obj.measure_batch(&configs), serial, "workers={workers}");
        }
    }

    #[test]
    fn threaded_handles_small_batches() {
        let eval = |c: &Config| Measurement::new(value_of(c), 1.0);
        let pool = WorkerPool::new(7);
        let mut obj = ThreadedObjective::new(&eval, &pool);
        assert!(obj.measure_batch(&[]).is_empty());
        let one = obj.measure_batch(&[vec![5]]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].value, 6.0);
    }

    #[test]
    fn profiled_batches_record_the_flight_shape() {
        let eval = |c: &Config| Measurement::new(value_of(c), 1.0);
        let configs: Vec<Config> = (0..64u32).map(|i| vec![i]).collect();
        let serial: Vec<Measurement> = configs.iter().map(eval).collect();
        let profiler = Profiler::enabled();
        let pool = WorkerPool::new(3);
        let mut obj = ThreadedObjective::new(&eval, &pool).with_profiler(&profiler);
        assert_eq!(obj.measure_batch(&configs), serial, "results unchanged");
        obj.flush_profile();
        let spans = profiler.take_spans();
        s2fa_obs::verify_spans(&spans).expect("well-formed span forest");
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("batch"), 1);
        assert_eq!(count("submit"), 1);
        assert_eq!(count("estimate"), 1, "the caller's own chunk window");
        assert_eq!(count("wait"), 1);
        assert_eq!(count("merge"), 1);
        // Which executor claims each of the 4 auto-sized chunks is
        // scheduling-dependent; only worker-claimed chunks get a root span.
        assert_eq!(pool.stats().chunks, 4);
        assert!(count("pool_chunk") <= 4);
        for legacy in ["spawn", "collect", "worker", "dispatch"] {
            assert_eq!(count(legacy), 0, "pre-pool stage {legacy} resurfaced");
        }
    }

    #[test]
    fn profiled_serial_path_is_one_estimate_phase() {
        let eval = |c: &Config| Measurement::new(value_of(c), 1.0);
        let profiler = Profiler::enabled();
        let pool = WorkerPool::new(0);
        let mut obj = ThreadedObjective::new(&eval, &pool).with_profiler(&profiler);
        obj.measure_batch(&[vec![1], vec![2], vec![3]]);
        obj.flush_profile();
        let spans = profiler.take_spans();
        s2fa_obs::verify_spans(&spans).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"batch"));
        assert!(names.contains(&"estimate"));
        assert!(!names.contains(&"submit"), "no fan-out phases when serial");
        assert!(!names.contains(&"wait"));
    }

    #[test]
    fn shared_pool_reused_across_batches_and_objectives() {
        let eval = |c: &Config| Measurement::new(value_of(c), 1.0);
        let configs: Vec<Config> = (0..48u32).map(|i| vec![i]).collect();
        let serial: Vec<Measurement> = configs.iter().map(eval).collect();
        let pool = WorkerPool::new(3);
        for _ in 0..3 {
            let mut obj = ThreadedObjective::new(&eval, &pool);
            for _ in 0..4 {
                assert_eq!(obj.measure_batch(&configs), serial);
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 12, "every batch was one pool job");
        assert_eq!(stats.chunks, 12 * 3, "48 items / auto chunk 16 = 3 chunks");
    }
}
