//! The persistent evaluation worker pool.
//!
//! PR 6's flight recorder pinned the threaded evaluator's inversion (more
//! threads → *slower*) on per-batch OS-thread spawn: at 8 threads, spawn
//! was 84 % of batch wall time. This module replaces the per-batch
//! `std::thread::scope` fan-out with workers spawned **once per DSE run**
//! and fed contiguous chunk work-units through a shared queue.
//!
//! ## Execution model
//!
//! A [`submit`](WorkerPool::submit) call enqueues one job: a task
//! closure plus an index range `0..len` cut into chunks of `chunk`
//! indices. Workers (and the submitting caller, via
//! [`JobHandle::help`]) race on an atomic cursor: each executor claims
//! the next chunk with one `fetch_add` and invokes the task with
//! `(start, end, is_worker)`. Which executor runs which chunk is
//! scheduling-dependent, but **what** each chunk computes is a pure
//! function of its index range — callers write results by index into a
//! pre-sized buffer — so outcomes are bit-identical across worker
//! counts, including zero (the determinism property the DSE suite pins).
//!
//! A task may itself submit, help and wait on a nested job on the same
//! pool (the DSE runs each partition as a chunk whose tuning batches fan
//! out again). This cannot deadlock: [`JobHandle::help`] claims every
//! chunk nobody has claimed yet, so a waiter only ever waits on chunks
//! that another executor is already running, and workers drop exhausted
//! jobs off the queue front before picking their next job.
//!
//! ## Panics
//!
//! A chunk that panics is caught where it ran, still counted as
//! finished, and its executor (a pool worker stays alive) carries on.
//! The first payload is re-raised on the submitting thread by
//! [`JobHandle::wait`]; a handle dropped without `wait` swallows it,
//! since the drop may already be part of an unwind.
//!
//! ## Safety
//!
//! The task reference is lifetime-erased so a borrowing closure can cross
//! the worker threads (the same contract `std::thread::scope` provides
//! dynamically): [`JobHandle::wait`] blocks until every chunk has
//! *returned*, the handle's `Drop` waits too, and a worker never invokes
//! the task once the cursor passes `len` — so no task invocation can
//! start or be in flight after the borrow ends.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks ignoring poison (a panicking task must not wedge the pool).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Waits on `cv` ignoring poison.
fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// The chunked task signature: `(start, end, is_worker)` over `start..end`.
/// `is_worker` is `true` on pool threads and `false` on the submitting
/// caller — observability hooks use it to label lanes; results must not
/// depend on it.
pub type Task = dyn Fn(usize, usize, bool) + Sync;

/// One submitted work item.
struct Job {
    /// Lifetime-erased task; only dereferenced while chunks remain, which
    /// the submitting [`JobHandle`] outlives by construction.
    task: &'static Task,
    len: usize,
    chunk: usize,
    /// Next unclaimed index.
    cursor: AtomicUsize,
    /// Chunks claimed but not yet finished + chunks not yet claimed.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload a chunk raised, re-raised by `wait`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claims and runs chunks until the cursor is exhausted.
    fn run_chunks(self: &Arc<Self>, shared: &PoolShared, is_worker: bool) {
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + self.chunk).min(self.len);
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| (self.task)(start, end, is_worker)))
            {
                lock(&self.panic).get_or_insert(payload);
            }
            shared.chunks.fetch_add(1, Ordering::Relaxed);
            if is_worker {
                shared.worker_chunks.fetch_add(1, Ordering::Relaxed);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = lock(&self.done);
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs: AtomicU64,
    chunks: AtomicU64,
    worker_chunks: AtomicU64,
}

/// Monotonic activity counters of a pool (relaxed loads; exact once the
/// jobs they cover have been waited on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool worker threads (executors minus the helping caller).
    pub workers: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Chunks executed, by anyone.
    pub chunks: u64,
    /// Chunks executed by pool workers (the rest ran on submitting
    /// callers via [`JobHandle::help`]).
    pub worker_chunks: u64,
}

/// A persistent pool of evaluation workers.
///
/// Spawn once per DSE run with `eval_threads - 1` workers (the submitting
/// caller is the final executor, via [`JobHandle::help`]) and borrow it
/// everywhere: the run submits its partitions as one job, and each
/// partition's tuning batches submit nested jobs from inside it. The
/// queue accepts concurrent submissions and workers drain jobs FIFO,
/// oldest first.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `workers` pool threads. `0` is valid: every chunk then runs
    /// on the submitting caller inside [`JobHandle::help`], which keeps
    /// single-threaded runs free of cross-thread handoff entirely.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            worker_chunks: AtomicU64::new(0),
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("s2fa-eval-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of pool worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Cuts `len` items into chunks big enough to amortize the claim
    /// `fetch_add` but small enough to balance `executors` (≈4 chunks per
    /// executor on large batches, floor 16 items).
    pub fn auto_chunk(len: usize, executors: usize) -> usize {
        if len == 0 {
            return 1;
        }
        len.div_ceil(4 * executors.max(1)).clamp(16.min(len), 256)
    }

    /// Enqueues a job over `0..len` in chunks of `chunk` items and wakes
    /// the workers. The caller should [`help`](JobHandle::help) (it is an
    /// executor too) and then [`wait`](JobHandle::wait); the task borrow
    /// is pinned until the handle is waited on or dropped.
    pub fn submit<'t>(
        &self,
        len: usize,
        chunk: usize,
        task: &'t (dyn Fn(usize, usize, bool) + Sync + 't),
    ) -> JobHandle<'t> {
        let chunk = chunk.max(1);
        let n_chunks = len.div_ceil(chunk);
        // SAFETY: the erased borrow is only dereferenced by task
        // invocations, every invocation finishes before `wait`/`Drop`
        // returns (the `remaining` count gates `done`), and none can
        // start afterwards (the cursor is exhausted). The handle's
        // lifetime parameter keeps `'t` alive until then.
        let task: &'static Task = unsafe {
            std::mem::transmute::<&'t (dyn Fn(usize, usize, bool) + Sync + 't), &'static Task>(task)
        };
        let job = Arc::new(Job {
            task,
            len,
            chunk,
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n_chunks),
            done: Mutex::new(n_chunks == 0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        if n_chunks > 0 {
            lock(&self.shared.queue).push_back(Arc::clone(&job));
            self.shared.available.notify_all();
        }
        JobHandle {
            job,
            shared: Arc::clone(&self.shared),
            _task: PhantomData,
        }
    }

    /// Activity counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.threads.len() as u64,
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            worker_chunks: self.shared.worker_chunks.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Take the lock so no worker can check the flag between our
            // store and its wait — the notify cannot be missed.
            let _q = lock(&self.shared.queue);
            self.shared.available.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Drop exhausted jobs off the front; their last chunks may
                // still be running, but there is nothing left to claim.
                while q
                    .front()
                    .is_some_and(|j| j.cursor.load(Ordering::Relaxed) >= j.len)
                {
                    q.pop_front();
                }
                if let Some(j) = q.front() {
                    break Arc::clone(j);
                }
                q = wait(&shared.available, q);
            }
        };
        job.run_chunks(&shared, true);
    }
}

/// An in-flight [`WorkerPool::submit`]. Waits for completion on
/// [`wait`](Self::wait) — or on `Drop`, so an early return can never
/// leave the borrowed task running.
#[must_use = "the caller should help() and wait() on the handle"]
pub struct JobHandle<'t> {
    job: Arc<Job>,
    shared: Arc<PoolShared>,
    _task: PhantomData<&'t Task>,
}

impl JobHandle<'_> {
    /// Runs chunks on the calling thread until none are left to claim.
    /// The submitting caller is the pool's extra executor: with `help`,
    /// `workers + 1` threads share the batch, and a 0-worker pool
    /// degenerates to an inline serial loop.
    pub fn help(&self) {
        self.job.run_chunks(&self.shared, false);
    }

    /// Blocks until every chunk has finished executing, then re-raises
    /// the first panic a chunk raised, if any.
    pub fn wait(self) {
        self.wait_ref();
        let payload = lock(&self.job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn wait_ref(&self) {
        let mut done = lock(&self.job.done);
        while !*done {
            done = wait(&self.job.done_cv, done);
        }
    }
}

impl Drop for JobHandle<'_> {
    /// Waits like [`wait`](JobHandle::wait) but never re-raises: the
    /// drop may be running during an unwind already.
    fn drop(&mut self) {
        self.wait_ref();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, OnceLock};
    use std::time::Duration;

    /// Runs `f` on a fresh thread and returns its result, failing the
    /// test instead of hanging if it takes longer than 10 s.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("did not finish within 10 s")
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let task = |s: usize, e: usize, _w: bool| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        };
        let h = pool.submit(1000, 7, &task);
        h.help();
        h.wait();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(0);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let worker_chunks = AtomicU64::new(0);
        let task = |s: usize, e: usize, w: bool| {
            if w {
                worker_chunks.fetch_add(1, Ordering::SeqCst);
            }
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        };
        let h = pool.submit(64, 16, &task);
        h.help();
        h.wait();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(worker_chunks.load(Ordering::SeqCst), 0);
        assert_eq!(pool.stats().worker_chunks, 0);
        assert_eq!(pool.stats().chunks, 4);
    }

    #[test]
    fn empty_job_completes_immediately() {
        let pool = WorkerPool::new(2);
        let task = |_s: usize, _e: usize, _w: bool| panic!("no chunks to run");
        let h = pool.submit(0, 8, &task);
        h.help();
        h.wait();
        assert_eq!(pool.stats().chunks, 0);
        assert_eq!(pool.stats().jobs, 1);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = WorkerPool::new(4);
        let totals: Vec<u64> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|t| {
                    let pool = &pool;
                    scope.spawn(move || {
                        let sum = AtomicU64::new(0);
                        let task = |s: usize, e: usize, _w: bool| {
                            let mut acc = 0;
                            for i in s..e {
                                acc += t * 10_000 + i as u64;
                            }
                            sum.fetch_add(acc, Ordering::SeqCst);
                        };
                        let h = pool.submit(500, 32, &task);
                        h.help();
                        h.wait();
                        sum.load(Ordering::SeqCst)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (t, total) in totals.iter().enumerate() {
            let expect: u64 = (0..500u64).map(|i| t as u64 * 10_000 + i).sum();
            assert_eq!(*total, expect, "submitter {t}");
        }
        assert_eq!(pool.stats().jobs, 4);
    }

    #[test]
    fn dropped_handle_waits_for_completion() {
        let done: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        {
            let pool = WorkerPool::new(2);
            let task = |s: usize, e: usize, _w: bool| {
                for d in &done[s..e] {
                    d.fetch_add(1, Ordering::SeqCst);
                }
            };
            let h = pool.submit(256, 8, &task);
            h.help();
            drop(h); // must block until all chunks returned
        } // pool drop joins workers
        assert!(done.iter().all(|d| d.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        for round in 0..50usize {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            let task = |s: usize, e: usize, _w: bool| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            };
            let h = pool.submit(100, 9, &task);
            h.help();
            h.wait();
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "round {round}"
            );
        }
        assert_eq!(pool.stats().jobs, 50);
    }

    #[test]
    fn panicking_chunk_reaches_the_waiter_and_the_pool_survives() {
        let pool = Arc::new(WorkerPool::new(1));
        let p = Arc::clone(&pool);
        let payload = within(move || {
            let task = |_s: usize, _e: usize, _w: bool| panic!("chunk failed");
            // No help: the one worker runs (and panics in) every chunk.
            let h = p.submit(4, 1, &task);
            let caught = catch_unwind(AssertUnwindSafe(move || h.wait()));
            caught
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|s| s.to_string()))
        });
        assert_eq!(payload.as_deref(), Some("chunk failed"));
        assert_eq!(pool.stats().worker_chunks, 4, "every chunk still counted");

        // The worker survived: it alone runs a second job to completion.
        let hits = within(move || {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            let task = |s: usize, e: usize, _w: bool| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            };
            pool.submit(100, 10, &task).wait();
            hits.iter().map(|h| h.load(Ordering::SeqCst)).sum::<u64>()
        });
        assert_eq!(hits, 100);
    }

    #[test]
    fn nested_jobs_on_the_same_pool_complete_in_order() {
        const OUTER: usize = 8;
        const INNER: usize = 50;
        let want: Vec<Vec<u64>> = (0..OUTER)
            .map(|i| (0..INNER).map(|j| (i * 1000 + j) as u64).collect())
            .collect();
        for workers in [0usize, 1, 3] {
            let got = within(move || {
                let pool = WorkerPool::new(workers);
                let slots: Vec<OnceLock<Vec<u64>>> = (0..OUTER).map(|_| OnceLock::new()).collect();
                let outer = |s: usize, e: usize, _w: bool| {
                    for (i, slot) in slots.iter().enumerate().take(e).skip(s) {
                        let inner: Vec<AtomicU64> = (0..INNER).map(|_| AtomicU64::new(0)).collect();
                        let task = |s: usize, e: usize, _w: bool| {
                            for (j, v) in inner.iter().enumerate().take(e).skip(s) {
                                v.store((i * 1000 + j) as u64, Ordering::SeqCst);
                            }
                        };
                        let h = pool.submit(INNER, 4, &task);
                        h.help();
                        h.wait();
                        let row = inner.iter().map(|v| v.load(Ordering::SeqCst)).collect();
                        slot.set(row).expect("each outer index runs once");
                    }
                };
                let h = pool.submit(OUTER, 1, &outer);
                h.help();
                h.wait();
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("every outer index ran"))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn auto_chunk_balances_and_floors() {
        assert_eq!(WorkerPool::auto_chunk(0, 8), 1);
        assert_eq!(WorkerPool::auto_chunk(512, 8), 16);
        assert_eq!(WorkerPool::auto_chunk(4, 8), 4);
        assert_eq!(WorkerPool::auto_chunk(10_000, 1), 256);
        for len in [1usize, 2, 15, 16, 100, 512, 10_000] {
            for ex in [1usize, 2, 8] {
                let c = WorkerPool::auto_chunk(len, ex);
                assert!((1..=256).contains(&c), "chunk {c} for len {len} x{ex}");
            }
        }
    }
}
