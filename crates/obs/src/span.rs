//! Hierarchical host-time spans.
//!
//! A [`Profiler`] is a cheap, cloneable handle to one profiling session.
//! Threads record through [`Lane`]s — per-thread recorders that keep an
//! explicit open-span stack, buffer completed spans locally, and flush
//! them into the shared session store in one lock acquisition when
//! dropped (or on [`Lane::flush`]). Parenting is *implicit*: a span's
//! parent is whatever span is open on the same lane, so cross-lane
//! parenting is impossible by construction — an invariant
//! [`verify_spans`] checks and the property tests exercise.
//!
//! All timestamps are nanoseconds on the host's **monotonic** clock
//! ([`std::time::Instant`]), relative to the profiler's epoch. Virtual
//! HLS minutes never appear here; they live in the `s2fa-trace` event
//! stream.
//!
//! ## Zero cost when disabled
//!
//! A disabled profiler ([`Profiler::disabled`], also the `Default`) has
//! no session store: every `Lane` operation is a branch on a `None` and
//! returns immediately, no clock is read, and nothing allocates. Hot
//! paths that want to skip even opening a lane can branch once on
//! [`Profiler::is_enabled`] per batch.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span: a named interval on one lane, with an optional
/// same-lane parent.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Session-unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same lane, if any.
    pub parent: Option<u64>,
    /// Stage name (e.g. `"codegen"`, `"estimate"`).
    pub name: String,
    /// Logical thread lane the span was recorded on.
    pub lane: u32,
    /// Start, nanoseconds since the profiler epoch (monotonic clock).
    pub start_ns: u64,
    /// End, nanoseconds since the profiler epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct ProfInner {
    epoch: Instant,
    next_id: AtomicU64,
    next_lane: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A cheap, cloneable handle to one profiling session.
///
/// `Send + Sync`; clones share the session. The disabled profiler (the
/// default) records nothing and costs one branch per call.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl Profiler {
    /// A session recording spans.
    pub fn enabled() -> Profiler {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                next_lane: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op profiler (also the `Default`).
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh recording lane for the calling thread.
    pub fn lane(&self) -> Lane {
        Lane {
            lane: self
                .inner
                .as_ref()
                .map_or(0, |i| i.next_lane.fetch_add(1, Ordering::Relaxed)),
            inner: self.inner.clone(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Drains every span flushed so far, sorted by `(lane, start, id)`.
    ///
    /// Lanes still holding unflushed buffers are not included — drop or
    /// [`Lane::flush`] them first.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut spans = std::mem::take(&mut *i.spans.lock());
        spans.sort_by(|a, b| {
            (a.lane, a.start_ns, a.id)
                .partial_cmp(&(b.lane, b.start_ns, b.id))
                .unwrap()
        });
        spans
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

/// A per-thread span recorder.
///
/// Owns its open-span stack and a local buffer of completed spans; the
/// buffer is flushed into the shared session store on drop (one lock
/// acquisition per lane lifetime in the common case). `Send` but not
/// shared — one lane per thread of interest.
pub struct Lane {
    inner: Option<Arc<ProfInner>>,
    lane: u32,
    open: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

impl Lane {
    /// Opens a span named `name` under the currently open span (if any)
    /// and returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str) -> u64 {
        let Some(i) = &self.inner else {
            return 0;
        };
        let id = i.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map(|s| s.id);
        self.open.push(OpenSpan {
            id,
            parent,
            name,
            start_ns: i.epoch.elapsed().as_nanos() as u64,
        });
        id
    }

    /// Closes the span `id`, along with any descendants still open above
    /// it on the stack (all closed at the same instant — a span can never
    /// outlive its parent). Unknown or 0 ids are ignored.
    pub fn close(&mut self, id: u64) {
        let Some(i) = &self.inner else {
            return;
        };
        if !self.open.iter().any(|s| s.id == id) {
            return;
        }
        let now = i.epoch.elapsed().as_nanos() as u64;
        while let Some(s) = self.open.pop() {
            let last = s.id == id;
            self.done.push(SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                lane: self.lane,
                start_ns: s.start_ns,
                end_ns: now,
            });
            if last {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn in_span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Lane) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }

    /// Flushes the local buffer into the shared session store.
    pub fn flush(&mut self) {
        if let Some(i) = &self.inner {
            if !self.done.is_empty() {
                i.spans.lock().append(&mut self.done);
            }
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        while let Some(s) = self.open.last() {
            let id = s.id;
            self.close(id);
        }
        self.flush();
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("lane", &self.lane)
            .field("enabled", &self.inner.is_some())
            .field("open", &self.open.len())
            .field("buffered", &self.done.len())
            .finish()
    }
}

/// Checks the structural invariants of a span set:
///
/// * ids are unique and non-zero;
/// * `start_ns <= end_ns`;
/// * every parent id exists;
/// * parent and child share a lane (no cross-thread parenting);
/// * the parent opened before (or with) the child and closed after (or
///   with) it — nesting reconstructs a forest of proper call trees.
///
/// Returns the first violation found, as a human-readable message.
pub fn verify_spans(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::with_capacity(spans.len());
    for s in spans {
        if s.id == 0 {
            return Err(format!("span `{}` has id 0", s.name));
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
        if s.start_ns > s.end_ns {
            return Err(format!(
                "span `{}` ({}) ends before it starts: [{}, {}]",
                s.name, s.id, s.start_ns, s.end_ns
            ));
        }
    }
    for s in spans {
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!(
                "span `{}` ({}) has unknown parent {}",
                s.name, s.id, pid
            ));
        };
        if p.lane != s.lane {
            return Err(format!(
                "cross-lane parenting: `{}` ({}) on lane {} has parent `{}` ({}) on lane {}",
                s.name, s.id, s.lane, p.name, p.id, p.lane
            ));
        }
        if p.start_ns > s.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span `{}` ({}) [{}, {}] escapes parent `{}` ({}) [{}, {}]",
                s.name, s.id, s.start_ns, s.end_ns, p.name, p.id, p.start_ns, p.end_ns
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let mut lane = p.lane();
        let id = lane.open("x");
        assert_eq!(id, 0);
        lane.close(id);
        drop(lane);
        assert!(p.take_spans().is_empty());
    }

    #[test]
    fn nesting_reconstructs_and_verifies() {
        let p = Profiler::enabled();
        let mut lane = p.lane();
        let a = lane.open("a");
        let b = lane.open("b");
        lane.close(b);
        let c = lane.open("c");
        lane.close(c);
        lane.close(a);
        drop(lane);
        let spans = p.take_spans();
        assert_eq!(spans.len(), 3);
        verify_spans(&spans).unwrap();
        let a_rec = spans.iter().find(|s| s.name == "a").unwrap();
        let b_rec = spans.iter().find(|s| s.name == "b").unwrap();
        let c_rec = spans.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(b_rec.parent, Some(a_rec.id));
        assert_eq!(c_rec.parent, Some(a_rec.id));
        assert_eq!(a_rec.parent, None);
    }

    #[test]
    fn closing_a_parent_closes_open_children() {
        let p = Profiler::enabled();
        let mut lane = p.lane();
        let a = lane.open("a");
        let _b = lane.open("b");
        lane.close(a); // b still open — closed implicitly
        drop(lane);
        let spans = p.take_spans();
        assert_eq!(spans.len(), 2);
        verify_spans(&spans).unwrap();
    }

    #[test]
    fn dropping_a_lane_closes_and_flushes() {
        let p = Profiler::enabled();
        {
            let mut lane = p.lane();
            lane.open("left-open");
        }
        let spans = p.take_spans();
        assert_eq!(spans.len(), 1);
        verify_spans(&spans).unwrap();
    }

    #[test]
    fn lanes_are_distinct_across_threads() {
        let p = Profiler::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = p.clone();
                scope.spawn(move || {
                    let mut lane = p.lane();
                    lane.in_span("worker", |l| {
                        l.in_span("inner", |_| {});
                    });
                });
            }
        });
        let spans = p.take_spans();
        assert_eq!(spans.len(), 8);
        verify_spans(&spans).unwrap();
        let lanes: std::collections::HashSet<u32> = spans.iter().map(|s| s.lane).collect();
        assert_eq!(lanes.len(), 4, "each thread got its own lane");
    }

    #[test]
    fn verify_catches_cross_lane_parenting() {
        let bad = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "a".into(),
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "b".into(),
                lane: 1,
                start_ns: 10,
                end_ns: 20,
            },
        ];
        assert!(verify_spans(&bad).unwrap_err().contains("cross-lane"));
    }

    #[test]
    fn verify_catches_escaping_children() {
        let bad = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "a".into(),
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "b".into(),
                lane: 0,
                start_ns: 10,
                end_ns: 120,
            },
        ];
        assert!(verify_spans(&bad).unwrap_err().contains("escapes"));
    }
}
