//! Pluggable event sinks.

use crate::event::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An emission channel for [`Event`]s.
///
/// Sinks are shared by reference across worker threads, so `emit` takes
/// `&self` and implementations must be internally synchronized. Emission
/// must never influence the search — sinks observe, they do not steer.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one event.
    fn emit(&self, event: &Event);

    /// Flushes any buffered output (a no-op for in-memory sinks).
    fn flush(&self) {}

    /// Number of events emitted so far.
    fn emitted(&self) -> u64;
}

/// Drops every event (the default when tracing is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn emitted(&self) -> u64 {
        0
    }
}

/// A bounded in-memory ring of the most recent events.
///
/// The total emission count keeps counting past the capacity, so tests
/// and post-hoc inspection can both see the tail and know how much was
/// dropped.
#[derive(Debug)]
pub struct RingSink {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    emitted: AtomicU64,
}

impl RingSink {
    /// A ring holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            emitted: AtomicU64::new(0),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Retained events matching a predicate.
    pub fn events_where(&self, f: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.buf.lock().iter().filter(|e| f(e)).cloned().collect()
    }
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new(65_536)
    }
}

impl TraceSink for RingSink {
    fn emit(&self, event: &Event) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }
}

/// A JSONL flight recorder: one event per line, appended to a file.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<std::fs::File>>,
    path: PathBuf,
    emitted: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the flight-record file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
            path,
            emitted: AtomicU64::new(0),
        })
    }

    /// Path of the flight record.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = event.to_json();
        let mut out = self.out.lock();
        // A full disk is not worth crashing a tuning run over; the emitted
        // counter still advances so truncation is detectable.
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }

    fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_tail_and_counts_everything() {
        let ring = RingSink::new(3);
        for rule in ["t0", "t1", "t2", "t3", "t4"] {
            ring.emit(&Event::Prune { rule });
        }
        assert_eq!(ring.emitted(), 5);
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0], Event::Prune { rule: "t2" });
    }

    fn prune(rule: &'static str) -> Event {
        Event::Prune { rule }
    }

    #[test]
    fn ring_filters() {
        let ring = RingSink::new(8);
        ring.emit(&prune("S2FA-E201"));
        ring.emit(&Event::RunStop {
            minute: 1.0,
            evaluations: 1,
            reason: "merged",
        });
        ring.emit(&prune("S2FA-E202"));
        assert_eq!(
            ring.events_where(|e| matches!(e, Event::Prune { .. }))
                .len(),
            2
        );
    }

    #[test]
    fn null_sink_drops() {
        let s = NullSink;
        s.emit(&prune("S2FA-E201"));
        assert_eq!(s.emitted(), 0);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("s2fa_trace_sink_test.jsonl");
        let sink = JsonlSink::create(&path).expect("create temp flight record");
        sink.emit(&prune("S2FA-E201"));
        sink.emit(&Event::RunStop {
            minute: 3.0,
            evaluations: 2,
            reason: "TimeLimit",
        });
        sink.flush();
        assert_eq!(sink.emitted(), 2);
        let content = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"type\":\"prune\",\"rule\":\"S2FA-E201\"}");
        assert!(lines[1].starts_with("{\"type\":\"run_stop\""));
        let _ = std::fs::remove_file(&path);
    }
}
