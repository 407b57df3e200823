//! The benchmark's own host-time spans, recorded only around its calls into
//! each layer (the simulator's internals are not instrumented here).
//!
//! Spans live in memory until the run ends and are then written out as
//! JSON lines. A span's duration covers everything below the call it wraps:
//! an `openshmem.put_nbi` span includes the conduit and machine time of
//! that put.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are host ns since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The PE whose thread recorded the span; `None` on the driving thread.
    pub pe: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by the driving thread and every PE thread.
pub struct SpanLog {
    workload: &'static str,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(workload: &'static str) -> SpanLog {
        SpanLog {
            workload,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Host ns since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (ids only name spans; they publish no other data).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned by a panicking PE").push(span);
    }

    /// Add many spans under one lock (a PE flushes its buffer at body exit).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span log poisoned by a panicking PE").extend(spans);
    }

    /// Time `f` on the driving thread as a span named `name`.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let (id, start_ns) = (self.id(), self.now_ns());
        let r = f();
        self.push(Span { id, parent, name, pe: None, start_ns, end_ns: self.now_ns() });
        r
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking PE").clone()
    }

    /// Durations (ns) of every span named `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking PE")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned by a panicking PE").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let pe = s.pe.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"pe\":{pe},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, self.workload, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A PE thread's span buffer: spans are kept thread-locally while the PE
/// runs and flushed into the shared log once, at body exit. With no log it
/// only runs the timed closures.
pub struct PeSpans<'a> {
    log: Option<&'a SpanLog>,
    pe: usize,
    buf: Vec<Span>,
}

impl<'a> PeSpans<'a> {
    pub fn new(log: Option<&'a SpanLog>, pe: usize) -> PeSpans<'a> {
        PeSpans { log, pe, buf: Vec::new() }
    }

    /// Open a span: its id and start time (`None` when not recording).
    pub fn open(&self) -> Option<(u64, u64)> {
        self.log.map(|l| (l.id(), l.now_ns()))
    }

    /// Close a span opened with [`PeSpans::open`].
    pub fn close(&mut self, opened: Option<(u64, u64)>, name: &'static str, parent: Option<u64>) {
        if let (Some(log), Some((id, start_ns))) = (self.log, opened) {
            let end_ns = log.now_ns();
            self.buf.push(Span { id, parent, name, pe: Some(self.pe), start_ns, end_ns });
        }
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let opened = self.open();
        let r = f();
        self.close(opened, name, parent);
        r
    }

    /// Hand the buffered spans to the shared log.
    pub fn flush(self) {
        if let Some(log) = self.log {
            log.extend(self.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_spans_nest_under_their_parent_and_flush_once() {
        let log = SpanLog::new("test");
        let root = log.time("root", None, || {
            let mut pe = PeSpans::new(Some(&log), 3);
            let body = pe.open();
            let body_id = body.map(|b| b.0);
            pe.time("op", body_id, || ());
            pe.close(body, "body", None);
            assert!(log.spans().is_empty(), "nothing shared before the flush");
            pe.flush();
            body_id
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(op.parent, root);
        assert_eq!(op.pe, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(log.durations("op").len(), 1);
    }

    #[test]
    fn disabled_pe_spans_record_nothing() {
        let mut pe = PeSpans::new(None, 0);
        assert_eq!(pe.time("op", None, || 7), 7);
        pe.flush();
    }
}
