//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer's public functions: name, start, end, parent span and request
//! id. They stay in memory while the run measures and are written out
//! as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval measured by the caller; returns its span id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span id so the calls it
    /// makes can record child spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, parent, request, start, Instant::now());
        out
    }

    fn push(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .push(span);
    }

    /// Durations in nanoseconds of every span named `name`, in end order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations_ns(name).iter().map(|ns| ns / 1e6).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("a span recorder thread panicked");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
