//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). Each span
//! has a name, start and end (nanoseconds since the recorder was created),
//! the span that caused it and a request id shared by the spans of one unit
//! of work (one pair job, one read, one release). Spans stay in memory and
//! are written once, at exit.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: spans opened from now on carry its id.
    pub fn next_request(&self) {
        self.request.set(self.request.get() + 1);
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    /// Returns the closure's value and the span's duration in seconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
                request: self.request.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let value = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (value, spans[id].secs())
    }

    /// Duration of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Sum of the durations of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Longest single span named `name`, in seconds.
    pub fn longest(&self, name: &str) -> f64 {
        self.durations(name).into_iter().fold(0.0, f64::max)
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover. Spans are recorded on one thread and nest, so
    /// children never overlap each other.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Every span as one JSON object per line, preceded by the per-name self
    /// times.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, secs) in self.self_times() {
            let _ = writeln!(out, "{{\"self_time\":\"{name}\",\"s\":{secs}}}");
        }
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}
