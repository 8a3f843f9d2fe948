//! Benchmark-side tracing: spans around each call into a layer, plus
//! snapshots of the layer's public counters taken at the same boundaries.
//!
//! Spans live in memory and are written out once, when the run ends. A
//! disabled tracer records nothing, so untraced iterations pay one branch
//! per span.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// `(field, value)` pairs read from one stats struct.
pub type Counters = Vec<(&'static str, u64)>;

/// Counter values read from one public stats struct at a span boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The span that had just closed when the counters were read.
    pub after: &'static str,
    /// The stats struct read, e.g. `DhtStats`.
    pub source: &'static str,
    /// `(field, value)` pairs.
    pub values: Counters,
}

/// In-memory span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    snapshots: Vec<Snapshot>,
    last_closed: &'static str,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            snapshots: Vec::new(),
            last_closed: "",
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.last_closed = name;
        out
    }

    /// Records the counters `values` returns, attributed to the span that
    /// closed last. `values` is not called when tracing is off.
    pub fn snapshot(&mut self, source: &'static str, values: impl FnOnce() -> Counters) {
        if self.enabled {
            self.snapshots.push(Snapshot {
                after: self.last_closed,
                source,
                values: values(),
            });
        }
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counter snapshots, in boundary order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Spans and snapshots as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"snapshots\":[");
        for (i, snap) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"after\":\"{}\",\"source\":\"{}\",\"values\":{{",
                snap.after, snap.source
            );
            for (j, (k, v)) in snap.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        t.snapshot("Stats", || vec![("x", 1)]);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.snapshots()[0].after, "outer");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 7), 7);
        off.snapshot("Stats", || unreachable!("not read when off"));
        assert!(off.spans().is_empty());
    }
}
