//! In-memory spans recorded around calls into the engine's layers.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! query it belongs to. Some public calls contain another layer's work
//! (prepare contains the view, mining contains grouping, selection
//! contains the LP); the benchmark then calls the inner layer's public
//! function again on the same inputs, after the query has finished, in a
//! *replay* span whose parent is the outer span. Self time is a span's
//! duration minus its children's, replays included; a query's total is
//! its root span, which never contains a replay.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded span, in nanoseconds from the trace's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: usize,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

/// The spans of one pass, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        query: usize,
        parent: Option<SpanId>,
        replay: bool,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns: now,
            end_ns: now,
            replay,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a new span and return its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        query: usize,
        parent: Option<SpanId>,
        replay: bool,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.begin(name, query, parent, replay);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Self time of span `id`: its duration minus its children's. Children
    /// are recorded after their parent and within the same query.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let query = self.spans[id].query;
        let children: f64 = (id + 1..self.spans.len())
            .take_while(|&c| self.spans[c].query == query)
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.ms(c))
            .sum();
        self.ms(id) - children
    }

    /// Append `other`'s spans (recorded against the same origin), shifting
    /// their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One JSON object per line: name, query, parent, start/end in µs,
    /// and whether the span is a replay.
    pub fn to_jsonl(&self, pass: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{id},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"replay\":{}}}",
                s.name,
                s.query,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.replay
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_replays() {
        let mut t = Trace::new(Instant::now());
        let root = t.begin("query", 0, None, false);
        let (_, outer) = t.time("outer", 0, Some(root), false, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.end(root);
        let (_, replay) = t.time("inner", 0, Some(outer), true, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let other = t.begin("query", 1, None, false);
        t.end(other);
        assert!((t.self_ms(outer) - (t.ms(outer) - t.ms(replay))).abs() < 1e-9);
        assert!(t.self_ms(root) < t.ms(root));
        assert_eq!(t.self_ms(other), t.ms(other));
        assert_eq!(t.to_jsonl("p").lines().count(), 4);
    }
}
