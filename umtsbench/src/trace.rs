//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, op, lane)`: `op` ties together
//! the spans of one operation (a paper job, a TCP cell, a fleet run) and
//! `lane` tells apart parallel spans of one kind (the shard index).
//! Spans stay in memory and are written out once, when the benchmark
//! ends. A disabled tracer records nothing, so untraced runs pay one
//! branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call it wraps, e.g. `core.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation the span belongs to.
    pub op: u32,
    /// Which of several parallel spans of one kind (the shard index).
    pub lane: u32,
}

impl Span {
    /// Wall nanoseconds covered.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer::with_origin(on, Instant::now())
    }

    /// A tracer whose times count from `origin`.
    pub fn with_origin(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` in nanoseconds since the tracer's origin.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> Option<SpanId> {
        let now = self.now_ns();
        self.record(name, now, now, parent, op, 0)
    }

    /// Closes a span opened with [`Tracer::open`] at the current time.
    pub fn close(&mut self, id: Option<SpanId>) {
        let now = self.now_ns();
        self.close_at(id, now);
    }

    /// Closes a span at `end_ns`.
    pub fn close_at(&mut self, id: Option<SpanId>, end_ns: u64) {
        if let Some(id) = id {
            self.spans[id].end_ns = end_ns;
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: u32,
        lane: u32,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, op, lane });
        Some(self.spans.len() - 1)
    }

    /// Appends spans recorded elsewhere (a child process), shifting them
    /// by `offset_ns` and hanging their roots under `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, offset_ns: u64, parent: Option<SpanId>) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        for s in spans {
            self.spans.push(Span {
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(parent),
                ..s
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, with each span's self time.
    pub fn render_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"lane\": {}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.lane
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total seconds of every span named `name` in `spans`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
}

/// Total self seconds of every span named `name` in `spans`.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own)
        .sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0, lane: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
        assert_eq!(self_s(&spans, "root"), 70e-9);
        assert_eq!(total_s(&spans, "root"), 100e-9);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two shards running in parallel inside one window.
        let spans = vec![
            span("window", 0, 100, None),
            span("shard", 10, 80, Some(0)),
            span("shard", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans =
            vec![span("p", 10, 20, None), span("c", 0, 15, Some(0)), span("d", 18, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 1);
        t.close(id);
        t.adopt(vec![span("y", 0, 1, None)], 5, None);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn adopted_spans_keep_their_tree() {
        let mut t = Tracer::new(true);
        let root = t.record("cell", 0, 1_000, None, 3, 0);
        t.adopt(vec![span("build", 0, 10, None), span("inner", 2, 4, Some(0))], 100, root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].start_ns, s[2].end_ns), (102, 104));
        assert!(t.render_jsonl().lines().count() == 3);
    }
}
