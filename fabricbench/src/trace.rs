//! Host-clock spans recorded by the benchmark around its calls into the
//! program: one root span per operation, one child span per call into a
//! layer. Spans are kept in memory and written out when the run ends.
//!
//! Self times are accumulated as spans close, over every span; the span
//! records kept for export stop at [`MAX_KEPT`], so a long traced run's
//! memory and trace file stay bounded.
//!
//! A disabled tracer records nothing and reads no clock, except in
//! [`Tracer::root`], whose duration is the operation's latency and is
//! measured in every run.

use crate::clock::Instant;
use std::collections::BTreeMap;

/// Span records kept for export.
pub const MAX_KEPT: usize = 250_000;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], `None` for a root.
    pub parent: Option<usize>,
    /// The operation (request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span still open: its start, the time its closed children covered,
/// and where its record is kept (if it is).
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    keep: usize,
    /// Spans closed but not kept for export.
    dropped: u64,
    /// Open spans, innermost last.
    stack: Vec<Open>,
    next_req: u64,
    /// Duration of the most recently closed span (0 when disabled).
    last_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
    roots: BTreeMap<&'static str, u64>,
    root_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::keeping(enabled, MAX_KEPT)
    }

    fn keeping(enabled: bool, keep: usize) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            keep,
            dropped: 0,
            stack: Vec::new(),
            next_req: 0,
            last_ns: 0,
            self_ns: BTreeMap::new(),
            roots: BTreeMap::new(),
            root_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The span records kept for export (the first [`MAX_KEPT`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the span closed last; 0 when tracing is off.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, req: u64) {
        let start_ns = self.now_ns();
        let parent = self.stack.last().map(|o| o.kept);
        // Keep a span only if its parent was kept, so every kept record's
        // parent is in the export too.
        let kept = if self.spans.len() < self.keep && parent.is_none_or(|p| p.is_some()) {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.flatten(),
                req,
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let o = self.stack.pop().expect("close matches an open span");
        let dur = end_ns - o.start_ns;
        *self.self_ns.entry(o.name).or_insert(0) += dur - o.child_ns;
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => {
                self.root_ns += dur;
                *self.roots.entry(o.name).or_insert(0) += 1;
            }
        }
        match o.kept {
            Some(i) => self.spans[i].end_ns = end_ns,
            None => self.dropped += 1,
        }
        self.last_ns = dur;
    }

    /// Run one operation under a root span. Returns the result and the
    /// operation's host latency in nanoseconds, measured traced or not.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        self.next_req += 1;
        if self.enabled {
            self.open(name, self.next_req);
            let r = f(self);
            self.close();
            (r, self.last_ns)
        } else {
            let t0 = Instant::now();
            let r = f(self);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (r, ns)
        }
    }

    /// Run one call into a layer under a child span of the open root.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.open(name, self.next_req);
        let r = f();
        self.close();
        r
    }

    /// Self time per span name, over every span closed: each span's
    /// duration minus the time its direct children cover. Children never
    /// overlap (one thread), so the self times sum to the root spans'
    /// total duration.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    /// Total duration of the root spans.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Number of root spans named `name`.
    pub fn roots_named(&self, name: &str) -> u64 {
        self.roots.get(name).copied().unwrap_or(0)
    }

    /// The kept spans as a JSON document: `{"dropped": n, "spans":
    /// [{"name", "start_ns", "end_ns", "parent", "req"}, ...]}`, parents as
    /// indices into `spans`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.spans.len() * 80);
        let _ = write!(out, "{{\"dropped\":{},\"spans\":[", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut t = Tracer::new(true);
        let (v, _) = t.root("op", |t| {
            let a = t.span("a", || 1);
            let b = t.span("b", || 2);
            a + b
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 1));
        let total: u64 = t.self_ns().values().sum();
        assert_eq!(total, t.root_ns());
        assert_eq!(t.root_ns(), spans[0].dur_ns());
    }

    #[test]
    fn spans_past_the_cap_still_count_toward_self_time() {
        let mut t = Tracer::keeping(true, 4);
        for _ in 0..3 {
            t.root("op", |t| t.span("a", || std::hint::black_box(1)));
        }
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.roots_named("op"), 3);
        let total: u64 = t.self_ns().values().sum();
        assert_eq!(total, t.root_ns());
        // Every kept child's parent was kept.
        assert!(t.spans().iter().all(|s| s.parent.is_none_or(|p| p < 4)));
        assert!(t.to_json().starts_with("{\"dropped\":2,"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times_roots() {
        let mut t = Tracer::new(false);
        let (_, ns) = t.root("op", |t| t.span("a", || std::hint::black_box(7)));
        assert!(t.spans().is_empty());
        assert_eq!(t.root_ns(), 0);
        assert!(ns < 1_000_000_000);
    }
}
