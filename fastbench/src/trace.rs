//! In-memory spans recorded around calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that was open when it began (its parent), and the id of the op it
//! belongs to. Spans stay in memory while the benchmark runs and are
//! written out once at the end, so recording one costs two clock reads
//! and a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `core.solve`.
    pub name: &'static str,
    /// The op this span belongs to (setup uses `u64::MAX`).
    pub op: u64,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (`start` while still open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// The op id of spans recorded while setting up.
pub const SETUP_OP: u64 = u64::MAX;

/// Records spans; a nested [`Tracer::span`] becomes a child of the span
/// open around it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for op `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as JSON lines, with their self times.
    pub fn to_jsonl(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let op = if s.op == SETUP_OP {
                "null".to_owned()
            } else {
                s.op.to_string()
            };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (spans on other
/// threads of one parent) count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per span name: (count, total ms, self ms), sorted by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.name).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += s.ms();
        row.2 += own as f64 / 1e6;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            op: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 30, Some(0)), // 1: child
            span(15, 25, Some(1)), // 2: grandchild, inside 1
            span(50, 60, Some(0)), // 3: child
            span(200, 210, None),  // 4: unrelated root
        ];
        assert_eq!(self_times(&spans), vec![70, 10, 10, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 50, Some(0)),  // overlaps the previous child
            span(90, 120, Some(0)), // runs past the parent's end
        ];
        // Covered: [10, 50) and [90, 100) = 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_nests_and_summarises() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::hint::black_box(3));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let table = summary(spans);
        assert_eq!(table["outer"].0, 1);
        assert!(table["outer"].2 <= table["outer"].1);
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
