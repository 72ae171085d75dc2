//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`soc.run`, `core.decide`, ...).
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The operation (grid cell, serve batch) the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder: spans stay in memory until [`Tracer::to_tsv`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// The operation new spans are attributed to.
    pub op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            op: 0,
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.push(name, start, start, parent)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Records a finished span; returns its index.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op: self.op,
        });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as a `name start end parent op` TSV line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\top\n");
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Total duration of the spans of each name, in ns.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.duration();
    }
    out
}

/// Total self time of the spans of each name, in ns: each span's
/// duration minus the union of its children's intervals clipped to it.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_within(kids, s.start, s.end);
        *out.entry(s.name).or_insert(0) += s.duration() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0,100): a [10,40) with grandchild [20,30), b [30,60) overlapping
    /// a, c [90,120) running past the root's end.
    fn tree() -> Vec<Span> {
        let mut t = Tracer::default();
        let root = t.push("cell", 0, 100, ROOT);
        let a = t.push("soc.run", 10, 40, root);
        t.push("core.decide", 20, 30, a);
        t.push("soc.run", 30, 60, root);
        t.push("core.observe", 90, 120, root);
        t.spans().to_vec()
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = tree();
        let own = self_by_name(&spans);
        // Children of the root cover [10,60) and [90,100): 60 ns.
        assert_eq!(own["cell"], 40);
        // First soc.run loses its grandchild's 10 ns; the second has none.
        assert_eq!(own["soc.run"], 20 + 30);
        assert_eq!(own["core.decide"], 10);
        assert_eq!(own["core.observe"], 30);
        let total = total_by_name(&spans);
        assert_eq!(total["soc.run"], 60);
        assert_eq!(total["cell"], 100);
    }

    #[test]
    fn spans_export_as_tsv() {
        let mut t = Tracer {
            op: 7,
            ..Tracer::default()
        };
        let root = t.push("cell", 1, 5, ROOT);
        t.push("soc.run", 2, 3, root);
        assert_eq!(
            t.to_tsv(),
            "name\tstart_ns\tend_ns\tparent\top\ncell\t1\t5\t-1\t7\nsoc.run\t2\t3\t0\t7\n"
        );
    }
}
