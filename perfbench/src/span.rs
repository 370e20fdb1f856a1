//! In-memory span recorder for the traced run.
//!
//! Every span records its name, start and end (seconds since the recorder
//! was created), its parent span and the operation it belongs to. Spans
//! stay in memory while the benchmark runs and are written out once, at
//! the end, so recording costs one `Instant::now()` pair and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval of the traced run.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `rpca.apg`.
    pub name: &'static str,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans; nesting follows the call structure of
/// [`Recorder::span`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    /// Tag every span opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `idx`'s duration minus the part of its interval covered by
    /// its children (overlapping children are counted once).
    pub fn self_time(&self, idx: usize) -> f64 {
        self_time(&self.spans, idx)
    }

    /// Sum of the durations of every span named `name` in operation `op`.
    pub fn total(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{}}}",
                s.name,
                s.op,
                s.start,
                s.end,
                self.self_time(i)
            );
        }
        out
    }
}

/// Self time of `spans[idx]`: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let s = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(idx))
        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    s.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            // Overlaps `a`: the union [1, 4] is covered, not 2 + 2.
            span("b", 2.0, 4.0, Some(0)),
            span("c", 6.0, 7.0, Some(0)),
            // A grandchild is covered by its parent `c` already.
            span("d", 6.2, 6.8, Some(3)),
            // A child sticking out of its parent is clipped.
            span("e", 9.5, 11.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 3.0 - 1.0 - 0.5);
        assert!((self_time(&spans, 3) - 0.4).abs() < 1e-12);
        assert_eq!(self_time(&spans, 1), 2.0);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::default();
        rec.set_op(7);
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| 1) + rec.span("inner", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let inner = rec.total(7, "inner");
        let outer = rec.total(7, "outer");
        assert!((rec.self_time(0) - (outer - inner)).abs() < 1e-12);
        assert_eq!(rec.total(8, "outer"), 0.0);
        assert_eq!(rec.to_json_lines().lines().count(), 3);
    }
}
