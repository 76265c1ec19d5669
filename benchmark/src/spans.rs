//! In-memory span recorder for the traced repetition.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are a later change). They
//! stay in memory and are written to `<out>/trace-<workload>.json` when
//! the benchmark ends.

use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`run.step`, `probe.hashes`, ...).
    pub name: String,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

/// Records nested spans against one host clock.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags subsequently begun spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span with its self time, one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::str(&s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("rep", Value::Num(f64::from(s.rep))),
                    ("self_ns", Value::Num(self_ns(&self.spans, i) as f64)),
                ])
                .to_compact()
            })
            .collect();
        format!(
            "{{\"workload\":{},\"clock\":\"host monotonic ns since recorder start\",\"spans\":[\n{}\n]}}\n",
            Value::str(workload).to_compact(),
            spans.join(",\n")
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once, and a
/// child is clipped to its parent's interval).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut edge = s.start_ns;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    (s.end_ns - s.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns: the union covers [10, 50).
            span("b", 20, 50, Some(0)),
            // Grandchild: charged to `b`, not to the root.
            span("b.inner", 25, 45, Some(2)),
            // Sticks out past the parent: clipped to [90, 100).
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 30 - 20);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        let spans = vec![span("leaf", 5, 17, None)];
        assert_eq!(self_ns(&spans, 0), 12);
    }

    #[test]
    fn recorder_nests_and_tags_repetitions() {
        let mut r = Recorder::new();
        r.set_rep(3);
        let outer = r.begin("outer");
        r.scope("inner", |r| {
            r.scope("innermost", |_| ());
        });
        r.end(outer);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        // Self times of a nest sum to the outer duration.
        let total: u64 = (0..3).map(|i| self_ns(s, i)).sum();
        assert_eq!(total, s[0].end_ns - s[0].start_ns);
        let json = crate::json::parse(&r.to_json("w")).expect("trace file parses");
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.begin("a");
        let _b = r.begin("b");
        r.end(a);
    }
}
