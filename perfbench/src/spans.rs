//! Host-clock spans the benchmark records around its own calls into the
//! layers it measures (traced runs only).
//!
//! Each span has a name, a start and end on the host monotonic clock, and
//! the span that caused it. Spans stay in memory until the run ends; then
//! they are written out as one JSON file, and each span's *self time* (its
//! duration minus the part of it that its children cover) is summed per
//! name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// What was timed (a layer call or a benchmark phase).
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to start while the span is open).
    pub end_ns: u64,
}

/// A stack-structured span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let t = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = t;
            if top == id {
                break;
            }
        }
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let id = self.begin(name);
        let r = f(self);
        let ns = self.end(id);
        (r, ns)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON ("X" slices on one track), loadable in
    /// Perfetto; nesting follows the parent links.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                o,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name.replace(['"', '\\'], "_"),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent
            );
        }
        o.push_str("]}");
        o
    }
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span), in ns.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per span name, in ns (sorted by name).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90)
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one overhangs the parent's end.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        // Covered: [10,80) + [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn leaf_and_empty_spans() {
        let spans = vec![span(0, None, 5, 5), span(1, None, 0, 7)];
        assert_eq!(self_times(&spans), vec![0, 7]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new();
        let (_, outer) = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer);
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name.len(), 2);
        assert_eq!(by_name["outer"] + by_name["inner"], outer);
        assert!(t
            .to_json()
            .starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }
}
