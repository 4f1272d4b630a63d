//! Span bookkeeping for the traced run.
//!
//! A [`Tracer`] records one [`Span`] around every call the benchmark
//! makes into a layer's public functions: its name, start and end (ns
//! since the tracer was created), the span that was open when it began
//! (its parent) and, for per-request work, the request id. Spans stay in
//! memory and are written once, at exit ([`Tracer::write_jsonl`]).
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover ([`self_times`]). Summed over every span of a
//! tree, self times add up to the root's duration exactly, which is how
//! the traced run accounts for its wall time.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `accel.sim`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
    /// Stream index of the request the span worked for, when per-request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled tracer runs the wrapped calls and
/// records nothing, so the untraced run pays no bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every [`Tracer::span`] a plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open. `f` gets the tracer back so it can open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span with its self time as JSON lines, once.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )
            .expect("write to String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span). Grandchildren are already
/// inside their parent's interval, so they are never subtracted twice;
/// adjacent children (one ends where the next starts) and overlapping
/// children are both covered once.
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
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of durations (ns) of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100] > child [10,60] > grandchild [20,50]
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        // root [0,100] > [10,30] and [30,70], touching at 30.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_and_unordered_children_count_their_union() {
        // Children recorded out of start order and overlapping by 10,
        // one spilling past the parent's end.
        let spans = [
            span("root", 0, 100, None),
            span("late", 50, 120, Some(0)),
            span("early", 40, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = [
            span("root", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("a.x", 150, 200, Some(1)),
            span("a.y", 200, 390, Some(1)),
            span("b", 400, 900, Some(0)),
            span("b.x", 500, 600, Some(4)),
            span("other-root", 2_000, 2_100, None),
        ];
        let selfs = self_times(&spans);
        let tree: u64 = selfs[..6].iter().sum();
        assert_eq!(tree, spans[0].duration_ns());
        assert_eq!(selfs[6], 100);
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            t.span("inner", Some(7), |_| ());
            t.span("inner", Some(8), |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].request), (Some(0), Some(7)));
        assert_eq!((s[2].parent, s[2].request), (Some(0), Some(8)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(count(s, "inner"), 2);
        assert_eq!(
            total_ns(s, "inner"),
            s[1].duration_ns() + s[2].duration_ns()
        );
    }

    #[test]
    fn disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 42), 42);
        assert!(t.spans().is_empty());
    }
}
