//! Query observability primitives: span trees with per-stage counters.
//!
//! The engine's executor records into a [`Trace`] when its caller
//! hands it one (`QueryEngine::answer_traced`, a sampled request, any
//! execution while the slow-query log is on) — a tree of [`Span`]s
//! covering each pipeline stage (plan, auto-resolve, per-step index
//! probes and joins, materialization), with wall time plus
//! I/O counters ([`SpanCounters`]) per stage. The spans always belong
//! to the execution that produced the answer. The crate is
//! deliberately tiny and std-only: it knows nothing about pools,
//! strategies, or twigs; the caller snapshots whatever counters it
//! owns around each stage and stores the deltas here.
//!
//! A trace renders two ways: [`Trace::render`] is the human table
//! (`explain --analyze`, the slow-query log), and [`Trace::shape`] is
//! a timing-free digest of the tree — stable across runs of the same
//! query, so tests can pin the pipeline's structure without flaking on
//! wall times.
//!
//! Spans nest by open order: [`Trace::begin`] under the innermost open
//! span, [`Trace::end`] closes (and defensively closes any still-open
//! descendants, so a forgotten `end` in an early-return path cannot
//! corrupt the tree).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Counter deltas attributed to one span.
///
/// `logical_reads`/`physical_reads` are the page reads the stage made; `probes`
/// counts index point probes; `rows` counts match rows fetched (or
/// result ids, for materialization spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Buffer-pool page requests (hits + misses).
    pub logical_reads: u64,
    /// Buffer-pool misses (pages read from the backend).
    pub physical_reads: u64,
    /// Index point probes issued.
    pub probes: u64,
    /// Match rows fetched / ids produced.
    pub rows: u64,
}

impl SpanCounters {
    /// Component-wise sum.
    pub fn merge(self, other: SpanCounters) -> SpanCounters {
        SpanCounters {
            logical_reads: self.logical_reads + other.logical_reads,
            physical_reads: self.physical_reads + other.physical_reads,
            probes: self.probes + other.probes,
            rows: self.rows + other.rows,
        }
    }
}

/// Handle returned by [`Trace::begin`], consumed by [`Trace::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(usize);

#[derive(Debug, Clone)]
struct SpanNode {
    name: &'static str,
    detail: String,
    started: Instant,
    wall: Duration,
    counters: SpanCounters,
    parent: Option<usize>,
    closed: bool,
}

/// One finished span, flattened out of the tree in pre-order.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static stage name (`"query"`, `"plan"`, `"step"`, …).
    pub name: &'static str,
    /// Dynamic qualifier (strategy label, step number, join kind).
    pub detail: String,
    /// Nesting depth; roots are 0.
    pub depth: usize,
    /// Wall time between `begin` and `end` (zero if never closed).
    pub wall: Duration,
    /// Counter deltas recorded at `end`.
    pub counters: SpanCounters,
}

/// A span tree under construction or finished.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<SpanNode>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, detail: impl Into<String>) -> SpanToken {
        let idx = self.spans.len();
        self.spans.push(SpanNode {
            name,
            detail: detail.into(),
            started: Instant::now(),
            wall: Duration::ZERO,
            counters: SpanCounters::default(),
            parent: self.open.last().copied(),
            closed: false,
        });
        self.open.push(idx);
        SpanToken(idx)
    }

    /// Closes the span, recording its counters and elapsed wall time.
    ///
    /// Any spans opened under it and still open are closed too (with
    /// their own elapsed times and zero counters), so early returns
    /// between `begin`/`end` pairs leave a well-formed tree.
    pub fn end(&mut self, token: SpanToken, counters: SpanCounters) {
        while let Some(&top) = self.open.last() {
            self.open.pop();
            let span = &mut self.spans[top];
            span.wall = span.started.elapsed();
            span.closed = true;
            if top == token.0 {
                span.counters = counters;
                return;
            }
        }
    }

    /// Replaces a span's detail — for labels that depend on work done
    /// inside the span (join kind chosen, rows seen).
    pub fn annotate(&mut self, token: SpanToken, detail: impl Into<String>) {
        self.spans[token.0].detail = detail.into();
    }

    /// True when no span was ever opened.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Finished spans in pre-order (the order they were opened).
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .iter()
            .map(|s| Span {
                name: s.name,
                detail: s.detail.clone(),
                depth: self.depth_of(s),
                wall: if s.closed { s.wall } else { Duration::ZERO },
                counters: s.counters,
            })
            .collect()
    }

    fn depth_of(&self, span: &SpanNode) -> usize {
        let mut depth = 0;
        let mut at = span.parent;
        while let Some(p) = at {
            depth += 1;
            at = self.spans[p].parent;
        }
        depth
    }

    /// First span (pre-order) with this name.
    pub fn find(&self, name: &str) -> Option<Span> {
        self.spans().into_iter().find(|s| s.name == name)
    }

    /// Component-wise sum of the counters of every span with this name.
    pub fn total(&self, name: &str) -> SpanCounters {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .fold(SpanCounters::default(), |acc, s| acc.merge(s.counters))
    }

    /// Timing-free digest of the tree: one `name(detail)` line per
    /// span, indented by depth. Identical across runs of the same
    /// query, so tests can pin pipeline structure.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(out, "{}{}({})", "  ".repeat(s.depth), s.name, s.detail);
        }
        out
    }

    /// Human-readable table: the span tree with wall time and counters
    /// per stage.
    pub fn render(&self) -> String {
        // Rendered on the serving path (one record per sampled or slow
        // request), so rows are written straight from the nodes.
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        let _ = writeln!(
            out,
            "{:<44} {:>11} {:>8} {:>8} {:>7} {:>8}",
            "span", "wall", "logical", "physical", "probes", "rows"
        );
        let mut label = String::new();
        for s in &self.spans {
            label.clear();
            for _ in 0..self.depth_of(s) {
                label.push_str("  ");
            }
            label.push_str(s.name);
            label.push(' ');
            label.push_str(&s.detail);
            if label.len() > 44 {
                label.truncate(43);
                label.push('…');
            }
            let wall = if s.closed { s.wall } else { Duration::ZERO };
            let _ = writeln!(
                out,
                "{:<44} {:>9.1}us {:>8} {:>8} {:>7} {:>8}",
                label,
                wall.as_secs_f64() * 1e6,
                s.counters.logical_reads,
                s.counters.physical_reads,
                s.counters.probes,
                s.counters.rows,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(logical: u64, physical: u64, probes: u64, rows: u64) -> SpanCounters {
        SpanCounters { logical_reads: logical, physical_reads: physical, probes, rows }
    }

    #[test]
    fn spans_nest_by_open_order() {
        let mut t = Trace::new();
        let q = t.begin("query", "RP");
        let p = t.begin("plan", "");
        t.end(p, counters(1, 0, 0, 0));
        let e = t.begin("execute", "RP");
        let s0 = t.begin("step", "#0");
        t.end(s0, counters(4, 2, 1, 10));
        t.end(e, counters(5, 2, 1, 10));
        t.end(q, counters(6, 2, 1, 10));
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| (s.name, s.depth)).collect::<Vec<_>>(),
            vec![("query", 0), ("plan", 1), ("execute", 1), ("step", 2)]
        );
        assert_eq!(spans[3].counters, counters(4, 2, 1, 10));
    }

    #[test]
    fn end_closes_forgotten_descendants() {
        let mut t = Trace::new();
        let q = t.begin("query", "");
        let _leaked = t.begin("step", "#0"); // never explicitly ended
        t.end(q, counters(1, 1, 1, 1));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // The leaked child was closed with zero counters; the parent
        // kept the counters passed to its own end().
        assert_eq!(spans[0].counters, counters(1, 1, 1, 1));
        assert_eq!(spans[1].counters, SpanCounters::default());
        // A new span after the cleanup is a root, not a child.
        let r = t.begin("query", "again");
        t.end(r, SpanCounters::default());
        assert_eq!(t.spans()[2].depth, 0);
    }

    #[test]
    fn shape_is_timing_free_and_stable() {
        let build = || {
            let mut t = Trace::new();
            let q = t.begin("query", "auto\u{2192}RP");
            let s = t.begin("step", "#0 probe");
            // Counters and elapsed time differ between runs…
            t.end(s, counters(rand_like(), 0, 1, 3));
            t.end(q, SpanCounters::default());
            t
        };
        fn rand_like() -> u64 {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos() as u64
        }
        // …but the shape digest does not.
        assert_eq!(build().shape(), build().shape());
        assert_eq!(build().shape(), "query(auto\u{2192}RP)\n  step(#0 probe)\n");
    }

    #[test]
    fn annotate_rewrites_detail() {
        let mut t = Trace::new();
        let s = t.begin("step", "pending");
        t.annotate(s, "#0 merge-join");
        t.end(s, SpanCounters::default());
        assert_eq!(t.find("step").unwrap().detail, "#0 merge-join");
    }

    #[test]
    fn find_and_total_aggregate_by_name() {
        let mut t = Trace::new();
        let q = t.begin("query", "");
        for i in 0..3 {
            let s = t.begin("step", format!("#{i}"));
            t.end(s, counters(10, i, 1, 5));
        }
        t.end(q, SpanCounters::default());
        assert_eq!(t.find("step").unwrap().detail, "#0");
        assert_eq!(t.total("step"), counters(30, 3, 3, 15));
        assert!(t.find("materialize").is_none());
    }

    #[test]
    fn render_lists_every_span_with_columns() {
        let mut t = Trace::new();
        let q = t.begin("query", "DP");
        t.end(q, counters(7, 3, 2, 41));
        let table = t.render();
        assert!(table.contains("span"));
        assert!(table.contains("physical"));
        assert!(table.contains("query DP"));
        assert!(table.contains(" 41"));
        assert_eq!(table.lines().count(), 2);
    }
}
