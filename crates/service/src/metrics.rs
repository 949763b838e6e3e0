//! Metrics aggregation and exposition: per-shape counters, the
//! slow-query log, and the Prometheus-style text rendering behind
//! [`TwigService::metrics_text`](crate::TwigService::metrics_text).
//!
//! The registry sits beside [`crate::stats::ServiceStats`] rather than
//! inside it: the stats struct is pure lock-free atomics on the hot
//! path, while the registry's two maps (shapes, slow queries) take a
//! mutex — acceptable because shape observation is one short-held lock
//! per *executed* query (cache hits skip it) and slow-query capture
//! only fires past the latency threshold.
//!
//! Exposition format is the Prometheus text format: `# HELP`/`# TYPE`
//! headers, `name{label="value"} 123` samples, histogram
//! `_bucket`/`_sum`/`_count` triples with cumulative `le` bounds.
//! Label values are escaped with [`crate::stats::json_escape`] (the
//! Prometheus escapes are the JSON subset `\\`, `\"`, `\n`).

use crate::stats::{json_escape, ServiceSnapshot};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xtwig_core::Strategy;
use xtwig_storage::PoolCounters;

/// One slow (or explicitly sampled) query's record: what ran, how long
/// it took, and the span tree that execution recorded.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query's XPath rendering.
    pub query: String,
    /// The concrete strategy that executed it.
    pub strategy: Strategy,
    /// Execution latency in microseconds, as in the answer's metrics.
    pub micros: u64,
    /// Index generation the query executed against.
    pub generation: u64,
    /// Rendered span tree ([`xtwig_core::Trace::render`]) of this
    /// execution: its read counts are the ones the request paid.
    pub spans: String,
    /// Wire request id (0 for local, un-stamped submissions); the
    /// `Trace` opcode fetches records by this id.
    pub request_id: u64,
    /// Peer address of the connection that issued the query (empty for
    /// local submissions).
    pub peer: String,
}

#[derive(Default)]
struct ShapeCounters {
    executed: u64,
    total_micros: u64,
}

/// Aggregates what the atomic stats can't: per-shape traffic (a bounded
/// map) and the slow-query ring buffer.
pub struct MetricsRegistry {
    shapes: Mutex<HashMap<String, ShapeCounters>>,
    /// Executions observed after the shape map filled up.
    shape_overflow: AtomicU64,
    slow: Mutex<VecDeque<SlowQuery>>,
    /// Cumulative slow queries observed (the ring only keeps the tail).
    slow_total: AtomicU64,
    slow_threshold_micros: Option<u64>,
    slow_capacity: usize,
}

impl MetricsRegistry {
    /// Distinct shapes tracked before new shapes fold into the
    /// overflow counter (the map must not grow without bound under
    /// adversarial query streams).
    pub const SHAPE_CAPACITY: usize = 512;

    /// A registry logging queries at or above `slow_threshold_micros`
    /// (`None` disables the slow-query log) into a ring of
    /// `slow_capacity` entries.
    pub fn new(slow_threshold_micros: Option<u64>, slow_capacity: usize) -> Self {
        MetricsRegistry {
            shapes: Mutex::new(HashMap::new()),
            shape_overflow: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            slow_total: AtomicU64::new(0),
            slow_threshold_micros,
            slow_capacity,
        }
    }

    /// Accounts one executed query under its shape key.
    pub fn observe_shape(&self, shape: &str, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut shapes = self.shapes.lock();
        if let Some(c) = shapes.get_mut(shape) {
            c.executed += 1;
            c.total_micros += micros;
        } else if shapes.len() < Self::SHAPE_CAPACITY {
            shapes.insert(shape.to_owned(), ShapeCounters { executed: 1, total_micros: micros });
        } else {
            self.shape_overflow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when the slow-query log can capture anything: a threshold
    /// is set and the ring has room. The service traces every execution
    /// while this holds, since slowness is only known afterwards.
    pub fn slow_log_enabled(&self) -> bool {
        self.slow_capacity > 0 && self.slow_threshold_micros.is_some()
    }

    /// True when a query this slow should be captured into the log.
    pub fn is_slow(&self, elapsed: Duration) -> bool {
        self.slow_capacity > 0
            && self.slow_threshold_micros.is_some_and(|t| elapsed.as_micros() >= u128::from(t))
    }

    /// Appends a slow-query record, evicting the oldest past capacity.
    pub fn record_slow(&self, entry: SlowQuery) {
        self.slow_total.fetch_add(1, Ordering::Relaxed);
        self.push_record(entry);
    }

    /// Appends an explicitly sampled record (trace requested by the
    /// client) without counting it as slow — the ring serves `Trace`
    /// lookups, but `xtwig_slow_queries_total` stays an SLO signal.
    pub fn record_sampled(&self, entry: SlowQuery) {
        self.push_record(entry);
    }

    fn push_record(&self, entry: SlowQuery) {
        if self.slow_capacity == 0 {
            return;
        }
        let mut slow = self.slow.lock();
        if slow.len() == self.slow_capacity {
            slow.pop_front();
        }
        slow.push_back(entry);
    }

    /// Finds the most recent retained record stamped with
    /// `request_id` (0 never matches — local submissions share it).
    pub fn find_trace(&self, request_id: u64) -> Option<SlowQuery> {
        if request_id == 0 {
            return None;
        }
        self.slow.lock().iter().rev().find(|s| s.request_id == request_id).cloned()
    }

    /// The retained slow-query records, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Slow queries ever observed (>= the retained count).
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// `(shape, executed, total_micros)` rows, busiest first (ties
    /// broken by shape for deterministic output).
    pub fn shape_rows(&self) -> Vec<(String, u64, u64)> {
        let shapes = self.shapes.lock();
        let mut rows: Vec<(String, u64, u64)> =
            shapes.iter().map(|(k, c)| (k.clone(), c.executed, c.total_micros)).collect();
        drop(shapes);
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Executions dropped from per-shape attribution after the map
    /// filled up.
    pub fn shape_overflow(&self) -> u64 {
        self.shape_overflow.load(Ordering::Relaxed)
    }
}

/// One row of a fn-pointer metric table: name, help text, accessor.
type MetricRow<T> = (&'static str, &'static str, fn(&T) -> u64);

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the full exposition from a stats snapshot, the engine's
/// per-pool counter handles, the registry, and the event journal. Free
/// function so tests can render without standing up a service.
pub fn render_metrics(
    snapshot: &ServiceSnapshot,
    pools: &[(&'static str, PoolCounters)],
    registry: &MetricsRegistry,
    journal: &crate::events::EventJournal,
) -> String {
    let mut out = String::with_capacity(4096);
    counter(&mut out, "xtwig_queries_submitted_total", "Queries accepted", snapshot.submitted);
    counter(&mut out, "xtwig_queries_completed_total", "Queries answered", snapshot.completed);
    counter(
        &mut out,
        "xtwig_queries_failed_total",
        "Queries resolved with an error",
        snapshot.failed,
    );
    counter(&mut out, "xtwig_updates_total", "Index-maintenance transactions", snapshot.updates);
    counter(
        &mut out,
        "xtwig_rebuilds_total",
        "Engine rebuild-and-swap operations",
        snapshot.rebuilds,
    );
    counter(&mut out, "xtwig_plan_cache_hits_total", "Plan-cache hits", snapshot.plan_cache.hits);
    counter(
        &mut out,
        "xtwig_plan_cache_misses_total",
        "Plan-cache misses",
        snapshot.plan_cache.misses,
    );
    counter(
        &mut out,
        "xtwig_result_cache_hits_total",
        "Result-cache hits",
        snapshot.result_cache.hits,
    );
    counter(
        &mut out,
        "xtwig_result_cache_misses_total",
        "Result-cache misses",
        snapshot.result_cache.misses,
    );
    gauge(
        &mut out,
        "xtwig_in_flight",
        "Queries admitted and not yet resolved",
        snapshot.in_flight as u64,
    );
    counter(
        &mut out,
        "xtwig_overloaded_total",
        "Requests refused by admission control",
        snapshot.overloaded,
    );
    gauge(&mut out, "xtwig_generation", "Current invalidation generation", snapshot.generation);

    // Per-strategy execution costs.
    let cost_metrics: [MetricRow<crate::stats::StrategyCostSnapshot>; 6] = [
        ("xtwig_strategy_executed_total", "Queries executed per strategy", |c| c.executed),
        ("xtwig_strategy_auto_picks_total", "Auto submissions routed per strategy", |c| {
            c.auto_picks
        }),
        ("xtwig_strategy_probes_total", "Index probes per strategy", |c| c.probes),
        ("xtwig_strategy_rows_fetched_total", "Match rows fetched per strategy", |c| {
            c.rows_fetched
        }),
        ("xtwig_strategy_logical_reads_total", "Buffer-pool page requests per strategy", |c| {
            c.logical_reads
        }),
        ("xtwig_strategy_physical_reads_total", "Backend page reads per strategy", |c| {
            c.physical_reads
        }),
    ];
    for (name, help, get) in cost_metrics {
        header(&mut out, name, help, "counter");
        for c in &snapshot.costs {
            let _ = writeln!(out, "{name}{{strategy=\"{}\"}} {}", c.strategy.label(), get(c));
        }
    }

    // Per-strategy latency histograms (log2 buckets; `le` bounds are
    // the bucket upper bounds in microseconds, cumulative).
    header(
        &mut out,
        "xtwig_query_latency_micros",
        "Execution latency per strategy (microseconds)",
        "histogram",
    );
    for l in &snapshot.latency {
        let label = l.strategy.label();
        let mut cumulative = 0u64;
        for (i, &b) in l.buckets.iter().enumerate() {
            cumulative += b;
            let _ = writeln!(
                out,
                "xtwig_query_latency_micros_bucket{{strategy=\"{label}\",le=\"{}\"}} {cumulative}",
                1u64 << i
            );
        }
        let _ = writeln!(
            out,
            "xtwig_query_latency_micros_bucket{{strategy=\"{label}\",le=\"+Inf\"}} {}",
            l.count
        );
        let _ = writeln!(
            out,
            "xtwig_query_latency_micros_sum{{strategy=\"{label}\"}} {}",
            l.total_micros
        );
        let _ =
            writeln!(out, "xtwig_query_latency_micros_count{{strategy=\"{label}\"}} {}", l.count);
    }

    // Per-pool page counters, cumulative since engine build: a commit's
    // forked pool inherits its parent's counters, so the series never
    // step backwards. The resident-page gauge is the current epoch's.
    let pool_metrics: [MetricRow<PoolCounters>; 5] = [
        ("xtwig_pool_page_reads_total", "Buffer-pool page requests per pool", |p| p.page_reads()),
        ("xtwig_pool_misses_total", "Buffer-pool misses per pool", |p| p.misses()),
        ("xtwig_pool_pins_total", "Page pins acquired per pool", |p| p.pins()),
        ("xtwig_pool_cow_copies_total", "Page images copied on first write after a fork", |p| {
            p.cow_copies()
        }),
        ("xtwig_pool_resident_pages", "Page images materialized per pool", |p| p.resident_pages()),
    ];
    for (name, help, get) in pool_metrics {
        header(&mut out, name, help, if name.ends_with("_total") { "counter" } else { "gauge" });
        for (pool, counters) in pools {
            let _ = writeln!(out, "{name}{{pool=\"{pool}\"}} {}", get(counters));
        }
    }

    // Per-shape traffic.
    header(&mut out, "xtwig_shape_queries_total", "Queries executed per twig shape", "counter");
    let rows = registry.shape_rows();
    for (shape, executed, _) in &rows {
        let _ = writeln!(
            out,
            "xtwig_shape_queries_total{{shape=\"{}\"}} {executed}",
            json_escape(shape)
        );
    }
    header(
        &mut out,
        "xtwig_shape_latency_micros_total",
        "Summed execution latency per twig shape (microseconds)",
        "counter",
    );
    for (shape, _, micros) in &rows {
        let _ = writeln!(
            out,
            "xtwig_shape_latency_micros_total{{shape=\"{}\"}} {micros}",
            json_escape(shape)
        );
    }
    counter(
        &mut out,
        "xtwig_shape_overflow_total",
        "Executions not attributed to a shape (shape map full)",
        registry.shape_overflow(),
    );
    counter(
        &mut out,
        "xtwig_slow_queries_total",
        "Queries at or above the slow-query threshold",
        registry.slow_total(),
    );

    // Event-journal families: per-kind emission counts (every kind is
    // present every scrape, so the family is stable) plus ring drops.
    header(&mut out, "xtwig_events_total", "Serving-layer events emitted per kind", "counter");
    for (kind, count) in journal.kind_counts() {
        let _ = writeln!(out, "xtwig_events_total{{kind=\"{kind}\"}} {count}");
    }
    counter(
        &mut out,
        "xtwig_events_dropped_total",
        "Journal entries evicted by the ring bound",
        journal.dropped(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(query: &str, micros: u64) -> SlowQuery {
        SlowQuery {
            query: query.to_owned(),
            strategy: Strategy::RootPaths,
            micros,
            generation: 0,
            spans: String::new(),
            request_id: 0,
            peer: String::new(),
        }
    }

    fn slow_with_id(query: &str, request_id: u64) -> SlowQuery {
        SlowQuery { request_id, ..slow(query, 100) }
    }

    #[test]
    fn find_trace_prefers_newest_and_ignores_zero() {
        let r = MetricsRegistry::new(Some(100), 4);
        r.record_slow(slow_with_id("old", 7));
        r.record_sampled(slow_with_id("new", 7));
        r.record_sampled(slow_with_id("other", 9));
        assert_eq!(r.find_trace(7).unwrap().query, "new");
        assert_eq!(r.find_trace(9).unwrap().query, "other");
        assert!(r.find_trace(0).is_none());
        assert!(r.find_trace(42).is_none());
        // Sampled records do not inflate the slow counter.
        assert_eq!(r.slow_total(), 1);
    }

    #[test]
    fn slow_ring_evicts_oldest_but_total_keeps_counting() {
        let r = MetricsRegistry::new(Some(100), 2);
        assert!(!r.is_slow(Duration::from_micros(99)));
        assert!(r.is_slow(Duration::from_micros(100)));
        for i in 0..5 {
            r.record_slow(slow(&format!("q{i}"), 100 + i));
        }
        let kept = r.slow_queries();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].query, "q3");
        assert_eq!(kept[1].query, "q4");
        assert_eq!(r.slow_total(), 5);
    }

    #[test]
    fn disabled_slow_log_never_matches() {
        let r = MetricsRegistry::new(None, 32);
        assert!(!r.is_slow(Duration::from_secs(3600)));
        let zero_cap = MetricsRegistry::new(Some(0), 0);
        assert!(!zero_cap.is_slow(Duration::ZERO));
    }

    #[test]
    fn shape_map_bounds_and_overflows() {
        let r = MetricsRegistry::new(None, 0);
        for i in 0..MetricsRegistry::SHAPE_CAPACITY + 3 {
            r.observe_shape(&format!("shape{i}"), Duration::from_micros(10));
        }
        assert_eq!(r.shape_rows().len(), MetricsRegistry::SHAPE_CAPACITY);
        assert_eq!(r.shape_overflow(), 3);
        // Existing shapes keep accumulating after the map fills.
        r.observe_shape("shape0", Duration::from_micros(5));
        let row = r.shape_rows().into_iter().find(|(s, ..)| s == "shape0").unwrap();
        assert_eq!(row.1, 2);
        assert_eq!(row.2, 15);
    }

    #[test]
    fn shape_rows_sort_busiest_first_then_by_name() {
        let r = MetricsRegistry::new(None, 0);
        r.observe_shape("b", Duration::from_micros(1));
        r.observe_shape("a", Duration::from_micros(1));
        r.observe_shape("a", Duration::from_micros(1));
        r.observe_shape("c", Duration::from_micros(1));
        let rows = r.shape_rows();
        assert_eq!(rows.iter().map(|(s, ..)| s.as_str()).collect::<Vec<_>>(), ["a", "b", "c"]);
    }
}
