//! Service metrics, each declared once: the live counters a
//! [`TwigService`](crate::TwigService) records into (lock-free atomics,
//! plus one short-held mutex per executed query on the shape map and
//! one on the slow-query ring for slow or sampled ones), the
//! [`ServiceSnapshot`] taken of them, and one family table from which a
//! snapshot renders as the stats JSON ([`ServiceSnapshot::to_json`]) and
//! as Prometheus text ([`ServiceSnapshot::to_prometheus`]) alike.

use crate::cache::CacheStats;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xtwig_core::{QueryMetrics, Strategy};
use xtwig_storage::IoStatsSnapshot;

/// Log2 latency buckets: bucket `i` counts executions taking more than
/// `2^(i-1)` µs and at most `2^i` µs (bucket 0: at most 1 µs), exposed as
/// `le="2^i"`.
const BUCKETS: usize = 26; // up to ~33 s, far beyond any twig query

/// Distinct shapes tracked before new ones count as overflow (the map
/// must not grow without bound under adversarial query streams).
const SHAPE_CAPACITY: usize = 512;

/// Slow-query (and sampled-trace) records a service retains, oldest
/// evicted first.
pub const SLOW_QUERY_CAPACITY: usize = 32;

/// Whole microseconds of `elapsed`, saturating.
pub(crate) fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// One strategy's live counters (see [`StrategyCostSnapshot`]).
#[derive(Default)]
struct StrategySlot {
    executed: AtomicU64,
    auto_picks: AtomicU64,
    probes: AtomicU64,
    rows_fetched: AtomicU64,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

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

/// The live counters of one service. The service bumps the scalar
/// counters in place; everything else goes through the methods.
#[derive(Default)]
pub(crate) struct Metrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) journal_ops: AtomicU64,
    pub(crate) folds: AtomicU64,
    strategies: [StrategySlot; Strategy::ALL.len()], // indexed as Strategy::ALL
    /// `(executed, total_micros)` per shape key.
    shapes: Mutex<HashMap<String, (u64, u64)>>,
    shape_overflow: AtomicU64,
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_total: AtomicU64,
    /// The latency from which an execution is logged as slow; `None`
    /// when the slow-query log is off.
    pub(crate) slow_threshold: Option<Duration>,
}

impl Metrics {
    /// Counters logging runs of `slow_query_micros` or more into a ring.
    pub(crate) fn new(slow_query_micros: Option<u64>) -> Self {
        Metrics {
            slow_threshold: slow_query_micros.map(Duration::from_micros),
            ..Metrics::default()
        }
    }

    /// The slot of `strategy`; `None` (rather than a panic) for one
    /// `Strategy::ALL` does not enumerate, whose samples are dropped.
    fn slot(&self, strategy: Strategy) -> Option<&StrategySlot> {
        Strategy::ALL.iter().position(|s| *s == strategy).and_then(|i| self.strategies.get(i))
    }

    /// Whether a run this long is logged as slow: at or above the threshold.
    pub(crate) fn is_slow(&self, elapsed: Duration) -> bool {
        self.slow_threshold.is_some_and(|t| elapsed >= t)
    }

    /// Accounts one executed query: its costs and latency under its
    /// concrete `strategy`, its latency under its `shape` key.
    pub(crate) fn record(&self, strategy: Strategy, shape: String, metrics: &QueryMetrics) {
        let micros = micros(metrics.elapsed);
        if let Some(slot) = self.slot(strategy) {
            for (counter, n) in [
                (&slot.executed, 1),
                (&slot.probes, metrics.probes),
                (&slot.rows_fetched, metrics.rows_fetched),
                (&slot.logical_reads, metrics.logical_reads),
                (&slot.physical_reads, metrics.physical_reads),
                (&slot.total_micros, micros),
            ] {
                counter.fetch_add(n, Ordering::Relaxed);
            }
            // Rounded up, so no run above `2^k` µs counts under `le="2^k"`.
            let up = u64::try_from(metrics.elapsed.as_nanos().div_ceil(1000)).unwrap_or(u64::MAX);
            let bucket = 64 - up.saturating_sub(1).leading_zeros() as usize;
            if let Some(b) = slot.buckets.get(bucket.min(BUCKETS - 1)) {
                b.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut shapes = self.shapes.lock();
        if let Some((executed, total)) = shapes.get_mut(&shape) {
            *executed += 1;
            *total += micros;
        } else if shapes.len() < SHAPE_CAPACITY {
            shapes.insert(shape, (1, micros));
        } else {
            self.shape_overflow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts one `Strategy::Auto` submission routed to `strategy`.
    pub(crate) fn record_auto_pick(&self, strategy: Strategy) {
        if let Some(slot) = self.slot(strategy) {
            slot.auto_picks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends a record to the ring, evicting the oldest past capacity.
    /// Only a `slow` one counts as a slow query: a record the client
    /// sampled serves `Trace` lookups but is no SLO signal.
    pub(crate) fn record_trace(&self, entry: SlowQuery, slow: bool) {
        self.slow_total.fetch_add(u64::from(slow), Ordering::Relaxed);
        let mut slow = self.slow.lock();
        if slow.len() == SLOW_QUERY_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(entry);
    }

    /// The most recent retained record stamped with `request_id` (0
    /// never matches — local submissions share it).
    pub(crate) fn find_trace(&self, request_id: u64) -> Option<SlowQuery> {
        if request_id == 0 {
            return None;
        }
        self.slow.lock().iter().rev().find(|s| s.request_id == request_id).cloned()
    }

    /// The retained slow-query records, oldest first.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().iter().cloned().collect()
    }

    /// A snapshot of everything counted here; the fields the service
    /// keeps elsewhere (admission, caches, pools, events) stay default.
    pub(crate) fn snapshot(&self) -> ServiceSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let costs = (Strategy::ALL.iter().zip(&self.strategies))
            .filter(|(_, s)| load(&s.executed) > 0 || load(&s.auto_picks) > 0)
            .map(|(&strategy, s)| StrategyCostSnapshot {
                // Buckets before `executed`, which `record` bumps first:
                // no bucket then runs ahead of the `+Inf` count.
                buckets: s.buckets.each_ref().map(load),
                strategy,
                executed: load(&s.executed),
                auto_picks: load(&s.auto_picks),
                probes: load(&s.probes),
                rows_fetched: load(&s.rows_fetched),
                logical_reads: load(&s.logical_reads),
                physical_reads: load(&s.physical_reads),
                total_micros: load(&s.total_micros),
            })
            .collect();
        let mut shapes: Vec<_> =
            (self.shapes.lock().iter()).map(|(k, &(n, us))| (k.clone(), n, us)).collect();
        shapes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ServiceSnapshot {
            submitted: load(&self.submitted),
            completed: load(&self.completed),
            updates: load(&self.updates),
            journal_ops: load(&self.journal_ops),
            folds: load(&self.folds),
            costs,
            shapes,
            shape_overflow: load(&self.shape_overflow),
            slow_queries: load(&self.slow_total),
            ..ServiceSnapshot::default()
        }
    }
}

/// One strategy's cumulative counters: the engine's per-answer
/// `QueryMetrics` and latencies summed over every query executed
/// against it, and the optimizer's picks of it.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCostSnapshot {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Queries executed against it (cache hits do no index work).
    pub executed: u64,
    /// `Strategy::Auto` submissions the optimizer routed here.
    pub auto_picks: u64,
    /// Index probes issued.
    pub probes: u64,
    /// Match rows fetched.
    pub rows_fetched: u64,
    /// Buffer-pool page requests.
    pub logical_reads: u64,
    /// Pages read from the storage backend (cold portion).
    pub physical_reads: u64,
    /// Summed execution latency in microseconds.
    pub total_micros: u64,
    /// Executions per log2 latency bucket: bucket `i` holds latencies
    /// above `2^(i-1)` µs and up to `2^i` µs (the last: all slower).
    pub buckets: [u64; BUCKETS],
}

impl StrategyCostSnapshot {
    /// The latency bucket bound, in µs, at or under which a fraction
    /// `q` of the executions finished; 0 when none executed.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        if self.executed == 0 {
            return 0;
        }
        let rank = (self.executed as f64 * q).ceil() as u64;
        let mut seen = 0;
        let i = self.buckets.iter().position(|&c| {
            seen += c;
            seen >= rank
        });
        1 << i.unwrap_or(BUCKETS - 1)
    }
}

/// A point-in-time view of every service metric. Callers read the
/// fields; [`ServiceSnapshot::to_json`] is what the wire `Stats` op
/// ships, [`ServiceSnapshot::to_prometheus`] what its `Metrics` op does.
#[derive(Debug, Clone, Default)]
pub struct ServiceSnapshot {
    /// Queries admitted.
    pub submitted: u64,
    /// Queries answered successfully.
    pub completed: u64,
    /// Queries resolved with an error: always 0, as an admitted query
    /// always answers; the field keeps its family for scrapers.
    pub failed: u64,
    /// Index-maintenance transactions applied.
    pub updates: u64,
    /// Update ops committed.
    pub journal_ops: u64,
    /// Persist calls that folded the overlay into a new base image.
    pub folds: u64,
    /// Queries admitted and not yet answered.
    pub in_flight: usize,
    /// The configured admission bound (`0` = unbounded).
    pub admission_limit: usize,
    /// Requests refused by admission control.
    pub overloaded: u64,
    /// Current invalidation generation.
    pub generation: u64,
    /// Plan-cache counters.
    pub plan_cache: CacheStats,
    /// Result-cache counters.
    pub result_cache: CacheStats,
    /// Per-strategy costs, latency and picks (strategies with traffic).
    pub costs: Vec<StrategyCostSnapshot>,
    /// `(pool, page counters since engine build, resident pages)`.
    pub pools: Vec<(&'static str, IoStatsSnapshot, u64)>,
    /// `(shape key, executions, summed µs)`, busiest shape first.
    pub shapes: Vec<(String, u64, u64)>,
    /// Executions not attributed to a shape (shape map full).
    pub shape_overflow: u64,
    /// Queries at or above the slow-query threshold, ever.
    pub slow_queries: u64,
    /// Events emitted per kind, every kind present.
    pub events: Vec<(&'static str, u64)>,
    /// Journal entries evicted by the ring bound.
    pub events_dropped: u64,
}

/// How a family reads a snapshot: one unlabelled sample, or one sample
/// per row of one of its labelled collections.
#[derive(Clone, Copy)]
enum Read {
    One(fn(&ServiceSnapshot) -> u64),
    /// A field of one of the caches, whose JSON object adds its hit rate.
    Cache(fn(&ServiceSnapshot) -> &CacheStats, fn(&CacheStats) -> u64),
    Costs(fn(&StrategyCostSnapshot) -> u64),
    Pools(fn(&(&'static str, IoStatsSnapshot, u64)) -> u64),
    Shapes(fn(&(String, u64, u64)) -> u64),
    Events,
    /// The per-strategy latency histogram, laid out by each renderer.
    Latency,
}

use Read::{Cache, Costs, Events, Latency, One, Pools, Shapes};

/// One metric family: its Prometheus name, its stats-JSON key (as
/// `section.field` it is a field of the `section` object, or of each row
/// of the `section` array when labelled), help text, Prometheus type,
/// and how it reads a snapshot.
struct Family {
    name: &'static str,
    key: &'static str,
    help: &'static str,
    kind: &'static str,
    read: Read,
}

const fn counter(name: &'static str, key: &'static str, help: &'static str, read: Read) -> Family {
    Family { name, key, help, kind: "counter", read }
}

const fn gauge(name: &'static str, key: &'static str, help: &'static str, read: Read) -> Family {
    Family { name, key, help, kind: "gauge", read }
}

/// Every service metric, in rendering order.
#[rustfmt::skip]
static FAMILIES: &[Family] = &[
    counter("xtwig_queries_submitted_total", "submitted", "Queries accepted", One(|s| s.submitted)),
    counter("xtwig_queries_completed_total", "completed", "Queries answered", One(|s| s.completed)),
    counter("xtwig_queries_failed_total", "failed", "Queries resolved with an error", One(|s| s.failed)),
    counter("xtwig_updates_total", "updates", "Index-maintenance transactions", One(|s| s.updates)),
    counter("xtwig_journal_ops_total", "journal_ops", "Update ops committed", One(|s| s.journal_ops)),
    counter("xtwig_folds_total", "folds", "Overlay folds into a persisted base image", One(|s| s.folds)),
    gauge("xtwig_in_flight", "in_flight", "Queries admitted and not yet resolved", One(|s| s.in_flight as u64)),
    gauge("xtwig_admission_limit", "admission_limit", "Admission bound (0 = none)", One(|s| s.admission_limit as u64)),
    counter("xtwig_overloaded_total", "overloaded", "Requests refused by admission control", One(|s| s.overloaded)),
    gauge("xtwig_generation", "generation", "Current invalidation generation", One(|s| s.generation)),
    counter("xtwig_plan_cache_hits_total", "plan_cache.hits", "Plan-cache hits", Cache(|s| &s.plan_cache, |c| c.hits)),
    counter("xtwig_plan_cache_misses_total", "plan_cache.misses", "Plan-cache misses",
        Cache(|s| &s.plan_cache, |c| c.misses)),
    counter("xtwig_result_cache_hits_total", "result_cache.hits", "Result-cache hits",
        Cache(|s| &s.result_cache, |c| c.hits)),
    counter("xtwig_result_cache_misses_total", "result_cache.misses", "Result-cache misses",
        Cache(|s| &s.result_cache, |c| c.misses)),
    counter("xtwig_result_cache_invalidated_total", "result_cache.invalidated", "Result-cache entries gone stale",
        Cache(|s| &s.result_cache, |c| c.invalidated)),
    Family { name: "xtwig_query_latency_micros", key: "latency", kind: "histogram",
        help: "Execution latency per strategy (microseconds)", read: Latency },
    counter("xtwig_strategy_executed_total", "costs.executed", "Queries executed per strategy", Costs(|c| c.executed)),
    counter("xtwig_strategy_auto_picks_total", "costs.auto_picks", "Auto submissions routed per strategy",
        Costs(|c| c.auto_picks)),
    counter("xtwig_strategy_probes_total", "costs.probes", "Index probes per strategy", Costs(|c| c.probes)),
    counter("xtwig_strategy_rows_fetched_total", "costs.rows_fetched", "Match rows fetched per strategy",
        Costs(|c| c.rows_fetched)),
    counter("xtwig_strategy_logical_reads_total", "costs.logical_reads", "Buffer-pool page requests per strategy",
        Costs(|c| c.logical_reads)),
    counter("xtwig_strategy_physical_reads_total", "costs.physical_reads", "Backend page reads per strategy",
        Costs(|c| c.physical_reads)),
    counter("xtwig_pool_page_reads_total", "pools.page_reads", "Buffer-pool page requests per pool",
        Pools(|p| p.1.logical_reads)),
    counter("xtwig_pool_misses_total", "pools.misses", "Buffer-pool misses per pool", Pools(|p| p.1.physical_reads)),
    counter("xtwig_pool_pins_total", "pools.pins", "Page pins acquired per pool", Pools(|p| p.1.pins)),
    counter("xtwig_pool_cow_copies_total", "pools.cow_copies", "Page images copied on first write after a fork",
        Pools(|p| p.1.cow_copies)),
    gauge("xtwig_pool_resident_pages", "pools.resident_pages", "Page images materialized per pool", Pools(|p| p.2)),
    counter("xtwig_shape_queries_total", "shapes.executed", "Queries executed per twig shape", Shapes(|s| s.1)),
    counter("xtwig_shape_latency_micros_total", "shapes.total_micros",
        "Summed execution latency per twig shape (microseconds)", Shapes(|s| s.2)),
    counter("xtwig_shape_overflow_total", "shape_overflow", "Executions not attributed to a shape (shape map full)",
        One(|s| s.shape_overflow)),
    counter("xtwig_slow_queries_total", "slow_queries", "Queries at or above the slow-query threshold",
        One(|s| s.slow_queries)),
    counter("xtwig_events_total", "events.count", "Serving-layer events emitted per kind", Events),
    counter("xtwig_events_dropped_total", "events_dropped", "Journal entries evicted by the ring bound",
        One(|s| s.events_dropped)),
];

/// `(section, field)` of a JSON key; the section is empty at top level.
fn json_key(key: &str) -> (&str, &str) {
    key.split_once('.').unwrap_or(("", key))
}

/// Escapes a string for a double-quoted JSON string or Prometheus label
/// value (whose escapes `\\`, `\"`, `\n` are a subset of JSON's).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ServiceSnapshot {
    /// The strategies the latency histogram covers: those executed.
    fn executed_strategies(&self) -> impl Iterator<Item = &StrategyCostSnapshot> {
        self.costs.iter().filter(|c| c.executed > 0)
    }

    /// A family's label name (empty when unlabelled) and its samples as
    /// `(label value, value)` pairs; none for the histogram, which each
    /// renderer lays out itself.
    fn samples(&self, read: Read) -> (&'static str, Vec<(&str, u64)>) {
        match read {
            One(get) => ("", vec![("", get(self))]),
            Cache(stats, get) => ("", vec![("", get(stats(self)))]),
            Costs(get) => {
                ("strategy", self.costs.iter().map(|c| (c.strategy.label(), get(c))).collect())
            }
            Pools(get) => ("pool", self.pools.iter().map(|p| (p.0, get(p))).collect()),
            Shapes(get) => ("shape", self.shapes.iter().map(|s| (s.0.as_str(), get(s))).collect()),
            Events => ("kind", self.events.clone()),
            Latency => ("strategy", Vec::new()),
        }
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the build
    /// has no crates.io access for serde).
    pub fn to_json(&self, indent: &str) -> String {
        let same_section = |a: &Family, b: &Family| {
            let section = json_key(a.key).0;
            !section.is_empty() && section == json_key(b.key).0
        };
        let entries: Vec<String> =
            FAMILIES.chunk_by(same_section).map(|group| self.json_entry(group, indent)).collect();
        format!("{indent}{{\n{indent}  {}\n{indent}}}", entries.join(&format!(",\n{indent}  ")))
    }

    /// The JSON entry of one top-level family or of one section.
    fn json_entry(&self, group: &[Family], indent: &str) -> String {
        let Some(first) = group.first() else { return String::new() };
        let (section, field) = json_key(first.key);
        let (label, labelled) = self.samples(first.read);
        let columns: Vec<_> =
            group.iter().map(|f| (json_key(f.key).1, self.samples(f.read).1)).collect();
        let cells = |row: usize| {
            columns.iter().map(move |(f, c)| format!("\"{f}\": {}", c.get(row).map_or(0, |s| s.1)))
        };
        let object = |fields: Vec<String>| format!("{{{}}}", fields.join(", "));
        let rows: Vec<String> = match first.read {
            One(get) => return format!("\"{field}\": {}", get(self)),
            Cache(stats, _) => {
                let rate = format!("\"hit_rate\": {:.4}", stats(self).hit_rate());
                return format!("\"{section}\": {}", object(cells(0).chain([rate]).collect()));
            }
            Latency => (self.executed_strategies())
                .map(|c| {
                    let (strategy, count) = (c.strategy.label(), c.executed);
                    let mean = c.total_micros as f64 / count as f64;
                    let (p50, p95) = (c.percentile_micros(0.50), c.percentile_micros(0.95));
                    format!(
                        "{{\"strategy\": \"{strategy}\", \"count\": {count}, \"mean_micros\": \
                         {mean:.1}, \"p50_micros\": {p50}, \"p95_micros\": {p95}}}"
                    )
                })
                .collect(),
            _ => (labelled.iter().enumerate())
                .map(|(row, (value, _))| {
                    let label = format!("\"{label}\": \"{}\"", json_escape(value));
                    object(std::iter::once(label).chain(cells(row)).collect())
                })
                .collect(),
        };
        let name = if section.is_empty() { field } else { section };
        let rows = rows.join(&format!(",\n{indent}    "));
        format!("\"{name}\": [\n{indent}    {rows}\n{indent}  ]")
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP`/`# TYPE` headers, `name{label="value"} 123` samples, and
    /// the histogram's `_bucket`/`_sum`/`_count` samples with cumulative
    /// `le` bounds in microseconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for f in FAMILIES {
            let name = f.name;
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {}", f.help, f.kind);
            if let Latency = f.read {
                for c in self.executed_strategies() {
                    let s = format!("strategy=\"{}\"", c.strategy.label());
                    let mut cumulative = 0;
                    for (i, b) in c.buckets.iter().enumerate() {
                        cumulative += b;
                        let _ =
                            writeln!(out, "{name}_bucket{{{s},le=\"{}\"}} {cumulative}", 1u64 << i);
                    }
                    let _ = writeln!(out, "{name}_bucket{{{s},le=\"+Inf\"}} {}", c.executed);
                    let _ = writeln!(out, "{name}_sum{{{s}}} {}", c.total_micros);
                    let _ = writeln!(out, "{name}_count{{{s}}} {}", c.executed);
                }
                continue;
            }
            let (label, samples) = self.samples(f.read);
            for (value, sample) in samples {
                let _ = match label {
                    "" => writeln!(out, "{name} {sample}"),
                    _ => writeln!(out, "{name}{{{label}=\"{}\"}} {sample}", json_escape(value)),
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceOptions, TwigService, UpdateOp};
    use xtwig_core::engine::EngineOptions;
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn run(micros: u64) -> QueryMetrics {
        QueryMetrics {
            probes: 3,
            rows_fetched: 10,
            logical_reads: 7,
            physical_reads: 2,
            elapsed: Duration::from_micros(micros),
        }
    }

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
    fn latency_buckets_and_percentiles() {
        let m = Metrics::default();
        for micros in [1u64, 2, 3, 700, 900, 1_500] {
            m.record(Strategy::RootPaths, "s".into(), &run(micros));
        }
        let s = m.snapshot().costs.remove(0);
        assert_eq!(s.executed, 6);
        assert!(s.total_micros > 600);
        // p50 falls in the small buckets, p95 in the ~2ms bucket.
        assert!(s.percentile_micros(0.50) <= 16, "{}", s.percentile_micros(0.50));
        assert!(s.percentile_micros(0.95) >= 1_024, "{}", s.percentile_micros(0.95));
    }

    #[test]
    fn a_power_of_two_sample_counts_under_its_own_le_bound() {
        let m = Metrics::default();
        m.record(Strategy::RootPaths, "s".into(), &run(2));
        let snapshot = m.snapshot();
        let rp = snapshot.costs.first().unwrap();
        assert_eq!((rp.percentile_micros(0.50), rp.percentile_micros(0.95)), (2, 2));
        assert!(snapshot.to_json("").contains("\"p50_micros\": 2, \"p95_micros\": 2"));
        let text = snapshot.to_prometheus();
        let bucket = |le: &str| {
            let prefix =
                format!("xtwig_query_latency_micros_bucket{{strategy=\"RP\",le=\"{le}\"}} ");
            text.lines().find_map(|l| l.strip_prefix(prefix.as_str())).unwrap().to_owned()
        };
        assert_eq!((bucket("1"), bucket("2"), bucket("4")), ("0".into(), "1".into(), "1".into()));
        // The bounds are inclusive on every rung, and 0 µs sits under le="1".
        for micros in [0, 1, 4, 1_024] {
            m.record(Strategy::Edge, "s".into(), &run(micros));
        }
        // A run between two rungs counts under the next one up: 2.5 µs is
        // above le="2", and 1.9 µs above le="1".
        for nanos in [2_500, 1_900] {
            let elapsed = Duration::from_nanos(nanos);
            m.record(Strategy::Edge, "s".into(), &QueryMetrics { elapsed, ..run(0) });
        }
        let edge = m.snapshot().costs.into_iter().find(|c| c.strategy == Strategy::Edge).unwrap();
        assert_eq!(edge.buckets[..12], [2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn cost_counters_accumulate_per_strategy() {
        let m = Metrics::default();
        m.record(Strategy::RootPaths, "s".into(), &run(5));
        m.record(Strategy::RootPaths, "s".into(), &run(5));
        m.record_auto_pick(Strategy::RootPaths);
        m.record_auto_pick(Strategy::Edge);
        let costs = m.snapshot().costs;
        assert_eq!(costs.len(), 2, "only strategies with traffic appear");
        let rp = costs.iter().find(|c| c.strategy == Strategy::RootPaths).unwrap();
        assert_eq!(rp.executed, 2);
        assert_eq!(rp.auto_picks, 1);
        assert_eq!(rp.probes, 6);
        assert_eq!(rp.rows_fetched, 20);
        assert_eq!(rp.logical_reads, 14);
        assert_eq!(rp.physical_reads, 4);
        let edge = costs.iter().find(|c| c.strategy == Strategy::Edge).unwrap();
        assert_eq!(edge.executed, 0, "a pick that hit the result cache executes nothing");
        assert_eq!(edge.auto_picks, 1);
        assert_eq!(edge.percentile_micros(0.50), 0, "no run, no latency");
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("line\nbreak\ttab\rcr"), "line\\nbreak\\ttab\\rcr");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // Non-ASCII passes through unescaped (JSON strings are UTF-8).
        assert_eq!(json_escape("café→"), "café→");
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let m = Metrics::default();
        m.record(Strategy::Edge, "s".into(), &QueryMetrics { physical_reads: 1, ..run(42) });
        let snap = ServiceSnapshot {
            submitted: 1,
            completed: 1,
            admission_limit: 1024,
            plan_cache: CacheStats { hits: 1, misses: 1, invalidated: 0 },
            ..m.snapshot()
        };
        let json = snap.to_json("");
        assert!(json.contains("\"plan_cache\""));
        assert!(json.contains("\"hit_rate\": 0.5000"));
        assert!(json.contains("\"strategy\": \"Edge\""));
        assert!(json.contains("\"costs\""));
        assert!(json.contains("\"auto_picks\": 0"));
        assert!(json.contains("\"physical_reads\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(snap.to_json("  ").lines().all(|l| l.starts_with("  ")), "indent not carried");
    }

    /// Every family of the table lands in both renderings, sample for
    /// sample, once traffic, an update, a persist fold and a slow query
    /// have given each of them one.
    #[test]
    fn every_family_renders_in_both_outputs() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions { slow_query_micros: Some(0), ..Default::default() },
        );
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        svc.execute(&twig, Strategy::Auto).unwrap();
        let tags = svc.with_engine(|e| {
            let dict = e.forest().dict();
            ["book", "allauthors", "author"].map(|t| dict.lookup(t).unwrap()).to_vec()
        });
        svc.apply_update(vec![UpdateOp::InsertPath { tags, ids: vec![1, 5, 900], value: None }]);
        svc.execute(&twig, Strategy::Auto).unwrap(); // the update staled the cached answer
        let path = std::env::temp_dir().join(format!("xtwig-parity-{}.xtwig", std::process::id()));
        svc.persist(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let snapshot = svc.stats();
        let (json, text) = (snapshot.to_json(""), snapshot.to_prometheus());
        for f in FAMILIES {
            assert!(text.contains(&format!("# TYPE {} {}\n", f.name, f.kind)), "{}", f.name);
            let (section, field) = json_key(f.key);
            assert!(json
                .contains(&format!("\"{}\": ", if section.is_empty() { field } else { section })));
            let (label, samples, name, field) = match f.read {
                // The histogram's samples are its per-strategy `_count`s.
                Latency => {
                    let counts =
                        snapshot.executed_strategies().map(|c| (c.strategy.label(), c.executed));
                    ("strategy", counts.collect(), format!("{}_count", f.name), "count")
                }
                read => {
                    let (label, samples) = snapshot.samples(read);
                    (label, samples, f.name.to_owned(), field)
                }
            };
            assert!(!samples.is_empty(), "{} has no sample", f.name);
            for (value_label, value) in samples {
                let line = match label {
                    "" => format!("{name} {value}\n"),
                    l => format!("{name}{{{l}=\"{}\"}} {value}\n", json_escape(value_label)),
                };
                assert!(text.contains(&line), "Prometheus lacks {line}");
                assert!(
                    json.contains(&format!("\"{field}\": {value}")),
                    "JSON lacks {} {value}",
                    f.key
                );
            }
        }
        assert!(snapshot.journal_ops > 0 && snapshot.folds > 0);
        assert!(snapshot.result_cache.invalidated > 0 && snapshot.slow_queries > 0);
    }

    #[test]
    fn find_trace_prefers_newest_and_ignores_zero() {
        let m = Metrics::new(Some(100));
        m.record_trace(slow_with_id("old", 7), true);
        m.record_trace(slow_with_id("new", 7), false);
        m.record_trace(slow_with_id("other", 9), false);
        assert_eq!(m.find_trace(7).unwrap().query, "new");
        assert_eq!(m.find_trace(9).unwrap().query, "other");
        assert!(m.find_trace(0).is_none());
        assert!(m.find_trace(42).is_none());
        // Sampled records do not inflate the slow counter.
        assert_eq!(m.snapshot().slow_queries, 1);
    }

    #[test]
    fn slow_ring_evicts_oldest_but_total_keeps_counting() {
        let m = Metrics::new(Some(100));
        assert_eq!(m.slow_threshold, Some(Duration::from_micros(100)));
        assert!(!m.is_slow(Duration::from_micros(99)));
        assert!(m.is_slow(Duration::from_micros(100)));
        let total = SLOW_QUERY_CAPACITY + 3;
        for i in 0..total {
            m.record_trace(slow(&format!("q{i}"), 100), true);
        }
        let kept = m.slow_queries();
        assert_eq!(kept.len(), SLOW_QUERY_CAPACITY);
        assert_eq!(kept[0].query, "q3");
        assert_eq!(kept[SLOW_QUERY_CAPACITY - 1].query, format!("q{}", total - 1));
        assert_eq!(m.snapshot().slow_queries, total as u64);
    }

    #[test]
    fn disabled_slow_log_never_matches() {
        let m = Metrics::new(None);
        assert_eq!(m.slow_threshold, None);
        assert!(!m.is_slow(Duration::from_secs(3600)));
    }

    #[test]
    fn shape_map_bounds_and_overflows() {
        let m = Metrics::default();
        for i in 0..SHAPE_CAPACITY + 3 {
            m.record(Strategy::RootPaths, format!("shape{i}"), &run(10));
        }
        let snapshot = m.snapshot();
        assert_eq!(snapshot.shapes.len(), SHAPE_CAPACITY);
        assert_eq!(snapshot.shape_overflow, 3);
        // Existing shapes keep accumulating after the map fills.
        m.record(Strategy::RootPaths, "shape0".into(), &run(5));
        let row = m.snapshot().shapes.into_iter().find(|s| s.0 == "shape0").unwrap();
        assert_eq!((row.1, row.2), (2, 15));
    }

    #[test]
    fn shapes_sort_busiest_first_then_by_name() {
        let m = Metrics::default();
        for shape in ["b", "a", "a", "c"] {
            m.record(Strategy::RootPaths, shape.into(), &run(1));
        }
        let shapes = m.snapshot().shapes;
        assert_eq!(shapes.iter().map(|s| s.0.as_str()).collect::<Vec<_>>(), ["a", "b", "c"]);
    }
}
