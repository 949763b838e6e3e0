//! Service-level statistics: counters and per-strategy
//! latency histograms, all lock-free atomics so the hot path never
//! blocks on bookkeeping.

use crate::cache::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xtwig_core::{QueryMetrics, Strategy};

/// Power-of-two latency buckets: bucket `i` counts queries whose
/// latency in microseconds lies in `[2^(i-1), 2^i)` (bucket 0: < 1 µs).
const BUCKETS: usize = 26; // up to ~33 s, far beyond any twig query

struct StrategyLatency {
    count: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl StrategyLatency {
    fn new() -> Self {
        StrategyLatency {
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        // `bucket` is clamped to BUCKETS-1 above; the get() keeps the
        // recording path structurally panic-free anyway.
        if let Some(b) = self.buckets.get(bucket) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self, strategy: Strategy) -> LatencySnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = self.count.load(Ordering::Relaxed);
        let total = self.total_micros.load(Ordering::Relaxed);
        LatencySnapshot {
            strategy,
            count,
            total_micros: total,
            mean_micros: if count == 0 { 0.0 } else { total as f64 / count as f64 },
            p50_micros: percentile_upper_bound(&buckets, count, 0.50),
            p95_micros: percentile_upper_bound(&buckets, count, 0.95),
            buckets,
        }
    }
}

/// Cumulative execution-cost counters of one strategy: the per-answer
/// `QueryMetrics` the engine reports (probes, rows fetched, logical and
/// physical page reads), summed over every executed query, plus how
/// often the optimizer routed a [`Strategy::Auto`] submission here.
/// These make optimizer accuracy observable in production: divergence
/// between picks and measured physical reads shows up directly in the
/// stats JSON.
struct StrategyCost {
    executed: AtomicU64,
    auto_picks: AtomicU64,
    probes: AtomicU64,
    rows_fetched: AtomicU64,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
}

impl StrategyCost {
    fn new() -> Self {
        StrategyCost {
            executed: AtomicU64::new(0),
            auto_picks: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            rows_fetched: AtomicU64::new(0),
            logical_reads: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
        }
    }

    fn record(&self, metrics: &QueryMetrics) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(metrics.probes, Ordering::Relaxed);
        self.rows_fetched.fetch_add(metrics.rows_fetched, Ordering::Relaxed);
        self.logical_reads.fetch_add(metrics.logical_reads, Ordering::Relaxed);
        self.physical_reads.fetch_add(metrics.physical_reads, Ordering::Relaxed);
    }

    fn snapshot(&self, strategy: Strategy) -> StrategyCostSnapshot {
        StrategyCostSnapshot {
            strategy,
            executed: self.executed.load(Ordering::Relaxed),
            auto_picks: self.auto_picks.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            rows_fetched: self.rows_fetched.load(Ordering::Relaxed),
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
        }
    }
}

/// Escapes a string for embedding in a double-quoted JSON string
/// literal: backslash, quote, and control characters. Prometheus label
/// values use the same escapes (`\\`, `\"`, `\n`), so the metrics
/// exposition shares this helper.
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
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

/// Upper bound (bucket boundary) of the requested percentile.
fn percentile_upper_bound(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (count as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return 1u64 << i;
        }
    }
    1u64 << (buckets.len() - 1)
}

/// Internal live counters of a [`crate::TwigService`].
pub struct ServiceStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) rebuilds: AtomicU64,
    pub(crate) journal_ops: AtomicU64,
    pub(crate) replayed_ops: AtomicU64,
    pub(crate) folds: AtomicU64,
    latency: Vec<StrategyLatency>, // indexed by position in Strategy::ALL
    costs: Vec<StrategyCost>,      // indexed by position in Strategy::ALL
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            journal_ops: AtomicU64::new(0),
            replayed_ops: AtomicU64::new(0),
            folds: AtomicU64::new(0),
            latency: Strategy::ALL.iter().map(|_| StrategyLatency::new()).collect(),
            costs: Strategy::ALL.iter().map(|_| StrategyCost::new()).collect(),
        }
    }
}

/// Maps a strategy to its parallel-array slot; `None` (rather than a
/// panic) for a strategy `Strategy::ALL` does not enumerate.
fn strategy_slot<T>(slots: &[T], strategy: Strategy) -> Option<&T> {
    Strategy::ALL.iter().position(|s| *s == strategy).and_then(|i| slots.get(i))
}

impl ServiceStats {
    pub(crate) fn record_latency(&self, strategy: Strategy, elapsed: Duration) {
        // A strategy outside `ALL` loses its sample instead of
        // panicking the recording thread; stats are best-effort.
        let Some(slot) = strategy_slot(&self.latency, strategy) else { return };
        slot.record(elapsed);
    }

    /// Accounts one executed answer's engine metrics against its
    /// (concrete) strategy.
    pub(crate) fn record_cost(&self, strategy: Strategy, metrics: &QueryMetrics) {
        let Some(slot) = strategy_slot(&self.costs, strategy) else { return };
        slot.record(metrics);
    }

    /// Accounts one `Strategy::Auto` submission the optimizer routed to
    /// `strategy`.
    pub(crate) fn record_auto_pick(&self, strategy: Strategy) {
        let Some(slot) = strategy_slot(&self.costs, strategy) else { return };
        slot.auto_picks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn latency_snapshots(&self) -> Vec<LatencySnapshot> {
        self.latency
            .iter()
            .zip(Strategy::ALL.iter())
            .filter(|(l, _)| l.count.load(Ordering::Relaxed) > 0)
            .map(|(l, s)| l.snapshot(*s))
            .collect()
    }

    pub(crate) fn cost_snapshots(&self) -> Vec<StrategyCostSnapshot> {
        self.costs
            .iter()
            .zip(Strategy::ALL.iter())
            .filter(|(c, _)| {
                c.executed.load(Ordering::Relaxed) > 0 || c.auto_picks.load(Ordering::Relaxed) > 0
            })
            .map(|(c, s)| c.snapshot(*s))
            .collect()
    }
}

/// Latency distribution of one strategy.
#[derive(Debug, Clone)]
pub struct LatencySnapshot {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Queries executed (cache hits are not latency-measured).
    pub count: u64,
    /// Summed execution latency in microseconds.
    pub total_micros: u64,
    /// Mean execution latency in microseconds.
    pub mean_micros: f64,
    /// Median upper bound (power-of-two bucket boundary).
    pub p50_micros: u64,
    /// 95th-percentile upper bound.
    pub p95_micros: u64,
    /// Raw power-of-two bucket counts.
    pub buckets: Vec<u64>,
}

/// Cumulative execution-cost counters of one strategy.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCostSnapshot {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Queries executed against it (cache hits excluded — they do no
    /// index work).
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
}

/// A point-in-time view of every service metric; callers read the
/// fields, and [`ServiceSnapshot::to_json`] is what the wire `Stats` op
/// ships.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Queries admitted.
    pub submitted: u64,
    /// Queries answered successfully.
    pub completed: u64,
    /// Queries resolved with an error.
    pub failed: u64,
    /// Index-maintenance transactions applied.
    pub updates: u64,
    /// Full engine rebuild-and-swap operations completed.
    pub rebuilds: u64,
    /// Update ops committed to the maintenance journal.
    pub journal_ops: u64,
    /// Journal ops replayed onto freshly rebuilt engines (cumulative
    /// across rebuilds — each rebuild replays the full journal).
    pub replayed_ops: u64,
    /// Persist calls that folded the copy-on-write overlay into a new
    /// base image.
    pub folds: u64,
    /// Queries currently admitted and not yet answered (executing on
    /// their callers' threads).
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
    /// Per-strategy execution latency (strategies with traffic only).
    pub latency: Vec<LatencySnapshot>,
    /// Per-strategy execution costs and optimizer picks (strategies
    /// with traffic only).
    pub costs: Vec<StrategyCostSnapshot>,
}

impl ServiceSnapshot {
    /// Renders the snapshot as a JSON object (hand-rolled: the build
    /// has no crates.io access for serde; schema is flat and stable).
    pub fn to_json(&self, indent: &str) -> String {
        let lat: Vec<String> = self
            .latency
            .iter()
            .map(|l| {
                format!(
                    "{indent}    {{\"strategy\": \"{}\", \"count\": {}, \"mean_micros\": {:.1}, \
                     \"p50_micros\": {}, \"p95_micros\": {}}}",
                    json_escape(&l.strategy.to_string()),
                    l.count,
                    l.mean_micros,
                    l.p50_micros,
                    l.p95_micros
                )
            })
            .collect();
        let costs: Vec<String> = self
            .costs
            .iter()
            .map(|c| {
                format!(
                    "{indent}    {{\"strategy\": \"{}\", \"executed\": {}, \"auto_picks\": {}, \
                     \"probes\": {}, \"rows_fetched\": {}, \"logical_reads\": {}, \
                     \"physical_reads\": {}}}",
                    json_escape(&c.strategy.to_string()),
                    c.executed,
                    c.auto_picks,
                    c.probes,
                    c.rows_fetched,
                    c.logical_reads,
                    c.physical_reads
                )
            })
            .collect();
        format!(
            "{indent}{{\n\
             {indent}  \"submitted\": {},\n\
             {indent}  \"completed\": {},\n\
             {indent}  \"failed\": {},\n\
             {indent}  \"updates\": {},\n\
             {indent}  \"rebuilds\": {},\n\
             {indent}  \"journal_ops\": {},\n\
             {indent}  \"replayed_ops\": {},\n\
             {indent}  \"folds\": {},\n\
             {indent}  \"in_flight\": {},\n\
             {indent}  \"admission_limit\": {},\n\
             {indent}  \"overloaded\": {},\n\
             {indent}  \"generation\": {},\n\
             {indent}  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n\
             {indent}  \"result_cache\": {{\"hits\": {}, \"misses\": {}, \"invalidated\": {}, \"hit_rate\": {:.4}}},\n\
             {indent}  \"latency\": [\n{}\n{indent}  ],\n\
             {indent}  \"costs\": [\n{}\n{indent}  ]\n\
             {indent}}}",
            self.submitted,
            self.completed,
            self.failed,
            self.updates,
            self.rebuilds,
            self.journal_ops,
            self.replayed_ops,
            self.folds,
            self.in_flight,
            self.admission_limit,
            self.overloaded,
            self.generation,
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache.hit_rate(),
            self.result_cache.hits,
            self.result_cache.misses,
            self.result_cache.invalidated,
            self.result_cache.hit_rate(),
            lat.join(",\n"),
            costs.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_and_percentiles() {
        let l = StrategyLatency::new();
        for micros in [1u64, 2, 3, 700, 900, 1_500] {
            l.record(Duration::from_micros(micros));
        }
        let s = l.snapshot(Strategy::RootPaths);
        assert_eq!(s.count, 6);
        assert!(s.mean_micros > 100.0);
        // p50 falls in the small buckets, p95 in the ~2ms bucket.
        assert!(s.p50_micros <= 16, "{}", s.p50_micros);
        assert!(s.p95_micros >= 1_024, "{}", s.p95_micros);
    }

    #[test]
    fn cost_counters_accumulate_per_strategy() {
        let stats = ServiceStats::default();
        let m = QueryMetrics {
            probes: 3,
            rows_fetched: 10,
            logical_reads: 7,
            physical_reads: 2,
            elapsed: Duration::from_micros(5),
        };
        stats.record_cost(Strategy::RootPaths, &m);
        stats.record_cost(Strategy::RootPaths, &m);
        stats.record_auto_pick(Strategy::RootPaths);
        stats.record_auto_pick(Strategy::Edge);
        let costs = stats.cost_snapshots();
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
        let stats = ServiceStats::default();
        stats.record_latency(Strategy::Edge, Duration::from_micros(42));
        stats.record_cost(
            Strategy::Edge,
            &QueryMetrics {
                probes: 4,
                rows_fetched: 2,
                logical_reads: 9,
                physical_reads: 1,
                elapsed: Duration::from_micros(42),
            },
        );
        let snap = ServiceSnapshot {
            submitted: 1,
            completed: 1,
            failed: 0,
            updates: 0,
            rebuilds: 0,
            journal_ops: 0,
            replayed_ops: 0,
            folds: 0,
            in_flight: 0,
            admission_limit: 1024,
            overloaded: 0,
            generation: 0,
            plan_cache: CacheStats { hits: 1, misses: 1, invalidated: 0 },
            result_cache: CacheStats::default(),
            latency: stats.latency_snapshots(),
            costs: stats.cost_snapshots(),
        };
        let json = snap.to_json("");
        assert!(json.contains("\"plan_cache\""));
        assert!(json.contains("\"hit_rate\": 0.5000"));
        assert!(json.contains("\"strategy\": \"Edge\""));
        assert!(json.contains("\"costs\""));
        assert!(json.contains("\"auto_picks\": 0"));
        assert!(json.contains("\"physical_reads\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
