//! The ledger's vocabulary: every metric the benchmark reports, with
//! its unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! declares the same tables to the driver; a test keeps the two equal.

use std::collections::BTreeMap;

use crate::json;

/// One declared metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression;
/// per-layer metrics carry none (0.0).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: 0.0 }
}

/// What a user of the system sees; the same nine on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_p90_us", "us", false, 0.25),
    e2e("lat_bulk_p50_us", "us", false, 0.25),
    // 1 − failed_frac: the contract admits no metric that reads 0, so
    // the failure share is declared through its complement.
    e2e("ok_frac", "ratio", true, 0.001),
    e2e("commit_p50_ms", "ms", false, 0.25),
    e2e("index_bytes_per_node", "B", false, 0.01),
    e2e("peak_rss_mb", "MiB", false, 0.05),
];

/// One row per thing a single layer does, named `<crate>.<what>`.
/// `self_us.<span>` rows are the traced replay's per-layer self times.
pub const PER_LAYER: &[MetricDef] = &[
    lower("core.build_s", "s"),
    lower("core.persist_s", "s"),
    lower("core.open_s", "s"),
    lower("core.index_bytes_per_node", "B"),
    lower("core.parse_xpath_us", "us"),
    lower("core.exec_us.rp", "us"),
    lower("core.exec_us.dp", "us"),
    lower("core.exec_us.edge", "us"),
    lower("core.exec_us.dg_edge", "us"),
    lower("core.exec_us.if_edge", "us"),
    lower("core.exec_us.asr", "us"),
    lower("core.exec_us.ji", "us"),
    lower("core.probes_per_op", "count"),
    lower("core.logical_reads_per_op", "count"),
    lower("core.physical_reads_per_op", "count"),
    lower("core.rows_per_result", "ratio"),
    lower("opt.plan_us", "us"),
    lower("opt.auto_regret", "ratio"),
    lower("btree.get_ns", "ns"),
    lower("btree.scan_ns_per_entry", "ns"),
    lower("btree.pages_per_get", "count"),
    lower("btree.bulk_build_ns_per_entry", "ns"),
    lower("btree.insert_us", "us"),
    lower("storage.fetch_hit_ns", "ns"),
    lower("storage.fetch_hit_ns_mt", "ns"),
    lower("storage.fetch_miss_us", "us"),
    higher("storage.hit_ratio", "ratio"),
    lower("storage.misses_per_op", "count"),
    lower("storage.cow_fork_us", "us"),
    lower("rel.idlist_decode_ns_per_id", "ns"),
    lower("rel.idlist_encode_ns_per_id", "ns"),
    lower("rel.key_encode_ns", "ns"),
    lower("service.overhead_us", "us"),
    lower("service.result_hit_us", "us"),
    higher("service.result_hit_ratio", "ratio"),
    higher("service.plan_hit_ratio", "ratio"),
    lower("service.rejected_frac", "ratio"),
    lower("service.commit_ms", "ms"),
    lower("service.reader_slowdown", "ratio"),
    lower("net.ping_rtt_us", "us"),
    lower("net.req_codec_ns", "ns"),
    lower("net.resp_codec_ns_per_id", "ns"),
    lower("net.bytes_per_id", "B"),
    lower("net.frame_rw_ns", "ns"),
    lower("net.dispatch_overhead_us", "us"),
    lower("net.transport_us", "us"),
    lower("net.transport_bulk_us", "us"),
    lower("obs.traced_exec_ratio", "ratio"),
    higher("trace.overhead_ratio", "ratio"),
    lower("trace.door_self_sum_us", "us"),
    lower("self_us.net.client_query", "us"),
    lower("self_us.net.dispatch", "us"),
    lower("self_us.core.parse_xpath", "us"),
    lower("self_us.service.execute", "us"),
    lower("self_us.opt.plan", "us"),
    lower("self_us.core.exec", "us"),
    lower("self_us.net.resp_codec", "us"),
    lower("self_us.net.frame_rw", "us"),
    lower("door.lat_p99_us", "us"),
    lower("gen.datagen_s", "s"),
    lower("gen.oracle_s", "s"),
    lower("gen.writer_late_p99_ms", "ms"),
];

/// The values of one run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under `name`, which must be declared in `table`.
    ///
    /// # Panics
    /// On an undeclared name or a non-finite value — both are bugs in
    /// the harness, and a silent `NaN` would poison a later comparison.
    pub fn set(&mut self, table: &[MetricDef], name: &str, value: f64) {
        let def = table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(def.name, value);
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.set(END_TO_END, name, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.set(PER_LAYER, name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `"metrics"` object of the result line: every metric of
    /// `table`, in table order.
    ///
    /// # Panics
    /// If a declared metric was never set: a run reports all or nothing.
    pub fn render(&self, table: &[MetricDef]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or_else(|| panic!("metric {} was not set", d.name));
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name,
                    json::escape(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// A name-aligned listing for the human reading the log.
    pub fn print(&self, table: &[MetricDef]) {
        for d in table {
            if let Some(v) = self.get(d.name) {
                let better = if d.higher_is_better { "higher" } else { "lower" };
                println!("  {:<34} {:>16.4} {:<6} ({better} is better)", d.name, v, d.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_are_valid(table: &[MetricDef]) {
        let mut seen = std::collections::BTreeSet::new();
        for d in table {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                d.name.chars().all(ok) && d.name.chars().next().unwrap().is_ascii_alphanumeric()
            );
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        names_are_valid(END_TO_END);
        names_are_valid(PER_LAYER);
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, table: &[MetricDef], bounded: bool| {
            let declared = doc.get(key).and_then(json::Value::as_array).unwrap();
            assert_eq!(declared.len(), table.len(), "{key} length");
            for (j, d) in declared.iter().zip(table) {
                assert_eq!(j.get("name").and_then(json::Value::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(d.unit));
                let better = if d.higher_is_better { "higher" } else { "lower" };
                assert_eq!(
                    j.get("better").and_then(json::Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
                let bound = j.get("bound").and_then(json::Value::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{} bound", d.name);
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn ledger_renders_every_declared_metric_in_order() {
        let table = [lower("a", "us"), higher("b.c", "1/s")];
        let mut ledger = Ledger::default();
        ledger.set(&table, "b.c", 2.5);
        ledger.set(&table, "a", 1.0);
        let doc = json::parse(&ledger.render(&table)).unwrap();
        let fields = doc.as_object().unwrap();
        assert_eq!(fields[0].0, "a");
        assert_eq!(fields[1].1.get("value").and_then(json::Value::as_f64), Some(2.5));
    }
}
