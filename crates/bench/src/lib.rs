//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin` regenerates one table or figure of the
//! paper's evaluation (the README's "Benchmarks" section lists them).
//! They share dataset construction, engine building,
//! repeated-measurement helpers and result output through this module.
//! Serving performance is not measured here: the ledger under
//! `benchmark/` is the one place for that.
//!
//! Scale control: pass `--scale <f>`; the default 0.02 keeps every
//! binary under a minute on a laptop while preserving the selectivity
//! ratios of the paper's 100 MB/50 MB datasets.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_datagen::{
    generate_dblp, generate_xmark, DblpConfig, DblpProfile, XmarkConfig, XmarkProfile,
};
use xtwig_xml::{TwigPattern, XmlForest};

/// Default scale relative to the paper's datasets.
pub const DEFAULT_SCALE: f64 = 0.02;
/// Buffer-pool pages per structure (40 MiB, matching §5.1.1).
pub const POOL_PAGES: usize = 5_120;
/// Warm-cache repetitions, matching the paper's "total query execution
/// time of 10 independent runs with a warm cache".
pub const RUNS: usize = 10;

/// Reads the dataset scale from argv (`--scale <f>`; default
/// [`DEFAULT_SCALE`]).
pub fn scale_from_args() -> f64 {
    flag_from_args("--scale", "a positive number", |s: &f64| *s > 0.0).unwrap_or(DEFAULT_SCALE)
}

/// The dataset scale of an example run as `cargo run --release
/// --example <name> [scale]`: `default` without an argument. Like
/// [`scale_from_args`], an argument that is not a positive number
/// prints the usage and exits with status 2 instead of running at the
/// default scale.
pub fn scale_from_first_arg(example: &str, default: f64) -> f64 {
    let Some(arg) = std::env::args().nth(1) else { return default };
    match arg.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale.is_finite() => scale,
        _ => {
            eprintln!("usage: cargo run --release --example {example} [scale]");
            eprintln!("the scale must be a positive number, got {arg:?}");
            std::process::exit(2);
        }
    }
}

/// Reads the index-build shard count from argv (`--shards <n>`; default
/// 1 = the sequential build). Every figure binary builds its engine
/// through [`engine`], so the flag applies uniformly; sharded and
/// sequential builds produce byte-identical indexes
/// (`QueryEngine::build_parallel`), so measurements are comparable
/// either way.
pub fn shards_from_args() -> usize {
    flag_from_args("--shards", "a positive integer", |n: &usize| *n >= 1).unwrap_or(1)
}

/// The value after `flag` in argv, `None` when the flag is absent. A
/// missing value or one that does not parse as `what` exits with status
/// 2 rather than falling back to the default: a typo must not produce a
/// measurement of something else than was asked for.
fn flag_from_args<T: std::str::FromStr>(
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let value = args.get(args.iter().position(|a| a == flag)? + 1);
    match value.and_then(|v| v.parse().ok()) {
        Some(v) if ok(&v) => Some(v),
        _ => {
            let got = value.map_or("<missing>", String::as_str);
            eprintln!("{flag} requires {what}, got {got:?}");
            std::process::exit(2);
        }
    }
}

/// Generates the XMark-like dataset at `scale`.
pub fn xmark_forest(scale: f64) -> (XmlForest, XmarkProfile) {
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 0xA0C });
    (forest, profile)
}

/// Generates the DBLP-like dataset at `scale`.
pub fn dblp_forest(scale: f64) -> (XmlForest, DblpProfile) {
    let mut forest = XmlForest::new();
    let profile = generate_dblp(&mut forest, DblpConfig { scale, seed: 0xD0B5 });
    (forest, profile)
}

/// Builds an engine with the given strategies and the 40 MiB pool,
/// honoring the `--shards` build-parallelism flag (shard count 1 is the
/// sequential build).
pub fn engine(forest: XmlForest, strategies: &[Strategy]) -> QueryEngine {
    QueryEngine::build_parallel(
        Arc::new(forest),
        EngineOptions {
            strategies: strategies.to_vec(),
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
        shards_from_args(),
    )
}

/// One measured cell of a results table.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy label (RP, DP, …).
    pub strategy: String,
    /// Query or series label.
    pub label: String,
    /// Result cardinality.
    pub results: u64,
    /// Total wall time of [`RUNS`] warm runs, in microseconds.
    pub total_micros: u64,
    /// Index probes per run.
    pub probes: u64,
    /// Match rows fetched per run.
    pub rows: u64,
    /// Logical page reads per run.
    pub logical_reads: u64,
    /// Plan kind that executed.
    pub plan: String,
}

/// Runs `twig` `RUNS` times warm (after one discarded warm-up run) and
/// aggregates.
pub fn measure(
    engine: &QueryEngine,
    twig: &TwigPattern,
    strategy: Strategy,
    label: &str,
) -> Measurement {
    let warmup = engine.answer(twig, strategy);
    let mut total = Duration::ZERO;
    for _ in 0..RUNS {
        let start = Instant::now();
        let a = engine.answer(twig, strategy);
        total += start.elapsed();
        debug_assert_eq!(a.ids.len(), warmup.ids.len());
    }
    Measurement {
        strategy: strategy.to_string(),
        label: label.to_owned(),
        results: warmup.ids.len() as u64,
        total_micros: total.as_micros() as u64,
        probes: warmup.metrics.probes,
        rows: warmup.metrics.rows_fetched,
        logical_reads: warmup.metrics.logical_reads,
        plan: format!("{:?}", warmup.plan),
    }
}

/// Prints a table of measurements grouped by label.
pub fn print_table(title: &str, rows: &[Measurement]) {
    println!("\n### {title}");
    println!(
        "{:<22} {:<8} {:>8} {:>12} {:>9} {:>9} {:>12}  plan",
        "query", "strategy", "results", "t(10 runs)", "probes", "rows", "logical I/O"
    );
    for m in rows {
        println!(
            "{:<22} {:<8} {:>8} {:>9}µs {:>9} {:>9} {:>12}  {}",
            m.label,
            m.strategy,
            m.results,
            m.total_micros,
            m.probes,
            m.rows,
            m.logical_reads,
            m.plan
        );
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Measurement {
    /// Renders the measurement as a pretty-printed JSON object (the
    /// build has no network access for a serde dependency, so the — flat
    /// and stable — schema is emitted by hand).
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{indent}{{\n\
             {indent}  \"strategy\": \"{}\",\n\
             {indent}  \"label\": \"{}\",\n\
             {indent}  \"results\": {},\n\
             {indent}  \"total_micros\": {},\n\
             {indent}  \"probes\": {},\n\
             {indent}  \"rows\": {},\n\
             {indent}  \"logical_reads\": {},\n\
             {indent}  \"plan\": \"{}\"\n\
             {indent}}}",
            json_escape(&self.strategy),
            json_escape(&self.label),
            self.results,
            self.total_micros,
            self.probes,
            self.rows,
            self.logical_reads,
            json_escape(&self.plan),
        )
    }
}

/// Writes measurements as JSON under `target/xtwig-results/`.
pub fn dump_json(name: &str, rows: &[Measurement]) {
    let dir = std::path::Path::new("target/xtwig-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let body: Vec<String> = rows.iter().map(|m| m.to_json("  ")).collect();
    let json = format!("[\n{}\n]\n", body.join(",\n"));
    let _ = std::fs::write(&path, json);
    println!("\n[results written to {}]", path.display());
}

/// True when argv holds `--quick`: the timing binaries (`build_time`,
/// `ablation_idlist`, `ablation_prefix`) then take 3 samples, enough
/// for a smoke run.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Times `routine` by the wall clock and prints its time per call under
/// `label`: one warm-up call sizes a batch of calls to about a
/// millisecond, then `samples` batches (3 under `--quick`) are timed,
/// and the fastest and the median batch are reported per call.
pub fn time_per_call<R>(label: &str, samples: usize, mut routine: impl FnMut() -> R) {
    let samples = if quick_from_args() { samples.min(3) } else { samples }.max(1);
    let start = Instant::now();
    std::hint::black_box(routine());
    let once = start.elapsed().as_nanos().max(1);
    let batch = (Duration::from_millis(1).as_nanos() / once).clamp(1, 1 << 20) as u32;
    let mut per_call: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            start.elapsed() / batch
        })
        .collect();
    per_call.sort_unstable();
    println!(
        "{label:<40} min {:>12.2?}  median {:>12.2?}  ({samples} samples x {batch} calls)",
        per_call[0],
        per_call[samples / 2]
    );
}

/// Megabyte formatting helper.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
