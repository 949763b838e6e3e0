//! `fig_obs` — tracing-overhead figure (no paper counterpart; the
//! ROADMAP's observability item): what span tracing costs when it is
//! on, and what carrying the option costs when it is off.
//!
//! The engine has one executor body; `answer_compiled_with` hands it
//! `None` or `Some(&mut Trace)`, and every span, per-step pool
//! snapshot and detail string sits under that `Some`. The `off` rows
//! are the hot path every untraced request runs, gated against
//! `BENCH_obs.json`; the `on`/`off` ratio is what `explain --analyze`,
//! a sampled request, and every execution under an enabled slow-query
//! log pay.
//!
//! Both workloads interleave off/on samples (so frequency scaling and
//! cache state hit both sides equally) and assert after every pair
//! that the traced answer is identical — same result ids, same probe
//! and row counts — to the untraced one.
//!
//! Rows are emitted with `group`/`bench`/`min_ns` fields so
//! `bench_check` can gate them against the committed `BENCH_obs.json`
//! snapshot (`--allow-missing-baseline` keeps CI green until one is
//! recorded).
//!
//! Flags: `--scale <f>` (default 0.02), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use std::time::{Duration, Instant};
use xtwig_bench::{engine, host_parallelism, scale_from_args, xmark_forest};
use xtwig_core::engine::Strategy;
use xtwig_core::{parse_xpath, Trace};

struct Row {
    bench: String,
    min_ns: u128,
    mean_ns: u128,
}

fn min_mean(samples: &[Duration]) -> (Duration, Duration) {
    let min = samples.iter().copied().min().unwrap_or(Duration::ZERO);
    let total: Duration = samples.iter().sum();
    (min, total / samples.len().max(1) as u32)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if args.iter().any(|a| a == "--scale") || std::env::var_os("XTWIG_SCALE").is_some()
    {
        scale_from_args()
    } else if quick {
        0.002
    } else {
        0.02
    };
    let iters = if quick { 40 } else { 200 };
    let warmup = if quick { 5 } else { 20 };
    let cores = host_parallelism();
    println!("# fig_obs: span-tracing overhead (XMark scale {scale}, {cores} core(s))");

    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    // One scan-family and one walk-family strategy: the Edge family's
    // per-step deferred-counter drain is the costliest thing a trace
    // adds, so it must be under the overhead measurement.
    let engine = engine(&forest, &[Strategy::RootPaths, Strategy::Edge]);

    let workloads: [(&str, &str, Strategy); 2] = [
        ("single_path", "//person/name", Strategy::RootPaths),
        ("twig", "/site//item[quantity = '2']/location", Strategy::Edge),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (name, xpath, strategy) in workloads {
        let twig = parse_xpath(xpath).expect("workload query parses");
        let (compiled, plan) = engine.compile(&twig).expect("workload tags exist");

        for _ in 0..warmup {
            let _ = engine.answer_compiled_with(&compiled, &plan, strategy, None, None);
            let mut trace = Trace::new();
            let _ = engine.answer_compiled_with(&compiled, &plan, strategy, None, Some(&mut trace));
        }

        let mut off: Vec<Duration> = Vec::with_capacity(iters);
        let mut on: Vec<Duration> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let a = engine.answer_compiled_with(&compiled, &plan, strategy, None, None);
            off.push(start.elapsed());

            let mut trace = Trace::new();
            let start = Instant::now();
            let b = engine.answer_compiled_with(&compiled, &plan, strategy, None, Some(&mut trace));
            on.push(start.elapsed());

            // Tracing must be purely observational.
            assert_eq!(a.ids, b.ids, "{name}: traced ids diverged");
            assert_eq!(a.metrics.probes, b.metrics.probes, "{name}: traced probes diverged");
            assert_eq!(
                a.metrics.rows_fetched, b.metrics.rows_fetched,
                "{name}: traced rows diverged"
            );
            assert!(!trace.is_empty(), "{name}: traced run produced no spans");
        }

        let (off_min, off_mean) = min_mean(&off);
        let (on_min, on_mean) = min_mean(&on);
        let overhead =
            (on_mean.as_secs_f64() - off_mean.as_secs_f64()) / off_mean.as_secs_f64() * 100.0;
        println!(
            "{name:<12} [{}] off min {:>9.1} us mean {:>9.1} us | on min {:>9.1} us mean {:>9.1} us | tracing-on overhead {overhead:+.1}%",
            strategy.label(),
            off_min.as_secs_f64() * 1e6,
            off_mean.as_secs_f64() * 1e6,
            on_min.as_secs_f64() * 1e6,
            on_mean.as_secs_f64() * 1e6,
        );
        rows.push(Row {
            bench: format!("{name}/off"),
            min_ns: off_min.as_nanos(),
            mean_ns: off_mean.as_nanos(),
        });
        rows.push(Row {
            bench: format!("{name}/on"),
            min_ns: on_min.as_nanos(),
            mean_ns: on_mean.as_nanos(),
        });
    }
    println!("tracing-off overhead: the `off` rows run the same `execute`, handed no trace");

    // Hand-rolled JSON (no serde in the offline build); `group`/`bench`/
    // `min_ns` match the bench_check scanner.
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\n    \"group\": \"fig_obs\",\n    \"bench\": \"{}\",\n    \
                 \"min_ns\": {},\n    \"mean_ns\": {},\n    \"iters\": {iters},\n    \
                 \"warmup\": {warmup}\n  }}",
                r.bench, r.min_ns, r.mean_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": {scale},\n  \"host_parallelism\": {cores},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    );
    let dir = std::path::Path::new("target/xtwig-results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("fig_obs.json");
        let _ = std::fs::write(&path, &json);
        println!("[results written to {}]", path.display());
    }
}
