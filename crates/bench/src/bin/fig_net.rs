//! `fig_net` — the wire's cost (no paper counterpart; the ROADMAP's
//! server item): what serving a twig query over TCP adds on top of
//! in-process dispatch.
//!
//! The network suite proves wire answers are byte-identical to
//! in-process execution; this figure prices the layer. An XMark index
//! is persisted, served through a [`Catalog`] by a real `Server` on a
//! loopback socket, and the same query stream is timed through both
//! doors. Timing rows:
//!
//! * `inproc/query` — `TwigService::execute` on the caller's thread,
//!   the exact dispatch path a server connection thread uses;
//! * `wire/ping` — an empty protocol round trip (frame encode + TCP
//!   loopback + frame decode), the floor the transport imposes;
//! * `wire/query` — the full client round trip: encode, send, execute
//!   on the connection thread, encode ids, decode. The gap to
//!   `inproc/query` minus `wire/ping` is id-serialization cost.
//!
//! Result caching is off so every sample is a real execution; the
//! wire and in-process answers are asserted identical each iteration,
//! so the figure doubles as an end-to-end smoke. Rows carry
//! `group`/`bench`/`min_ns` for `bench_check` gating against
//! `BENCH_net.json` (`--allow-missing-baseline` keeps CI green until
//! a snapshot is recorded).
//!
//! Flags: `--scale <f>` (default 0.01), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use std::sync::Arc;
use std::time::Duration;
use xtwig_bench::{host_parallelism, measure_iters, scale_from_args, xmark_forest, POOL_PAGES};
use xtwig_core::engine::EngineOptions;
use xtwig_core::{parse_xpath, QueryEngine, Strategy};
use xtwig_net::{Client, Server};
use xtwig_service::{Catalog, CatalogOptions, ServiceOptions};

struct Row {
    bench: String,
    min_ns: u128,
    mean_ns: u128,
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
        0.01
    };
    let iters = if quick { 60 } else { 500 };
    let warmup = if quick { 5 } else { 25 };
    let cores = host_parallelism();
    println!(
        "# fig_net: wire round-trip cost vs in-process dispatch \
         (XMark scale {scale}, {cores} core(s))"
    );

    // Persist the index, then serve it through the catalog exactly the
    // way `xtwig serve` does — open-on-demand, zero rebuild.
    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    let dir = std::env::temp_dir().join(format!("xtwig-fig-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let engine = QueryEngine::build(
        forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
    );
    engine.persist(dir.join("xmark.xtwig")).expect("persist");
    drop(engine);

    // Result cache off: every sample through either door is a real
    // execution, so the wire/inproc gap is transport, not cache luck.
    let catalog = Arc::new(Catalog::new(CatalogOptions {
        service: ServiceOptions { result_cache_capacity: 0, ..Default::default() },
        ..Default::default()
    }));
    catalog.register("xmark", dir.join("xmark.xtwig"));
    let server = Server::bind("127.0.0.1:0", catalog.clone()).expect("bind");
    let handle = server.handle().expect("handle");
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let twig = parse_xpath("//person/name").expect("query parses");
    let svc = catalog.get("xmark").expect("open persisted index");
    let expected: Vec<u64> = svc
        .execute(&twig, Strategy::RootPaths)
        .expect("in-process answer")
        .ids
        .iter()
        .copied()
        .collect();
    println!("query //person/name: {} result(s)", expected.len());

    let mut rows: Vec<Row> = Vec::new();
    let mut record = |bench: String, min: Duration, mean: Duration| {
        println!(
            "{bench:<16} min {:>9.1} us   mean {:>9.1} us",
            min.as_secs_f64() * 1e6,
            mean.as_secs_f64() * 1e6
        );
        rows.push(Row { bench, min_ns: min.as_nanos(), mean_ns: mean.as_nanos() });
    };

    // Baseline: the dispatch path a connection thread runs, minus the
    // socket — direct execution on this thread.
    let (min, mean) = measure_iters(warmup, iters, || {
        let a = svc.execute(&twig, Strategy::RootPaths).expect("execute");
        assert_eq!(a.ids.len(), expected.len());
    });
    record("inproc/query".into(), min, mean);

    // The transport floor: an empty protocol round trip.
    let (min, mean) = measure_iters(warmup, iters, || {
        client.ping().expect("ping");
    });
    record("wire/ping".into(), min, mean);

    // The full wire round trip, answer identity asserted every time.
    let (min, mean) = measure_iters(warmup, iters, || {
        let a = client.query("xmark", "//person/name", "RP").expect("wire query");
        assert_eq!(a.ids, expected, "wire answer drifted from in-process");
    });
    record("wire/query".into(), min, mean);

    client.shutdown().expect("graceful shutdown");
    server_thread.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);

    // Hand-rolled JSON (no serde in the offline build); `group`/`bench`/
    // `min_ns` match the bench_check scanner.
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\n    \"group\": \"fig_net\",\n    \"bench\": \"{}\",\n    \
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
    let out = std::path::Path::new("target/xtwig-results");
    if std::fs::create_dir_all(out).is_ok() {
        let path = out.join("fig_net.json");
        let _ = std::fs::write(&path, &json);
        println!("[results written to {}]", path.display());
    }
}
