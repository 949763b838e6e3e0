//! `xtwig` — command-line twig querying over XML files.
//!
//! Loads one or more XML documents (or generates a synthetic dataset),
//! builds the requested index configuration, and evaluates XPath twig
//! queries, printing results, the chosen plan, and cost metrics.
//!
//! ```text
//! xtwig query   <file.xml> '<xpath>' [--strategy auto|RP|DP|Edge|DG|IF|ASR|JI] [--explain] [--shards N]
//! xtwig query   --index idx.xtwig '<xpath>' [--strategy ...] [--explain]
//! xtwig explain <file.xml> '<xpath>' [--analyze] [--shards N]
//! xtwig explain --index idx.xtwig '<xpath>' [--analyze]
//! xtwig advise  <file.xml> '<xpath>' ['<xpath>' ...] [--shards N]
//! xtwig advise  --index idx.xtwig '<xpath>' ['<xpath>' ...]
//! xtwig build   [<file.xml>] --out idx.xtwig [--strategies RP,DP,...] [--shards N]
//! xtwig bench   <file.xml> '<xpath>' [--shards N]   # run against every strategy
//! xtwig stats   <file.xml> [--shards N]             # dataset + index statistics
//! xtwig demo    ['<xpath>'] [--shards N]            # generated XMark data
//! xtwig serve   <idx.xtwig>... [--index-dir <dir>] [--addr host:port] [--addr-file <path>] [--idle-timeout SECS] [--access-log]
//! xtwig client  <addr> ping|catalog|shutdown|badframe [--timeout SECS]
//! xtwig client  <addr> query <index> '<xpath>' [--strategy auto|RP|...] [--sample]
//! xtwig client  <addr> explain|metrics|stats <index> ['<xpath>']
//! xtwig client  <addr> trace <index> <request_id>
//! xtwig client  <addr> events [--after N] [--max N] [--follow]
//! xtwig top     <addr> [--index NAME] [--interval SECS] [--once]
//! ```
//!
//! `--strategy` defaults to `auto`: the cost-based optimizer ranks the
//! built index configurations per query and executes the cheapest (the
//! resolved pick is printed as `auto→RP` etc.). `xtwig explain` prints
//! the whole ranking — estimated page reads, probes and rows per
//! strategy — next to the plan, whose every step shows the join method
//! chosen for it (`method=free` lookup or `method=bound` probes), the
//! `heads` it was priced on and both prices, and runs against a
//! persisted index **without rebuilding anything** (statistics and tree
//! shapes are stored in the index catalog). `--analyze` additionally
//! *executes* the query traced under every ranked strategy, printing
//! each pipeline stage's wall time and I/O counters next to the
//! estimate (EXPLAIN ANALYZE).
//!
//! `xtwig advise` closes the feedback loop: it replays the given
//! queries traced under every built strategy and summarizes the
//! engine's calibration log — per-strategy estimate accuracy, the worst
//! misestimates, and which cost-model constant each would rescale. The
//! report is advisory only; nothing is auto-tuned.
//!
//! `--shards N` builds the indexes with the shard-parallel builder
//! (`QueryEngine::build_parallel`); the resulting indexes are
//! byte-identical to the sequential build, so query results and
//! metrics are unaffected — only the build is parallelized.
//!
//! `build` persists the built engine (all seven strategies by default)
//! into a single `.xtwig` file; `query --index` reopens it with **zero
//! rebuild** — the invocation asserts that reattaching allocated no
//! index pages — and answers against the on-disk structures. Omitting
//! `build`'s input file indexes the generated XMark demo dataset.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::family::PathIndex;
use xtwig::core::paths::PathStats;
use xtwig::core::Explanation;
use xtwig::xml::{parse_document, NodeId, XmlForest};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  xtwig query <file.xml> '<xpath>' [--strategy auto|RP|DP|Edge|DG|IF|ASR|JI] [--explain] [--shards N]\n  xtwig query --index idx.xtwig '<xpath>' [--strategy ...] [--explain]\n  xtwig explain <file.xml> '<xpath>' [--analyze] [--shards N]\n  xtwig explain --index idx.xtwig '<xpath>' [--analyze]\n  xtwig advise <file.xml> '<xpath>' ['<xpath>' ...] [--shards N]\n  xtwig advise --index idx.xtwig '<xpath>' ['<xpath>' ...]\n  xtwig build [<file.xml>] --out idx.xtwig [--strategies RP,DP,...] [--shards N]\n  xtwig bench <file.xml> '<xpath>' [--shards N]\n  xtwig stats <file.xml> [--shards N]\n  xtwig demo ['<xpath>'] [--shards N]\n  xtwig serve <idx.xtwig>... [--index-dir <dir>] [--addr host:port] [--addr-file <path>] [--max-in-flight N] [--max-attached N] [--idle-timeout SECS] [--access-log]\n  xtwig client <addr> ping|catalog|shutdown|badframe [--timeout SECS]\n  xtwig client <addr> query <index> '<xpath>' [--strategy auto|RP|DP|Edge|DG|IF|ASR|JI] [--sample]\n  xtwig client <addr> explain <index> '<xpath>'\n  xtwig client <addr> metrics|stats <index>\n  xtwig client <addr> trace <index> <request_id>\n  xtwig client <addr> events [--after N] [--max N] [--follow]\n  xtwig top <addr> [--index NAME] [--interval SECS] [--once]\n  xtwig xray [--root DIR] [--config FILE]"
    );
    ExitCode::from(2)
}

/// Build-parallelism shard count: delegates to the shared
/// `--shards`/`XTWIG_SHARDS` parser every fig binary uses (default 1 =
/// sequential; an unparsable value exits with an error instead of
/// silently building sequentially).
fn shards_from() -> usize {
    xtwig::bench::shards_from_args()
}

fn strategy_from(label: &str) -> Option<Strategy> {
    label.parse().ok()
}

fn load(path: &str) -> Result<XmlForest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut forest = XmlForest::new();
    parse_document(&mut forest, &text).map_err(|e| format!("{path}: {e}"))?;
    Ok(forest)
}

fn print_node(forest: &XmlForest, id: u64) {
    let node = NodeId(id);
    let path: Vec<&str> =
        forest.root_path_tags(node).iter().map(|&t| forest.dict().name(t)).collect();
    match forest.value_str(node) {
        Some(v) => println!("  #{id}  /{}  = {v:?}", path.join("/")),
        None => println!("  #{id}  /{}", path.join("/")),
    }
}

fn print_answer(forest: &XmlForest, ids: &BTreeSet<u64>, verbose_limit: usize) {
    println!("{} result(s)", ids.len());
    for &id in ids.iter().take(verbose_limit) {
        print_node(forest, id);
    }
    if ids.len() > verbose_limit {
        println!("  … and {} more", ids.len() - verbose_limit);
    }
}

/// `auto→RP`-style label: the requested strategy, annotated with the
/// optimizer's concrete pick when the request was `auto`.
fn answered_label(requested: Strategy, answered: Strategy) -> String {
    if requested.is_auto() {
        format!("auto\u{2192}{}", answered.label())
    } else {
        answered.label().to_owned()
    }
}

/// Renders `xtwig explain`: the relational plan — per step its method
/// (`free` lookup or `bound` probes), the heads it was priced on and
/// both prices — then every built strategy with its estimated page
/// reads, probes and rows, cheapest first.
fn print_explanation(ex: &Explanation) {
    print!("{}", ex.plan);
    println!(
        "ranked strategies:\n  {:<8} {:>12} {:>10} {:>10}",
        "strategy", "est pages", "est probes", "est rows"
    );
    for (i, c) in ex.choices.iter().enumerate() {
        println!(
            "{} {:<8} {:>12.1} {:>10.0} {:>10.0}{}",
            if i == 0 { "\u{2192}" } else { " " },
            c.strategy.label(),
            c.est_page_reads,
            c.est_probes,
            c.est_rows,
            if i == 0 { "   [chosen by auto]" } else { "" },
        );
    }
}

fn explain_twig<F: Borrow<XmlForest>>(engine: &QueryEngine<F>, xpath: &str) -> ExitCode {
    let twig = match xtwig::parse_xpath(xpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match engine.explain(&twig) {
        Ok(ex) => {
            print_explanation(&ex);
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Unknown tag: the result is empty everywhere; nothing to rank.
            println!("{e}; the result is empty under every strategy");
            ExitCode::SUCCESS
        }
    }
}

/// `explain --analyze`: after the estimate ranking, actually execute
/// the query traced under every ranked (= built) strategy and print
/// each span tree — per-stage wall time, logical/physical reads,
/// probes and rows — next to the optimizer's estimate for that
/// strategy, so mis-estimates are visible at a glance.
fn analyze_twig<F: Borrow<XmlForest>>(engine: &QueryEngine<F>, xpath: &str) -> ExitCode {
    let twig = match xtwig::parse_xpath(xpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let ex = match engine.explain(&twig) {
        Ok(ex) => ex,
        Err(e) => {
            println!("{e}; the result is empty under every strategy");
            return ExitCode::SUCCESS;
        }
    };
    print_explanation(&ex);
    for choice in &ex.choices {
        let (a, trace) = engine.answer_traced(&twig, choice.strategy);
        // +1 on both sides keeps zero-read queries finite (matches the
        // calibration log's ratio definition).
        let ratio = (a.metrics.physical_reads as f64 + 1.0) / (choice.est_page_reads + 1.0);
        println!(
            "\n=== {} | {} result(s) | est {:.1} pages, actual {} physical reads (ratio {:.2}x) ===",
            choice.strategy.label(),
            a.ids.len(),
            choice.est_page_reads,
            a.metrics.physical_reads,
            ratio,
        );
        print!("{}", trace.render());
    }
    ExitCode::SUCCESS
}

/// `xtwig advise`: replay the given queries traced under every built
/// strategy, then summarize the calibration log the traced runs fed —
/// the optimizer-feedback loop, surfaced as an advisory report.
fn run_advise<F: Borrow<XmlForest>>(engine: &QueryEngine<F>, xpaths: &[String]) -> ExitCode {
    let mut traced = 0usize;
    for xpath in xpaths {
        let twig = match xtwig::parse_xpath(xpath) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{xpath}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if engine.explain(&twig).is_err() {
            // Unknown tag: nothing executes, so no sample to record.
            println!("skipping {xpath}: empty result under every strategy");
            continue;
        }
        for s in Strategy::ALL {
            if engine.has_strategy(s) {
                let _ = engine.answer_traced(&twig, s);
                traced += 1;
            }
        }
    }
    println!("traced {traced} execution(s) over {} quer(y/ies)\n", xpaths.len());
    println!("{}", engine.calibration_log().advise(10));
    ExitCode::SUCCESS
}

fn run_query(
    forest: &XmlForest,
    xpath: &str,
    strategy: Strategy,
    explain: bool,
    shards: usize,
) -> ExitCode {
    let twig = match xtwig::parse_xpath(xpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // `auto` ranks among the built configurations, so build them all;
    // a concrete request builds only what it needs.
    let strategies = if strategy.is_auto() { Strategy::ALL.to_vec() } else { vec![strategy] };
    let engine = QueryEngine::build_parallel(
        forest,
        EngineOptions { strategies, pool_pages: 5_120, ..Default::default() },
        shards,
    );
    if explain {
        if let Ok(ex) = engine.explain(&twig) {
            print_explanation(&ex);
        }
    }
    let a = engine.answer(&twig, strategy);
    print_answer(forest, &a.ids, 20);
    println!(
        "[{} | plan {:?} | {} probes | {} rows | {} logical reads | {:?}]",
        answered_label(strategy, a.strategy),
        a.plan,
        a.metrics.probes,
        a.metrics.rows_fetched,
        a.metrics.logical_reads,
        a.metrics.elapsed
    );
    ExitCode::SUCCESS
}

/// `xtwig build`: build the requested strategies and persist them into
/// one index file that `query --index` reopens without rebuilding.
fn run_build(forest: &XmlForest, out: &str, strategies: Vec<Strategy>, shards: usize) -> ExitCode {
    let labels: Vec<&str> = strategies.iter().map(|s| s.label()).collect();
    println!("building {} …", labels.join(", "));
    let started = std::time::Instant::now();
    let engine = QueryEngine::build_parallel(
        forest,
        EngineOptions { strategies, pool_pages: 5_120, ..Default::default() },
        shards,
    );
    let build_elapsed = started.elapsed();
    let started = std::time::Instant::now();
    match engine.persist(out) {
        Ok(report) => {
            println!(
                "wrote {out}: {} pages ({:.2} MB), strategies [{}] \
                 [build {build_elapsed:.2?} | persist {:.2?}]",
                report.file_pages,
                report.file_bytes as f64 / 1048576.0,
                report.strategies.iter().map(|s| s.label()).collect::<Vec<_>>().join(", "),
                started.elapsed(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("persist failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xtwig query --index`: reopen a persisted index and answer against
/// it — zero index-construction work, asserted via the open report's
/// build-phase allocation count.
fn run_query_indexed(index: &str, xpath: &str, strategy: Strategy, explain: bool) -> ExitCode {
    let twig = match xtwig::parse_xpath(xpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let (engine, report) = match QueryEngine::open_with_report(index) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open {index}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.open_allocations != 0 {
        eprintln!(
            "BUG: open allocated {} index page(s) — reopen must not rebuild",
            report.open_allocations
        );
        return ExitCode::FAILURE;
    }
    println!(
        "opened {index}: {} pages, {} digests verified, 0 pages built, [{}] in {:.2?}",
        report.file_pages,
        report.digests_verified,
        report.strategies.iter().map(|s| s.label()).collect::<Vec<_>>().join(", "),
        started.elapsed(),
    );
    if !engine.has_strategy(strategy) {
        eprintln!("strategy {} was not persisted in {index}", strategy.label());
        return ExitCode::FAILURE;
    }
    if explain {
        if let Ok(ex) = engine.explain(&twig) {
            print_explanation(&ex);
        }
    }
    let a = engine.answer(&twig, strategy);
    print_answer(engine.forest(), &a.ids, 20);
    println!(
        "[{} | plan {:?} | {} probes | {} rows | {} logical reads | {} physical reads | {:?}]",
        answered_label(strategy, a.strategy),
        a.plan,
        a.metrics.probes,
        a.metrics.rows_fetched,
        a.metrics.logical_reads,
        a.metrics.physical_reads,
        a.metrics.elapsed
    );
    ExitCode::SUCCESS
}

/// Reopens a persisted index for a read-only subcommand, asserting the
/// zero-rebuild invariant (shared by `explain --index` and
/// `advise --index`; `query --index` keeps its richer report line).
fn open_index(index: &str) -> Result<QueryEngine, ExitCode> {
    let started = std::time::Instant::now();
    let (engine, report) = match QueryEngine::open_with_report(index) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open {index}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if report.open_allocations != 0 {
        eprintln!(
            "BUG: open allocated {} index page(s) — reopen must not rebuild",
            report.open_allocations
        );
        return Err(ExitCode::FAILURE);
    }
    println!(
        "opened {index}: {} pages, 0 pages built, [{}] in {:.2?}",
        report.file_pages,
        report.strategies.iter().map(|s| s.label()).collect::<Vec<_>>().join(", "),
        started.elapsed(),
    );
    Ok(engine)
}

/// `xtwig explain`: compile, rank every built strategy with the cost
/// model, and print estimates next to the chosen plan. Over `--index`
/// this never rebuilds: the statistics and tree shapes come from the
/// persisted catalog (the open report's zero-allocation assertion
/// guards it, as for `query --index`).
fn run_explain_indexed(index: &str, xpath: &str, analyze: bool) -> ExitCode {
    match open_index(index) {
        Ok(engine) if analyze => analyze_twig(&engine, xpath),
        Ok(engine) => explain_twig(&engine, xpath),
        Err(code) => code,
    }
}

fn run_bench(forest: &XmlForest, xpath: &str, shards: usize) -> ExitCode {
    let twig = match xtwig::parse_xpath(xpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("building all seven configurations …");
    let engine = QueryEngine::build_parallel(
        forest,
        EngineOptions { pool_pages: 5_120, ..Default::default() },
        shards,
    );
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>12} {:>12}  plan",
        "strategy", "results", "probes", "rows", "logical I/O", "time"
    );
    for s in Strategy::ALL {
        let a = engine.answer(&twig, s);
        println!(
            "{:<8} {:>8} {:>9} {:>9} {:>12} {:>11.2?}  {:?}",
            s.label(),
            a.ids.len(),
            a.metrics.probes,
            a.metrics.rows_fetched,
            a.metrics.logical_reads,
            a.metrics.elapsed,
            a.plan
        );
    }
    ExitCode::SUCCESS
}

fn run_stats(forest: &XmlForest, shards: usize) -> ExitCode {
    let stats = PathStats::build(forest);
    println!("documents:            {}", forest.roots().len());
    println!("element/attr nodes:   {}", forest.node_count() - 1);
    println!("max depth:            {}", forest.max_depth());
    println!("distinct tags:        {}", forest.dict().len() - 1);
    println!("distinct schema paths: {}", stats.distinct_schema_paths());
    println!("approx text size:     {:.2} MB", forest.approx_text_bytes() as f64 / 1048576.0);
    let engine = QueryEngine::build_parallel(
        forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 16_384,
            ..Default::default()
        },
        shards,
    );
    if let Some(rp) = engine.rootpaths() {
        println!("ROOTPATHS: {} rows, {:.2} MB", rp.rows(), rp.space_bytes() as f64 / 1048576.0);
    }
    if let Some(dp) = engine.datapaths() {
        println!("DATAPATHS: {} rows, {:.2} MB", dp.rows(), dp.space_bytes() as f64 / 1048576.0);
    }
    ExitCode::SUCCESS
}

/// `xtwig serve`: register the given `.xtwig` files (and/or every
/// index in `--index-dir`) in a catalog and serve the wire protocol on
/// `--addr` until a client sends `shutdown`. `--addr-file` writes the
/// actually-bound address (port 0 resolves to an ephemeral port) for
/// harnesses that need to discover it.
fn run_serve(args: &[String]) -> ExitCode {
    use xtwig::net::{Server, ServerOptions};
    use xtwig::service::{Catalog, CatalogOptions, ServiceOptions};

    let mut server_options = ServerOptions::default();
    if let Some(n) = flag_value(args, "--idle-timeout") {
        match n.parse::<u64>() {
            Ok(0) => server_options.idle_timeout = None,
            Ok(secs) => server_options.idle_timeout = Some(std::time::Duration::from_secs(secs)),
            Err(_) => {
                eprintln!("--idle-timeout takes seconds (0 = never disconnect), got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    server_options.access_log = args.iter().any(|a| a == "--access-log");
    let mut options = CatalogOptions::default();
    if let Some(n) = flag_value(args, "--max-attached") {
        match n.parse::<usize>() {
            Ok(n) if n > 0 => options.max_attached = n,
            _ => {
                eprintln!("--max-attached takes a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = flag_value(args, "--max-in-flight") {
        match n.parse::<usize>() {
            Ok(n) => options.service = ServiceOptions { max_in_flight: n, ..options.service },
            Err(_) => {
                eprintln!("--max-in-flight takes an integer (0 = unbounded), got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    let catalog = if let Some(dir) = flag_value(args, "--index-dir") {
        match Catalog::scan_dir(dir, options) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot scan {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Catalog::new(options)
    };
    for path in operands(args) {
        let name = std::path::Path::new(&path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        catalog.register(&name, &path);
    }
    if catalog.is_empty() {
        eprintln!("serve needs at least one index (operands or --index-dir)");
        return ExitCode::from(2);
    }
    let addr = flag_value(args, "--addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let server = match Server::bind_with(addr, std::sync::Arc::new(catalog), server_options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = flag_value(args, "--addr-file") {
        if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("serving on {bound}");
    match server.run() {
        Ok(()) => {
            println!("shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xtwig client`: one request against a running server, printed.
/// Every call carries a read timeout so a wedged server produces a
/// failed exit, never a hang (the CI smoke depends on this).
fn run_client(args: &[String]) -> ExitCode {
    use xtwig::net::proto::ErrorCode;
    use xtwig::net::{Client, ClientError};

    let ops = operands(args);
    let (Some(addr), Some(cmd)) = (ops.first(), ops.get(1)) else { return usage() };
    // Finite by default: a wedged server must produce a failed exit,
    // never a hang. `--timeout 0` opts out for long interactive waits.
    let timeout = match flag_value(args, "--timeout").map(|s| s.parse::<u64>()) {
        None => Some(std::time::Duration::from_secs(10)),
        Some(Ok(0)) => None,
        Some(Ok(secs)) => Some(std::time::Duration::from_secs(secs)),
        Some(Err(_)) => {
            eprintln!("--timeout takes seconds (0 = no timeout)");
            return ExitCode::from(2);
        }
    };
    let mut client = match Client::connect_with_timeout(addr.as_str(), timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fail = |e: ClientError| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    match cmd.as_str() {
        "ping" => match client.ping() {
            Ok(()) => {
                println!("pong");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "catalog" => match client.catalog() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "query" => {
            let (Some(index), Some(xpath)) = (ops.get(2), ops.get(3)) else { return usage() };
            let strategy = flag_value(args, "--strategy").map(String::as_str).unwrap_or("auto");
            let sample = args.iter().any(|a| a == "--sample");
            client.set_sampling(sample);
            match client.query(index, xpath, strategy) {
                Ok(a) => {
                    println!(
                        "{} result(s)  strategy={} plan={} from_cache={} micros={}",
                        a.ids.len(),
                        a.strategy,
                        a.plan,
                        a.from_cache,
                        a.micros
                    );
                    for id in a.ids.iter().take(10) {
                        println!("  #{id}");
                    }
                    if a.ids.len() > 10 {
                        println!("  … and {} more", a.ids.len() - 10);
                    }
                    if sample {
                        println!(
                            "sampled request id: {} (fetch with `xtwig client {addr} trace {index} {}`)",
                            a.request_id, a.request_id
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "trace" => {
            let (Some(index), Some(id)) = (ops.get(2), ops.get(3)) else { return usage() };
            let Ok(request_id) = id.parse::<u64>() else {
                eprintln!("trace takes a numeric request id, got {id:?}");
                return ExitCode::from(2);
            };
            match client.trace(index, request_id) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "events" => {
            let mut after = match flag_value(args, "--after").map(|s| s.parse::<u64>()) {
                None => 0,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    eprintln!("--after takes a sequence number");
                    return ExitCode::from(2);
                }
            };
            let max = match flag_value(args, "--max").map(|s| s.parse::<u32>()) {
                None => 100,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    eprintln!("--max takes a count");
                    return ExitCode::from(2);
                }
            };
            let follow = args.iter().any(|a| a == "--follow");
            loop {
                let events = match client.events(after, max) {
                    Ok(events) => events,
                    Err(e) => return fail(e),
                };
                for e in &events {
                    println!("{}", e.render_text());
                    after = after.max(e.seq);
                }
                if !follow {
                    return ExitCode::SUCCESS;
                }
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
        }
        "explain" => {
            let (Some(index), Some(xpath)) = (ops.get(2), ops.get(3)) else { return usage() };
            match client.explain(index, xpath) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "metrics" => {
            let Some(index) = ops.get(2) else { return usage() };
            match client.metrics(index) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "stats" => {
            let Some(index) = ops.get(2) else { return usage() };
            match client.stats(index) {
                Ok(text) => {
                    println!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                println!("server acknowledged shutdown");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        // The deliberately-hostile probe: send bytes that are not a
        // frame and succeed only if the server answers with the typed
        // Malformed error (anything else — hang, close, crash — fails).
        "badframe" => match client.send_raw(b"THIS IS NOT A FRAME") {
            Ok(xtwig::net::Response::Error { code: ErrorCode::Malformed, message }) => {
                println!("typed malformed-frame error: {message}");
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("expected a typed Malformed error, got {other:?}");
                ExitCode::FAILURE
            }
            Err(e) => fail(e),
        },
        _ => usage(),
    }
}

/// Sums every sample of a Prometheus family in an exposition text:
/// lines starting `name ` or `name{` (so labeled families aggregate
/// across their label sets). Returns `None` when the family is absent.
fn metric_sum(text: &str, name: &str) -> Option<f64> {
    let mut sum = 0.0;
    let mut seen = false;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let matches = line
            .strip_prefix(name)
            .map(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            .unwrap_or(false);
        if !matches {
            continue;
        }
        if let Some(value) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            sum += value;
            seen = true;
        }
    }
    seen.then_some(sum)
}

/// One sampled snapshot of the counters `xtwig top` differentiates.
#[derive(Default, Clone, Copy)]
struct TopSample {
    completed: f64,
    failed: f64,
    latency_sum: f64,
    cache_hits: f64,
    cache_misses: f64,
    overloaded: f64,
    slow: f64,
}

fn top_sample(text: &str) -> TopSample {
    TopSample {
        completed: metric_sum(text, "xtwig_queries_completed_total").unwrap_or(0.0),
        failed: metric_sum(text, "xtwig_queries_failed_total").unwrap_or(0.0),
        latency_sum: metric_sum(text, "xtwig_query_latency_micros_sum").unwrap_or(0.0),
        cache_hits: metric_sum(text, "xtwig_result_cache_hits_total").unwrap_or(0.0),
        cache_misses: metric_sum(text, "xtwig_result_cache_misses_total").unwrap_or(0.0),
        overloaded: metric_sum(text, "xtwig_overloaded_total").unwrap_or(0.0),
        slow: metric_sum(text, "xtwig_slow_queries_total").unwrap_or(0.0),
    }
}

/// `xtwig top <addr> [--index NAME] [--interval SECS] [--once]` — a
/// live console over the wire: polls `Metrics` + `Events` and prints
/// one block per tick (rates are deltas between ticks; the first tick
/// shows totals since server start). `--once` prints a single snapshot
/// and exits, which is what the CI smoke drives.
fn run_top(args: &[String]) -> ExitCode {
    use xtwig::net::{Client, ClientError};

    let ops = operands(args);
    let Some(addr) = ops.first() else { return usage() };
    let interval = match flag_value(args, "--interval").map(|s| s.parse::<u64>()) {
        None => 2,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("--interval takes a positive number of seconds");
            return ExitCode::from(2);
        }
    };
    let once = args.iter().any(|a| a == "--once");
    let mut client =
        match Client::connect_with_timeout(addr.as_str(), Some(std::time::Duration::from_secs(10)))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
    let fail = |e: ClientError| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    // Default to the first attached-or-registered index in the catalog.
    let index = match flag_value(args, "--index") {
        Some(name) => name.clone(),
        None => {
            let listing = match client.catalog() {
                Ok(text) => text,
                Err(e) => return fail(e),
            };
            let Some(first) = listing.lines().next().and_then(|l| l.split('\t').next()) else {
                eprintln!("server catalog is empty; pass --index");
                return ExitCode::FAILURE;
            };
            first.to_owned()
        }
    };
    let mut prev: Option<TopSample> = None;
    let mut cursor = 0u64;
    loop {
        let text = match client.metrics(&index) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let cur = top_sample(&text);
        let base = prev.unwrap_or_default();
        let dt = if prev.is_some() { interval as f64 } else { 1.0 };
        let completed = cur.completed - base.completed;
        let lat = cur.latency_sum - base.latency_sum;
        let hits = cur.cache_hits - base.cache_hits;
        let misses = cur.cache_misses - base.cache_misses;
        let lookups = hits + misses;
        println!(
            "=== xtwig top | index {} | {} ===",
            index,
            if prev.is_some() { "last interval" } else { "since server start" }
        );
        println!(
            "qps {:>8.1}   mean latency {:>8.0} us   cache hit {:>5.1}%   failed {}   overloaded {}   slow {}",
            completed / dt,
            if completed > 0.0 { lat / completed } else { 0.0 },
            if lookups > 0.0 { 100.0 * hits / lookups } else { 0.0 },
            cur.failed - base.failed,
            cur.overloaded - base.overloaded,
            cur.slow - base.slow,
        );
        println!(
            "in-flight {}   events journaled {}   events dropped {}",
            metric_sum(&text, "xtwig_in_flight").unwrap_or(0.0),
            metric_sum(&text, "xtwig_events_total").unwrap_or(0.0),
            metric_sum(&text, "xtwig_events_dropped_total").unwrap_or(0.0),
        );
        match client.events(cursor, 256) {
            Ok(events) => {
                let skip = events.len().saturating_sub(8);
                for e in events.iter().skip(skip) {
                    println!("  {}", e.render_text());
                }
                if let Some(last) = events.last() {
                    cursor = last.seq;
                }
            }
            Err(e) => return fail(e),
        }
        if once {
            return ExitCode::SUCCESS;
        }
        prev = Some(cur);
        println!();
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

/// Returns the value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

/// Non-flag operands, in order; flags that take a value consume it.
fn operands(args: &[String]) -> Vec<String> {
    const VALUE_FLAGS: [&str; 15] = [
        "--shards",
        "--strategy",
        "--strategies",
        "--out",
        "--index",
        "--addr",
        "--addr-file",
        "--index-dir",
        "--max-in-flight",
        "--max-attached",
        "--timeout",
        "--idle-timeout",
        "--interval",
        "--after",
        "--max",
    ];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a.clone());
    }
    out
}

/// Generates the XMark demo dataset used by `demo` and file-less `build`.
fn demo_forest() -> XmlForest {
    let mut forest = XmlForest::new();
    xtwig::datagen::generate_xmark(
        &mut forest,
        xtwig::datagen::XmarkConfig { scale: 0.005, seed: 1 },
    );
    forest
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    match cmd.as_str() {
        "query" => {
            // `--strategies` is build's plural flag; swallowing it here
            // would silently query the default strategy instead.
            if args.iter().any(|a| a == "--strategies") {
                eprintln!("query takes --strategy <one>, not --strategies");
                return ExitCode::from(2);
            }
            // No --strategy means cost-based selection: the optimizer
            // resolves `auto` per query instead of a hard-coded default.
            let strategy = match flag_value(&args, "--strategy") {
                None => Strategy::Auto,
                Some(s) => match s.parse::<Strategy>() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                },
            };
            let explain = args.iter().any(|a| a == "--explain");
            if let Some(index) = flag_value(&args, "--index") {
                let ops = operands(&args[1..]);
                let Some(xpath) = ops.first() else { return usage() };
                return run_query_indexed(index, xpath, strategy, explain);
            }
            let ops = operands(&args[1..]);
            let (Some(path), Some(xpath)) = (ops.first(), ops.get(1)) else { return usage() };
            match load(path) {
                Ok(forest) => run_query(&forest, xpath, strategy, explain, shards_from()),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "explain" => {
            let analyze = args.iter().any(|a| a == "--analyze");
            if let Some(index) = flag_value(&args, "--index") {
                let ops = operands(&args[1..]);
                let Some(xpath) = ops.first() else { return usage() };
                return run_explain_indexed(index, xpath, analyze);
            }
            let ops = operands(&args[1..]);
            let (Some(path), Some(xpath)) = (ops.first(), ops.get(1)) else { return usage() };
            match load(path) {
                Ok(forest) => {
                    let engine = QueryEngine::build_parallel(
                        &forest,
                        EngineOptions { pool_pages: 5_120, ..Default::default() },
                        shards_from(),
                    );
                    if analyze {
                        analyze_twig(&engine, xpath)
                    } else {
                        explain_twig(&engine, xpath)
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "advise" => {
            if let Some(index) = flag_value(&args, "--index") {
                let ops = operands(&args[1..]);
                if ops.is_empty() {
                    return usage();
                }
                return match open_index(index) {
                    Ok(engine) => run_advise(&engine, &ops),
                    Err(code) => code,
                };
            }
            let ops = operands(&args[1..]);
            if ops.len() < 2 {
                return usage();
            }
            match load(&ops[0]) {
                Ok(forest) => {
                    let engine = QueryEngine::build_parallel(
                        &forest,
                        EngineOptions { pool_pages: 5_120, ..Default::default() },
                        shards_from(),
                    );
                    run_advise(&engine, &ops[1..])
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "build" => {
            // The singular `--strategy` (what query/bench accept) would
            // otherwise be consumed as an operand-skipping flag and
            // silently build all seven strategies.
            if args.iter().any(|a| a == "--strategy") {
                eprintln!("build takes --strategies <comma,separated|all>, not --strategy");
                return ExitCode::from(2);
            }
            let Some(out) = flag_value(&args, "--out") else {
                eprintln!("build requires --out <idx.xtwig>");
                return ExitCode::from(2);
            };
            let strategies = match flag_value(&args, "--strategies") {
                None => Strategy::ALL.to_vec(),
                Some(list) if list.eq_ignore_ascii_case("all") => Strategy::ALL.to_vec(),
                Some(list) => {
                    let mut parsed = Vec::new();
                    for part in list.split(',') {
                        match strategy_from(part.trim()) {
                            Some(s) => parsed.push(s),
                            None => {
                                eprintln!("unknown strategy {part:?} in --strategies");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    parsed
                }
            };
            let ops = operands(&args[1..]);
            let forest = match ops.first() {
                Some(path) => match load(path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    let f = demo_forest();
                    println!(
                        "no input file: indexing generated XMark demo data ({} nodes)",
                        f.node_count()
                    );
                    f
                }
            };
            run_build(&forest, out, strategies, shards_from())
        }
        "bench" => {
            let (Some(path), Some(xpath)) = (args.get(1), args.get(2)) else { return usage() };
            match load(path) {
                Ok(forest) => run_bench(&forest, xpath, shards_from()),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "stats" => {
            let Some(path) = args.get(1) else { return usage() };
            match load(path) {
                Ok(forest) => run_stats(&forest, shards_from()),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "demo" => {
            let forest = demo_forest();
            // The xpath is the first non-flag operand after `demo`,
            // wherever it sits relative to flags (`demo --shards 4
            // '/q'` and `demo '/q' --shards 4` both work).
            let xpath = operands(&args[1..])
                .into_iter()
                .next()
                .unwrap_or_else(|| "/site//item[quantity = '2']/location".to_owned());
            println!("generated XMark demo data ({} nodes)\nquery: {xpath}\n", forest.node_count());
            run_bench(&forest, &xpath, shards_from())
        }
        "serve" => run_serve(&args[1..]),
        "client" => run_client(&args[1..]),
        "top" => run_top(&args[1..]),
        "xray" => run_xray(&args[1..]),
        _ => usage(),
    }
}

/// `xtwig xray [--root DIR] [--config FILE]` — the workspace
/// static-analysis pass (same engine as the `xtwig-xray` binary).
/// Exit codes: 0 clean, 1 findings, 2 config/I-O failure.
fn run_xray(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").map(String::as_str).unwrap_or("."));
    let config = match flag_value(args, "--config") {
        Some(path) => PathBuf::from(path),
        None => root.join("xray.toml"),
    };
    let cfg = match xtwig::xray::load_config(&config) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("xray: {e}");
            return ExitCode::from(2);
        }
    };
    match xtwig::xray::analyze(&root, &cfg) {
        Ok(report) if report.is_clean() => {
            println!(
                "xray: {} files scanned, 0 findings ({} allow entries in effect)",
                report.files_scanned,
                cfg.allow.len()
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            print!("{}", report.render());
            println!(
                "xray: {} files scanned, {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xray: {e}");
            ExitCode::from(2)
        }
    }
}
