//! End-to-end observability: traced execution must be purely
//! observational (identical answers and cost counters to the untraced
//! path, on every strategy and corpus), span shapes must be stable for
//! a fixed query, the service's Prometheus-style metrics text must
//! expose monotonic counters and well-formed histograms, the slow-query
//! log must evict at capacity, and traced runs must feed the
//! calibration log with value-elided shapes. A sampled or slow-logged
//! request executes once, and its record describes that execution.
//! Prometheus exposition
//! conformance rides here too: every family declares `# HELP`/`# TYPE`
//! before its samples, label values with quotes/backslashes/newlines
//! are escaped, and counters stay monotonic under concurrent scrapers.

use std::collections::{BTreeMap, BTreeSet};
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::parse_xpath;
use xtwig::service::{
    render_metrics, EventJournal, MetricsRegistry, RequestCtx, ServiceOptions, TwigService,
    UpdateOp,
};
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::XmlForest;

struct Corpus {
    name: &'static str,
    forest: XmlForest,
    queries: Vec<String>,
}

fn multi_book_forest() -> XmlForest {
    let mut f = XmlForest::new();
    for i in 0..6 {
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
        b.open("allauthors");
        b.open("author");
        b.leaf("fn", "jane");
        b.leaf("ln", if i == 3 { "doe" } else { "poe" });
        b.close();
        b.close();
        b.close();
        b.finish();
    }
    f
}

fn corpora() -> Vec<Corpus> {
    let mut out = Vec::new();
    out.push(Corpus {
        name: "fig1",
        forest: fig1_book_document(),
        queries: [
            "/book[title='XML']//author[fn='jane'][ln='doe']",
            "/book/allauthors/author/fn[. = 'jane']",
            "//section/head",
            "//title",
        ]
        .map(str::to_owned)
        .to_vec(),
    });
    out.push(Corpus {
        name: "books",
        forest: multi_book_forest(),
        queries: ["/book[title='XML']//author[fn='jane'][ln='doe']", "//author[fn = 'jane']/ln"]
            .map(str::to_owned)
            .to_vec(),
    });
    let mut xmark = XmlForest::new();
    xtwig::datagen::generate_xmark(
        &mut xmark,
        xtwig::datagen::XmarkConfig { scale: 0.002, seed: 7 },
    );
    out.push(Corpus {
        name: "xmark",
        forest: xmark,
        queries: xtwig::datagen::xmark_queries()
            .iter()
            .take(5)
            .map(|bq| bq.xpath.to_owned())
            .collect(),
    });
    out
}

fn engine(forest: &XmlForest) -> QueryEngine<&XmlForest> {
    QueryEngine::build(forest, EngineOptions { pool_pages: 2048, ..Default::default() })
}

/// Tracing is observation, not behavior: on every corpus, every query,
/// every concrete strategy plus `Auto`, the traced answer carries the
/// same ids, resolved strategy, probes, rows and logical reads as the
/// untraced one, and the trace actually covers the pipeline.
/// (Physical reads are deliberately not compared: the first of the two
/// runs warms the buffer pool for the second.)
#[test]
fn traced_answers_match_untraced_on_every_strategy_and_corpus() {
    for corpus in corpora() {
        let e = engine(&corpus.forest);
        for q in &corpus.queries {
            let twig = parse_xpath(q).unwrap();
            for s in Strategy::ALL.iter().copied().chain([Strategy::Auto]) {
                let plain = e.answer(&twig, s);
                let (traced, trace) = e.answer_traced(&twig, s);
                let ctx = format!("{} {q} [{}]", corpus.name, s.label());
                assert_eq!(plain.ids, traced.ids, "{ctx}: ids diverged");
                assert_eq!(plain.strategy, traced.strategy, "{ctx}: resolved strategy diverged");
                assert_eq!(plain.plan, traced.plan, "{ctx}: plan diverged");
                assert_eq!(plain.metrics.probes, traced.metrics.probes, "{ctx}: probes");
                assert_eq!(plain.metrics.rows_fetched, traced.metrics.rows_fetched, "{ctx}: rows");
                assert_eq!(
                    plain.metrics.logical_reads, traced.metrics.logical_reads,
                    "{ctx}: logical reads"
                );
                assert!(!trace.is_empty(), "{ctx}: no spans");
                for name in ["query", "plan", "resolve", "execute"] {
                    assert!(trace.find(name).is_some(), "{ctx}: missing span {name}");
                }
                // An empty-input step short-circuits before the final
                // collect, so materialize only appears on full runs.
                if !traced.ids.is_empty() {
                    assert!(trace.find("materialize").is_some(), "{ctx}: missing materialize");
                }
                // The execute span's counters must equal the answer's
                // own metrics — one source of truth, surfaced twice.
                let exec = trace.total("execute");
                assert_eq!(exec.probes, traced.metrics.probes, "{ctx}: span probes");
                assert_eq!(exec.logical_reads, traced.metrics.logical_reads, "{ctx}: span reads");
            }
        }
    }
}

/// The span *shape* (names, nesting, details — no timings) of a fixed
/// query is deterministic: identical across repeated runs and across
/// independently built engines, and pinned to a literal so accidental
/// pipeline-structure changes show up in review.
#[test]
fn span_shape_is_stable_for_a_fixed_query() {
    let forest = fig1_book_document();
    let e = engine(&forest);
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
    let (_, first) = e.answer_traced(&twig, Strategy::RootPaths);
    let (_, again) = e.answer_traced(&twig, Strategy::RootPaths);
    assert_eq!(first.shape(), again.shape(), "same engine, same query: shape changed");

    let forest2 = fig1_book_document();
    let e2 = engine(&forest2);
    let (_, other) = e2.answer_traced(&twig, Strategy::RootPaths);
    assert_eq!(first.shape(), other.shape(), "independent engine: shape changed");

    assert_eq!(
        first.shape(),
        "query(RP)\n\
         \u{20}\u{20}plan(Merge, 3 steps)\n\
         \u{20}\u{20}resolve(RP)\n\
         \u{20}\u{20}execute(RP)\n\
         \u{20}\u{20}\u{20}\u{20}step(#0 subpath 0 probe)\n\
         \u{20}\u{20}\u{20}\u{20}step(#1 subpath 1 join)\n\
         \u{20}\u{20}\u{20}\u{20}step(#2 subpath 2 semi-join)\n\
         \u{20}\u{20}\u{20}\u{20}materialize(output node 2)\n",
    );
}

/// Splits Prometheus exposition text into (metric-with-labels, value)
/// samples, skipping `# HELP`/`# TYPE` comment lines.
fn parse_samples(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("unparsable value: {line}"));
        assert!(out.insert(name.to_owned(), value).is_none(), "duplicate sample {name}");
    }
    out
}

/// `metrics_text` parses as one sample per line, counters never move
/// backwards between scrapes, and the latency histogram is well-formed
/// (cumulative buckets, `+Inf` == `_count`).
#[test]
fn metrics_text_parses_and_counters_are_monotonic() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let queries = ["/book[title='XML']//author[fn='jane'][ln='doe']", "//section/head", "//title"];
    for q in &queries[..2] {
        let twig = parse_xpath(q).unwrap();
        service.execute(&twig, Strategy::Auto).unwrap();
    }
    let first = parse_samples(&service.metrics_text());
    for q in &queries {
        let twig = parse_xpath(q).unwrap();
        service.execute(&twig, Strategy::RootPaths).unwrap();
    }
    let second = parse_samples(&service.metrics_text());

    assert!(first.keys().any(|k| k.starts_with("xtwig_queries_completed_total")));
    assert!(first.keys().any(|k| k.starts_with("xtwig_pool_page_reads_total{pool=")));
    for (name, &before) in &first {
        // The admission in-flight gauge may legitimately go down;
        // everything else in the exposition is a counter or histogram
        // component.
        if name.starts_with("xtwig_in_flight") {
            continue;
        }
        let after = *second.get(name).unwrap_or_else(|| panic!("{name} vanished from scrape"));
        assert!(after >= before, "{name} went backwards: {before} -> {after}");
    }
    assert_eq!(second["xtwig_queries_completed_total"], 5.0);

    // Histogram (per strategy): cumulative over le, +Inf == _count.
    let mut buckets: Vec<(f64, f64)> = second
        .iter()
        .filter_map(|(k, &v)| {
            let le = k.strip_prefix("xtwig_query_latency_micros_bucket{strategy=\"RP\",le=\"")?;
            let le = le.strip_suffix("\"}")?;
            Some((if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() }, v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(!buckets.is_empty(), "no latency buckets emitted");
    for pair in buckets.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "bucket counts not cumulative");
    }
    assert_eq!(
        buckets.last().unwrap().1,
        second["xtwig_query_latency_micros_count{strategy=\"RP\"}"]
    );
}

/// Every `_total` series is a Prometheus counter and must survive a
/// commit: `apply_update` publishes an epoch over *forked* pools, and
/// the per-pool series are read from whichever epoch is current, so a
/// fork that started its counters afresh would step them back to zero.
#[test]
fn total_series_stay_monotonic_across_commits() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let tags: Vec<_> = service.with_engine(|e| {
        let dict = e.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    });
    let query = |service: &TwigService| {
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let twig = parse_xpath("//author[fn='jane']").unwrap();
            service.execute(&twig, s).unwrap();
        }
    };
    query(&service);
    let mut last = parse_samples(&service.metrics_text());
    assert!(last["xtwig_pool_page_reads_total{pool=\"rootpaths\"}"] > 0.0);
    assert!(last["xtwig_pool_resident_pages{pool=\"rootpaths\"}"] > 0.0);
    assert_eq!(last["xtwig_pool_cow_copies_total{pool=\"rootpaths\"}"], 0.0);
    for k in 0..3u64 {
        let author = 900 + 2 * k;
        service.apply_update(vec![
            UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 5, author], value: None },
            UpdateOp::InsertPath {
                tags: tags.clone(),
                ids: vec![1, 5, author, author + 1],
                value: Some(format!("w{k}")),
            },
        ]);
        query(&service);
        let now = parse_samples(&service.metrics_text());
        for (name, &before) in last.iter().filter(|(name, _)| name.contains("_total")) {
            let after = *now.get(name).unwrap_or_else(|| panic!("{name} vanished from scrape"));
            assert!(after >= before, "commit {k}: {name} went backwards: {before} -> {after}");
        }
        for pool in ["rootpaths", "datapaths"] {
            let copies = format!("xtwig_pool_cow_copies_total{{pool=\"{pool}\"}}");
            assert!(now[&copies] > last[&copies], "commit {k} copied no {pool} page");
        }
        last = now;
    }
}

/// The slow-query ring keeps the newest `slow_query_capacity` entries,
/// evicting the oldest, while the total counter keeps counting every
/// capture — and each entry carries a rendered span tree.
#[test]
fn slow_query_log_evicts_at_capacity() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions {
            result_cache_capacity: 0,
            slow_query_micros: Some(0), // every execution is "slow"
            slow_query_capacity: 2,
            ..Default::default()
        },
    );
    let queries = ["//title", "//section/head", "//author[fn = 'jane']/ln", "/book/title"];
    for q in queries {
        let twig = parse_xpath(q).unwrap();
        service.execute(&twig, Strategy::RootPaths).unwrap();
    }
    let slow = service.slow_queries();
    assert_eq!(slow.len(), 2, "ring must hold exactly its capacity");
    // Newest two survive, oldest two were evicted.
    assert!(slow[0].query.contains("author"), "kept: {}", slow[0].query);
    assert!(slow[1].query.contains("title"), "kept: {}", slow[1].query);
    for entry in &slow {
        assert_eq!(entry.strategy, Strategy::RootPaths);
        assert!(entry.spans.contains("execute"), "entry lacks its span tree");
    }
    let samples = parse_samples(&service.metrics_text());
    assert_eq!(samples["xtwig_slow_queries_total"], 4.0, "total must count evicted captures too");
}

/// The rows of a rendered span table ([`xtwig::obs::Trace::render`], as
/// stored in `SlowQuery::spans`): nesting depth, label, and the
/// logical / physical / probes / rows columns.
fn span_rows(rendered: &str) -> Vec<(usize, String, [u64; 4])> {
    rendered
        .lines()
        .skip(1)
        .map(|line| {
            let depth = (line.len() - line.trim_start().len()) / 2;
            let cols: Vec<&str> = line.split_whitespace().collect();
            let (label, tail) = cols.split_at(cols.len() - 5);
            let n = |i: usize| tail[i].parse::<u64>().unwrap();
            (depth, label.join(" "), [n(1), n(2), n(3), n(4)])
        })
        .collect()
}

/// A sampled request is served by ONE execution: it costs the pool
/// exactly the page requests an unsampled run of the same warm twig
/// costs, and the span tree it leaves behind — `resolve`, then
/// `execute` over its steps and the output projection — is that run's.
#[test]
fn sampled_request_executes_once_and_keeps_its_span_tree() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
    let pool_reads = || {
        parse_samples(&service.metrics_text())["xtwig_pool_page_reads_total{pool=\"rootpaths\"}"]
    };
    service.execute(&twig, Strategy::RootPaths).unwrap(); // warm the pool
    let before = pool_reads();
    service.execute(&twig, Strategy::RootPaths).unwrap();
    let plain = pool_reads() - before;
    assert!(plain > 0.0, "result cache is off: the plain run must touch the pool");

    let ctx = RequestCtx { request_id: 41, sample: true, peer: "test:0".to_owned() };
    let answer = service.execute_with(&twig, Strategy::RootPaths, &ctx).unwrap();
    let sampled = pool_reads() - before - plain;
    assert_eq!(sampled, plain, "a sampled request must execute the twig once");

    let record = service.find_trace(41).expect("sampled request leaves a trace");
    let rows = span_rows(&record.spans);
    let shape: Vec<(usize, &str)> = rows.iter().map(|(d, l, _)| (*d, l.as_str())).collect();
    assert_eq!(
        shape,
        [
            (0, "resolve RP"),
            (0, "execute RP"),
            (1, "step #0 subpath 0 probe"),
            (1, "step #1 subpath 1 join"),
            (1, "step #2 subpath 2 semi-join"),
            (1, "materialize output node 2"),
        ]
    );
    assert_eq!(rows[1].2[0], answer.metrics.logical_reads, "execute row is the served run");
}

/// The slow-query log holds the slow run, not a warm re-run of it: on a
/// reopened index (cold pool) the recorded `execute` row reports the
/// physical reads the answer itself paid.
#[test]
fn slow_log_records_the_reads_of_the_slow_run_itself() {
    let path = std::env::temp_dir().join(format!("xtwig-obs-slow-{}.xtwig", std::process::id()));
    let built = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions::default(),
    );
    built.persist(&path).unwrap();

    let service = TwigService::open(
        &path,
        ServiceOptions {
            result_cache_capacity: 0,
            slow_query_micros: Some(0), // every execution is "slow"
            ..Default::default()
        },
    )
    .unwrap();
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
    let answer = service.execute(&twig, Strategy::RootPaths).unwrap();
    assert!(answer.metrics.physical_reads > 0, "a reopened index starts with a cold pool");

    let slow = service.slow_queries();
    assert_eq!(slow.len(), 1);
    let rows = span_rows(&slow[0].spans);
    let (_, _, [logical, physical, ..]) =
        rows.iter().find(|(_, label, _)| label.starts_with("execute")).expect("execute row");
    assert_eq!(*physical, answer.metrics.physical_reads, "spans:\n{}", slow[0].spans);
    assert_eq!(*logical, answer.metrics.logical_reads);
    std::fs::remove_file(&path).ok();
}

/// Exposition conformance: every sample's family declares `# HELP` and
/// `# TYPE` (each exactly once, headers before the first sample), every
/// `TYPE` names a known kind, histogram `_bucket`/`_sum`/`_count`
/// samples resolve to their base family, and no declared family is
/// sample-less.
#[test]
fn exposition_declares_help_and_type_for_every_family_before_its_samples() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions { slow_query_micros: Some(0), ..Default::default() },
    );
    // Populate the filtered families (per-strategy costs, latency
    // histograms, shapes, the slow-query counter).
    for q in ["//title", "/book[title='XML']//author[fn='jane'][ln='doe']"] {
        let twig = parse_xpath(q).unwrap();
        service.execute(&twig, Strategy::Auto).unwrap();
    }
    let text = service.metrics_text();

    let mut help: BTreeMap<String, usize> = BTreeMap::new();
    let mut kind: BTreeMap<String, (usize, String)> = BTreeMap::new();
    let mut sampled: BTreeSet<String> = BTreeSet::new();
    for (no, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, text) = rest.split_once(' ').unwrap_or_else(|| panic!("bare: {line}"));
            assert!(!text.trim().is_empty(), "HELP without text: {line}");
            assert!(help.insert(family.to_owned(), no).is_none(), "HELP declared twice: {line}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, k) = rest.split_once(' ').unwrap_or_else(|| panic!("bare: {line}"));
            assert!(
                ["counter", "gauge", "histogram"].contains(&k),
                "unknown TYPE kind {k}: {line}"
            );
            assert!(
                kind.insert(family.to_owned(), (no, k.to_owned())).is_none(),
                "TYPE declared twice: {line}"
            );
        } else if !line.is_empty() {
            let name = line.split(['{', ' ']).next().unwrap_or(line);
            // Histogram component samples belong to the base family.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    matches!(kind.get(base), Some((_, k)) if k == "histogram").then_some(base)
                })
                .unwrap_or(name);
            let (type_line, _) =
                kind.get(family).unwrap_or_else(|| panic!("sample without TYPE: {line}"));
            let help_line =
                help.get(family).unwrap_or_else(|| panic!("sample without HELP: {line}"));
            assert!(*type_line < no && *help_line < no, "headers must precede sample: {line}");
            sampled.insert(family.to_owned());
        }
    }
    assert_eq!(
        help.keys().collect::<Vec<_>>(),
        kind.keys().collect::<Vec<_>>(),
        "HELP and TYPE declarations must pair up"
    );
    for family in help.keys() {
        assert!(sampled.contains(family), "family {family} declared but never sampled");
    }
}

/// Label values pass through `json_escape` on the way into the
/// exposition: a shape key carrying quotes, backslashes and a newline
/// must land on ONE sample line with the hostile characters escaped,
/// and the line must still split as `name{labels} value`.
#[test]
fn hostile_label_values_are_escaped_in_the_exposition() {
    let registry = MetricsRegistry::new(None, 0);
    let evil = "shape\"with\\hostile\nchars";
    registry.observe_shape(evil, std::time::Duration::from_micros(5));
    let journal = EventJournal::new(8);

    // A real snapshot (zeroed counters) from a throwaway service; the
    // renderer is a free function precisely so this test needs no pool.
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions::default(),
    );
    let snapshot = service.stats();

    let text = render_metrics(&snapshot, &[], &registry, &journal);
    let lines: Vec<&str> =
        text.lines().filter(|l| l.starts_with("xtwig_shape_queries_total{")).collect();
    assert_eq!(lines.len(), 1, "the newline in the label must be escaped, not emitted: {lines:?}");
    let line = lines[0];
    // json_escape turns the quote into `\"`, the backslash into `\\`
    // and the newline into the two characters `\n`.
    assert!(
        line.contains("shape=\"shape\\\"with\\\\hostile\\nchars\""),
        "hostile characters not escaped: {line}"
    );
    // Still one well-formed sample: name{...} value.
    let (rest, value) = line.rsplit_once(' ').unwrap();
    assert_eq!(value.parse::<f64>().unwrap(), 1.0);
    assert!(rest.ends_with('}'), "labels not closed: {line}");
    // Unescaped interior quotes would break the quote parity of the
    // label section; escaped ones keep it even.
    let label_section = &rest["xtwig_shape_queries_total".len()..];
    let unescaped_quotes = label_section
        .as_bytes()
        .iter()
        .enumerate()
        .filter(|&(i, &b)| b == b'"' && (i == 0 || label_section.as_bytes()[i - 1] != b'\\'))
        .count();
    assert_eq!(unescaped_quotes % 2, 0, "unbalanced quotes: {line}");
}

/// Eight concurrent scrapers each see their own monotonic view of every
/// counter while a driver keeps the service busy — the exposition is
/// assembled from a coherent snapshot, not read piecemeal mid-update.
#[test]
fn counters_stay_monotonic_under_concurrent_scrapers() {
    let service = TwigService::build(
        fig1_book_document(),
        EngineOptions { pool_pages: 256, ..Default::default() },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    std::thread::scope(|scope| {
        let svc = &service;
        let scrapers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut prev: BTreeMap<String, f64> = BTreeMap::new();
                    for _ in 0..20 {
                        let cur = parse_samples(&svc.metrics_text());
                        for (name, &before) in &prev {
                            if name.starts_with("xtwig_in_flight")
                                || name.starts_with("xtwig_generation")
                            {
                                continue;
                            }
                            let after = cur
                                .get(name)
                                .copied()
                                .unwrap_or_else(|| panic!("{name} vanished mid-scrape"));
                            assert!(
                                after >= before,
                                "{name} went backwards under concurrent scrape: {before} -> {after}"
                            );
                        }
                        prev = cur;
                    }
                })
            })
            .collect();
        let driver = scope.spawn(move || {
            let queries = ["//title", "//section/head", "/book/title"];
            for round in 0..30 {
                let twig = parse_xpath(queries[round % queries.len()]).unwrap();
                svc.execute(&twig, Strategy::RootPaths).unwrap();
            }
        });
        driver.join().unwrap();
        for s in scrapers {
            s.join().unwrap();
        }
    });
}

/// Traced executions feed the engine's calibration log with
/// literal-elided shapes; untraced executions do not.
#[test]
fn traced_runs_feed_the_calibration_log() {
    let forest = fig1_book_document();
    let e = engine(&forest);
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();

    e.answer(&twig, Strategy::RootPaths);
    assert!(e.calibration_log().is_empty(), "untraced run must not record samples");

    e.answer_traced(&twig, Strategy::RootPaths);
    e.answer_traced(&twig, Strategy::DataPaths);
    let samples = e.calibration_log().samples();
    assert_eq!(samples.len(), 2);
    for s in &samples {
        // Literals elided, output node starred — two ways the shape key
        // proves it aggregates across constants.
        assert!(s.shape.contains("=?"), "literal not elided: {}", s.shape);
        assert!(s.shape.contains('*'), "output not starred: {}", s.shape);
        assert!(s.shape.contains("author"), "wrong shape: {}", s.shape);
    }
    let report = e.calibration_log().advise(5).to_string();
    assert!(report.contains("RP"), "advise must cover the traced strategies: {report}");
    assert!(report.contains("advisory"), "advise must declare itself advisory: {report}");
}
