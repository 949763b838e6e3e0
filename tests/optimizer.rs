//! Cost-based strategy selection, end to end: `Strategy::Auto` must be
//! byte-identical to every concrete strategy on every suite corpus, the
//! fig1, multi-book and skewed corpora's estimates and picks must equal
//! their work record in `tests/golden/work_optimizer.txt` (with `auto`
//! within 2x of the fewest physical reads on at least 80% of each
//! corpus's queries), and the whole machinery must work against a
//! persisted `.xtwig` index without rebuilding anything.

mod golden;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::parse_xpath;
use xtwig::service::{ServiceOptions, TwigService};
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::{naive, XmlForest};

struct Corpus {
    name: &'static str,
    forest: Arc<XmlForest>,
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

/// The corpora the ledger does not cover, with their workloads: fig1,
/// multi-document books, and the Zipf-skewed corpus whose literals walk
/// the §5.2.3 crossover.
fn recorded_corpora() -> Vec<Corpus> {
    let mut out = Vec::new();
    out.push(Corpus {
        name: "fig1",
        forest: Arc::new(fig1_book_document()),
        queries: [
            "/book[title='XML']//author[fn='jane'][ln='doe']",
            "/book/allauthors/author/fn[. = 'jane']",
            "//author[fn = 'jane'][ln = 'doe']",
            "/book[title = 'XML']//section/head",
            "//section/head",
            "/book//author[fn = 'john']",
            "//title",
        ]
        .map(str::to_owned)
        .to_vec(),
    });
    out.push(Corpus {
        name: "books",
        forest: Arc::new(multi_book_forest()),
        queries: [
            "/book[title='XML']//author[fn='jane'][ln='doe']",
            "/book/title[. = 'SQL']",
            "//author[ln = 'poe']",
            "//author[fn = 'jane']/ln",
        ]
        .map(str::to_owned)
        .to_vec(),
    });
    let mut skew = XmlForest::new();
    let profile = xtwig::datagen::generate_skewed(&mut skew, xtwig::datagen::SkewConfig::default());
    out.push(Corpus {
        name: "skew",
        forest: Arc::new(skew),
        queries: vec![
            format!("//rec[key = '{}']/val", profile.rarest_key()),
            format!("//rec[key = 'k{}']/val", profile.key_counts.len() / 2),
            format!("//rec[key = '{}']/val", profile.commonest_key()),
            "//rec/val".to_owned(),
            "/db/rec/key[. = 'k0']".to_owned(),
        ],
    });
    out
}

/// [`recorded_corpora`] plus XMark and DBLP at the persist-suite scale.
fn corpora() -> Vec<Corpus> {
    let mut out = recorded_corpora();
    let mut xmark = XmlForest::new();
    xtwig::datagen::generate_xmark(
        &mut xmark,
        xtwig::datagen::XmarkConfig { scale: 0.002, seed: 7 },
    );
    out.push(Corpus {
        name: "xmark",
        forest: Arc::new(xmark),
        queries: xtwig::datagen::xmark_queries().iter().map(|bq| bq.xpath.to_owned()).collect(),
    });
    let mut dblp = XmlForest::new();
    xtwig::datagen::generate_dblp(&mut dblp, xtwig::datagen::DblpConfig { scale: 0.002, seed: 7 });
    out.push(Corpus {
        name: "dblp",
        forest: Arc::new(dblp),
        queries: xtwig::datagen::dblp_queries().iter().map(|bq| bq.xpath.to_owned()).collect(),
    });
    out
}

fn expected(forest: &XmlForest, xpath: &str) -> BTreeSet<u64> {
    let twig = parse_xpath(xpath).unwrap();
    naive::select(forest, &twig).into_iter().map(|n| n.0).collect()
}

fn engine(forest: &Arc<XmlForest>) -> QueryEngine {
    QueryEngine::build(forest.clone(), EngineOptions { pool_pages: 2048, ..Default::default() })
}

/// On every corpus, `Auto` answers
/// are byte-identical to every concrete strategy (and to the naive
/// oracle), and the answer reports a concrete resolved strategy.
#[test]
fn auto_is_byte_identical_to_every_concrete_strategy_on_all_corpora() {
    for corpus in corpora() {
        let e = engine(&corpus.forest);
        for q in &corpus.queries {
            let twig = parse_xpath(q).unwrap();
            let oracle = expected(&corpus.forest, q);
            let auto = e.answer(&twig, Strategy::Auto);
            assert_eq!(auto.ids, oracle, "{}: auto wrong on {q}", corpus.name);
            assert!(Strategy::ALL.contains(&auto.strategy), "{}: {q}", corpus.name);
            for s in Strategy::ALL {
                let a = e.answer(&twig, s);
                assert_eq!(a.ids, oracle, "{}: {s} wrong on {q}", corpus.name);
            }
        }
    }
}

/// The work record of the corpora the ledger's records do not cover:
/// per query and strategy the cold work and the cost model's estimate,
/// and per corpus how often `auto` picked the fewest physical reads or
/// within 2x of them. The skew corpus's rare, mid and common literals
/// step across the §5.2.3 merge/INLJ crossover.
#[test]
fn work_record_matches_golden() {
    let mut record = String::new();
    let mut summaries = Vec::new();
    for corpus in recorded_corpora() {
        let requests: Vec<(String, String)> = (1..)
            .zip(&corpus.queries)
            .map(|(i, q)| (format!("{}-{i}", corpus.name), q.clone()))
            .collect();
        let (text, summary) = golden::record(corpus.name, corpus.forest.clone(), &requests);
        record.push_str(&text);
        summaries.push((corpus.name, summary));
    }
    golden::check("work_optimizer.txt", &record);
    for (name, summary) in summaries {
        summary.assert_within_2x_on_80_pct(name);
    }
}

/// The ranking itself: sorted by estimated cost, covering exactly the
/// built strategies, with `resolve_strategy` returning its head.
#[test]
fn rankings_are_sorted_and_respect_the_built_subset() {
    let f = Arc::new(fig1_book_document());
    let e = engine(&f);
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
    let ex = e.explain(&twig).unwrap();
    assert_eq!(ex.choices.len(), Strategy::ALL.len());
    assert!(ex.choices.windows(2).all(|w| w[0].est_page_reads <= w[1].est_page_reads));
    let (compiled, plan) = e.compile(&twig).unwrap();
    assert_eq!(ex.chosen().unwrap(), e.resolve_strategy(Strategy::Auto, &compiled, &plan));

    // A partial engine resolves within its subset.
    let partial = QueryEngine::build(
        f.clone(),
        EngineOptions {
            strategies: vec![Strategy::Edge, Strategy::JoinIndex],
            pool_pages: 1024,
            ..Default::default()
        },
    );
    let ex = partial.explain(&twig).unwrap();
    assert_eq!(ex.choices.len(), 2);
    for c in &ex.choices {
        assert!(matches!(c.strategy, Strategy::Edge | Strategy::JoinIndex));
    }
    let a = partial.answer(&twig, Strategy::Auto);
    assert_eq!(a.ids, expected(&f, "/book[title='XML']//author[fn='jane'][ln='doe']"));
}

/// Auto and EXPLAIN against a persisted index: reopen with zero
/// rebuild, rank from the persisted statistics and tree shapes, and
/// answer byte-identically to the in-memory engine.
#[test]
fn auto_and_explain_work_on_a_reopened_index_without_rebuild() {
    let dir = std::env::temp_dir().join(format!(
        "xtwig-optimizer-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("idx.xtwig");

    let built = QueryEngine::build(
        Arc::new(multi_book_forest()),
        EngineOptions { pool_pages: 1024, ..Default::default() },
    );
    built.persist(&path).unwrap();
    let (opened, report) = QueryEngine::open_with_report(&path).unwrap();
    assert_eq!(report.open_allocations, 0, "reopen must not rebuild");

    for q in ["/book[title='XML']//author[fn='jane'][ln='doe']", "//author[fn = 'jane']/ln"] {
        let twig = parse_xpath(q).unwrap();
        // Same statistics, same structures => same ranking and pick.
        let built_ex = built.explain(&twig).unwrap();
        let opened_ex = opened.explain(&twig).unwrap();
        assert_eq!(built_ex.chosen(), opened_ex.chosen(), "{q}");
        assert_eq!(built_ex.choices.len(), opened_ex.choices.len());
        for (b, o) in built_ex.choices.iter().zip(&opened_ex.choices) {
            assert_eq!(b.strategy, o.strategy, "{q}");
            assert!((b.est_page_reads - o.est_page_reads).abs() < 1e-9, "{q}");
        }
        let a = opened.answer(&twig, Strategy::Auto);
        assert_eq!(a.ids, built.answer(&twig, Strategy::Auto).ids, "{q}");
        assert_eq!(a.strategy, opened_ex.chosen().unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The service path: auto submissions resolve per shape, share result
/// cache entries with explicit submissions, and surface per-strategy
/// pick counts and cost counters in the stats JSON.
#[test]
fn service_auto_matches_concrete_and_counts_picks() {
    let svc = TwigService::build(
        multi_book_forest(),
        EngineOptions { pool_pages: 1024, ..Default::default() },
        ServiceOptions::default(),
    );
    let queries =
        ["/book[title='XML']//author[fn='jane'][ln='doe']", "//author[ln = 'poe']", "//title"];
    for q in queries {
        let twig = parse_xpath(q).unwrap();
        let auto = svc.execute(&twig, Strategy::Auto).unwrap();
        assert!(Strategy::ALL.contains(&auto.strategy), "{q}");
        let concrete = svc.execute(&twig, auto.strategy).unwrap();
        assert_eq!(*auto.ids, *concrete.ids, "{q}");
        assert!(concrete.from_cache, "auto fills the concrete strategy's cache entry: {q}");
    }
    let stats = svc.stats();
    assert_eq!(stats.costs.iter().map(|c| c.auto_picks).sum::<u64>(), queries.len() as u64);
    let json = stats.to_json("");
    assert!(json.contains("\"auto_picks\""));
    assert!(json.contains("\"physical_reads\""));
}

/// The skew corpus separates the crossover: the planner flips between
/// merge and INLJ along the Zipf ladder, and auto stays correct on
/// both sides.
#[test]
fn skewed_corpus_crossover_stays_correct_under_auto() {
    let mut f = XmlForest::new();
    let profile = xtwig::datagen::generate_skewed(&mut f, xtwig::datagen::SkewConfig::default());
    let f = Arc::new(f);
    let e = engine(&f);
    let rare = format!("//rec[key = '{}']/val", profile.rarest_key());
    let common = format!("//rec[key = '{}']/val", profile.commonest_key());
    let rare_plan = e.plan(&parse_xpath(&rare).unwrap()).unwrap();
    let common_plan = e.plan(&parse_xpath(&common).unwrap()).unwrap();
    assert_eq!(rare_plan.kind, xtwig::core::plan::PlanKind::IndexNestedLoop);
    assert_eq!(common_plan.kind, xtwig::core::plan::PlanKind::Merge);
    for q in [&rare, &common] {
        let twig = parse_xpath(q).unwrap();
        assert_eq!(e.answer(&twig, Strategy::Auto).ids, expected(&f, q), "{q}");
    }
}

/// Join methods follow the rows a step will see, not the driver's one
/// row. XMark at scale 0.02 is a size at which both halves show: 63
/// `item[quantity='2']` heads against 326 `location` rows (a descent per
/// head loses), and three `open_auction` heads against 1 190 `time` rows
/// (a descent per head wins).
#[test]
fn xmark_joins_are_priced_on_the_rows_that_reach_them() {
    let mut forest = XmlForest::new();
    xtwig::datagen::generate_xmark(
        &mut forest,
        xtwig::datagen::XmarkConfig { scale: 0.02, seed: 7 },
    );
    let forest = Arc::new(forest);
    let e = QueryEngine::build(
        forest.clone(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 2048,
            ..Default::default()
        },
    );
    let queries = xtwig::datagen::xmark_queries();
    let twig_of = |id: &str| queries.iter().find(|q| q.id == id).unwrap();
    // Both twigs start at the single `/site` node; the step that probes
    // `location` is reached by every item of quantity 2.
    for id in ["Q14x", "Q15x"] {
        let q = twig_of(id);
        let subpaths = e.compile(&q.twig()).unwrap().0.subpaths.len() as u64;
        for s in [Strategy::Auto, Strategy::DataPaths] {
            let a = e.answer(&q.twig(), s);
            assert_eq!(a.ids, expected(&forest, q.xpath), "{id} via {s}");
            assert_eq!(a.plan, xtwig::core::plan::PlanKind::Merge, "{id} via {s}");
            assert_eq!(a.metrics.probes, subpaths, "{id} via {s}: one probe per subpath");
        }
    }
    // A handful of heads under a low branch point still probe. ROOTPATHS
    // has no probes, but its merge seeks past every entry below the next
    // head, so it fetches about what the probes fetch: 21, 20, 5 and 6
    // rows against DATAPATHS' 18, 15, 3 and 4. Before the merge could
    // seek it fetched 1 193, 1 384, 421 and 597.
    for (id, unsought) in [("Q10x", 1_193), ("Q11x", 1_384), ("Q12x", 421), ("Q13x", 597)] {
        let q = twig_of(id);
        let dp = e.answer(&q.twig(), Strategy::DataPaths);
        let rp = e.answer(&q.twig(), Strategy::RootPaths);
        assert_eq!(dp.ids, expected(&forest, q.xpath), "{id}");
        assert_eq!(rp.ids, dp.ids, "{id}");
        assert_eq!(dp.plan, xtwig::core::plan::PlanKind::IndexNestedLoop, "{id}");
        assert_eq!(rp.plan, xtwig::core::plan::PlanKind::Merge, "{id}: ROOTPATHS has no probes");
        let (dp_rows, rp_rows) = (dp.metrics.rows_fetched, rp.metrics.rows_fetched);
        assert!(rp_rows <= 2 * dp_rows, "{id}: the merge fetches {rp_rows} rows, probes {dp_rows}");
        assert!(rp_rows * 10 <= unsought, "{id}: the merge fetches {rp_rows} rows of {unsought}");
    }
}
