//! `fig_optimizer` — calibration and accuracy harness for the
//! cost-based strategy selector (no paper counterpart; the ROADMAP's
//! "operationalize Figs. 9–13" item).
//!
//! The run replays the suite corpora — fig1, multi-document books,
//! XMark, DBLP, and the Zipf-skewed corpus — through every built
//! strategy. Per query it records:
//!
//! * the optimizer's ranked **estimated page reads** per strategy,
//! * the **actual cold-cache physical reads** per strategy (caches are
//!   dropped before each measurement, so the counts are deterministic),
//! * whether the optimizer's pick was the measured-best strategy, or
//!   within 2x of it — the accuracy bar `tests/optimizer.rs` asserts
//!   at >= 80% over the same replay.
//!
//! The summary prints per-strategy actual/estimated ratio quartiles —
//! the data behind the calibration constants checked into
//! `crates/opt/src/calibration.rs`. Re-derive them here after changing
//! page layout, codecs, or probe patterns.
//!
//! Flags: `--scale <f>` (default 0.01), `--quick` (scale 0.002, the CI
//! smoke's setting).

use std::collections::BTreeSet;
use xtwig_bench::{dblp_forest, scale_from_args, xmark_forest, POOL_PAGES};
use xtwig_core::engine::{EngineOptions, QueryEngine};
use xtwig_core::{parse_xpath, Strategy};
use xtwig_datagen::{dblp_queries, generate_skewed, xmark_queries, SkewConfig};
use xtwig_xml::tree::fig1_book_document;
use xtwig_xml::XmlForest;

struct QueryRow {
    corpus: &'static str,
    id: String,
    chosen: Strategy,
    best: Strategy,
    chosen_reads: u64,
    best_reads: u64,
    within2x: bool,
    est: Vec<(Strategy, f64)>,
    actual: Vec<(Strategy, u64)>,
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

/// Replays `queries` against every strategy of `engine`, cold, and
/// scores the optimizer's pick per query.
fn replay(
    corpus: &'static str,
    engine: &QueryEngine<&XmlForest>,
    queries: &[(String, String)],
    rows: &mut Vec<QueryRow>,
) {
    for (id, xpath) in queries {
        let twig = parse_xpath(xpath).expect("workload query parses");
        let Ok((compiled, plan)) = engine.compile(&twig) else {
            continue; // unknown tag: empty everywhere, nothing to rank
        };
        let choices = engine.rank_strategies(&compiled, &plan);
        assert!(!choices.is_empty(), "all strategies built");
        let chosen = choices[0].strategy;
        let est: Vec<(Strategy, f64)> =
            choices.iter().map(|c| (c.strategy, c.est_page_reads)).collect();

        let mut actual: Vec<(Strategy, u64)> = Vec::new();
        let mut ids: Option<BTreeSet<u64>> = None;
        for s in Strategy::ALL {
            engine.clear_caches(s);
            let a = engine.answer(&twig, s);
            match &ids {
                None => ids = Some(a.ids.clone()),
                Some(expected) => {
                    assert_eq!(&a.ids, expected, "{corpus}/{id}: {s} disagrees");
                }
            }
            actual.push((s, a.metrics.physical_reads));
        }
        let &(best, best_reads) =
            actual.iter().min_by_key(|(s, r)| (*r, strategy_order(*s))).unwrap();
        let chosen_reads = actual.iter().find(|(s, _)| *s == chosen).unwrap().1;
        let within2x = chosen == best || chosen_reads <= 2 * best_reads.max(1);
        rows.push(QueryRow {
            corpus,
            id: id.clone(),
            chosen,
            best,
            chosen_reads,
            best_reads,
            within2x,
            est,
            actual,
        });
    }
}

fn strategy_order(s: Strategy) -> usize {
    Strategy::ALL.iter().position(|x| *x == s).unwrap_or(usize::MAX)
}

fn quartiles(mut v: Vec<f64>) -> (f64, f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
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
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "# fig_optimizer: estimated vs actual page reads, chosen vs best \
         (XMark/DBLP scale {scale}, {cores} core(s))"
    );

    let opts = || EngineOptions { pool_pages: POOL_PAGES, ..Default::default() };
    let q = |id: &str, xpath: &str| (id.to_owned(), xpath.to_owned());
    let mut rows: Vec<QueryRow> = Vec::new();

    // fig1 — the paper's running example.
    {
        let f = fig1_book_document();
        let engine = QueryEngine::build(&f, opts());
        let queries = vec![
            q("intro", "/book[title='XML']//author[fn='jane'][ln='doe']"),
            q("valued_path", "/book/allauthors/author/fn[. = 'jane']"),
            q("twig2", "//author[fn = 'jane'][ln = 'doe']"),
            q("rec_head", "/book[title = 'XML']//section/head"),
            q("suffix", "//section/head"),
            q("rec_author", "/book//author[fn = 'john']"),
            q("tag_only", "//title"),
        ];
        replay("fig1", &engine, &queries, &mut rows);
    }

    // Multi-document books — the persist suite's corpus.
    {
        let f = multi_book_forest();
        let engine = QueryEngine::build(&f, opts());
        let queries = vec![
            q("intro", "/book[title='XML']//author[fn='jane'][ln='doe']"),
            q("sql_title", "/book/title[. = 'SQL']"),
            q("poe", "//author[ln = 'poe']"),
            q("jane_ln", "//author[fn = 'jane']/ln"),
        ];
        replay("books", &engine, &queries, &mut rows);
    }

    // XMark — the full Q1x..Q15x workload (Figs. 7/8).
    {
        let (f, profile) = xmark_forest(scale);
        println!("xmark: {} nodes", profile.nodes);
        let engine = QueryEngine::build(&f, opts());
        let queries: Vec<(String, String)> =
            xmark_queries().iter().map(|bq| (bq.id.to_owned(), bq.xpath.to_owned())).collect();
        replay("xmark", &engine, &queries, &mut rows);
    }

    // DBLP — Q1d..Q3d.
    {
        let (f, profile) = dblp_forest(scale);
        println!("dblp: {} nodes", profile.nodes);
        let engine = QueryEngine::build(&f, opts());
        let queries: Vec<(String, String)> =
            dblp_queries().iter().map(|bq| (bq.id.to_owned(), bq.xpath.to_owned())).collect();
        replay("dblp", &engine, &queries, &mut rows);
    }

    // Zipf-skewed values — the §5.2.3 merge/INLJ crossover ladder.
    {
        let mut f = XmlForest::new();
        let profile = generate_skewed(&mut f, SkewConfig::default());
        let engine = QueryEngine::build(&f, opts());
        let mid = profile.key_counts.len() / 2;
        let queries = vec![
            q("rare", &format!("//rec[key = '{}']/val", profile.rarest_key())),
            q("mid", &format!("//rec[key = 'k{mid}']/val")),
            q("common", &format!("//rec[key = '{}']/val", profile.commonest_key())),
            q("structural", "//rec/val"),
            q("anchored", "/db/rec/key[. = 'k0']"),
        ];
        replay("skew", &engine, &queries, &mut rows);
    }

    // ---- report ---------------------------------------------------------
    println!(
        "\n{:<22} {:>8} {:>8} {:>12} {:>10}  verdict",
        "query", "chosen", "best", "chosen reads", "best reads"
    );
    let mut per_corpus: Vec<(&str, usize, usize)> = Vec::new();
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>8} {:>12} {:>10}  {}",
            format!("{}/{}", r.corpus, r.id),
            r.chosen.label(),
            r.best.label(),
            r.chosen_reads,
            r.best_reads,
            if r.chosen == r.best {
                "best"
            } else if r.within2x {
                "within 2x"
            } else {
                "MISS"
            }
        );
        match per_corpus.iter_mut().find(|(c, _, _)| *c == r.corpus) {
            Some((_, hits, total)) => {
                *hits += usize::from(r.within2x);
                *total += 1;
            }
            None => per_corpus.push((r.corpus, usize::from(r.within2x), 1)),
        }
    }
    let hits: usize = per_corpus.iter().map(|(_, h, _)| h).sum();
    let total: usize = per_corpus.iter().map(|(_, _, t)| t).sum();
    let accuracy = 100.0 * hits as f64 / total.max(1) as f64;
    println!("\nper-corpus accuracy (chosen == best or within 2x of best reads):");
    for (c, h, t) in &per_corpus {
        println!("  {c:<8} {h}/{t}");
    }
    println!("overall: {hits}/{total} = {accuracy:.1}%");

    // Calibration data: actual/estimated ratio quartiles per strategy.
    println!("\nactual/estimated page-read ratios (q25 / median / q75) — the");
    println!("fit behind crates/opt/src/calibration.rs:");
    for s in Strategy::ALL {
        let ratios: Vec<f64> = rows
            .iter()
            .filter_map(|r| {
                let est = r.est.iter().find(|(x, _)| *x == s)?.1;
                let act = r.actual.iter().find(|(x, _)| *x == s)?.1;
                (est > 0.0).then_some(act as f64 / est)
            })
            .collect();
        let (q25, q50, q75) = quartiles(ratios);
        println!("  {:<8} {q25:>6.2} / {q50:>6.2} / {q75:>6.2}", s.label());
    }

    // The harness is also a gate when run by hand: a sub-80% run means
    // the calibration drifted from the structures it models.
    assert!(
        accuracy >= 80.0,
        "optimizer accuracy {accuracy:.1}% fell below the 80% bar — recalibrate \
         crates/opt/src/calibration.rs against the ratio table above"
    );
}
