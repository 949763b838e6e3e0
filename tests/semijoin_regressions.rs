//! Regression tests for the engine's semi-join / early-projection paths.
//!
//! Existence branches (predicates whose bindings nothing later consumes)
//! run as semi-joins; these cases pin the tricky interactions: shared
//! nodes between filter branches, filters that must NOT collapse result
//! multiplicity, and INLJ probes in semi mode.

use std::collections::BTreeSet;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::xml::{naive, XmlForest};

fn engine(forest: &XmlForest) -> QueryEngine<&XmlForest> {
    QueryEngine::build(forest, EngineOptions { pool_pages: 1024, ..Default::default() })
}

fn check(forest: &XmlForest, e: &QueryEngine<&XmlForest>, xpath: &str) {
    let twig = xtwig::parse_xpath(xpath).unwrap();
    let expected: BTreeSet<u64> = naive::select(forest, &twig).into_iter().map(|n| n.0).collect();
    for s in Strategy::ALL {
        let got = e.answer(&twig, s);
        assert_eq!(got.ids, expected, "{xpath} via {}", s.label());
    }
}

/// A site-like shape where one branch filters and the other is the
/// output, with multiple filter matches per head.
#[test]
fn filter_branch_with_many_matches_per_head() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("s");
    for i in 0..6 {
        b.open("g");
        // Several matching filter leaves under the same g.
        for _ in 0..3 {
            b.leaf("flag", if i % 2 == 0 { "on" } else { "off" });
        }
        for j in 0..2 {
            b.leaf("out", &format!("v{i}{j}"));
        }
        b.close();
    }
    b.close();
    b.finish();
    let e = engine(&f);
    // 3 "on" groups x 2 out leaves = 6 results; the 3x flag multiplicity
    // must not multiply (or drop) results.
    check(&f, &e, "/s/g[flag = 'on']/out");
    check(&f, &e, "//g[flag = 'on'][out]/out");
    check(&f, &e, "/s/g[flag = 'off']/out");
}

/// Two filter branches sharing an interior node.
#[test]
fn two_filters_sharing_interior_node() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("r");
    for i in 0..4 {
        b.open("p");
        b.open("q");
        b.leaf("a", if i < 2 { "1" } else { "0" });
        b.leaf("b", if i % 2 == 0 { "1" } else { "0" });
        b.close();
        b.leaf("t", &format!("t{i}"));
        b.close();
    }
    b.close();
    b.finish();
    let e = engine(&f);
    // Both predicates must hold on the SAME q node (i = 0 only).
    check(&f, &e, "/r/p[q/a = '1'][q/b = '1']/t");
    check(&f, &e, "/r/p[q[a = '1'][b = '1']]/t");
}

/// The output node inside the predicate-bearing subpath (no filter at
/// all may be semi-joined away).
#[test]
fn output_on_filter_subpath() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("r");
    for i in 0..3 {
        b.open("x");
        b.leaf("k", &format!("{}", i % 2));
        b.close();
    }
    b.close();
    b.finish();
    let e = engine(&f);
    check(&f, &e, "/r/x/k[. = '1']");
    check(&f, &e, "/r/x[k = '1']");
    check(&f, &e, "//x[k = '0']/k");
}

/// Descendant filters across segments in both directions.
#[test]
fn descendant_existence_filters() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("lib");
    for i in 0..4 {
        b.open("shelf");
        b.open("box");
        if i % 2 == 0 {
            b.leaf("rare", "yes");
        }
        b.leaf("book", &format!("b{i}"));
        b.close();
        b.close();
    }
    b.close();
    b.finish();
    let e = engine(&f);
    check(&f, &e, "/lib/shelf[//rare]//book");
    check(&f, &e, "//shelf[box/rare = 'yes']/box/book");
    check(&f, &e, "/lib//box[rare]/book");
}

/// INLJ semi probes: a selective driver with an unselective existence
/// filter at a low branch point.
#[test]
fn inlj_semi_probe_filters_heads() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("top");
    for i in 0..30 {
        b.open("node");
        b.leaf("tag", if i == 7 || i == 21 { "rare" } else { "common" });
        // Unselective children.
        for j in 0..5 {
            b.leaf("item", &format!("{}", j % 2));
        }
        if i != 21 {
            b.leaf("extra", "e");
        }
        b.close();
    }
    b.close();
    b.finish();
    let e = engine(&f);
    // Driver tag='rare' (2 heads); extra is an existence filter (one head
    // lacks it); output item.
    check(&f, &e, "/top/node[tag = 'rare'][extra]/item");
    check(&f, &e, "//node[tag = 'rare'][item = '1']/extra");
}

/// A streamed existence filter stops its probe once every row it
/// filters has a partner. Q7x is Q6x plus `[regions/namerica/item/location
/// = 'united states']`, a branch that shares only the single `/site` node
/// with the rest of the twig: its first match proves the one row there
/// is, and the hundreds behind it are never fetched.
#[test]
fn an_existence_branch_is_proven_by_its_first_match() {
    let mut f = XmlForest::new();
    xtwig::datagen::generate_xmark(&mut f, xtwig::datagen::XmarkConfig { scale: 0.02, seed: 7 });
    let e = QueryEngine::build(
        &f,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr],
            pool_pages: 2048,
            ..Default::default()
        },
    );
    let queries = xtwig::datagen::xmark_queries();
    let twig_of = |id: &str| queries.iter().find(|q| q.id == id).unwrap().twig();
    let branch = xtwig::parse_xpath("/site/regions/namerica/item/location[. = 'united states']");
    let branch_rows = e.answer(&branch.unwrap(), Strategy::RootPaths).metrics.rows_fetched;
    assert!(branch_rows > 100, "the branch alone fetches {branch_rows} rows");
    for s in [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr] {
        let (q6, q7) = (e.answer(&twig_of("Q6x"), s), e.answer(&twig_of("Q7x"), s));
        assert_eq!(q7.ids, q6.ids, "{s}: the branch filters nothing out here");
        assert!(!q7.ids.is_empty());
        assert_eq!(
            q7.metrics.rows_fetched,
            q6.metrics.rows_fetched + 1,
            "{s}: the branch costs its first row, not all {branch_rows}"
        );
    }
}
