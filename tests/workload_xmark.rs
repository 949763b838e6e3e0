//! Integration: the full Q1x–Q15x workload on generated XMark data, every
//! strategy checked against the naive oracle, the planted selectivity
//! profile and the work record in `tests/golden/work_xmark.txt`.

mod golden;

use std::collections::BTreeSet;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::plan::PlanKind;
use xtwig::datagen::{generate_xmark, xmark_queries, XmarkConfig};
use xtwig::xml::{naive, XmlForest};

fn build(scale: f64) -> (XmlForest, xtwig::datagen::XmarkProfile) {
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 0xA0C });
    (forest, profile)
}

fn oracle_ids(forest: &XmlForest, xpath: &str) -> BTreeSet<u64> {
    let twig = xtwig::parse_xpath(xpath).unwrap();
    naive::select(forest, &twig).into_iter().map(|n| n.0).collect()
}

/// The ledger's `twig_inproc` requests, Q1x–Q15x: every strategy's
/// answer equals the oracle's, its work and estimate equal the record's,
/// and `auto` picks within 2x of the fewest physical reads on ≥ 80 %.
#[test]
fn work_record_matches_golden() {
    let (forest, _) = build(0.004);
    let requests: Vec<(String, String)> =
        xmark_queries().iter().map(|q| (q.id.to_owned(), q.xpath.to_owned())).collect();
    let (record, summary) = golden::record("XMark scale 0.004 seed 0xA0C", &forest, &requests);
    golden::check("work_xmark.txt", &record);
    summary.assert_within_2x_on_80_pct("XMark");
}

#[test]
fn single_path_results_match_planted_profile() {
    let (forest, profile) = build(0.01);
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    let queries = xmark_queries();
    let expected =
        [("Q1x", profile.quantity5), ("Q2x", profile.quantity2), ("Q3x", profile.quantity1)];
    for (id, count) in expected {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        let a = engine.answer(&q.twig(), Strategy::RootPaths);
        assert_eq!(a.ids.len() as u64, count, "{id} result size");
        let d = engine.answer(&q.twig(), Strategy::DataPaths);
        assert_eq!(d.ids.len() as u64, count, "{id} via DP");
    }
}

#[test]
fn twig_results_match_planted_profile() {
    let (forest, profile) = build(0.01);
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    let queries = xmark_queries();
    // Q4x–Q7x return the increase=75.00 auctions (the selective branch
    // constants all exist); Q8x–Q9x the increase=3.00 auctions.
    for (id, count) in [
        ("Q4x", profile.increase_75),
        ("Q5x", profile.increase_75),
        ("Q6x", profile.increase_75),
        ("Q7x", profile.increase_75),
        ("Q8x", profile.increase_3),
        ("Q9x", profile.increase_3),
    ] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = engine.answer(&q.twig(), s);
            assert_eq!(a.ids.len() as u64, count, "{id} via {}", s.label());
        }
    }
}

#[test]
fn low_branch_point_chooses_inlj_for_datapaths() {
    let (forest, _) = build(0.01);
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::DataPaths, Strategy::RootPaths],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    let queries = xmark_queries();
    let q10 = queries.iter().find(|q| q.id == "Q10x").unwrap();
    let a = engine.answer(&q10.twig(), Strategy::DataPaths);
    assert_eq!(a.plan, PlanKind::IndexNestedLoop, "Q10x should run as INLJ");
    // And the result still matches the oracle.
    assert_eq!(a.ids, oracle_ids(&forest, q10.xpath));
    // High-branch-point mixed query stays a merge plan (§5.2.2: "the
    // speedup from index-nested-loops join cannot be exploited").
    let q6 = queries.iter().find(|q| q.id == "Q6x").unwrap();
    let a6 = engine.answer(&q6.twig(), Strategy::DataPaths);
    assert_eq!(a6.plan, PlanKind::Merge, "Q6x should run as a merge plan");
}

#[test]
fn recursive_twigs_expand_to_six_schema_paths() {
    let (forest, _) = build(0.005);
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::Asr, Strategy::RootPaths],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    let queries = xmark_queries();
    for id in ["Q12x", "Q14x"] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        let expected = oracle_ids(&forest, q.xpath);
        let asr = engine.answer(&q.twig(), Strategy::Asr);
        let rp = engine.answer(&q.twig(), Strategy::RootPaths);
        assert_eq!(asr.ids, expected, "{id} via ASR");
        assert_eq!(rp.ids, expected, "{id} via RP");
        // The §5.2.6 effect: ASR opens one table per matching region
        // path, so it must probe strictly more than RP's per-subpath
        // single lookups.
        assert!(
            asr.metrics.probes > rp.metrics.probes,
            "{id}: ASR probes {} <= RP probes {}",
            asr.metrics.probes,
            rp.metrics.probes
        );
    }
}

#[test]
fn leading_recursion_overhead_is_small_for_rootpaths() {
    // §5.2.4: queries rewritten with a leading // cost <5% more for
    // RP/DP because they become prefix probes on reversed paths. We check
    // the probe/row counts are identical (the lookup count cannot grow).
    let (forest, _) = build(0.01);
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    let anchored = xtwig::parse_xpath("/site/regions/namerica/item/quantity[. = '2']").unwrap();
    let recursive = xtwig::parse_xpath("//regions/namerica/item/quantity[. = '2']").unwrap();
    let a = engine.answer(&anchored, Strategy::RootPaths);
    let r = engine.answer(&recursive, Strategy::RootPaths);
    assert_eq!(a.ids, r.ids);
    assert_eq!(a.metrics.probes, r.metrics.probes);
}
