//! Integration: the DBLP selectivity sweep (Q1d–Q3d), shallow-document
//! behaviour, and the work record in `tests/golden/work_dblp.txt`.

mod golden;

use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::datagen::{dblp_queries, generate_dblp, DblpConfig};
use xtwig::xml::{naive, XmlForest};

#[test]
fn dblp_selectivity_sweep_matches_planted_years() {
    let mut forest = XmlForest::new();
    let profile = generate_dblp(&mut forest, DblpConfig { scale: 0.02, seed: 7 });
    let engine = QueryEngine::build(
        &forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths, Strategy::Edge],
            pool_pages: 4096,
            ..Default::default()
        },
    );
    // Only inproceedings (not articles) match /dblp/inproceedings/year.
    for (id, year) in [("Q1d", 1950u32), ("Q2d", 1979), ("Q3d", 1998)] {
        let q = dblp_queries().into_iter().find(|q| q.id == id).unwrap();
        let twig = q.twig();
        let expected: std::collections::BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in [Strategy::RootPaths, Strategy::DataPaths, Strategy::Edge] {
            let a = engine.answer(&twig, s);
            assert_eq!(a.ids, expected, "{id} via {}", s.label());
        }
        // The planted counts bound the result (articles share the year).
        assert!(
            expected.len() as u64 <= profile.per_year[&year],
            "{id}: {} results for {} planted",
            expected.len(),
            profile.per_year[&year]
        );
        if year == 1950 {
            assert_eq!(expected.len(), 1, "Q1d is the singleton year");
        }
    }
}

#[test]
fn all_strategies_agree_on_dblp() {
    let mut forest = XmlForest::new();
    generate_dblp(&mut forest, DblpConfig { scale: 0.005, seed: 3 });
    let engine =
        QueryEngine::build(&forest, EngineOptions { pool_pages: 4096, ..Default::default() });
    for xpath in [
        "/dblp/inproceedings/year[. = '1979']",
        "/dblp/inproceedings[year = '1998']/title",
        "//article/journal",
        "/dblp/article[volume = '7']/author",
        "//inproceedings[crossref]/booktitle",
    ] {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: std::collections::BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            let a = engine.answer(&twig, s);
            assert_eq!(a.ids, expected, "{xpath} via {}", s.label());
        }
    }
}

#[test]
fn shallow_dataset_keeps_datapaths_overhead_low() {
    // Fig. 9: for shallow DBLP, DATAPATHS is barely larger than
    // ROOTPATHS (83 vs 80 MB); for deep XMark it is ~3.6x. Check the
    // ordering relationship on generated data.
    let mut dblp = XmlForest::new();
    generate_dblp(&mut dblp, DblpConfig { scale: 0.02, seed: 1 });
    let mut xmark = XmlForest::new();
    xtwig::datagen::generate_xmark(
        &mut xmark,
        xtwig::datagen::XmarkConfig { scale: 0.02, seed: 1 },
    );

    let opts = || EngineOptions {
        strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
        pool_pages: 16384,
        ..Default::default()
    };
    let e_dblp = QueryEngine::build(&dblp, opts());
    let e_xmark = QueryEngine::build(&xmark, opts());
    let ratio_dblp = e_dblp.space_bytes(Strategy::DataPaths) as f64
        / e_dblp.space_bytes(Strategy::RootPaths) as f64;
    let ratio_xmark = e_xmark.space_bytes(Strategy::DataPaths) as f64
        / e_xmark.space_bytes(Strategy::RootPaths) as f64;
    assert!(
        ratio_xmark > ratio_dblp,
        "deep XMark must pay more DP overhead: xmark {ratio_xmark:.2} vs dblp {ratio_dblp:.2}"
    );
}

/// The ledger's `cold_scan` requests (`benchmark/src/workload.rs`):
/// Q1d–Q3d, then thirteen scans and twigs named `c04`–`c16` by position.
const COLD_SCAN: [&str; 13] = [
    "//inproceedings/author",
    "//article[year='1998']/title",
    "//article/journal",
    "//inproceedings[year='1990']/booktitle",
    "/dblp/inproceedings[booktitle='Conference 7']/title",
    "//inproceedings[author='Author 13 0']/title",
    "/dblp/article[journal='Journal of Things 3']/author",
    "//inproceedings/crossref[. = 'conf/xyz/1985']",
    "//article/volume",
    "//article/pages",
    "//inproceedings[year='1979']/title",
    "//inproceedings[crossref='conf/xyz/1985']/title",
    "//inproceedings[year='1979'][booktitle='Conference 7']/title",
];

/// Every strategy's answer to the `cold_scan` requests equals the
/// oracle's, its work and estimate equal the record's, and `auto` picks
/// within 2x of the fewest physical reads on ≥ 80 %.
#[test]
fn work_record_matches_golden() {
    let mut forest = XmlForest::new();
    generate_dblp(&mut forest, DblpConfig { scale: 0.004, seed: 0xD0B5 });
    let mut requests: Vec<(String, String)> =
        dblp_queries().iter().map(|q| (q.id.to_owned(), q.xpath.to_owned())).collect();
    requests.extend(
        COLD_SCAN.iter().enumerate().map(|(i, x)| (format!("c{:02}", i + 4), x.to_string())),
    );
    let (record, summary) = golden::record("DBLP scale 0.004 seed 0xD0B5", &forest, &requests);
    golden::check("work_dblp.txt", &record);
    summary.assert_within_2x_on_80_pct("DBLP");
}
