//! Integration: the §4 space optimizations preserve answers (lossless) or
//! lose exactly the documented functionality (lossy).

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::btree::BTreeOptions;
use xtwig::core::compress::{measure_idlist_bytes, workload_head_filter, DictDataPaths};
use xtwig::core::datapaths::{DataPaths, DataPathsOptions};
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::family::{PathIndex, PcSubpathQuery};
use xtwig::core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig::datagen::{generate_xmark, xmark_queries, XmarkConfig};
use xtwig::rel::codec::IdListCodec;
use xtwig::storage::BufferPool;
use xtwig::xml::{naive, XmlForest};

fn forest() -> XmlForest {
    let mut f = XmlForest::new();
    generate_xmark(&mut f, XmarkConfig { scale: 0.005, seed: 77 });
    f
}

#[test]
fn delta_and_plain_idlists_answer_identically() {
    let f = forest();
    let pool = || Arc::new(BufferPool::in_memory(16384));
    let delta = RootPaths::build(
        &f,
        pool(),
        RootPathsOptions { idlist: IdListCodec::Delta, ..Default::default() },
    );
    let plain = RootPaths::build(
        &f,
        pool(),
        RootPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    for (steps, value) in [
        (vec!["item", "quantity"], Some("2")),
        (vec!["open_auction", "@increase"], Some("3.00")),
        (vec!["person", "name"], None),
    ] {
        let q = PcSubpathQuery::resolve(f.dict(), &steps.to_vec(), false, value).unwrap();
        let scan = |index: &RootPaths| {
            let mut lists = Vec::new();
            index.for_each_free(&q, &mut Vec::new(), None, false, |_, ids| {
                lists.push(ids.to_vec());
                ControlFlow::Continue(())
            });
            lists.sort();
            lists
        };
        assert_eq!(scan(&delta), scan(&plain), "codec changed answers for {steps:?}");
    }
    // Lossless compression shrinks the index (paper: ~30%).
    assert!(delta.space_bytes() <= plain.space_bytes());
    let bytes = measure_idlist_bytes(&f);
    assert!(
        bytes.datapaths_saving() > 0.25,
        "delta saving {:.2} below the paper's ~30% ballpark",
        bytes.datapaths_saving()
    );
}

#[test]
fn dict_compression_loses_exactly_recursion() {
    let f = forest();
    let dict_dp = DictDataPaths::build(&f, Arc::new(BufferPool::in_memory(16384)));
    let full_dp =
        DataPaths::build(&f, Arc::new(BufferPool::in_memory(16384)), DataPathsOptions::default());
    // Anchored paths: identical answers.
    let tags: Vec<_> = ["site", "regions", "namerica", "item", "quantity"]
        .iter()
        .map(|t| f.dict().lookup(t).unwrap())
        .collect();
    let q = PcSubpathQuery { tags: tags.clone(), anchored: true, value: Some("2".into()) };
    let mut a = dict_dp.lookup_exact_free(&tags, Some("2"));
    let mut b = Vec::new();
    full_dp.for_each_free(&q, &mut Vec::new(), None, false, |_, ids| {
        b.push(ids.to_vec());
        ControlFlow::Continue(())
    });
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // Space shrinks; `//` capability is gone by construction (the API
    // only accepts exact paths).
    assert!(dict_dp.space_bytes() <= full_dp.space_bytes());
}

#[test]
fn head_pruned_engine_matches_oracle_on_and_off_workload() {
    let mut f = XmlForest::new();
    generate_xmark(&mut f, XmarkConfig { scale: 0.004, seed: 5 });
    let workload: Vec<_> = xmark_queries().iter().map(|q| q.twig()).collect();
    let filter = workload_head_filter(&workload);
    let f = Arc::new(f);
    let pruned = QueryEngine::build(
        f.clone(),
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: 8192,
            head_filter_tags: Some(filter),
            ..Default::default()
        },
    );
    let full = QueryEngine::build(
        f.clone(),
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: 8192,
            ..Default::default()
        },
    );
    // Pruning shrinks the index.
    assert!(
        pruned.space_bytes(Strategy::DataPaths) < full.space_bytes(Strategy::DataPaths),
        "pruning should reduce space: {} vs {}",
        pruned.space_bytes(Strategy::DataPaths),
        full.space_bytes(Strategy::DataPaths)
    );
    // Workload queries still answer correctly.
    for q in xmark_queries() {
        let twig = q.twig();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        assert_eq!(pruned.answer(&twig, Strategy::DataPaths).ids, expected, "{}", q.id);
    }
    // Off-workload queries too (they fall back to merge plans).
    for xpath in ["//person[name = 'Hagen Artosi']/emailaddress", "//category/name"] {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        assert_eq!(pruned.answer(&twig, Strategy::DataPaths).ids, expected, "{xpath}");
    }
}

/// Leaf page prefixes (`BTreeOptions::prefix_truncation`) cut the pages
/// of ROOTPATHS and DATAPATHS together by a quarter and change no answer.
/// The forest is larger than the other cases': a leaf stores the prefix
/// its lowest and highest key share, and at the smaller scale an RP leaf
/// spans many distinct values, so the two share little.
#[test]
fn page_prefixes_shrink_rootpaths_and_datapaths_and_keep_their_answers() {
    let mut f = XmlForest::new();
    generate_xmark(&mut f, XmarkConfig { scale: 0.02, seed: 77 });
    let f = Arc::new(f);
    let both = [Strategy::RootPaths, Strategy::DataPaths];
    let build = |prefix_truncation: bool| {
        let btree = BTreeOptions { prefix_truncation };
        QueryEngine::build(
            f.clone(),
            EngineOptions {
                strategies: both.to_vec(),
                pool_pages: 8192,
                rp: RootPathsOptions { btree, ..Default::default() },
                dp: DataPathsOptions { btree, ..Default::default() },
                ..Default::default()
            },
        )
    };
    let (with, without) = (build(true), build(false));
    let bytes = |e: &QueryEngine| both.map(|s| e.space_bytes(s));
    let ([rp, dp], [rp_full, dp_full]) = (bytes(&with), bytes(&without));
    assert!(rp < rp_full && dp < dp_full, "RP {rp} vs {rp_full} B, DP {dp} vs {dp_full} B");
    assert!(
        4 * (rp + dp) <= 3 * (rp_full + dp_full),
        "RP+DP: {} B with prefix truncation vs {} B without",
        rp + dp,
        rp_full + dp_full
    );
    for q in xmark_queries() {
        let twig = q.twig();
        for s in both {
            assert_eq!(with.answer(&twig, s).ids, without.answer(&twig, s).ids, "{} {s}", q.id);
        }
    }
}
