//! Stress shapes: datasets that push the encoding layers into their rare
//! regimes, checked end-to-end against the oracle.

use std::collections::BTreeSet;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::xml::{naive, XmlForest};

fn check_all(forest: &XmlForest, engine: &QueryEngine, xpath: &str) {
    let twig = xtwig::parse_xpath(xpath).unwrap();
    let expected: BTreeSet<u64> = naive::select(forest, &twig).into_iter().map(|n| n.0).collect();
    for s in Strategy::ALL {
        let got = engine.answer(&twig, s);
        assert_eq!(got.ids, expected, "{xpath} via {}", s.label());
    }
}

/// More than 253 distinct tags forces the 3-byte escape designators; the
/// whole stack (keys, probes, decodes) must keep working across the
/// 1-byte/3-byte boundary.
#[test]
fn dictionary_beyond_one_byte_designators() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("root");
    for i in 0..400u32 {
        b.open(&format!("tag{i}"));
        b.leaf("val", &format!("{}", i % 7));
        b.close();
    }
    b.close();
    b.finish();
    assert!(f.dict().len() > 300, "need the multi-byte designator regime");
    let f = Arc::new(f);
    let e = QueryEngine::build(f.clone(), EngineOptions { pool_pages: 2048, ..Default::default() });
    // tag5 uses a 1-byte designator, tag300 a 3-byte one.
    check_all(&f, &e, "/root/tag5/val");
    check_all(&f, &e, "/root/tag300/val[. = '6']");
    check_all(&f, &e, "//tag399/val");
    check_all(&f, &e, "/root/tag300[val = '6']");
    check_all(&f, &e, "//val[. = '3']");
}

/// Leaf values longer than the 96-byte key prefix are prefix-indexed and
/// post-checked; two long values sharing the indexed prefix must still
/// be distinguished.
#[test]
fn long_values_share_key_prefix() {
    let shared: String = "x".repeat(120);
    let v1 = format!("{shared}-alpha");
    let v2 = format!("{shared}-beta");
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("docs");
    b.leaf("blob", &v1);
    b.leaf("blob", &v2);
    b.leaf("blob", &v1);
    b.leaf("blob", "short");
    b.close();
    b.finish();
    let f = Arc::new(f);
    let e = QueryEngine::build(f.clone(), EngineOptions { pool_pages: 1024, ..Default::default() });
    for (value, want) in [(v1.as_str(), 2usize), (v2.as_str(), 1), ("short", 1)] {
        let twig = xtwig::parse_xpath(&format!("/docs/blob[. = '{value}']")).unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        assert_eq!(expected.len(), want, "oracle sanity for {value:.20}…");
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let got = e.answer(&twig, s);
            assert_eq!(got.ids, expected, "long value via {}", s.label());
        }
    }
}

/// Deep same-tag nesting: recursion-heavy structure where strict
/// descendant semantics and the subpath explosion both matter.
#[test]
fn deep_same_tag_nesting() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    for _ in 0..30 {
        b.open("n");
    }
    b.leaf("leaf", "bottom");
    for _ in 0..30 {
        b.close();
    }
    b.finish();
    assert_eq!(f.max_depth(), 31);
    let f = Arc::new(f);
    let e = QueryEngine::build(f.clone(), EngineOptions { pool_pages: 4096, ..Default::default() });
    check_all(&f, &e, "//n/leaf");
    check_all(&f, &e, "//n//leaf");
    check_all(&f, &e, "//n//n//n/leaf");
    check_all(&f, &e, "/n/n/n[//leaf]");
}

/// Wide fanout: one parent with thousands of children stresses the
/// forward-link buckets and leaf packing.
#[test]
fn wide_fanout() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("hub");
    for i in 0..2_000u32 {
        b.leaf("spoke", &format!("{}", i % 10));
    }
    b.close();
    b.finish();
    let f = Arc::new(f);
    let e = QueryEngine::build(f.clone(), EngineOptions { pool_pages: 4096, ..Default::default() });
    check_all(&f, &e, "/hub/spoke[. = '3']");
    check_all(&f, &e, "//spoke");
    let twig = xtwig::parse_xpath("/hub/spoke[. = '3']").unwrap();
    let a = e.answer(&twig, Strategy::RootPaths);
    assert_eq!(a.ids.len(), 200);
}

/// Unicode tags and values through every layer.
#[test]
fn unicode_tags_and_values() {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("催し");
    b.leaf("名前", "祭り");
    b.leaf("名前", "émission");
    b.close();
    b.finish();
    let f = Arc::new(f);
    let e = QueryEngine::build(f.clone(), EngineOptions { pool_pages: 1024, ..Default::default() });
    check_all(&f, &e, "/催し/名前[. = '祭り']");
    check_all(&f, &e, "//名前[. = 'émission']");
}
