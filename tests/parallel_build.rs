//! Integration: shard-parallel index construction equivalence.
//!
//! The contract of `QueryEngine::build_parallel` is that sharding is
//! purely an execution-schedule change: for every index strategy, the
//! parallel build's buffer-pool page image is **byte-identical** to the
//! sequential build's (`structure_digest`), and therefore every query
//! answer agrees. Checked across every suite corpus (Fig. 1 book,
//! multi-document forests, XMark, DBLP) at several shard counts, plus a
//! property test over randomly grown forests.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::parallel::{map_shards, ShardPlan};
use xtwig::core::paths::PathStats;
use xtwig::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use xtwig::parse_xpath;
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::{naive, XmlForest};

const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

fn multi_doc_forest() -> XmlForest {
    let mut f = XmlForest::new();
    for i in 0..11 {
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
        b.open("allauthors");
        b.open("author");
        b.leaf("fn", "jane");
        b.leaf("ln", if i % 3 == 0 { "doe" } else { "poe" });
        b.close();
        b.close();
        if i % 4 == 0 {
            b.open("chapter");
            b.leaf("title", "XML");
            b.open("section");
            b.leaf("head", "Origins");
            b.close();
            b.close();
        }
        b.close();
        b.finish();
    }
    f
}

/// Every suite corpus the workload tests run against, at test scale.
fn corpora() -> Vec<(&'static str, Arc<XmlForest>)> {
    let mut xmark = XmlForest::new();
    generate_xmark(&mut xmark, XmarkConfig { scale: 0.002, seed: 0xA0C });
    let mut dblp = XmlForest::new();
    generate_dblp(&mut dblp, DblpConfig { scale: 0.002, seed: 0xD0B5 });
    vec![
        ("fig1", Arc::new(fig1_book_document())),
        ("multi_doc", Arc::new(multi_doc_forest())),
        ("xmark", Arc::new(xmark)),
        ("dblp", Arc::new(dblp)),
    ]
}

fn opts() -> EngineOptions {
    EngineOptions { pool_pages: 2048, ..Default::default() }
}

#[test]
fn parallel_build_is_byte_identical_on_every_corpus() {
    for (name, forest) in corpora() {
        let seq = QueryEngine::build(forest.clone(), opts());
        for shards in SHARD_COUNTS {
            let par = QueryEngine::build_parallel(forest.clone(), opts(), shards);
            for s in Strategy::ALL {
                assert_eq!(
                    par.structure_digest(s),
                    seq.structure_digest(s),
                    "{name}: {s} page image differs at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn parallel_build_answers_match_naive_oracle() {
    let forest = Arc::new(multi_doc_forest());
    let par = QueryEngine::build_parallel(forest.clone(), opts(), 5);
    for q in [
        "/book[title='XML']//author[fn='jane'][ln='doe']",
        "//author[fn='jane']/ln",
        "/book/chapter/title",
        "//section/head",
        "/book[title='XML'][year='2000']", // empty: no year nodes
    ] {
        let twig = parse_xpath(q).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            assert_eq!(par.answer(&twig, s).ids, expected, "{s} on {q}");
        }
    }
}

#[test]
fn sharded_path_stats_equal_sequential_on_every_corpus() {
    for (name, forest) in corpora() {
        let seq = PathStats::build(&forest);
        for shards in SHARD_COUNTS {
            let plan = ShardPlan::new(&forest, shards);
            let par = PathStats::build_sharded(&forest, &plan);
            assert_eq!(par.node_count(), seq.node_count(), "{name}");
            assert_eq!(par.distinct_schema_paths(), seq.distinct_schema_paths(), "{name}");
            for (path, count) in seq.iter_paths() {
                assert_eq!(par.path_count(path), count, "{name} @ {shards} shards");
            }
        }
    }
}

#[test]
fn shard_plans_cover_every_corpus_exactly_once() {
    for (name, forest) in corpora() {
        let total = forest.node_count() as u64 - 1;
        for shards in SHARD_COUNTS {
            let plan = ShardPlan::new(&forest, shards);
            let covered: u64 = map_shards(&plan, |r| r.len()).iter().sum();
            assert_eq!(covered, total, "{name} @ {shards} shards");
        }
    }
}

/// Tiny deterministic generator for the random-forest property test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Grows a random forest: 1–3 documents, random nesting, random leaf
/// values, random attribute nodes — enough shape variety to exercise
/// shard boundaries landing mid-subtree at every depth.
fn random_forest(seed: u64) -> XmlForest {
    const TAGS: [&str; 6] = ["a", "b", "c", "item", "name", "entry"];
    const VALUES: [&str; 4] = ["x", "y", "lorem", ""];
    let mut rng = Lcg(seed.wrapping_add(1));
    let mut f = XmlForest::new();
    for _ in 0..=rng.below(3) {
        let mut b = f.builder();
        b.open(TAGS[rng.below(TAGS.len() as u64) as usize]);
        let steps = 5 + rng.below(60);
        for _ in 0..steps {
            match rng.below(10) {
                0..=3 => {
                    if b.open_depth() < 8 {
                        b.open(TAGS[rng.below(TAGS.len() as u64) as usize]);
                    }
                }
                4..=6 => {
                    b.leaf(
                        TAGS[rng.below(TAGS.len() as u64) as usize],
                        VALUES[rng.below(VALUES.len() as u64) as usize],
                    );
                }
                7 => {
                    b.text(VALUES[rng.below(VALUES.len() as u64) as usize]);
                }
                _ => {
                    if b.open_depth() > 1 {
                        b.close();
                    }
                }
            }
        }
        while b.open_depth() > 0 {
            b.close();
        }
        b.finish();
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_forests_build_byte_identical_at_random_shard_counts(seed in any::<u64>()) {
        let forest = Arc::new(random_forest(seed));
        let mut rng = Lcg(seed ^ 0x5eed);
        let shards = 2 + rng.below(6) as usize;
        // RP, DP, and the Edge family cover all three builder shapes
        // (single tree, subpath tree, heap + three trees).
        let strategies = vec![Strategy::RootPaths, Strategy::DataPaths, Strategy::Edge];
        let mk = || EngineOptions {
            strategies: strategies.clone(),
            pool_pages: 1024,
            ..Default::default()
        };
        let seq = QueryEngine::build(forest.clone(), mk());
        let par = QueryEngine::build_parallel(forest.clone(), mk(), shards);
        for &s in &strategies {
            prop_assert_eq!(
                par.structure_digest(s),
                seq.structure_digest(s),
                "{} diverged at {} shards (seed {})", s, shards, seed
            );
        }
    }
}
