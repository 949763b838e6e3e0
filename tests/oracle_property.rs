//! Property test: on randomly generated forests and randomly generated
//! twig patterns, every index strategy returns exactly the naive
//! matcher's answer.
//!
//! This is the repo's deepest correctness net: it exercises the key
//! codec, designator encoding, B+-tree prefix scans, path enumeration,
//! twig decomposition, the planner, and all seven execution strategies
//! at once.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::xml::{naive, Axis, TwigPattern, XmlForest};

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// 96 `p`s: exactly `VALUE_KEY_PREFIX_BYTES`, and the key prefix of the
/// longer value after it, so an equality on it must be rechecked.
macro_rules! p96 {
    () => {
        concat!(
            "pppppppppppppppppppppppppppppppppppppppppppppppp",
            "pppppppppppppppppppppppppppppppppppppppppppppppp"
        )
    };
}
const _: () = assert!(p96!().len() == xtwig::core::family::VALUE_KEY_PREFIX_BYTES);
const VALUES: &[&str] = &["x", "y", "z", p96!(), concat!(p96!(), "ONE")];

/// Builds a random forest from a byte program: each byte either opens a
/// tagged element, closes the current one, or attaches a value.
fn forest_from_program(program: &[u8]) -> XmlForest {
    let mut forest = XmlForest::new();
    let mut b = forest.builder();
    b.open("r"); // stable root so anchored queries are interesting
    let mut depth = 1usize;
    for &op in program {
        match op % 8 {
            0..=3 => {
                if depth < 8 {
                    b.open(TAGS[(op as usize / 8) % TAGS.len()]);
                    depth += 1;
                }
            }
            4 | 5 => {
                if depth > 1 {
                    b.close();
                    depth -= 1;
                }
            }
            _ => {
                b.text(VALUES[(op as usize / 8) % VALUES.len()]);
            }
        }
    }
    while depth > 0 {
        b.close();
        depth -= 1;
    }
    b.finish();
    forest
}

/// Builds a random twig from a byte program.
fn twig_from_program(program: &[u8]) -> TwigPattern {
    let root_axis =
        if program.first().copied().unwrap_or(0) % 2 == 0 { Axis::Child } else { Axis::Descendant };
    let root_tag = if program.first().copied().unwrap_or(0) % 4 < 2 { "r" } else { TAGS[0] };
    let mut twig = TwigPattern::single(root_axis, root_tag, None);
    let mut nodes = vec![0usize];
    for chunk in program[1..].chunks(3) {
        if twig.len() >= 5 {
            break;
        }
        let parent = nodes[chunk[0] as usize % nodes.len()];
        let axis = if chunk.get(1).copied().unwrap_or(0) % 3 == 0 {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let tag = TAGS[chunk.get(1).copied().unwrap_or(0) as usize % TAGS.len()];
        let value = match chunk.get(2).copied().unwrap_or(0) as usize % (VALUES.len() + 1) {
            0 => None,
            v => Some(VALUES[v - 1]),
        };
        let idx = twig.add_child(parent, axis, tag, value);
        nodes.push(idx);
    }
    twig.output = nodes[program.first().copied().unwrap_or(0) as usize % nodes.len()];
    twig
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_strategy_matches_the_oracle(
        tree_prog in proptest::collection::vec(any::<u8>(), 4..120),
        twig_prog in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let forest = Arc::new(forest_from_program(&tree_prog));
        let engine = QueryEngine::build(
            forest.clone(),
            EngineOptions { pool_pages: 512, ..Default::default() },
        );
        // The random twig, then every value looked up under every tag,
        // so a value whose key prefix another value shares is probed.
        let mut twigs = vec![twig_from_program(&twig_prog)];
        for tag in TAGS {
            twigs.extend(VALUES.iter().map(|v| TwigPattern::single(Axis::Descendant, tag, Some(v))));
        }
        for twig in &twigs {
            let expected: BTreeSet<u64> =
                naive::select(&forest, twig).into_iter().map(|n| n.0).collect();
            for s in Strategy::ALL {
                let got = engine.answer(twig, s);
                prop_assert_eq!(
                    &got.ids,
                    &expected,
                    "strategy {} on twig {} over {} nodes",
                    s.label(),
                    twig,
                    forest.node_count()
                );
            }
        }
    }
}

#[test]
fn regression_nested_same_tags() {
    // Same-tag nesting exercises the strict-descendant filters.
    let mut forest = XmlForest::new();
    let mut b = forest.builder();
    b.open("r");
    b.open("a");
    b.text("x");
    b.open("a");
    b.open("a");
    b.text("x");
    b.close();
    b.close();
    b.close();
    b.open("a");
    b.text("y");
    b.close();
    b.close();
    b.finish();
    let forest = Arc::new(forest);
    let engine =
        QueryEngine::build(forest.clone(), EngineOptions { pool_pages: 512, ..Default::default() });
    for xpath in ["//a//a", "//a//a[. = 'x']", "/r/a/a/a", "//a[a]", "/r//a[. = 'y']"] {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            let got = engine.answer(&twig, s);
            assert_eq!(got.ids, expected, "{xpath} via {}", s.label());
        }
    }
}

#[test]
fn regression_multiple_documents_and_descendant_root() {
    let mut forest = XmlForest::new();
    for i in 0..4 {
        let mut b = forest.builder();
        b.open(if i % 2 == 0 { "a" } else { "b" });
        b.open("c");
        b.text(if i < 2 { "x" } else { "y" });
        b.close();
        b.close();
        b.finish();
    }
    let forest = Arc::new(forest);
    let engine =
        QueryEngine::build(forest.clone(), EngineOptions { pool_pages: 512, ..Default::default() });
    for xpath in ["/a/c", "//c[. = 'x']", "/b[c = 'y']", "//b/c"] {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            assert_eq!(engine.answer(&twig, s).ids, expected, "{xpath} via {}", s.label());
        }
    }
}
