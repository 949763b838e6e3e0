//! Model-based property tests: the disk-format B+-tree against
//! `std::collections::BTreeMap` under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::btree::{bulk_build, BTree, BTreeOptions};
use xtwig::storage::BufferPool;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    PrefixScan(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Keys with heavy shared prefixes and zero bytes, the regime the
    // designator/codec layers produce.
    proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(2), 97..=99u8], 1..12)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), proptest::collection::vec(any::<u8>(), 0..20))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Get),
        proptest::collection::vec(97..=99u8, 0..3).prop_map(Op::PrefixScan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let pool = Arc::new(BufferPool::in_memory(256));
        let mut tree = BTree::new(pool);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(&k, &v), model.insert(k, v));
                }
                Op::Delete(k) => {
                    prop_assert_eq!(tree.delete(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k).cloned());
                }
                Op::PrefixScan(p) => {
                    let got: Vec<_> = tree.scan_prefix(&p).collect();
                    let want: Vec<_> = model
                        .range(p.clone()..)
                        .take_while(|(k, _)| k.starts_with(&p))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        let scanned: Vec<_> = tree.scan_all().collect();
        let expected: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
        tree.check_invariants();
    }

    #[test]
    fn bulk_build_equals_scan_of_sorted_input(
        entries in proptest::collection::btree_map(
            key_strategy(),
            proptest::collection::vec(any::<u8>(), 0..16),
            0..300,
        ),
    ) {
        let pool = Arc::new(BufferPool::in_memory(1024));
        let sorted: Vec<(Vec<u8>, Vec<u8>)> = entries.clone().into_iter().collect();
        let tree = bulk_build(pool, BTreeOptions::default(), sorted.clone());
        prop_assert_eq!(tree.len(), sorted.len() as u64);
        let scanned: Vec<_> = tree.scan_all().collect();
        prop_assert_eq!(scanned, sorted);
        tree.check_invariants();
        for (k, v) in entries.iter().take(20) {
            prop_assert_eq!(tree.get(k), Some(v.clone()));
        }
    }

    #[test]
    fn prefix_truncation_never_changes_results(
        entries in proptest::collection::btree_map(key_strategy(), Just(Vec::new()), 0..200),
        probe in proptest::collection::vec(97..=99u8, 0..4),
    ) {
        let sorted: Vec<(Vec<u8>, Vec<u8>)> = entries.into_iter().collect();
        let with = bulk_build(
            Arc::new(BufferPool::in_memory(1024)),
            BTreeOptions { prefix_truncation: true, ..Default::default() },
            sorted.clone(),
        );
        let without = bulk_build(
            Arc::new(BufferPool::in_memory(1024)),
            BTreeOptions { prefix_truncation: false, ..Default::default() },
            sorted,
        );
        let a: Vec<_> = with.scan_prefix(&probe).collect();
        let b: Vec<_> = without.scan_prefix(&probe).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn for_each_prefix_lends_exactly_what_scan_prefix_copies(
        // Values large enough that the tree has many leaves and a short
        // prefix spans several of them.
        inserts in proptest::collection::vec((key_strategy(), 150usize..500), 40..220),
        deletes in proptest::collection::vec(0usize..1000, 0..80),
    ) {
        let pool = Arc::new(BufferPool::in_memory(1024));
        let mut tree = BTree::new(pool.clone());
        for (k, len) in &inserts {
            tree.insert(k, &vec![k[0]; *len]);
        }
        for d in deletes {
            tree.delete(&inserts[d % inserts.len()].0);
        }
        let stored: Vec<Vec<u8>> = tree.scan_all().map(|(k, _)| k).collect();
        let mut prefixes: Vec<Vec<u8>> = vec![
            vec![],              // everything, leaf after leaf
            vec![97],            // spans several leaves
            vec![0],
            vec![50],            // absent, between stored keys
            vec![200, 200, 200], // past the last key
        ];
        // Equal to a stored key, and a stored key cut short.
        prefixes.extend(stored.iter().step_by(stored.len() / 5 + 1).cloned());
        prefixes.extend(stored.iter().step_by(stored.len() / 3 + 1).map(|k| k[..k.len() / 2].to_vec()));
        for p in prefixes {
            let mut lent: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            tree.for_each_prefix(&p, |k, v| {
                lent.push((k.to_vec(), v.to_vec()));
                ControlFlow::Continue(())
            });
            let copied: Vec<_> = tree.scan_prefix(&p).collect();
            prop_assert_eq!(&lent, &copied);
            let want = stored.iter().filter(|k| k.starts_with(&p)).count();
            prop_assert_eq!(lent.len(), want);
            // A visitor that breaks sees exactly the entries up to the one
            // it broke on — on a leaf's first cell, its last, or between.
            for stop in [1, copied.len() / 2 + 1, copied.len().max(1)] {
                let mut seen: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                tree.for_each_prefix(&p, |k, v| {
                    seen.push((k.to_vec(), v.to_vec()));
                    if seen.len() == stop { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
                });
                prop_assert_eq!(&seen[..], &copied[..stop.min(copied.len())]);
            }
        }
        prop_assert!(stored.len() < 20 || tree.stats().height > 1, "tree should span leaves");
        // No walk, broken off or run out, leaves a page pinned
        // (`clear_cache` panics on one).
        pool.clear_cache();
    }
}
