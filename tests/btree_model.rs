//! Model-based property tests: the disk-format B+-tree against
//! `std::collections::BTreeMap` under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::btree::{bulk_build, BTree, BTreeOptions, Visit, Walk};
use xtwig::storage::BufferPool;

/// A visitor that, after its `i`-th cell, seeks to `plan[i % len]` when
/// that key lies above the cell.
struct Leapfrog<'a> {
    plan: &'a [Option<Vec<u8>>],
    lent: &'a mut Vec<Vec<u8>>,
    target: Vec<u8>,
}

impl Visit for Leapfrog<'_> {
    fn visit(&mut self, key: &[u8], _value: &[u8]) -> Walk {
        let i = self.lent.len();
        self.lent.push(key.to_vec());
        match &self.plan[i % self.plan.len()] {
            Some(to) if to.as_slice() > key => {
                self.target.clone_from(to);
                Walk::Seek
            }
            _ => Walk::Next,
        }
    }

    fn seek_key(&self) -> &[u8] {
        &self.target
    }
}

/// The entries a prefix walk lends, copied out in order.
fn prefixed(tree: &BTree, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut lent = Vec::new();
    tree.for_each_prefix(prefix, |k, v| {
        lent.push((k.to_vec(), v.to_vec()));
        ControlFlow::Continue(())
    });
    lent
}

/// The model's entries under `prefix`, in key order.
fn model_prefixed(model: &BTreeMap<Vec<u8>, Vec<u8>>, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .range(prefix.to_vec()..)
        .take_while(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// The keys a seeking walk under `prefix` lends, by the model: the
/// prefix's entries in order, each one not below the latest target
/// passed over (`Leapfrog`'s plan).
fn model_leapfrog(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    prefix: &[u8],
    plan: &[Option<Vec<u8>>],
) -> Vec<Vec<u8>> {
    let mut want: Vec<Vec<u8>> = Vec::new();
    let mut bound: Vec<u8> = Vec::new();
    for k in model.range(prefix.to_vec()..).map(|(k, _)| k).take_while(|k| k.starts_with(prefix)) {
        if *k < bound {
            continue;
        }
        if let Some(to) = &plan[want.len() % plan.len()] {
            if to > k {
                bound.clone_from(to);
            }
        }
        want.push(k.clone());
    }
    want
}

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

/// The stem most keys of `stem_key_strategy` share, long enough that a
/// leaf of such keys stores a long page prefix.
const STEM: &[u8] = b"\x01/site/regions/namerica/item/mailbox/mail/to\x00\x00\x00\x00";

fn stem_tail() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(0x7f), 97..=99u8], 0..8)
}

/// Keys that mostly share [`STEM`], and outliers that part from it at a
/// random byte, below or above it: inserting one into a leaf of stem
/// keys shrinks the leaf's page prefix, and into a full one splits it.
fn stem_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    let stemmed = || stem_tail().prop_map(|tail| [STEM, &tail].concat());
    prop_oneof![
        stemmed(),
        stemmed(),
        stemmed(),
        (0..STEM.len(), stem_tail()).prop_map(|(cut, tail)| [&STEM[..cut], &tail].concat()),
    ]
}

#[derive(Debug, Clone)]
enum StemOp {
    Insert(Vec<u8>, usize),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    /// A seeking walk under `STEM[..cut]` with `Leapfrog`'s plan.
    Walk(usize, Vec<Option<Vec<u8>>>),
}

fn stem_op_strategy() -> impl Strategy<Value = StemOp> {
    prop_oneof![
        (stem_key_strategy(), 0usize..24).prop_map(|(k, len)| StemOp::Insert(k, len)),
        (stem_key_strategy(), 0usize..24).prop_map(|(k, len)| StemOp::Insert(k, len)),
        stem_key_strategy().prop_map(StemOp::Delete),
        stem_key_strategy().prop_map(StemOp::Get),
        (
            0..STEM.len() + 1,
            proptest::collection::vec(
                prop_oneof![Just(None), stem_key_strategy().prop_map(Some)],
                1..6,
            ),
        )
            .prop_map(|(cut, plan)| StemOp::Walk(cut, plan)),
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
                    prop_assert_eq!(prefixed(&tree, &p), model_prefixed(&model, &p));
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
        let sorted: Vec<(Vec<u8>, Vec<u8>)> = entries.clone().into_iter().collect();
        let with = bulk_build(
            Arc::new(BufferPool::in_memory(1024)),
            BTreeOptions { prefix_truncation: true },
            sorted.clone(),
        );
        let without = bulk_build(
            Arc::new(BufferPool::in_memory(1024)),
            BTreeOptions { prefix_truncation: false },
            sorted,
        );
        let a = prefixed(&with, &probe);
        prop_assert_eq!(&a, &prefixed(&without, &probe));
        prop_assert_eq!(a, model_prefixed(&entries, &probe));
    }

    #[test]
    fn for_each_prefix_lends_exactly_the_model_entries(
        // Values large enough that the tree has many leaves and a short
        // prefix spans several of them.
        inserts in proptest::collection::vec((key_strategy(), 150usize..500), 40..220),
        deletes in proptest::collection::vec(0usize..1000, 0..80),
    ) {
        let pool = Arc::new(BufferPool::in_memory(1024));
        let mut tree = BTree::new(pool.clone());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, len) in &inserts {
            tree.insert(k, &vec![k[0]; *len]);
            model.insert(k.clone(), vec![k[0]; *len]);
        }
        for d in deletes {
            let k = &inserts[d % inserts.len()].0;
            prop_assert_eq!(tree.delete(k), model.remove(k));
        }
        let stored: Vec<Vec<u8>> = model.keys().cloned().collect();
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
            let lent = prefixed(&tree, &p);
            let want = model_prefixed(&model, &p);
            prop_assert_eq!(&lent, &want);
            // A visitor that breaks sees exactly the entries up to the one
            // it broke on — on a leaf's first cell, its last, or between.
            for stop in [1, want.len() / 2 + 1, want.len().max(1)] {
                let mut seen: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                tree.for_each_prefix(&p, |k, v| {
                    seen.push((k.to_vec(), v.to_vec()));
                    if seen.len() == stop { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
                });
                prop_assert_eq!(&seen[..], &want[..stop.min(want.len())]);
            }
        }
        prop_assert!(stored.len() < 20 || tree.stats().height > 1, "tree should span leaves");
        // No walk, broken off or run out, leaves a page pinned
        // (`clear_cache` panics on one).
        pool.clear_cache();
    }

    #[test]
    fn a_seeking_walk_lends_the_prefix_entries_at_or_above_its_latest_target(
        inserts in proptest::collection::vec((key_strategy(), 150usize..500), 40..260),
        deletes in proptest::collection::vec(0usize..1000, 0..80),
        plan in proptest::collection::vec(
            prop_oneof![Just(None), Just(None), key_strategy().prop_map(Some)],
            1..16,
        ),
    ) {
        let pool = Arc::new(BufferPool::in_memory(1024));
        let mut tree = BTree::new(pool.clone());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, len) in &inserts {
            tree.insert(k, &vec![k[0]; *len]);
            model.insert(k.clone(), vec![k[0]; *len]);
        }
        for d in deletes {
            let k = &inserts[d % inserts.len()].0;
            prop_assert_eq!(tree.delete(k), model.remove(k));
        }
        for p in [vec![], vec![97], vec![0], vec![98, 99], vec![200]] {
            let mut lent = Vec::new();
            tree.visit_prefix(&p, Leapfrog { plan: &plan, lent: &mut lent, target: Vec::new() });
            prop_assert_eq!(&lent, &model_leapfrog(&model, &p, &plan), "prefix {:?}", p);
        }
        // A walk that sought and ran out leaves no page pinned.
        pool.clear_cache();
    }

    #[test]
    fn outliers_among_long_shared_prefixes_keep_the_tree_equal_to_the_model(
        // Bulk-loaded first, so that leaves start full under long page
        // prefixes and the operations' inserts split them.
        base in proptest::collection::btree_map(
            stem_key_strategy(),
            proptest::collection::vec(any::<u8>(), 0..12),
            0..1500,
        ),
        ops in proptest::collection::vec(stem_op_strategy(), 1..300),
    ) {
        for prefix_truncation in [true, false] {
            let options = BTreeOptions { prefix_truncation };
            let pool = Arc::new(BufferPool::in_memory(1024));
            let mut model = base.clone();
            let mut tree = bulk_build(pool.clone(), options, model.clone());
            for (i, op) in ops.iter().enumerate() {
                match op {
                    StemOp::Insert(k, len) => {
                        let v = vec![k.len() as u8; *len];
                        prop_assert_eq!(tree.insert(k, &v), model.insert(k.clone(), v));
                    }
                    StemOp::Delete(k) => prop_assert_eq!(tree.delete(k), model.remove(k)),
                    StemOp::Get(k) => prop_assert_eq!(tree.get(k), model.get(k).cloned()),
                    StemOp::Walk(cut, plan) => {
                        let p = &STEM[..*cut];
                        let mut lent = Vec::new();
                        tree.visit_prefix(p, Leapfrog { plan, lent: &mut lent, target: Vec::new() });
                        prop_assert_eq!(&lent, &model_leapfrog(&model, p, plan), "prefix {:?}", p);
                        prop_assert_eq!(prefixed(&tree, p), model_prefixed(&model, p));
                    }
                }
                if i % 32 == 31 {
                    tree.check_invariants();
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            let scanned: Vec<_> = tree.scan_all().collect();
            let expected: Vec<_> = model.into_iter().collect();
            prop_assert_eq!(scanned, expected);
            tree.check_invariants();
            pool.clear_cache();
        }
    }
}
