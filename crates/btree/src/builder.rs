//! Sorted bulk loading.
//!
//! Every index in the reproduction is built by enumerating its rows,
//! sorting the encoded keys, and packing leaves left-to-right at a target
//! fill factor — the standard `CREATE INDEX` path. Interior levels are
//! assembled from (optionally prefix-truncated) separators.

use crate::node;
use crate::tree::{BTree, BTreeOptions};
use std::sync::Arc;
use xtwig_storage::{BufferPool, PageId, PAGE_SIZE};

/// Builds a B+-tree from an iterator of **strictly increasing** keys.
///
/// # Panics
/// Panics if keys are not strictly increasing, or exceed
/// [`node::MAX_KEY`]/[`node::MAX_VAL`].
pub fn bulk_build<I>(pool: Arc<BufferPool>, options: BTreeOptions, entries: I) -> BTree
where
    I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
{
    let fill_limit =
        (((PAGE_SIZE - node::HDR) as f64) * options.fill_factor.clamp(0.1, 1.0)) as usize;
    let mut pages: u64 = 0;
    let mut n_entries: u64 = 0;

    let mut alloc = |init_leaf: bool, leftmost: u32| -> PageId {
        pages += 1;
        let (pid, mut guard) = pool.allocate();
        if init_leaf {
            node::init_leaf(&mut guard);
        } else {
            node::init_internal(&mut guard, leftmost);
        }
        pid
    };

    // ---- Leaf level ---------------------------------------------------
    // Each finished leaf is recorded as (first_key, last_key, pid).
    let mut leaves: Vec<(Vec<u8>, Vec<u8>, PageId)> = Vec::new();
    #[allow(clippy::type_complexity)]
    let mut cur: Option<(PageId, Vec<u8>, Vec<u8>, usize, usize)> = None; // pid, first, last, used, slot
    let mut prev_key: Option<Vec<u8>> = None;

    for (key, value) in entries {
        assert!(key.len() <= node::MAX_KEY, "key too long: {}", key.len());
        assert!(value.len() <= node::MAX_VAL, "value too long: {}", value.len());
        if let Some(p) = &prev_key {
            assert!(p < &key, "bulk_build requires strictly increasing keys");
        }
        let cell = 6 + key.len() + value.len();
        let start_new = match &cur {
            None => true,
            Some((_, _, _, used, _)) => used + cell > fill_limit,
        };
        if start_new {
            if let Some((pid, first, last, _, _)) = cur.take() {
                leaves.push((first, last, pid));
            }
            let pid = alloc(true, 0);
            cur = Some((pid, key.clone(), key.clone(), 0, 0));
        }
        let (pid, _, last, used, slot) = cur.as_mut().unwrap();
        {
            let mut guard = pool.fetch_mut(*pid);
            assert!(node::leaf_insert_at(&mut guard, *slot, &key, &value), "leaf cell must fit");
        }
        *last = key.clone();
        *used += cell;
        *slot += 1;
        n_entries += 1;
        prev_key = Some(key);
    }
    if let Some((pid, first, last, _, _)) = cur.take() {
        leaves.push((first, last, pid));
    }

    if leaves.is_empty() {
        let pid = alloc(true, 0);
        return BTree::from_parts(pool, options, pid, 1, 0, pages);
    }

    // Link leaf siblings.
    for w in leaves.windows(2) {
        let mut guard = pool.fetch_mut(w[0].2);
        node::set_right_sibling(&mut guard, w[1].2 .0);
    }

    // ---- Interior levels ----------------------------------------------
    // Each level entry: (separator_before_this_subtree, subtree_root).
    // The first entry of a level has no separator.
    let mut level: Vec<(Option<Vec<u8>>, PageId)> = Vec::with_capacity(leaves.len());
    for (i, (first, _, pid)) in leaves.iter().enumerate() {
        let sep = if i == 0 {
            None
        } else if options.prefix_truncation {
            Some(node::shortest_separator(&leaves[i - 1].1, first))
        } else {
            Some(first.clone())
        };
        level.push((sep, *pid));
    }

    let mut height = 1u32;
    while level.len() > 1 {
        height += 1;
        let mut next: Vec<(Option<Vec<u8>>, PageId)> = Vec::new();
        let mut i = 0usize;
        while i < level.len() {
            let node_sep = level[i].0.clone();
            let pid = alloc(false, level[i].1 .0);
            i += 1;
            let mut used = 0usize;
            let mut slot = 0usize;
            while i < level.len() {
                let sep = level[i].0.as_ref().expect("non-first entries carry separators");
                let cell = 8 + sep.len();
                if used + cell > fill_limit {
                    break;
                }
                let mut guard = pool.fetch_mut(pid);
                assert!(node::int_insert_at(&mut guard, slot, sep, level[i].1 .0));
                used += cell;
                slot += 1;
                i += 1;
            }
            // Guarantee progress: a node with zero separators is only legal
            // as a lone root; force at least one entry when more children
            // remain (cells are far smaller than a page, so this fits).
            if slot == 0 && i < level.len() {
                let sep = level[i].0.clone().expect("non-first entries carry separators");
                let mut guard = pool.fetch_mut(pid);
                assert!(node::int_insert_at(&mut guard, 0, &sep, level[i].1 .0));
                i += 1;
            }
            next.push((node_sep, pid));
        }
        level = next;
    }

    let root = level[0].1;
    BTree::from_parts(pool, options, root, height, n_entries, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::ControlFlow;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::in_memory(8192))
    }

    fn entry(i: u32) -> (Vec<u8>, Vec<u8>) {
        (format!("key{i:08}").into_bytes(), i.to_le_bytes().to_vec())
    }

    #[test]
    fn empty_build() {
        let t = bulk_build(pool(), BTreeOptions::default(), Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.scan_all().count(), 0);
        t.check_invariants();
    }

    #[test]
    fn single_entry() {
        let t = bulk_build(pool(), BTreeOptions::default(), vec![entry(7)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"key00000007"), Some(7u32.to_le_bytes().to_vec()));
        t.check_invariants();
    }

    #[test]
    fn large_build_lookup_and_scan() {
        let n = 50_000u32;
        let t = bulk_build(pool(), BTreeOptions::default(), (0..n).map(entry));
        assert_eq!(t.len(), u64::from(n));
        assert!(t.stats().height >= 2, "height {}", t.stats().height);
        t.check_invariants();
        for i in [0, 1, 999, 25_000, n - 1] {
            let (k, v) = entry(i);
            assert_eq!(t.get(&k), Some(v));
        }
        assert_eq!(t.get(b"key99999999"), None);
        assert_eq!(t.scan_all().count(), n as usize);
        let mut sub = 0;
        t.for_each_prefix(b"key000100", |_, _| {
            sub += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(sub, 100);
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let entries: Vec<_> = (0..3_000u32).map(entry).collect();
        let bulk = bulk_build(pool(), BTreeOptions::default(), entries.clone());
        let mut incr = BTree::new(pool());
        for (k, v) in &entries {
            incr.insert(k, v);
        }
        let a: Vec<_> = bulk.scan_all().collect();
        let b: Vec<_> = incr.scan_all().collect();
        assert_eq!(a, b);
        // Bulk loading should be at least as compact.
        assert!(bulk.stats().pages <= incr.stats().pages);
    }

    #[test]
    fn inserts_into_bulk_built_tree() {
        let mut t =
            bulk_build(pool(), BTreeOptions::default(), (0..1_000u32).map(|i| entry(i * 2)));
        for i in 0..1_000u32 {
            let (k, v) = entry(i * 2 + 1);
            t.insert(&k, &v);
        }
        assert_eq!(t.len(), 2_000);
        t.check_invariants();
        let keys: Vec<_> = t.scan_all().map(|(k, _)| k).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_input() {
        bulk_build(pool(), BTreeOptions::default(), vec![entry(2), entry(1)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicate_keys() {
        bulk_build(pool(), BTreeOptions::default(), vec![entry(1), entry(1)]);
    }

    #[test]
    fn fill_factor_trades_pages() {
        let dense = bulk_build(
            pool(),
            BTreeOptions { fill_factor: 1.0, ..Default::default() },
            (0..20_000).map(entry),
        );
        let sparse = bulk_build(
            pool(),
            BTreeOptions { fill_factor: 0.5, ..Default::default() },
            (0..20_000).map(entry),
        );
        assert!(dense.stats().pages < sparse.stats().pages);
        dense.check_invariants();
        sparse.check_invariants();
    }

    #[test]
    fn prefix_scan_on_bulk_tree() {
        let t = bulk_build(
            pool(),
            BTreeOptions::default(),
            (0..26u8).flat_map(|c| {
                (0..100u32).map(move |i| {
                    (vec![b'a' + c, b'/', (i / 10) as u8 + b'0', (i % 10) as u8 + b'0'], vec![c])
                })
            }),
        );
        assert_eq!(t.len(), 2_600);
        for c in 0..26u8 {
            let mut hits = 0;
            t.for_each_prefix(&[b'a' + c], |_, v| {
                assert_eq!(v, [c]);
                hits += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(hits, 100);
        }
    }
}
