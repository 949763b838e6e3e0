//! Sorted bulk loading.
//!
//! Every index in the reproduction is built by enumerating its rows,
//! sorting the encoded keys, and packing leaves left-to-right at a target
//! fill factor — the standard `CREATE INDEX` path. Interior levels are
//! assembled from (optionally prefix-truncated) separators.
//!
//! The loader works by the page, not by the entry. It gathers one
//! leaf's entries while their size under the leaf's page prefix — the
//! common prefix of its first and latest key — stays within the fill
//! target, writes the leaf when the next entry would pass it, and links
//! each leaf to its right sibling when that sibling is written. Keys
//! and values are borrowed, so a build fed from a [`crate::RunArena`]
//! copies each entry once, into its leaf.

use crate::node;
use crate::tree::{BTree, BTreeOptions};
use std::sync::Arc;
use xtwig_storage::{BufferPool, PageId, PageWriteGuard, PAGE_SIZE};

/// One tree level under construction: each node's page id, with the
/// separator routing to it (none for the level's first node) stored back
/// to back with the others in one buffer — a level costs two vectors,
/// not an allocation a node.
#[derive(Default)]
struct Level {
    seps: Vec<u8>,
    /// `(node, end of its separator in seps)`.
    nodes: Vec<(PageId, usize)>,
}

impl Level {
    fn sep(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.nodes[i - 1].1 };
        &self.seps[start..self.nodes[i].1]
    }
}

/// Builds a B+-tree from an iterator of **strictly increasing** keys.
///
/// # Panics
/// Panics if keys are not strictly increasing, or exceed
/// [`node::MAX_KEY`]/[`node::MAX_VAL`].
pub fn bulk_build<I, K, V>(pool: Arc<BufferPool>, options: BTreeOptions, entries: I) -> BTree
where
    I: IntoIterator<Item = (K, V)>,
    K: AsRef<[u8]>,
    V: AsRef<[u8]>,
{
    let fill_limit =
        (((PAGE_SIZE - node::HDR) as f64) * options.fill_factor.clamp(0.1, 1.0)) as usize;
    let mut pages: u64 = 0;
    let mut n_entries: u64 = 0;

    // ---- Leaf level ---------------------------------------------------
    let mut level = Level::default();
    // The last leaf written, held until its right sibling is.
    let mut written: Option<PageWriteGuard<'_>> = None;
    let mut write_leaf = |cells: &[(K, V)], prefix_len: usize, level: &mut Level| {
        let (pid, mut guard) = pool.allocate();
        pages += 1;
        node::write_leaf(&mut guard, prefix_len, cells);
        level.nodes.push((pid, level.seps.len()));
        if let Some(mut left) = written.replace(guard) {
            node::set_right_sibling(&mut left, pid.0);
        }
    };
    // The leaf being gathered: its entries, the sum of their whole cell
    // sizes (slot included), and its page prefix length.
    let mut cells: Vec<(K, V)> = Vec::new();
    let (mut whole, mut prefix_len) = (0usize, 0usize);

    for (key, value) in entries {
        let (k, v) = (key.as_ref(), value.as_ref());
        assert!(k.len() <= node::MAX_KEY, "key too long: {}", k.len());
        assert!(v.len() <= node::MAX_VAL, "value too long: {}", v.len());
        let cell = 6 + k.len() + v.len();
        if let Some((last, _)) = cells.last() {
            let last = last.as_ref();
            assert!(last < k, "bulk_build requires strictly increasing keys");
            let shared = if options.prefix_truncation {
                prefix_len.min(node::common_prefix_len(cells[0].0.as_ref(), k))
            } else {
                0
            };
            // `leaf_bytes` of the leaf with this entry added.
            if whole + cell - cells.len() * shared <= fill_limit {
                prefix_len = shared;
            } else {
                let len = if options.prefix_truncation {
                    node::shortest_separator_len(last, k)
                } else {
                    k.len()
                };
                write_leaf(&cells, prefix_len, &mut level);
                level.seps.extend_from_slice(&k[..len]);
                cells.clear();
                whole = 0;
            }
        }
        if cells.is_empty() {
            prefix_len = if options.prefix_truncation { k.len() } else { 0 };
        }
        whole += cell;
        cells.push((key, value));
        n_entries += 1;
    }
    if !cells.is_empty() {
        write_leaf(&cells, prefix_len, &mut level);
    }
    drop(written);

    if level.nodes.is_empty() {
        let (pid, mut guard) = pool.allocate();
        node::init_leaf(&mut guard, &[]);
        drop(guard);
        return BTree::from_parts(pool, options, pid, 1, 0, 1);
    }

    // ---- Interior levels ----------------------------------------------
    let mut height = 1u32;
    while level.nodes.len() > 1 {
        height += 1;
        let mut next = Level::default();
        let mut i = 0usize;
        while i < level.nodes.len() {
            let (pid, mut guard) = pool.allocate();
            pages += 1;
            node::init_internal(&mut guard, level.nodes[i].0 .0);
            // The separator routing to child i now routes to its parent.
            next.seps.extend_from_slice(level.sep(i));
            next.nodes.push((pid, next.seps.len()));
            i += 1;
            let mut used = 0usize;
            let mut slot = 0usize;
            while i < level.nodes.len() {
                let sep = level.sep(i);
                let cell = 8 + sep.len();
                // Guarantee progress: a node with zero separators is
                // only legal as a lone root; force at least one entry
                // when more children remain (cells are far smaller than
                // a page, so this fits).
                if slot > 0 && used + cell > fill_limit {
                    break;
                }
                assert!(node::int_insert_at(&mut guard, slot, sep, level.nodes[i].0 .0));
                used += cell;
                slot += 1;
                i += 1;
            }
        }
        level = next;
    }

    let root = level.nodes[0].0;
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
        let t = bulk_build(pool(), BTreeOptions::default(), Vec::<(Vec<u8>, Vec<u8>)>::new());
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
