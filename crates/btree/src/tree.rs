//! The B+-tree proper: lookups, inserts, deletes, range and prefix scans.
//!
//! Every read path shares one descent, `find_leaf`, which hands back
//! the read guard of the leaf it lands on: a point lookup costs `height`
//! page fetches, a scan `height` plus one per further leaf it visits.
//! Scans come in two shapes over one leaf walk (`admitted_cells`):
//! [`BTree::for_each_prefix`] lends each `(key, value)` cell to a visitor
//! straight from the pinned leaf page — the form the index probes of
//! `xtwig-core` consume, no allocation per entry, and the visitor ends
//! the walk by answering [`ControlFlow::Break`] — and [`RangeScan`] is
//! the owned-iterator adapter for callers that want `(Vec<u8>, Vec<u8>)`
//! pairs (builders, tests, the harness).

use crate::node::{self, NO_PAGE};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_storage::{BufferPool, PageId, PageReadGuard, PAGE_SIZE};

/// Build/behaviour options.
#[derive(Debug, Clone, Copy)]
pub struct BTreeOptions {
    /// Store shortest distinguishing separators in interior nodes instead
    /// of full keys (the DB2-style prefix compression the paper leans on
    /// in §3.1). Disable for the ablation benchmark.
    pub prefix_truncation: bool,
    /// Target fill fraction of leaf/internal pages during bulk build.
    pub fill_factor: f64,
}

impl Default for BTreeOptions {
    fn default() -> Self {
        BTreeOptions { prefix_truncation: true, fill_factor: 0.9 }
    }
}

/// Size/shape statistics for space reporting (Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStats {
    /// Number of key/value entries.
    pub entries: u64,
    /// Number of pages (leaf + internal).
    pub pages: u64,
    /// Tree height (1 = root is a leaf).
    pub height: u32,
}

impl BTreeStats {
    /// Total allocated bytes.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }
}

/// A B+-tree bound to a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    options: BTreeOptions,
    root: PageId,
    height: u32,
    entries: u64,
    pages: u64,
}

impl BTree {
    /// Creates an empty tree (root is an empty leaf).
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self::with_options(pool, BTreeOptions::default())
    }

    /// Creates an empty tree with explicit options.
    pub fn with_options(pool: Arc<BufferPool>, options: BTreeOptions) -> Self {
        let (root, mut guard) = pool.allocate();
        node::init_leaf(&mut guard);
        drop(guard);
        BTree { pool, options, root, height: 1, entries: 0, pages: 1 }
    }

    /// Reattaches a tree from its persisted shape: the root page id and
    /// the `height`/`entries`/`pages` counters recorded when the tree
    /// was built (bulk load keeps them exact; `xtwig-core`'s index
    /// persistence stores them in its catalog). The caller must hand
    /// back a pool whose page image contains the tree unchanged —
    /// nothing is validated here beyond what later operations assert.
    pub fn from_parts(
        pool: Arc<BufferPool>,
        options: BTreeOptions,
        root: PageId,
        height: u32,
        entries: u64,
        pages: u64,
    ) -> Self {
        BTree { pool, options, root, height, entries, pages }
    }

    /// The buffer pool backing this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The root page id (persisted by the index catalog and fed back to
    /// [`BTree::from_parts`] on reopen).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Build/behaviour options.
    pub fn options(&self) -> BTreeOptions {
        self.options
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Size/shape statistics.
    pub fn stats(&self) -> BTreeStats {
        BTreeStats { entries: self.entries, pages: self.pages, height: self.height }
    }

    /// Allocated bytes (page-granular), the Fig. 9 space metric.
    pub fn space_bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    fn alloc_page(&mut self) -> PageId {
        self.pages += 1;
        let (pid, guard) = self.pool.allocate();
        drop(guard);
        pid
    }

    /// Descends to the leaf that would contain `key` and returns it
    /// still latched: each child is fetched while its parent's guard is
    /// held, and the leaf's guard goes to the caller, so nothing on the
    /// read path fetches the leaf a second time.
    fn find_leaf(&self, key: &[u8]) -> (PageId, PageReadGuard<'_>) {
        let mut pid = self.root;
        let mut page = self.pool.fetch(pid);
        while !node::is_leaf(&page) {
            let idx = node::int_child_index(&page, key);
            pid = PageId(node::int_child_at(&page, idx));
            page = self.pool.fetch(pid);
        }
        (pid, page)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (_, page) = self.find_leaf(key);
        match node::leaf_find(&page, key) {
            Ok(idx) => Some(node::leaf_value(&page, idx).to_vec()),
            Err(_) => None,
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (_, page) = self.find_leaf(key);
        node::leaf_find(&page, key).is_ok()
    }

    /// Inserts `(key, value)`; replaces and returns the previous value if
    /// the key already exists.
    ///
    /// # Panics
    /// Panics if `key`/`value` exceed [`node::MAX_KEY`]/[`node::MAX_VAL`].
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        assert!(key.len() <= node::MAX_KEY, "key too long: {}", key.len());
        assert!(value.len() <= node::MAX_VAL, "value too long: {}", value.len());
        let (old, split) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let new_root = self.alloc_page();
            let mut guard = self.pool.fetch_mut(new_root);
            node::init_internal(&mut guard, self.root.0);
            assert!(node::int_insert_at(&mut guard, 0, &sep, right.0));
            drop(guard);
            self.root = new_root;
            self.height += 1;
        }
        if old.is_none() {
            self.entries += 1;
        }
        old
    }

    /// Recursive insert; returns `(replaced_value, Some((separator,
    /// new_right_page)))` when this node split.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        pid: PageId,
        key: &[u8],
        value: &[u8],
    ) -> (Option<Vec<u8>>, Option<(Vec<u8>, PageId)>) {
        let is_leaf = {
            let page = self.pool.fetch(pid);
            node::is_leaf(&page)
        };
        if is_leaf {
            let pool = Arc::clone(&self.pool);
            let mut page = pool.fetch_mut(pid);
            let mut old = None;
            let idx = match node::leaf_find(&page, key) {
                Ok(i) => {
                    old = Some(node::leaf_value(&page, i).to_vec());
                    node::leaf_remove_at(&mut page, i);
                    i
                }
                Err(i) => i,
            };
            if node::leaf_insert_at(&mut page, idx, key, value) {
                return (old, None);
            }
            // Split required.
            let split = self.split_leaf(&mut page, idx, key, value);
            (old, Some(split))
        } else {
            let (child_idx, child) = {
                let page = self.pool.fetch(pid);
                let idx = node::int_child_index(&page, key);
                (idx, PageId(node::int_child_at(&page, idx)))
            };
            let (old, split) = self.insert_rec(child, key, value);
            let Some((sep, new_child)) = split else {
                return (old, None);
            };
            let pool = Arc::clone(&self.pool);
            let mut page = pool.fetch_mut(pid);
            if node::int_insert_at(&mut page, child_idx, &sep, new_child.0) {
                return (old, None);
            }
            let split = self.split_internal(&mut page, child_idx, &sep, new_child);
            (old, Some(split))
        }
    }

    /// Splits a full leaf; `(idx, key, value)` is the pending insert.
    fn split_leaf(
        &mut self,
        page: &mut [u8],
        idx: usize,
        key: &[u8],
        value: &[u8],
    ) -> (Vec<u8>, PageId) {
        let n = node::nslots(page);
        let mut cells: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| (node::leaf_key(page, i).to_vec(), node::leaf_value(page, i).to_vec()))
            .collect();
        cells.insert(idx, (key.to_vec(), value.to_vec()));
        // Split point by accumulated bytes.
        let total: usize = cells.iter().map(|(k, v)| 6 + k.len() + v.len()).sum();
        let mut acc = 0usize;
        let mut mid = cells.len() / 2;
        for (i, (k, v)) in cells.iter().enumerate() {
            acc += 6 + k.len() + v.len();
            if acc * 2 >= total {
                mid = (i + 1).min(cells.len() - 1).max(1);
                break;
            }
        }
        let right_pid = self.alloc_page();
        let old_sibling = node::right_sibling(page);
        let mut right = self.pool.fetch_mut(right_pid);
        node::init_leaf(&mut right);
        node::set_right_sibling(&mut right, old_sibling);
        for (i, (k, v)) in cells[mid..].iter().enumerate() {
            assert!(node::leaf_insert_at(&mut right, i, k, v), "right split half must fit");
        }
        drop(right);
        node::init_leaf(page);
        node::set_right_sibling(page, right_pid.0);
        for (i, (k, v)) in cells[..mid].iter().enumerate() {
            assert!(node::leaf_insert_at(page, i, k, v), "left split half must fit");
        }
        let sep = if self.options.prefix_truncation {
            node::shortest_separator(&cells[mid - 1].0, &cells[mid].0)
        } else {
            cells[mid].0.clone()
        };
        (sep, right_pid)
    }

    /// Splits a full internal node; `(idx, key, child)` is the pending
    /// separator insert.
    fn split_internal(
        &mut self,
        page: &mut [u8],
        idx: usize,
        key: &[u8],
        child: PageId,
    ) -> (Vec<u8>, PageId) {
        let n = node::nslots(page);
        let mut entries: Vec<(Vec<u8>, u32)> =
            (0..n).map(|i| (node::int_key(page, i).to_vec(), node::int_child(page, i))).collect();
        entries.insert(idx, (key.to_vec(), child.0));
        let leftmost = node::leftmost_child(page);
        let mid = entries.len() / 2;
        let (promoted, right_leftmost) = (entries[mid].0.clone(), entries[mid].1);
        let right_pid = self.alloc_page();
        let mut right = self.pool.fetch_mut(right_pid);
        node::init_internal(&mut right, right_leftmost);
        for (i, (k, c)) in entries[mid + 1..].iter().enumerate() {
            assert!(node::int_insert_at(&mut right, i, k, *c), "right split half must fit");
        }
        drop(right);
        node::init_internal(page, leftmost);
        for (i, (k, c)) in entries[..mid].iter().enumerate() {
            assert!(node::int_insert_at(page, i, k, *c), "left split half must fit");
        }
        (promoted, right_pid)
    }

    /// Removes `key`; returns its value if it was present. Pages are not
    /// merged on underflow (indexes here are bulk-built and read-mostly;
    /// the update experiment measures entry-level maintenance cost, which
    /// does not require rebalancing).
    pub fn delete(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        // The descent's read latch is released before the leaf is
        // re-latched for writing.
        let (leaf, _) = self.find_leaf(key);
        let mut page = self.pool.fetch_mut(leaf);
        match node::leaf_find(&page, key) {
            Ok(idx) => {
                let old = node::leaf_value(&page, idx).to_vec();
                node::leaf_remove_at(&mut page, idx);
                self.entries -= 1;
                Some(old)
            }
            Err(_) => None,
        }
    }

    /// Scans all entries with `key >= lo`, ending per `end`.
    pub fn range(&self, lo: &[u8], end: ScanEnd) -> RangeScan<'_> {
        let (_, page) = self.find_leaf(lo);
        let (Ok(start) | Err(start)) = node::leaf_find(&page, lo);
        let mut scan = RangeScan { tree: self, end, buffer: VecDeque::new(), next: None };
        scan.buffer_leaf(&page, start);
        scan
    }

    /// All entries whose key starts with `prefix`, in key order.
    ///
    /// This is the paper's core access pattern: a PCsubpath with a leading
    /// `//` becomes a prefix probe on `LeafValue · ReverseSchemaPath`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> RangeScan<'_> {
        self.range(prefix, ScanEnd::Prefix(prefix.to_vec()))
    }

    /// Calls `visit(key, value)` for every entry whose key starts with
    /// `prefix`, in key order, until it answers [`ControlFlow::Break`] —
    /// [`BTree::scan_prefix`] without the copies, and without the rest of
    /// the range once the caller has what it came for. Both slices borrow
    /// the pinned leaf page and are valid only for the call. One probe
    /// fetches `height` pages plus one per further leaf it walks into,
    /// and allocates nothing.
    pub fn for_each_prefix(
        &self,
        prefix: &[u8],
        mut visit: impl FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let (_, mut page) = self.find_leaf(prefix);
        let (Ok(mut slot) | Err(mut slot)) = node::leaf_find(&page, prefix);
        loop {
            match admitted_cells(&page, slot, |k| k.starts_with(prefix), &mut visit) {
                Some(next) => page = self.pool.fetch(next),
                None => return,
            }
            slot = 0;
        }
    }

    /// Every entry in key order.
    pub fn scan_all(&self) -> RangeScan<'_> {
        self.range(&[], ScanEnd::Unbounded)
    }

    /// Checks structural invariants (key order within and across leaves,
    /// separator bounds). Test-support; O(n).
    pub fn check_invariants(&self) {
        let mut prev: Option<Vec<u8>> = None;
        for (k, _) in self.scan_all() {
            if let Some(p) = &prev {
                assert!(p < &k, "keys out of order: {p:?} !< {k:?}");
            }
            prev = Some(k);
        }
        let counted = self.scan_all().count() as u64;
        assert_eq!(counted, self.entries, "entry count mismatch");
        self.check_node(self.root, None, None, self.height);
    }

    fn check_node(&self, pid: PageId, lo: Option<&[u8]>, hi: Option<&[u8]>, depth: u32) {
        let page = self.pool.fetch(pid);
        if node::is_leaf(&page) {
            assert_eq!(depth, 1, "all leaves must be at the same depth");
            for i in 0..node::nslots(&page) {
                let k = node::leaf_key(&page, i);
                if let Some(lo) = lo {
                    assert!(k >= lo, "leaf key below separator");
                }
                if let Some(hi) = hi {
                    assert!(k < hi, "leaf key at/above next separator");
                }
            }
            return;
        }
        let n = node::nslots(&page);
        assert!(n >= 1, "internal node with no separators");
        let mut children = vec![node::leftmost_child(&page)];
        let mut seps: Vec<Vec<u8>> = Vec::new();
        for i in 0..n {
            seps.push(node::int_key(&page, i).to_vec());
            children.push(node::int_child(&page, i));
        }
        drop(page);
        for w in seps.windows(2) {
            assert!(w[0] < w[1], "separators out of order");
        }
        for (i, &c) in children.iter().enumerate() {
            let clo = if i == 0 { lo } else { Some(seps[i - 1].as_slice()) };
            let chi = if i == children.len() - 1 { hi } else { Some(seps[i].as_slice()) };
            self.check_node(PageId(c), clo, chi, depth - 1);
        }
    }
}

/// Scan termination condition.
#[derive(Debug, Clone)]
pub enum ScanEnd {
    /// Run to the end of the index.
    Unbounded,
    /// Stop at the first key `>= bound`.
    Before(Vec<u8>),
    /// Stop at the first key `> bound`.
    Through(Vec<u8>),
    /// Stop at the first key that does not start with the prefix.
    Prefix(Vec<u8>),
}

impl ScanEnd {
    fn admits(&self, key: &[u8]) -> bool {
        match self {
            ScanEnd::Unbounded => true,
            ScanEnd::Before(b) => key < b.as_slice(),
            ScanEnd::Through(b) => key <= b.as_slice(),
            ScanEnd::Prefix(p) => key.starts_with(p),
        }
    }
}

/// The leaf walk every scan shares: visits the cells of leaf `page` from
/// `slot` on while `admits(key)` holds. Returns the right sibling to
/// continue in, or `None` when the scan ended here — on a key that was
/// not admitted, on the visitor's `Break`, or at the last leaf.
fn admitted_cells(
    page: &[u8],
    slot: usize,
    admits: impl Fn(&[u8]) -> bool,
    mut visit: impl FnMut(&[u8], &[u8]) -> ControlFlow<()>,
) -> Option<PageId> {
    for i in slot..node::nslots(page) {
        let (k, v) = node::leaf_cell(page, i);
        if !admits(k) || visit(k, v).is_break() {
            return None;
        }
    }
    let next = node::right_sibling(page);
    (next != NO_PAGE).then_some(PageId(next))
}

/// Iterator over owned `(key, value)` pairs in key order — the adapter
/// over the leaf walk for callers that keep what they read (builders,
/// tests, the benchmark harness); index probes use
/// [`BTree::for_each_prefix`] and copy nothing.
///
/// Buffers one leaf page at a time and the descent hands over the first
/// leaf it landed on, so logical I/O is exactly one page fetch per
/// visited leaf on top of the `height - 1` interior pages — the same
/// unit a relational scan would report. A scan that consumes a leaf to
/// its last slot also visits the right sibling (that is where it learns
/// the range ended).
pub struct RangeScan<'t> {
    tree: &'t BTree,
    end: ScanEnd,
    buffer: VecDeque<(Vec<u8>, Vec<u8>)>,
    /// The leaf to continue in; `None` once the scan has ended.
    next: Option<PageId>,
}

impl RangeScan<'_> {
    /// Buffers the admitted cells of one latched leaf from `slot` on.
    fn buffer_leaf(&mut self, page: &[u8], slot: usize) {
        let (end, buffer) = (&self.end, &mut self.buffer);
        self.next = admitted_cells(
            page,
            slot,
            |k| end.admits(k),
            |k, v| {
                buffer.push_back((k.to_vec(), v.to_vec()));
                ControlFlow::Continue(())
            },
        );
    }

    fn fill(&mut self) {
        while self.buffer.is_empty() {
            let Some(pid) = self.next else { return };
            let page = self.tree.pool.fetch(pid);
            self.buffer_leaf(&page, 0);
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffer.is_empty() {
            self.fill();
        }
        self.buffer.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn tree() -> BTree {
        BTree::new(Arc::new(BufferPool::in_memory(512)))
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.scan_all().count(), 0);
        assert_eq!(t.scan_prefix(b"a").count(), 0);
        t.check_invariants();
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree();
        assert_eq!(t.insert(b"b", b"2"), None);
        assert_eq!(t.insert(b"a", b"1"), None);
        assert_eq!(t.insert(b"c", b"3"), None);
        assert_eq!(t.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b"), Some(b"2".to_vec()));
        assert_eq!(t.get(b"c"), Some(b"3".to_vec()));
        assert_eq!(t.get(b"d"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut t = tree();
        assert_eq!(t.insert(b"k", b"v1"), None);
        assert_eq!(t.insert(b"k", b"v2"), Some(b"v1".to_vec()));
        assert_eq!(t.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut t = tree();
        let n = 5_000u32;
        for i in 0..n {
            // Interleaved order to exercise splits at both ends.
            let k = if i % 2 == 0 { i } else { n * 2 - i };
            t.insert(format!("key{k:08}").as_bytes(), &k.to_le_bytes());
        }
        assert!(t.stats().height > 1, "tree should have split");
        assert!(t.stats().pages > 1);
        t.check_invariants();
        let keys: Vec<_> = t.scan_all().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), n as usize);
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn randomized_against_btreemap_model() {
        let mut rng = SmallRng::seed_from_u64(0xDECAF);
        let mut t = tree();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..4_000 {
            let op: u8 = rng.gen_range(0..10);
            let key = format!("k{:05}", rng.gen_range(0..800u32)).into_bytes();
            if op < 7 {
                let val = format!("v{}", rng.gen::<u32>()).into_bytes();
                assert_eq!(t.insert(&key, &val), model.insert(key, val));
            } else {
                assert_eq!(t.delete(&key), model.remove(&key));
            }
        }
        assert_eq!(t.len(), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(t.get(k).as_ref(), Some(v));
        }
        let scanned: Vec<_> = t.scan_all().collect();
        let expected: Vec<_> = model.into_iter().collect();
        assert_eq!(scanned, expected);
        t.check_invariants();
    }

    #[test]
    fn prefix_scan_selects_exactly_prefixed_keys() {
        let mut t = tree();
        for i in 0..200u32 {
            t.insert(format!("aa{i:04}").as_bytes(), b"1");
            t.insert(format!("ab{i:04}").as_bytes(), b"2");
            t.insert(format!("b{i:04}").as_bytes(), b"3");
        }
        assert_eq!(t.scan_prefix(b"aa").count(), 200);
        assert_eq!(t.scan_prefix(b"ab").count(), 200);
        assert_eq!(t.scan_prefix(b"a").count(), 400);
        assert_eq!(t.scan_prefix(b"b").count(), 200);
        assert_eq!(t.scan_prefix(b"c").count(), 0);
        assert_eq!(t.scan_prefix(b"").count(), 600);
        for (k, v) in t.scan_prefix(b"ab") {
            assert!(k.starts_with(b"ab"));
            assert_eq!(v, b"2");
        }
    }

    #[test]
    fn range_bounds() {
        let mut t = tree();
        for i in 0..100u32 {
            t.insert(format!("{i:03}").as_bytes(), b"");
        }
        let upto: Vec<_> = t.range(b"010", ScanEnd::Before(b"020".to_vec())).collect();
        assert_eq!(upto.len(), 10);
        assert_eq!(upto[0].0, b"010");
        assert_eq!(upto[9].0, b"019");
        let through: Vec<_> = t.range(b"010", ScanEnd::Through(b"020".to_vec())).collect();
        assert_eq!(through.len(), 11);
        let from: Vec<_> = t.range(b"095", ScanEnd::Unbounded).collect();
        assert_eq!(from.len(), 5);
    }

    #[test]
    fn delete_then_reinsert() {
        let mut t = tree();
        for i in 0..1000u32 {
            t.insert(format!("k{i:05}").as_bytes(), &i.to_le_bytes());
        }
        for i in (0..1000u32).step_by(2) {
            assert!(t.delete(format!("k{i:05}").as_bytes()).is_some());
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.delete(b"k00000"), None);
        for i in (0..1000u32).step_by(2) {
            t.insert(format!("k{i:05}").as_bytes(), b"new");
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(b"k00000"), Some(b"new".to_vec()));
        assert_eq!(t.get(b"k00001"), Some(1u32.to_le_bytes().to_vec()));
        t.check_invariants();
    }

    #[test]
    fn binary_keys_with_zero_bytes() {
        let mut t = tree();
        let keys: Vec<Vec<u8>> =
            vec![vec![0], vec![0, 0], vec![0, 1], vec![1, 0, 255], vec![255], vec![255, 0]];
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, &[i as u8]);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(vec![i as u8]));
        }
        let scanned: Vec<_> = t.scan_all().map(|(k, _)| k).collect();
        let mut expected = keys.clone();
        expected.sort();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn long_keys_near_limit() {
        let mut t = tree();
        for i in 0..40u32 {
            let mut k = vec![b'x'; crate::node::MAX_KEY - 4];
            k.extend_from_slice(&i.to_be_bytes());
            t.insert(&k, b"v");
        }
        assert_eq!(t.len(), 40);
        assert!(t.stats().height >= 2);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "key too long")]
    fn oversize_key_rejected() {
        let mut t = tree();
        t.insert(&vec![0u8; crate::node::MAX_KEY + 1], b"v");
    }

    #[test]
    fn prefix_truncation_reduces_interior_bytes() {
        // Keys share long common prefixes; with truncation the tree should
        // need no more pages than without (usually fewer interior bytes).
        let build = |trunc: bool| {
            let mut t = BTree::with_options(
                Arc::new(BufferPool::in_memory(4096)),
                BTreeOptions { prefix_truncation: trunc, ..Default::default() },
            );
            for i in 0..20_000u32 {
                let k = format!("/site/regions/namerica/item/{i:08}/quantity");
                t.insert(k.as_bytes(), b"1");
            }
            t.check_invariants();
            t.stats().pages
        };
        let with = build(true);
        let without = build(false);
        assert!(with <= without, "prefix truncation grew the tree: {with} > {without}");
    }

    #[test]
    fn scan_counts_one_logical_read_per_leaf() {
        let pool = Arc::new(BufferPool::in_memory(512));
        let mut t = BTree::new(pool.clone());
        for i in 0..2_000u32 {
            t.insert(format!("k{i:06}").as_bytes(), &[0u8; 32]);
        }
        let leaves = {
            // Count leaves by walking sibling pointers.
            let (mut pid, _) = t.find_leaf(b"");
            let mut count = 0u64;
            loop {
                count += 1;
                let page = pool.fetch(pid);
                let next = node::right_sibling(&page);
                if next == NO_PAGE {
                    break;
                }
                pid = PageId(next);
            }
            count
        };
        pool.stats().reset();
        let n = t.scan_all().count();
        assert_eq!(n, 2_000);
        let logical = pool.stats().snapshot().logical_reads;
        // Descent (height) + one fetch per leaf (+1 slack for the empty
        // tail probe).
        assert!(
            logical <= leaves + u64::from(t.stats().height) + 1,
            "scan used {logical} logical reads for {leaves} leaves"
        );
    }

    /// A height-3 tree and its pool, counters reset.
    fn height3() -> (BTree, Arc<BufferPool>) {
        let pool = Arc::new(BufferPool::in_memory(4096));
        let mut t = BTree::new(pool.clone());
        let mut i = 0u32;
        while t.stats().height < 3 {
            t.insert(format!("k{i:07}").as_bytes(), &[7u8; 200]);
            i += 1;
        }
        assert_eq!(t.stats().height, 3);
        pool.stats().reset();
        (t, pool)
    }

    fn reads_of(pool: &BufferPool, f: impl FnOnce()) -> u64 {
        let before = pool.stats().snapshot().logical_reads;
        f();
        pool.stats().snapshot().logical_reads - before
    }

    fn count(n: &mut usize) -> ControlFlow<()> {
        *n += 1;
        ControlFlow::Continue(())
    }

    #[test]
    fn point_reads_fetch_each_level_once() {
        let (t, pool) = height3();
        assert_eq!(reads_of(&pool, || assert!(t.get(b"k0000100").is_some())), 3);
        assert_eq!(reads_of(&pool, || assert!(t.get(b"nope").is_none())), 3);
        assert_eq!(reads_of(&pool, || assert!(t.contains(b"k0000100"))), 3);
    }

    #[test]
    fn prefix_probe_fetches_height_plus_extra_leaves() {
        let (t, pool) = height3();
        // One stored key: a single cell in the middle of a leaf.
        let mut hits = 0;
        let reads = reads_of(&pool, || t.for_each_prefix(b"k0000100", |_, _| count(&mut hits)));
        assert_eq!((hits, reads), (1, 3));
        assert_eq!(reads_of(&pool, || assert_eq!(t.scan_prefix(b"k0000100").count(), 1)), 3);
        // A prefix spanning several leaves: one fetch per leaf it walks
        // into, counted by following the leaf chain across the same keys.
        let mut leaves = 1u64;
        let (_, mut page) = t.find_leaf(b"k00001");
        let (Ok(mut slot) | Err(mut slot)) = node::leaf_find(&page, b"k00001");
        loop {
            let next = node::right_sibling(&page);
            let runs_off_the_leaf = (slot..node::nslots(&page))
                .all(|i| node::leaf_key(&page, i).starts_with(b"k00001"));
            if !runs_off_the_leaf || next == NO_PAGE {
                break;
            }
            leaves += 1;
            page = pool.fetch(PageId(next));
            slot = 0;
        }
        drop(page);
        assert!(leaves >= 3, "prefix should span several leaves, spans {leaves}");
        pool.stats().reset();
        let mut visited = 0usize;
        let reads = reads_of(&pool, || t.for_each_prefix(b"k00001", |_, _| count(&mut visited)));
        assert_eq!(reads, 2 + leaves, "{visited} entries over {leaves} leaves");
        // A visitor that has what it came for walks into no further leaf.
        let first_only = |_: &[u8], _: &[u8]| ControlFlow::Break(());
        assert_eq!(reads_of(&pool, || t.for_each_prefix(b"k00001", first_only)), 3);
        assert_eq!(
            reads_of(&pool, || assert_eq!(t.scan_prefix(b"k00001").count(), visited)),
            reads
        );
    }
}
