//! The B+-tree proper: lookups, inserts, deletes, range and prefix scans.
//!
//! Every read path shares one descent, `descend`, which hands back the
//! read guard of the leaf it lands on (and of that leaf's parent): a
//! point lookup costs `height` page fetches, a scan `height` plus one per
//! further leaf it visits. Scans come in two shapes over one leaf walk
//! (`admitted_cells`): [`BTree::visit_prefix`] lends each `(key, value)`
//! cell to a [`Visit`]or from the pinned leaf page, the key rebuilt in a
//! stack buffer from the leaf's page prefix — the form the index probes
//! of `xtwig-core` consume, no allocation per entry; the
//! visitor answers [`Walk::Stop`] to end the walk and [`Walk::Seek`] to
//! jump forward past cells it has no use for, and a closure is a visitor
//! that never seeks ([`BTree::for_each_prefix`]) — and [`RangeScan`] is
//! the owned-iterator adapter for callers that want `(Vec<u8>, Vec<u8>)`
//! pairs (builders, tests, the harness).

use crate::node::{self, LeafKey, NO_PAGE};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_storage::{BufferPool, PageId, PageReadGuard, PAGE_SIZE};

/// Build/behaviour options.
#[derive(Debug, Clone, Copy)]
pub struct BTreeOptions {
    /// Store shortest distinguishing separators in interior nodes instead
    /// of full keys, and each leaf's common key prefix once per leaf
    /// instead of in every cell (the DB2-style prefix compression the
    /// paper leans on in §3.1). Disable for the ablation benchmark: every
    /// separator is then a whole key and every leaf prefix empty.
    pub prefix_truncation: bool,
}

impl Default for BTreeOptions {
    fn default() -> Self {
        BTreeOptions { prefix_truncation: true }
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
        node::init_leaf(&mut guard, &[]);
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
    /// still latched, with its parent: each child is fetched while its
    /// parent's guard is held, and both guards go to the caller, so
    /// nothing on the read path fetches the leaf a second time.
    fn descend(&self, key: &[u8]) -> Position<'_> {
        let mut pid = self.root;
        let mut page = self.pool.fetch(pid);
        let mut parent = None;
        while !node::is_leaf(&page) {
            let idx = node::int_child_index(&page, key);
            pid = PageId(node::int_child_at(&page, idx));
            // The page above the one being left is let go first.
            drop(parent.take());
            let child = self.pool.fetch(pid);
            parent = Some((std::mem::replace(&mut page, child), idx));
        }
        Position { parent, pid, leaf: page }
    }

    /// [`BTree::descend`] for readers of the leaf alone.
    fn find_leaf(&self, key: &[u8]) -> (PageId, PageReadGuard<'_>) {
        let Position { pid, leaf, .. } = self.descend(key);
        (pid, leaf)
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
            if key.starts_with(node::leaf_prefix(&page))
                && node::leaf_insert_at(&mut page, idx, key, value)
            {
                return (old, None);
            }
            // The key breaks the page prefix, or the leaf is full.
            (old, self.lay_out_leaf(&mut page, idx, key, value))
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

    /// Lays leaf `page` out again with `(key, value)` inserted at slot
    /// `idx`: in place under the page prefix of its new lowest and
    /// highest key when that fits, else split in two, each half under
    /// its own page prefix. Returns the separator and right page of a
    /// split.
    fn lay_out_leaf(
        &mut self,
        page: &mut [u8],
        idx: usize,
        key: &[u8],
        value: &[u8],
    ) -> Option<(Vec<u8>, PageId)> {
        let n = node::nslots(page);
        let mut cells: Vec<(Vec<u8>, Vec<u8>)> =
            (0..n).map(|i| (node::leaf_key(page, i), node::leaf_value(page, i).to_vec())).collect();
        cells.insert(idx, (key.to_vec(), value.to_vec()));
        let old_sibling = node::right_sibling(page);
        let prefix_len = self.page_prefix_len(&cells);
        let sizes = cells.iter().map(|(k, v)| (k.len(), v.len()));
        if node::leaf_bytes(prefix_len, sizes) <= node::LEAF_ROOM {
            node::write_leaf(page, prefix_len, &cells);
            node::set_right_sibling(page, old_sibling);
            return None;
        }
        let mid = self.split_point(&cells);
        let (left, right) = cells.split_at(mid);
        let right_pid = self.alloc_page();
        let mut right_page = self.pool.fetch_mut(right_pid);
        node::write_leaf(&mut right_page, self.page_prefix_len(right), right);
        node::set_right_sibling(&mut right_page, old_sibling);
        drop(right_page);
        node::write_leaf(page, self.page_prefix_len(left), left);
        node::set_right_sibling(page, right_pid.0);
        let (last, first) = (&left[mid - 1].0, &right[0].0);
        let sep = if self.options.prefix_truncation {
            node::shortest_separator(last, first)
        } else {
            first.clone()
        };
        Some((sep, right_pid))
    }

    /// The page prefix length of a leaf laid out with sorted `cells`:
    /// that of its lowest and highest key, or none without prefix
    /// truncation.
    fn page_prefix_len(&self, cells: &[(Vec<u8>, Vec<u8>)]) -> usize {
        match (self.options.prefix_truncation, cells.first(), cells.last()) {
            (true, Some((lo, _)), Some((hi, _))) => node::common_prefix_len(lo, hi),
            _ => 0,
        }
    }

    /// Where to split sorted `cells` (two or more) that overflow a leaf:
    /// the slot `mid` whose larger half, `cells[..mid]` or `cells[mid..]`
    /// each under its own page prefix, takes the fewest bytes. Sorted
    /// order makes a range's prefix the least common prefix of
    /// neighbours in it, so one pass from each end prices every split.
    fn split_point(&self, cells: &[(Vec<u8>, Vec<u8>)]) -> usize {
        let n = cells.len();
        let whole = |i: usize| 6 + cells[i].0.len() + cells[i].1.len();
        let shared = |i: usize, j: usize| {
            if self.options.prefix_truncation {
                node::common_prefix_len(&cells[i].0, &cells[j].0)
            } else {
                0
            }
        };
        // left[mid] and right[mid]: the bytes of cells[..mid] and cells[mid..].
        let (mut left, mut right) = (vec![0usize; n], vec![0usize; n]);
        let (mut sum, mut prefix) = (0usize, usize::MAX);
        for i in 0..n - 1 {
            prefix = prefix.min(shared(i.saturating_sub(1), i));
            sum += whole(i);
            left[i + 1] = sum - i * prefix;
        }
        (sum, prefix) = (0, usize::MAX);
        for i in (1..n).rev() {
            prefix = prefix.min(shared(i, (i + 1).min(n - 1)));
            sum += whole(i);
            right[i] = sum - (n - 1 - i) * prefix;
        }
        (1..n).min_by_key(|&mid| left[mid].max(right[mid])).expect("two or more cells")
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

    /// Calls `visit(key, value)` for every entry whose key starts with
    /// `prefix`, in key order, until it answers [`ControlFlow::Break`]:
    /// [`BTree::visit_prefix`] with a visitor that never seeks.
    ///
    /// This is the paper's core access pattern: a PCsubpath with a leading
    /// `//` becomes a prefix probe on `LeafValue · ReverseSchemaPath`.
    pub fn for_each_prefix(
        &self,
        prefix: &[u8],
        visit: impl FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        self.visit_prefix(prefix, visit);
    }

    /// The prefix walk: lends every entry whose key starts with `prefix`
    /// to `visitor`, in key order, until it answers [`Walk::Stop`]. The
    /// value borrows the pinned leaf page, the key a stack buffer it is
    /// rebuilt in from the leaf's page prefix and the cell's suffix; both
    /// are valid only for the call. One probe fetches `height` pages plus
    /// one per further leaf it walks into, and allocates nothing.
    ///
    /// A visitor that answers [`Walk::Seek`] is next lent the first entry
    /// at or above its [`Visit::seek_key`], and the entries between are
    /// never lent. The jump is served from the leaf the walk is in when
    /// that leaf holds the key (no fetch), else from the child of the
    /// leaf's parent whose separators bound it — the right sibling, or
    /// one further along (one fetch) — else by one descent from the root
    /// (`height` fetches).
    pub fn visit_prefix(&self, prefix: &[u8], mut visitor: impl Visit) {
        let mut key = LeafKey::default();
        let mut at = self.descend(prefix);
        let (Ok(mut slot) | Err(mut slot)) = node::leaf_find(&at.leaf, prefix);
        loop {
            match admitted_cells(&at.leaf, slot, prefix, &mut key, &mut visitor) {
                Exit::End => return,
                Exit::Sibling(next) => {
                    at.step_right(&self.pool, next);
                    slot = 0;
                }
                Exit::Beyond => {
                    let key = visitor.seek_key();
                    if !at.step_within_parent(&self.pool, key) {
                        // Both guards go before the descent, which may
                        // latch the same pages again.
                        drop(at);
                        at = self.descend(key);
                    }
                    let (Ok(found) | Err(found)) = node::leaf_find(&at.leaf, key);
                    slot = found;
                }
            }
        }
    }

    /// Every entry in key order, copied out.
    pub fn scan_all(&self) -> RangeScan<'_> {
        let (_, page) = self.find_leaf(&[]);
        let mut scan = RangeScan { tree: self, buffer: VecDeque::new(), next: None };
        scan.buffer_leaf(&page);
        scan
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
            let prefix = node::leaf_prefix(&page);
            assert!(prefix.len() <= node::MAX_KEY, "page prefix longer than a key");
            assert!(
                self.options.prefix_truncation || prefix.is_empty(),
                "page prefix without prefix truncation"
            );
            assert!(node::leaf_cells_in_bounds(&page), "leaf cell overlaps the page prefix");
            for i in 0..node::nslots(&page) {
                let k = node::leaf_key(&page, i);
                assert!(k.starts_with(prefix), "leaf key outside the page prefix");
                assert!(k.len() <= node::MAX_KEY, "leaf key too long");
                if let Some(lo) = lo {
                    assert!(k.as_slice() >= lo, "leaf key below separator");
                }
                if let Some(hi) = hi {
                    assert!(k.as_slice() < hi, "leaf key at/above next separator");
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

/// What a prefix-walk visitor answers about the cell it was just lent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Lend the next cell.
    Next,
    /// End the walk.
    Stop,
    /// Lend next the first cell at or above [`Visit::seek_key`], a key
    /// above the one just lent.
    Seek,
}

/// The visitor of a prefix walk ([`BTree::visit_prefix`]).
pub trait Visit {
    /// Takes one cell, lent for the call only (see
    /// [`BTree::visit_prefix`]), and says where the walk goes next.
    fn visit(&mut self, key: &[u8], value: &[u8]) -> Walk;

    /// Where a [`Walk::Seek`] answer jumps to; read right after the
    /// answer. Visitors that never seek keep the default.
    fn seek_key(&self) -> &[u8] {
        &[]
    }
}

/// A closure answering [`ControlFlow`] is a visitor that never seeks.
impl<F: FnMut(&[u8], &[u8]) -> ControlFlow<()>> Visit for F {
    fn visit(&mut self, key: &[u8], value: &[u8]) -> Walk {
        match self(key, value) {
            ControlFlow::Continue(()) => Walk::Next,
            ControlFlow::Break(()) => Walk::Stop,
        }
    }
}

/// Where a walk stands: its latched leaf and, while the walk is still
/// among that parent's children, the latched parent it was reached from
/// with the leaf's descend-index in it.
struct Position<'t> {
    parent: Option<(PageReadGuard<'t>, usize)>,
    pid: PageId,
    leaf: PageReadGuard<'t>,
}

impl<'t> Position<'t> {
    /// Moves onto the leaf's right sibling `next`.
    fn step_right(&mut self, pool: &'t BufferPool, next: PageId) {
        // The sibling is the parent's next child unless the leaf was its last.
        self.parent =
            self.parent.take().filter(|(p, i)| *i < node::nslots(p)).map(|(p, i)| (p, i + 1));
        self.leaf = pool.fetch(next);
        self.pid = next;
    }

    /// Moves onto the parent's child that holds the first key at or
    /// above `key`, which lies past every key of the leaf, when the
    /// parent's separators bound `key` from above; false, and nothing
    /// moved, when they do not.
    fn step_within_parent(&mut self, pool: &'t BufferPool, key: &[u8]) -> bool {
        let Some((parent, at)) = &mut self.parent else { return false };
        let child = node::int_child_index(parent, key);
        // The last child's upper bound is the parent's, which the parent
        // does not know: the key may lie past it.
        if child >= node::nslots(parent) {
            return false;
        }
        // Below the leaf's own upper separator, the first key at or
        // above `key` opens the right sibling.
        *at = child.max(*at + 1);
        self.pid = PageId(node::int_child_at(parent, *at));
        self.leaf = pool.fetch(self.pid);
        true
    }
}

/// Where the leaf walk goes after a leaf.
enum Exit {
    /// The walk ended here: on a key that was not admitted, on the
    /// visitor's [`Walk::Stop`], or at the last leaf.
    End,
    /// On into this right sibling.
    Sibling(PageId),
    /// The visitor seeks past every key of this leaf, and leaves follow.
    Beyond,
}

/// The leaf walk every scan shares: visits the cells of leaf `page` from
/// `slot` on while their keys start with `prefix`, jumping forward inside
/// the leaf when the visitor seeks a key it holds. Each key is lent
/// whole, rebuilt in `key` from the page prefix and the cell's suffix.
/// Admission is decided once for the leaf when its page prefix covers
/// the scan prefix or parts from it, else key by key.
fn admitted_cells(
    page: &[u8],
    mut slot: usize,
    prefix: &[u8],
    key: &mut LeafKey,
    visitor: &mut impl Visit,
) -> Exit {
    let n = node::nslots(page);
    let next = node::right_sibling(page);
    let page_prefix = node::leaf_prefix(page);
    let covered = page_prefix.starts_with(prefix);
    if !covered && !prefix.starts_with(page_prefix) && slot < n {
        // No key of the leaf starts with `prefix`.
        return Exit::End;
    }
    key.load_prefix(page);
    while slot < n {
        let (suffix, v) = node::leaf_cell(page, slot);
        let k = key.with_suffix(suffix);
        if !covered && !k.starts_with(prefix) {
            return Exit::End;
        }
        match visitor.visit(k, v) {
            Walk::Next => slot += 1,
            Walk::Stop => return Exit::End,
            Walk::Seek => {
                debug_assert!(visitor.seek_key() > k, "a seek must move forward");
                slot = node::leaf_seek(page, slot + 1, visitor.seek_key());
                if slot == n && next != NO_PAGE {
                    return Exit::Beyond;
                }
            }
        }
    }
    if next == NO_PAGE {
        Exit::End
    } else {
        Exit::Sibling(PageId(next))
    }
}

/// Iterator over every owned `(key, value)` pair in key order
/// ([`BTree::scan_all`]) — the adapter over the leaf walk for callers
/// that keep what they read (invariant checks, tests, the benchmark
/// harness); index probes use [`BTree::visit_prefix`] and copy nothing.
///
/// Buffers one leaf page at a time and the descent hands over the first
/// leaf it landed on, so logical I/O is exactly one page fetch per leaf
/// on top of the `height - 1` interior pages — the same unit a
/// relational scan would report.
pub struct RangeScan<'t> {
    tree: &'t BTree,
    buffer: VecDeque<(Vec<u8>, Vec<u8>)>,
    /// The leaf to continue in; `None` once the scan has ended.
    next: Option<PageId>,
}

impl RangeScan<'_> {
    /// Buffers the cells of one latched leaf.
    fn buffer_leaf(&mut self, page: &[u8]) {
        let buffer = &mut self.buffer;
        let mut key = LeafKey::default();
        let exit = admitted_cells(page, 0, &[], &mut key, &mut |k: &[u8], v: &[u8]| {
            buffer.push_back((k.to_vec(), v.to_vec()));
            ControlFlow::Continue(())
        });
        self.next = match exit {
            Exit::Sibling(next) => Some(next),
            Exit::End | Exit::Beyond => None,
        };
    }

    fn fill(&mut self) {
        while self.buffer.is_empty() {
            let Some(pid) = self.next else { return };
            let page = self.tree.pool.fetch(pid);
            self.buffer_leaf(&page);
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

    /// The entries a prefix walk lends, copied out in order.
    fn prefixed(t: &BTree, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        t.for_each_prefix(prefix, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.scan_all().count(), 0);
        assert!(prefixed(&t, b"a").is_empty());
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
        assert_eq!(prefixed(&t, b"aa").len(), 200);
        assert_eq!(prefixed(&t, b"ab").len(), 200);
        assert_eq!(prefixed(&t, b"a").len(), 400);
        assert_eq!(prefixed(&t, b"b").len(), 200);
        assert_eq!(prefixed(&t, b"c").len(), 0);
        assert_eq!(prefixed(&t, b"").len(), 600);
        for (k, v) in prefixed(&t, b"ab") {
            assert!(k.starts_with(b"ab"));
            assert_eq!(v, b"2");
        }
    }

    #[test]
    fn prefix_walk_bounds() {
        let mut t = tree();
        for i in 0..100u32 {
            t.insert(format!("{i:03}").as_bytes(), b"");
        }
        let tens = prefixed(&t, b"01");
        assert_eq!(tens.len(), 10);
        assert_eq!(tens[0].0, b"010");
        assert_eq!(tens[9].0, b"019");
        // The last keys of the tree, and a whole key as its own prefix.
        assert_eq!(prefixed(&t, b"09").len(), 10);
        assert_eq!(prefixed(&t, b"095"), vec![(b"095".to_vec(), Vec::new())]);
        assert!(prefixed(&t, b"1").is_empty());
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
        // The keys differ in their first bytes, so page prefixes save
        // nothing and a leaf holds only a few of them.
        let mut t = tree();
        for i in 0..40u32 {
            let mut k = (i * 0x0101_0101).to_be_bytes().to_vec();
            k.resize(crate::node::MAX_KEY, b'x');
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
                BTreeOptions { prefix_truncation: trunc },
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

    /// `n` keys `stem · i` (big-endian `u16`) with empty values, in one
    /// leaf under the page prefix `stem`.
    fn one_prefixed_leaf(stem: &[u8], n: u16) -> BTree {
        let keys = (0..n).map(|i| ([stem, &i.to_be_bytes()].concat(), Vec::new()));
        let t =
            crate::bulk_build(Arc::new(BufferPool::in_memory(64)), BTreeOptions::default(), keys);
        assert_eq!(t.stats().height, 1);
        t
    }

    #[test]
    fn a_key_off_the_page_prefix_rewrites_the_leaf_under_a_shorter_one() {
        let mut t = one_prefixed_leaf(b"/site/item/", 10);
        let prefix = |t: &BTree| node::leaf_prefix(&t.pool.fetch(t.root)).to_vec();
        assert_eq!(prefix(&t), b"/site/item/\0");
        t.insert(b"/site/item/\x01", b"v");
        t.insert(b"/site/person", b"w");
        assert_eq!(prefix(&t), b"/site/");
        assert_eq!(t.stats().pages, 1);
        assert_eq!(t.get(b"/site/person"), Some(b"w".to_vec()));
        assert_eq!(t.get(b"/site/item/\0\x09"), Some(Vec::new()));
        t.check_invariants();
    }

    #[test]
    fn an_outlier_into_a_full_prefixed_leaf_splits_where_both_halves_fit() {
        // 890 eight-byte cells under a 200-byte page prefix fill a
        // bulk-built leaf; under no prefix they would take 23 pages.
        let stem = [b'x'; 200];
        let mut t = one_prefixed_leaf(&stem, 890);
        for outlier in [&b"a"[..], b"y", b"xxy"] {
            t.insert(outlier, b"o");
            t.check_invariants();
            assert_eq!(t.get(outlier), Some(b"o".to_vec()));
        }
        assert_eq!(t.len(), 893);
        assert!(t.stats().pages <= 5, "{:?}", t.stats());
        let mut key = stem.to_vec();
        key.extend_from_slice(&500u16.to_be_bytes());
        assert_eq!(t.get(&key), Some(Vec::new()));
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
    }

    /// Seeks from the first cell it is lent to `to`, then stops on the
    /// cell it lands on.
    struct SeekOnce<'a> {
        to: &'a [u8],
        seen: &'a mut Vec<Vec<u8>>,
    }

    impl Visit for SeekOnce<'_> {
        fn visit(&mut self, key: &[u8], _: &[u8]) -> Walk {
            self.seen.push(key.to_vec());
            if self.seen.len() == 1 {
                Walk::Seek
            } else {
                Walk::Stop
            }
        }

        fn seek_key(&self) -> &[u8] {
            self.to
        }
    }

    #[test]
    fn a_seek_fetches_nothing_in_the_leaf_one_page_under_the_parent_and_height_beyond() {
        let (t, pool) = height3();
        // `height3` inserts `k0000000, k0000001, …` in order, so the first
        // leaf holds the first `n` keys and the one after it starts at `n`.
        let n = node::nslots(&t.find_leaf(b"").1);
        let key = |i: usize| format!("k{i:07}").into_bytes();
        let last = t.len() as usize - 1;
        for (to, extra) in [
            (key(n / 2), 0),     // in the leaf the walk is in
            (key(n), 1),         // the right sibling
            (key(3 * n + 1), 1), // a later child of the same parent
            (key(last), 3),      // past the parent: one descent from the root
        ] {
            let mut seen = Vec::new();
            let reads =
                reads_of(&pool, || t.visit_prefix(b"k", SeekOnce { to: &to, seen: &mut seen }));
            let shown = String::from_utf8_lossy(&to);
            assert_eq!(seen, [key(0), to.clone()], "seek to {shown}");
            assert_eq!(reads, 3 + extra, "seek to {shown}");
        }
        // Past every key under the prefix: the walk ends on the first key
        // that does not start with it.
        let mut seen = Vec::new();
        t.visit_prefix(b"k", SeekOnce { to: b"k9", seen: &mut seen });
        assert_eq!(seen, [key(0)]);
    }
}
