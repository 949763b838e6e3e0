//! Slotted-page node layout.
//!
//! Every node is one 8 KiB page:
//!
//! ```text
//! offset  field
//! 0       node type        u8   (1 = leaf, 2 = internal)
//! 1       reserved         u8
//! 2       slot count       u16
//! 4       cell start       u16  (lowest byte offset used by cell data)
//! 6       right sibling    u32  (leaves; u32::MAX = none)
//! 10      leftmost child   u32  (internal nodes)
//! 10      prefix length    u16  (leaves; the other two bytes are zero)
//! 14      fragmented bytes u16  (reclaimable by compaction)
//! 16..    slot array       u16 per slot (cell offsets, key-sorted)
//! ...     free space
//! ...     cells            grow downward from the page prefix
//! ...     page prefix      leaves: the last `prefix length` bytes
//! ```
//!
//! Leaf cell:     `[slen u16][vlen u16][key suffix][value]`
//! Internal cell: `[klen u16][child u32][key]`
//!
//! Every key of a leaf starts with the leaf's page prefix, which is
//! stored once, at the end of the page; a cell holds only the rest of
//! its key. A leaf laid out whole (bulk load, split, rewrite) takes the
//! longest common prefix of its lowest and highest key, which sorted
//! order makes common to every key between; an insert that keeps to the
//! prefix leaves it as it is. With `prefix_truncation` off the prefix is
//! empty and a cell holds its whole key. Readers compare a probe with
//! the prefix once and search the suffixes; [`LeafKey`] rebuilds a
//! whole key for a visitor without allocating.
//!
//! Internal-node semantics: with leftmost child `c0` and sorted separator
//! entries `(s1,c1) … (sn,cn)`, subtree `c0` holds keys `< s1` and subtree
//! `ci` holds keys `>= si` and `< s(i+1)`.

use std::cmp::Ordering;
use xtwig_storage::page::{get_u16, get_u32, put_u16, put_u32, PAGE_SIZE};

/// Node type byte for leaves.
pub const TYPE_LEAF: u8 = 1;
/// Node type byte for internal nodes.
pub const TYPE_INTERNAL: u8 = 2;
/// Header size in bytes.
pub const HDR: usize = 16;
/// Sentinel for "no sibling/child".
pub const NO_PAGE: u32 = u32::MAX;

/// Maximum key length accepted by the tree. A page must fit at least four
/// worst-case cells so splits always succeed.
pub const MAX_KEY: usize = 1536;
/// Maximum value length accepted by the tree.
pub const MAX_VAL: usize = (PAGE_SIZE - HDR) / 4 - MAX_KEY / 4 - 16;

const OFF_TYPE: usize = 0;
const OFF_NSLOTS: usize = 2;
const OFF_CELL_START: usize = 4;
const OFF_RIGHT: usize = 6;
const OFF_LEFTMOST: usize = 10;
const OFF_PREFIX_LEN: usize = 10;
const OFF_FRAG: usize = 14;

/// Bytes of a leaf page that prefix, slots and cells share.
pub const LEAF_ROOM: usize = PAGE_SIZE - HDR;

/// Initializes `page` as an empty leaf whose keys all start with
/// `prefix` (at most [`MAX_KEY`] bytes).
pub fn init_leaf(page: &mut [u8], prefix: &[u8]) {
    debug_assert!(prefix.len() <= MAX_KEY);
    page.fill(0);
    page[OFF_TYPE] = TYPE_LEAF;
    put_u16(page, OFF_NSLOTS, 0);
    let cells_end = PAGE_SIZE - prefix.len();
    put_u16(page, OFF_CELL_START, cells_end as u16);
    put_u32(page, OFF_RIGHT, NO_PAGE);
    put_u16(page, OFF_PREFIX_LEN, prefix.len() as u16);
    put_u16(page, OFF_FRAG, 0);
    page[cells_end..].copy_from_slice(prefix);
}

/// Initializes `page` as an internal node with the given leftmost child.
pub fn init_internal(page: &mut [u8], leftmost: u32) {
    page.fill(0);
    page[OFF_TYPE] = TYPE_INTERNAL;
    put_u16(page, OFF_NSLOTS, 0);
    put_u16(page, OFF_CELL_START, PAGE_SIZE as u16);
    put_u32(page, OFF_RIGHT, NO_PAGE);
    put_u32(page, OFF_LEFTMOST, leftmost);
    put_u16(page, OFF_FRAG, 0);
}

/// True if `page` is a leaf.
#[inline]
pub fn is_leaf(page: &[u8]) -> bool {
    page[OFF_TYPE] == TYPE_LEAF
}

/// Number of slots.
#[inline]
pub fn nslots(page: &[u8]) -> usize {
    get_u16(page, OFF_NSLOTS) as usize
}

/// Right sibling page (leaves), `NO_PAGE` if none.
#[inline]
pub fn right_sibling(page: &[u8]) -> u32 {
    get_u32(page, OFF_RIGHT)
}

/// Sets the right sibling.
#[inline]
pub fn set_right_sibling(page: &mut [u8], pid: u32) {
    put_u32(page, OFF_RIGHT, pid);
}

/// Leftmost child (internal nodes).
#[inline]
pub fn leftmost_child(page: &[u8]) -> u32 {
    get_u32(page, OFF_LEFTMOST)
}

/// Sets the leftmost child (internal nodes).
#[inline]
pub fn set_leftmost_child(page: &mut [u8], pid: u32) {
    put_u32(page, OFF_LEFTMOST, pid);
}

#[inline]
fn slot_offset(page: &[u8], idx: usize) -> usize {
    get_u16(page, HDR + 2 * idx) as usize
}

/// Contiguous free bytes between the slot array and the cell region.
#[inline]
pub fn contiguous_free(page: &[u8]) -> usize {
    get_u16(page, OFF_CELL_START) as usize - (HDR + 2 * nslots(page))
}

/// Total reclaimable free bytes (contiguous + fragmented).
#[inline]
pub fn total_free(page: &[u8]) -> usize {
    contiguous_free(page) + get_u16(page, OFF_FRAG) as usize
}

// ---------------------------------------------------------------------
// Leaf accessors
// ---------------------------------------------------------------------

/// Length of the page prefix of leaf `page`.
#[inline]
pub fn leaf_prefix_len(page: &[u8]) -> usize {
    get_u16(page, OFF_PREFIX_LEN) as usize
}

/// The page prefix every key of leaf `page` starts with.
#[inline]
pub fn leaf_prefix(page: &[u8]) -> &[u8] {
    &page[PAGE_SIZE - leaf_prefix_len(page)..]
}

/// Stored key suffix of leaf slot `idx`: its key without the page prefix.
pub fn leaf_suffix(page: &[u8], idx: usize) -> &[u8] {
    let off = slot_offset(page, idx);
    let slen = get_u16(page, off) as usize;
    &page[off + 4..off + 4 + slen]
}

/// Whole key of leaf slot `idx`, copied out (tests and checks; walks
/// rebuild keys in a [`LeafKey`]).
pub fn leaf_key(page: &[u8], idx: usize) -> Vec<u8> {
    [leaf_prefix(page), leaf_suffix(page, idx)].concat()
}

/// Value of leaf slot `idx`.
pub fn leaf_value(page: &[u8], idx: usize) -> &[u8] {
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    let vlen = get_u16(page, off + 2) as usize;
    &page[off + 4 + klen..off + 4 + klen + vlen]
}

/// Key suffix and value of leaf slot `idx`, decoding the cell header once.
// Forced inline, as `LeafKey`'s two methods are: the leaf walk calls them
// once a cell, and lending scans ran ≈ 3 ns an entry slower without.
#[inline(always)]
pub fn leaf_cell(page: &[u8], idx: usize) -> (&[u8], &[u8]) {
    let off = slot_offset(page, idx);
    let slen = get_u16(page, off) as usize;
    let vlen = get_u16(page, off + 2) as usize;
    let cell = &page[off + 4..off + 4 + slen + vlen];
    cell.split_at(slen)
}

/// `key` past the page prefix of leaf `page` when it starts with it;
/// else `Less` when `key` sorts below every key the leaf can hold, and
/// `Greater` when above.
#[inline]
fn strip_leaf_prefix<'k>(page: &[u8], key: &'k [u8]) -> Result<&'k [u8], Ordering> {
    let prefix = leaf_prefix(page);
    key.strip_prefix(prefix).ok_or_else(|| key.cmp(prefix))
}

/// Binary search for `key` in a leaf: `Ok(idx)` if present, `Err(idx)`
/// with the insertion position otherwise.
pub fn leaf_find(page: &[u8], key: &[u8]) -> Result<usize, usize> {
    let n = nslots(page);
    let suffix = match strip_leaf_prefix(page, key) {
        Ok(suffix) => suffix,
        Err(Ordering::Less) => return Err(0),
        Err(_) => return Err(n),
    };
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_suffix(page, mid).cmp(suffix) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The first slot at or after `from` whose key is not below `key`, for a
/// walk that is already at `from` and expects `key` nearby: steps of 1,
/// 2, 4, … forward, then a binary search inside the last step.
pub fn leaf_seek(page: &[u8], from: usize, key: &[u8]) -> usize {
    let n = nslots(page);
    let suffix = match strip_leaf_prefix(page, key) {
        Ok(suffix) => suffix,
        Err(Ordering::Less) => return from,
        Err(_) => return n,
    };
    let (mut lo, mut step) = (from, 1);
    while lo + step <= n && leaf_suffix(page, lo + step - 1) < suffix {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step).min(n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_suffix(page, mid) < suffix {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn leaf_cell_size(slen: usize, vlen: usize) -> usize {
    4 + slen + vlen
}

/// Bytes a leaf laid out under a page prefix of `prefix_len` bytes takes
/// for `cells` of `(key length, value length)`: the prefix, and a slot
/// and a cell each.
pub fn leaf_bytes(prefix_len: usize, cells: impl IntoIterator<Item = (usize, usize)>) -> usize {
    cells.into_iter().fold(prefix_len, |sum, (k, v)| sum + 2 + leaf_cell_size(k - prefix_len, v))
}

/// Length of the longest common prefix of `a` and `b`.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()))
}

/// Inserts `(key, value)` at slot `idx`, returning `false` when the page
/// cannot fit the cell even after compaction. `key` must start with the
/// page prefix; the cell stores the rest of it.
pub fn leaf_insert_at(page: &mut [u8], idx: usize, key: &[u8], value: &[u8]) -> bool {
    let key = key.strip_prefix(leaf_prefix(page)).expect("key outside the page prefix");
    let need = leaf_cell_size(key.len(), value.len()) + 2;
    if total_free(page) < need {
        return false;
    }
    if contiguous_free(page) < need {
        compact(page);
    }
    let n = nslots(page);
    debug_assert!(idx <= n);
    let cell_start = get_u16(page, OFF_CELL_START) as usize;
    let off = cell_start - leaf_cell_size(key.len(), value.len());
    put_u16(page, off, key.len() as u16);
    put_u16(page, off + 2, value.len() as u16);
    page[off + 4..off + 4 + key.len()].copy_from_slice(key);
    page[off + 4 + key.len()..off + 4 + key.len() + value.len()].copy_from_slice(value);
    put_u16(page, OFF_CELL_START, off as u16);
    // Shift slots right of idx.
    page.copy_within(HDR + 2 * idx..HDR + 2 * n, HDR + 2 * idx + 2);
    put_u16(page, HDR + 2 * idx, off as u16);
    put_u16(page, OFF_NSLOTS, (n + 1) as u16);
    true
}

/// Lays leaf `page` out afresh under the page prefix of its first key's
/// `prefix_len` bytes, holding `cells` (sorted, each starting with that
/// prefix, and fitting); the right sibling is left unset.
pub fn write_leaf<K: AsRef<[u8]>, V: AsRef<[u8]>>(
    page: &mut [u8],
    prefix_len: usize,
    cells: &[(K, V)],
) {
    init_leaf(page, &cells[0].0.as_ref()[..prefix_len]);
    for (slot, (k, v)) in cells.iter().enumerate() {
        assert!(leaf_insert_at(page, slot, k.as_ref(), v.as_ref()), "leaf cells must fit");
    }
}

/// True when every cell of leaf `page` lies between its slot array and
/// its page prefix.
pub fn leaf_cells_in_bounds(page: &[u8]) -> bool {
    let (lo, hi) = (HDR + 2 * nslots(page), PAGE_SIZE - leaf_prefix_len(page));
    (0..nslots(page)).all(|i| {
        let off = slot_offset(page, i);
        off >= lo && off + 4 <= hi && {
            let (slen, vlen) = (get_u16(page, off) as usize, get_u16(page, off + 2) as usize);
            off + leaf_cell_size(slen, vlen) <= hi
        }
    })
}

/// Removes leaf slot `idx` (the cell bytes become fragmented space).
pub fn leaf_remove_at(page: &mut [u8], idx: usize) {
    let n = nslots(page);
    debug_assert!(idx < n);
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    let vlen = get_u16(page, off + 2) as usize;
    let frag = get_u16(page, OFF_FRAG) as usize + leaf_cell_size(klen, vlen);
    put_u16(page, OFF_FRAG, frag as u16);
    page.copy_within(HDR + 2 * (idx + 1)..HDR + 2 * n, HDR + 2 * idx);
    put_u16(page, OFF_NSLOTS, (n - 1) as u16);
}

/// A whole leaf key rebuilt on the stack from its leaf's page prefix
/// and its cell's suffix, so that a walk lends whole keys and allocates
/// nothing.
pub struct LeafKey {
    bytes: [u8; MAX_KEY],
    prefix_len: usize,
}

impl Default for LeafKey {
    fn default() -> Self {
        LeafKey { bytes: [0; MAX_KEY], prefix_len: 0 }
    }
}

impl LeafKey {
    /// Takes the page prefix of leaf `page`, which the keys rebuilt next
    /// start with.
    #[inline(always)]
    pub fn load_prefix(&mut self, page: &[u8]) {
        let prefix = leaf_prefix(page);
        self.bytes[..prefix.len()].copy_from_slice(prefix);
        self.prefix_len = prefix.len();
    }

    /// The whole key whose cell stores `suffix`: `suffix` itself under
    /// an empty page prefix, else the two copied together.
    #[inline(always)]
    pub fn with_suffix<'a>(&'a mut self, suffix: &'a [u8]) -> &'a [u8] {
        if self.prefix_len == 0 {
            return suffix;
        }
        let len = self.prefix_len + suffix.len();
        self.bytes[self.prefix_len..len].copy_from_slice(suffix);
        &self.bytes[..len]
    }
}

// ---------------------------------------------------------------------
// Internal accessors
// ---------------------------------------------------------------------

/// Separator key of internal slot `idx`.
pub fn int_key(page: &[u8], idx: usize) -> &[u8] {
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    &page[off + 6..off + 6 + klen]
}

/// Child pointer of internal slot `idx`.
pub fn int_child(page: &[u8], idx: usize) -> u32 {
    let off = slot_offset(page, idx);
    get_u32(page, off + 2)
}

fn int_cell_size(klen: usize) -> usize {
    6 + klen
}

/// Index of the child to descend into for `key`: `0` means the leftmost
/// child, `i > 0` means the child of slot `i - 1`.
pub fn int_child_index(page: &[u8], key: &[u8]) -> usize {
    let n = nslots(page);
    // Find the rightmost separator <= key.
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if int_key(page, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Page id of the child at descend-index `idx` (0 = leftmost).
pub fn int_child_at(page: &[u8], idx: usize) -> u32 {
    if idx == 0 {
        leftmost_child(page)
    } else {
        int_child(page, idx - 1)
    }
}

/// Inserts separator `(key, child)` at slot `idx`; `false` if it cannot
/// fit even after compaction.
pub fn int_insert_at(page: &mut [u8], idx: usize, key: &[u8], child: u32) -> bool {
    let need = int_cell_size(key.len()) + 2;
    if total_free(page) < need {
        return false;
    }
    if contiguous_free(page) < need {
        compact(page);
    }
    let n = nslots(page);
    debug_assert!(idx <= n);
    let cell_start = get_u16(page, OFF_CELL_START) as usize;
    let off = cell_start - int_cell_size(key.len());
    put_u16(page, off, key.len() as u16);
    put_u32(page, off + 2, child);
    page[off + 6..off + 6 + key.len()].copy_from_slice(key);
    put_u16(page, OFF_CELL_START, off as u16);
    page.copy_within(HDR + 2 * idx..HDR + 2 * n, HDR + 2 * idx + 2);
    put_u16(page, HDR + 2 * idx, off as u16);
    put_u16(page, OFF_NSLOTS, (n + 1) as u16);
    true
}

/// Rewrites the cell region dropping fragmentation.
pub fn compact(page: &mut [u8]) {
    let n = nslots(page);
    let leaf = is_leaf(page);
    // Copy out the page, then rebuild its cells from the copy.
    let old = page.to_vec();
    let mut cursor = if leaf { PAGE_SIZE - leaf_prefix_len(page) } else { PAGE_SIZE };
    for i in 0..n {
        let off = slot_offset(&old, i);
        let klen = get_u16(&old, off) as usize;
        let size = if leaf {
            let vlen = get_u16(&old, off + 2) as usize;
            leaf_cell_size(klen, vlen)
        } else {
            int_cell_size(klen)
        };
        cursor -= size;
        page[cursor..cursor + size].copy_from_slice(&old[off..off + size]);
        put_u16(page, HDR + 2 * i, cursor as u16);
    }
    put_u16(page, OFF_CELL_START, cursor as u16);
    put_u16(page, OFF_FRAG, 0);
}

/// The shortest separator `s` with `left < s <= right`
/// (requires `left < right`). Used for interior prefix truncation.
pub fn shortest_separator(left: &[u8], right: &[u8]) -> Vec<u8> {
    right[..shortest_separator_len(left, right)].to_vec()
}

/// Length of [`shortest_separator`]`(left, right)`, which is always a
/// prefix of `right`: through the first byte where the two differ, or
/// one byte past `left` when `left` is a prefix of `right`.
pub fn shortest_separator_len(left: &[u8], right: &[u8]) -> usize {
    debug_assert!(left < right, "separator requires left < right");
    left.iter().zip(right).position(|(l, r)| l != r).map_or(left.len() + 1, |i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        vec![0u8; PAGE_SIZE]
    }

    #[test]
    fn leaf_insert_find_roundtrip() {
        let mut p = page();
        init_leaf(&mut p, b"");
        assert!(leaf_insert_at(&mut p, 0, b"mango", b"1"));
        assert!(leaf_insert_at(&mut p, 0, b"apple", b"2"));
        assert!(leaf_insert_at(&mut p, 2, b"zebra", b"3"));
        assert_eq!(nslots(&p), 3);
        assert_eq!(leaf_key(&p, 0), b"apple");
        assert_eq!(leaf_key(&p, 1), b"mango");
        assert_eq!(leaf_key(&p, 2), b"zebra");
        assert_eq!(leaf_value(&p, 0), b"2");
        assert_eq!(leaf_find(&p, b"mango"), Ok(1));
        assert_eq!(leaf_find(&p, b"banana"), Err(1));
        assert_eq!(leaf_find(&p, b"zzz"), Err(3));
    }

    #[test]
    fn leaf_seek_finds_the_lower_bound_from_any_start() {
        let mut p = page();
        init_leaf(&mut p, b"");
        let keys: Vec<String> = (0..40).map(|i| format!("k{:03}", 2 * i)).collect();
        for (i, k) in keys.iter().enumerate() {
            assert!(leaf_insert_at(&mut p, i, k.as_bytes(), b""));
        }
        for from in 0..=keys.len() {
            for probe in 0..82 {
                let key = format!("k{probe:03}");
                let want = keys.iter().position(|k| *k >= key).unwrap_or(keys.len()).max(from);
                assert_eq!(leaf_seek(&p, from, key.as_bytes()), want, "from {from}, {key}");
            }
        }
    }

    #[test]
    fn leaf_remove_creates_fragmentation_and_compact_reclaims() {
        let mut p = page();
        init_leaf(&mut p, b"");
        for i in 0..10 {
            let k = format!("key{i:02}");
            assert!(leaf_insert_at(&mut p, i, k.as_bytes(), b"valuevalue"));
        }
        let free_before = contiguous_free(&p);
        leaf_remove_at(&mut p, 3);
        leaf_remove_at(&mut p, 3);
        assert_eq!(nslots(&p), 8);
        assert_eq!(leaf_key(&p, 3), b"key05");
        assert!(total_free(&p) > contiguous_free(&p));
        compact(&mut p);
        assert_eq!(total_free(&p), contiguous_free(&p));
        assert!(contiguous_free(&p) > free_before);
        assert_eq!(leaf_key(&p, 0), b"key00");
        assert_eq!(leaf_value(&p, 7), b"valuevalue");
    }

    #[test]
    fn leaf_insert_reports_full() {
        let mut p = page();
        init_leaf(&mut p, b"");
        let big_val = vec![7u8; 1000];
        let mut n = 0;
        while leaf_insert_at(&mut p, n, format!("k{n:03}").as_bytes(), &big_val) {
            n += 1;
        }
        assert!(n >= 7, "expected ~8 cells of 1 KB to fit, got {n}");
        assert!(!leaf_insert_at(&mut p, 0, b"x", &big_val));
        // A tiny cell can still fit.
        assert!(leaf_insert_at(&mut p, 0, b"a", b"b"));
    }

    #[test]
    fn internal_child_routing() {
        let mut p = page();
        init_internal(&mut p, 100);
        assert!(int_insert_at(&mut p, 0, b"g", 101));
        assert!(int_insert_at(&mut p, 1, b"p", 102));
        // keys < g -> leftmost; g <= k < p -> 101; k >= p -> 102
        assert_eq!(int_child_index(&p, b"a"), 0);
        assert_eq!(int_child_at(&p, 0), 100);
        assert_eq!(int_child_index(&p, b"g"), 1);
        assert_eq!(int_child_at(&p, 1), 101);
        assert_eq!(int_child_index(&p, b"k"), 1);
        assert_eq!(int_child_index(&p, b"p"), 2);
        assert_eq!(int_child_index(&p, b"z"), 2);
        assert_eq!(int_child_at(&p, 2), 102);
    }

    #[test]
    fn compact_preserves_internal_nodes() {
        let mut p = page();
        init_internal(&mut p, 5);
        for i in 0..20 {
            assert!(int_insert_at(&mut p, i, format!("sep{i:02}").as_bytes(), 10 + i as u32));
        }
        compact(&mut p);
        assert_eq!(leftmost_child(&p), 5);
        for i in 0..20 {
            assert_eq!(int_key(&p, i), format!("sep{i:02}").as_bytes());
            assert_eq!(int_child(&p, i), 10 + i as u32);
        }
    }

    #[test]
    fn shortest_separator_truncates() {
        assert_eq!(shortest_separator(b"abc", b"b"), b"b".to_vec());
        assert_eq!(shortest_separator(b"abc", b"abd"), b"abd".to_vec());
        assert_eq!(shortest_separator(b"ab", b"abc"), b"abc".to_vec());
        assert_eq!(shortest_separator(b"alpha", b"beta"), b"b".to_vec());
        assert_eq!(shortest_separator(b"", b"a"), b"a".to_vec());
        // Invariant left < sep <= right on a batch of random-ish pairs.
        let pairs: &[(&[u8], &[u8])] = &[
            (b"aaa", b"aab"),
            (b"a", b"aa"),
            (b"carrot", b"cat"),
            (b"x\x00", b"x\x01"),
            (b"\x00", b"\x01\xff"),
        ];
        for &(l, r) in pairs {
            let s = shortest_separator(l, r);
            assert!(l < s.as_slice(), "{l:?} < {s:?}");
            assert!(s.as_slice() <= r, "{s:?} <= {r:?}");
        }
    }

    #[test]
    fn a_page_prefix_is_stored_once_and_searched_past() {
        let mut p = page();
        init_leaf(&mut p, b"item/");
        for (i, k) in [&b"item/a"[..], b"item/b", b"item/bb", b"item/d"].iter().enumerate() {
            assert!(leaf_insert_at(&mut p, i, k, b"v"));
        }
        assert_eq!(leaf_prefix(&p), b"item/");
        assert_eq!(leaf_suffix(&p, 2), b"bb");
        assert_eq!(leaf_key(&p, 2), b"item/bb");
        assert_eq!(
            leaf_bytes(5, [(6, 1), (6, 1), (7, 1), (6, 1)]),
            PAGE_SIZE - HDR - total_free(&p)
        );
        // Probes inside, below and above the prefix.
        assert_eq!(leaf_find(&p, b"item/bb"), Ok(2));
        assert_eq!(leaf_find(&p, b"item/c"), Err(3));
        assert_eq!(leaf_find(&p, b"item/"), Err(0));
        assert_eq!(leaf_find(&p, b"ite"), Err(0));
        assert_eq!(leaf_find(&p, b"apple"), Err(0));
        assert_eq!(leaf_find(&p, b"itez"), Err(4));
        assert_eq!(leaf_seek(&p, 1, b"ite"), 1);
        assert_eq!(leaf_seek(&p, 1, b"item/bc"), 3);
        assert_eq!(leaf_seek(&p, 0, b"j"), 4);
        // Compaction keeps the cells clear of the prefix.
        leaf_remove_at(&mut p, 1);
        compact(&mut p);
        assert_eq!(leaf_prefix(&p), b"item/");
        assert_eq!(
            (0..3).map(|i| leaf_key(&p, i)).collect::<Vec<_>>(),
            [b"item/a".to_vec(), b"item/bb".to_vec(), b"item/d".to_vec()]
        );
        let mut key = LeafKey::default();
        key.load_prefix(&p);
        assert_eq!(key.with_suffix(leaf_suffix(&p, 2)), b"item/d");
    }

    #[test]
    fn common_prefix_lengths() {
        assert_eq!(common_prefix_len(b"abc", b"abd"), 2);
        assert_eq!(common_prefix_len(b"ab", b"abc"), 2);
        assert_eq!(common_prefix_len(b"abc", b"abc"), 3);
        assert_eq!(common_prefix_len(b"", b"x"), 0);
        assert_eq!(common_prefix_len(b"x", b"y"), 0);
    }

    #[test]
    fn sibling_links() {
        let mut p = page();
        init_leaf(&mut p, b"");
        assert_eq!(right_sibling(&p), NO_PAGE);
        set_right_sibling(&mut p, 42);
        assert_eq!(right_sibling(&p), 42);
    }
}
