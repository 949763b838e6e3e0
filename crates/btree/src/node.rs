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
//! 14      fragmented bytes u16  (reclaimable by compaction)
//! 16..    slot array       u16 per slot (cell offsets, key-sorted)
//! ...     free space
//! ...     cells            grow downward from the page end
//! ```
//!
//! Leaf cell:     `[klen u16][vlen u16][key][value]`
//! Internal cell: `[klen u16][child u32][key]`
//!
//! Internal-node semantics: with leftmost child `c0` and sorted separator
//! entries `(s1,c1) … (sn,cn)`, subtree `c0` holds keys `< s1` and subtree
//! `ci` holds keys `>= si` and `< s(i+1)`.

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
const OFF_FRAG: usize = 14;

/// Initializes `page` as an empty leaf.
pub fn init_leaf(page: &mut [u8]) {
    page.fill(0);
    page[OFF_TYPE] = TYPE_LEAF;
    put_u16(page, OFF_NSLOTS, 0);
    put_u16(page, OFF_CELL_START, PAGE_SIZE as u16);
    put_u32(page, OFF_RIGHT, NO_PAGE);
    put_u32(page, OFF_LEFTMOST, NO_PAGE);
    put_u16(page, OFF_FRAG, 0);
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

/// Key of leaf slot `idx`.
pub fn leaf_key(page: &[u8], idx: usize) -> &[u8] {
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    &page[off + 4..off + 4 + klen]
}

/// Value of leaf slot `idx`.
pub fn leaf_value(page: &[u8], idx: usize) -> &[u8] {
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    let vlen = get_u16(page, off + 2) as usize;
    &page[off + 4 + klen..off + 4 + klen + vlen]
}

/// Key and value of leaf slot `idx`, decoding the cell header once.
pub fn leaf_cell(page: &[u8], idx: usize) -> (&[u8], &[u8]) {
    let off = slot_offset(page, idx);
    let klen = get_u16(page, off) as usize;
    let vlen = get_u16(page, off + 2) as usize;
    let cell = &page[off + 4..off + 4 + klen + vlen];
    cell.split_at(klen)
}

/// Binary search for `key` in a leaf: `Ok(idx)` if present, `Err(idx)`
/// with the insertion position otherwise.
pub fn leaf_find(page: &[u8], key: &[u8]) -> Result<usize, usize> {
    let n = nslots(page);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(page, mid).cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

fn leaf_cell_size(klen: usize, vlen: usize) -> usize {
    4 + klen + vlen
}

/// Inserts `(key, value)` at slot `idx`, returning `false` when the page
/// cannot fit the cell even after compaction.
pub fn leaf_insert_at(page: &mut [u8], idx: usize, key: &[u8], value: &[u8]) -> bool {
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
    // Copy out live cells, then rebuild.
    let mut cells: Vec<Vec<u8>> = Vec::with_capacity(n);
    for i in 0..n {
        let off = slot_offset(page, i);
        let klen = get_u16(page, off) as usize;
        let size = if leaf {
            let vlen = get_u16(page, off + 2) as usize;
            leaf_cell_size(klen, vlen)
        } else {
            int_cell_size(klen)
        };
        cells.push(page[off..off + size].to_vec());
    }
    let mut cursor = PAGE_SIZE;
    for (i, cell) in cells.iter().enumerate() {
        cursor -= cell.len();
        page[cursor..cursor + cell.len()].copy_from_slice(cell);
        put_u16(page, HDR + 2 * i, cursor as u16);
    }
    put_u16(page, OFF_CELL_START, cursor as u16);
    put_u16(page, OFF_FRAG, 0);
}

/// The shortest separator `s` with `left < s <= right`
/// (requires `left < right`). Used for interior prefix truncation.
pub fn shortest_separator(left: &[u8], right: &[u8]) -> Vec<u8> {
    debug_assert!(left < right, "separator requires left < right");
    for i in 0..right.len() {
        if i >= left.len() || left[i] != right[i] {
            return right[..=i].to_vec();
        }
    }
    right.to_vec()
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
        init_leaf(&mut p);
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
    fn leaf_remove_creates_fragmentation_and_compact_reclaims() {
        let mut p = page();
        init_leaf(&mut p);
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
        init_leaf(&mut p);
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
    fn sibling_links() {
        let mut p = page();
        init_leaf(&mut p);
        assert_eq!(right_sibling(&p), NO_PAGE);
        set_right_sibling(&mut p, 42);
        assert_eq!(right_sibling(&p), 42);
    }
}
