//! The executor's binding table: every partial result of one twig
//! execution, in two flat vectors.
//!
//! A row binds twig nodes to node ids. Rows are stored row-major in one
//! `Vec<u64>` (`rows × twig_nodes`, [`UNBOUND`] where a node has no
//! binding yet), and the ancestor lists a row captured for later `//`
//! joins are `(offset, len)` references ([`AncList`]) into one id arena
//! the whole execution shares — so producing, joining, projecting and
//! deduplicating rows moves ids between vectors and never allocates per
//! row. Join build sides are sorted `(key, row index)` runs
//! ([`key_runs`] / [`run_of`]) over a table, not per-key row lists.
//!
//! Row-major indexing is this module's job, so `indexing_slicing` stays
//! off here; everything else that could panic is linted below.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// The id of a twig node a row does not bind.
pub(crate) const UNBOUND: u64 = u64::MAX;

/// A captured ancestor list: `len` ids at `off` in the execution's id
/// arena. [`AncList::NONE`] marks "not captured" (distinct from a
/// captured, empty list — a document root has no ancestors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AncList {
    pub off: usize,
    pub len: usize,
}

impl AncList {
    pub const NONE: AncList = AncList { off: 0, len: usize::MAX };

    pub fn is_none(self) -> bool {
        self.len == usize::MAX
    }

    /// The listed ids (empty for [`AncList::NONE`] and for spans outside
    /// `arena`).
    pub fn of(self, arena: &[u64]) -> &[u64] {
        self.off.checked_add(self.len).and_then(|end| arena.get(self.off..end)).unwrap_or(&[])
    }
}

/// `rows × width` bindings plus `rows × anc_width` ancestor-list slots.
/// Tables are reused across plan steps: [`BindingTable::reset`] keeps
/// the allocations.
#[derive(Debug, Default)]
pub(crate) struct BindingTable {
    width: usize,
    anc_width: usize,
    rows: usize,
    ids: Vec<u64>,
    anc: Vec<AncList>,
}

impl BindingTable {
    /// Empties the table and sets its shape: `width` twig nodes and
    /// `anc_width` ancestor-list slots per row.
    pub fn reset(&mut self, width: usize, anc_width: usize) {
        self.width = width;
        self.anc_width = anc_width;
        self.rows = 0;
        self.ids.clear();
        self.anc.clear();
    }

    /// Empties the table, keeping its shape.
    pub fn clear(&mut self) {
        self.reset(self.width, self.anc_width);
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The bindings of row `i`, indexed by twig node.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// The ancestor-list slots of row `i`.
    pub fn anc_row(&self, i: usize) -> &[AncList] {
        &self.anc[i * self.anc_width..(i + 1) * self.anc_width]
    }

    /// Appends a row binding nothing and lends it for filling in.
    pub fn push_unbound(&mut self) -> (&mut [u64], &mut [AncList]) {
        let (at, anc_at) = (self.ids.len(), self.anc.len());
        self.ids.resize(at + self.width, UNBOUND);
        self.anc.resize(anc_at + self.anc_width, AncList::NONE);
        self.rows += 1;
        (&mut self.ids[at..], &mut self.anc[anc_at..])
    }

    /// Appends a copy of `src`'s row `i` (same shape) and lends its
    /// bindings for extension.
    pub fn push_copy(&mut self, src: &BindingTable, i: usize) -> &mut [u64] {
        let at = self.ids.len();
        self.ids.extend_from_slice(src.row(i));
        self.anc.extend_from_slice(src.anc_row(i));
        self.rows += 1;
        &mut self.ids[at..]
    }

    /// Appends the join of `left`'s row `i` and `right`'s row `j` (same
    /// shape): the left row, plus every binding and captured ancestor
    /// list only the right row has.
    pub fn push_merged(&mut self, left: &BindingTable, i: usize, right: &BindingTable, j: usize) {
        let (at, anc_at) = (self.ids.len(), self.anc.len());
        self.push_copy(left, i);
        for (mine, &theirs) in self.ids[at..].iter_mut().zip(right.row(j)) {
            if theirs != UNBOUND {
                *mine = theirs;
            }
        }
        for (mine, &theirs) in self.anc[anc_at..].iter_mut().zip(right.anc_row(j)) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
    }

    /// Projection: unbinds every node `keep` does not list and drops the
    /// ancestor lists of every slot `keep_anc` does not list.
    pub fn project(&mut self, keep: &[bool], keep_anc: &[bool]) {
        if keep.iter().any(|k| !k) {
            for row in self.ids.chunks_exact_mut(self.width.max(1)) {
                for (id, &kept) in row.iter_mut().zip(keep) {
                    if !kept {
                        *id = UNBOUND;
                    }
                }
            }
        }
        if keep_anc.iter().any(|k| !k) {
            for row in self.anc.chunks_exact_mut(self.anc_width.max(1)) {
                for (list, &kept) in row.iter_mut().zip(keep_anc) {
                    if !kept {
                        *list = AncList::NONE;
                    }
                }
            }
        }
    }

    /// Duplicate elimination: writes one row per distinct binding tuple
    /// into `out`, by sorting row indices (`order` is the scratch for
    /// them). Ancestor lists are functionally determined by the binding
    /// they were captured for, so whichever duplicate survives carries
    /// the right ones.
    pub fn distinct_into(&self, order: &mut Vec<usize>, out: &mut BindingTable) {
        out.reset(self.width, self.anc_width);
        order.clear();
        order.extend(0..self.rows);
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        for &i in order.iter() {
            out.push_copy(self, i);
        }
    }

    /// The bindings of twig node `node`, one per row, in row order.
    pub fn column(&self, node: usize) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().skip(node).step_by(self.width.max(1)).copied()
    }
}

/// The build side of an equi-join on `node`: `table`'s `(binding, row
/// index)` pairs, sorted, so the rows of one key form one contiguous
/// run in ascending row order ([`run_of`] finds it).
pub(crate) fn key_runs(table: &BindingTable, node: usize, out: &mut Vec<(u64, usize)>) {
    out.clear();
    out.extend(table.column(node).zip(0..));
    out.sort_unstable();
}

/// The run of `key` in pairs sorted by [`key_runs`] (empty when absent).
pub(crate) fn run_of(keys: &[(u64, usize)], key: u64) -> &[(u64, usize)] {
    let rest = &keys[keys.partition_point(|&(k, _)| k < key)..];
    &rest[..rest.partition_point(|&(k, _)| k == key)]
}

/// Distinct keys among pairs sorted by [`key_runs`].
pub(crate) fn distinct_keys(keys: &[(u64, usize)]) -> u64 {
    keys.chunk_by(|a, b| a.0 == b.0).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node, 1-slot table from `(bindings, ancestors)` literals.
    fn table(rows: &[([u64; 3], Option<&[u64]>)], arena: &mut Vec<u64>) -> BindingTable {
        let mut t = BindingTable::default();
        t.reset(3, 1);
        for (bind, anc) in rows {
            let (ids, slots) = t.push_unbound();
            ids.copy_from_slice(bind);
            if let Some(list) = anc {
                slots[0] = AncList { off: arena.len(), len: list.len() };
                arena.extend_from_slice(list);
            }
        }
        t
    }

    const U: u64 = UNBOUND;

    #[test]
    fn rows_start_unbound_and_read_back() {
        let mut arena = Vec::new();
        let t = table(&[([1, U, 3], Some(&[9, 8])), ([4, 5, U], None)], &mut arena);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0), [1, U, 3]);
        assert_eq!(t.row(1), [4, 5, U]);
        assert_eq!(t.anc_row(0)[0].of(&arena), [9, 8]);
        assert!(t.anc_row(1)[0].is_none());
        assert_eq!(t.column(0).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(t.column(2).collect::<Vec<_>>(), [3, U]);
        let mut fresh = BindingTable::default();
        fresh.reset(3, 1);
        let (ids, slots) = fresh.push_unbound();
        assert_eq!((&*ids, slots[0]), (&[U, U, U][..], AncList::NONE));
    }

    #[test]
    fn an_empty_captured_list_is_not_an_absent_one() {
        let root = AncList { off: 0, len: 0 };
        assert!(!root.is_none());
        assert!(root.of(&[7]).is_empty());
        assert!(AncList::NONE.of(&[7]).is_empty());
    }

    #[test]
    fn merge_overlays_right_bindings_and_keeps_left_ancestors() {
        let mut arena = Vec::new();
        let left = table(&[([1, U, U], Some(&[10])), ([2, U, U], None)], &mut arena);
        let right = table(&[([U, 6, 7], Some(&[20, 21]))], &mut arena);
        let mut out = BindingTable::default();
        out.reset(3, 1);
        out.push_merged(&left, 0, &right, 0);
        out.push_merged(&left, 1, &right, 0);
        assert_eq!(out.row(0), [1, 6, 7]);
        assert_eq!(out.anc_row(0)[0].of(&arena), [10], "left's captured list wins");
        assert_eq!(out.row(1), [2, 6, 7]);
        assert_eq!(out.anc_row(1)[0].of(&arena), [20, 21], "right's fills the empty slot");
    }

    #[test]
    fn project_then_distinct_collapses_rows_equal_on_kept_nodes() {
        let mut arena = Vec::new();
        let mut t = table(
            &[
                ([1, 5, 9], Some(&[3])),
                ([2, 5, 9], Some(&[3])),
                ([1, 6, 9], Some(&[3])),
                ([7, 5, 9], None),
            ],
            &mut arena,
        );
        t.project(&[false, true, true], &[false]);
        assert_eq!(t.row(0), [U, 5, 9]);
        assert!(t.anc_row(0)[0].is_none());
        let (mut order, mut out) = (Vec::new(), BindingTable::default());
        t.distinct_into(&mut order, &mut out);
        let mut rows: Vec<&[u64]> = (0..out.len()).map(|i| out.row(i)).collect();
        rows.sort_unstable();
        assert_eq!(rows, [&[U, 5, 9][..], &[U, 6, 9][..]]);
        // Keeping everything is the identity.
        let before = out.row(0).to_vec();
        out.project(&[true; 3], &[true]);
        assert_eq!(out.row(0), before);
    }

    #[test]
    fn key_runs_group_rows_by_binding() {
        let mut arena = Vec::new();
        let t = table(&[([4, U, U], None), ([2, U, U], None), ([4, U, U], None)], &mut arena);
        let mut keys = Vec::new();
        key_runs(&t, 0, &mut keys);
        assert_eq!(keys, [(2, 1), (4, 0), (4, 2)]);
        assert_eq!(run_of(&keys, 4), [(4, 0), (4, 2)]);
        assert_eq!(run_of(&keys, 2), [(2, 1)]);
        assert!(run_of(&keys, 3).is_empty());
        assert!(run_of(&keys, 5).is_empty());
        assert!(run_of(&[], 1).is_empty());
        assert_eq!(distinct_keys(&keys), 2);
        assert_eq!(distinct_keys(&[]), 0);
    }

    #[test]
    fn reset_keeps_nothing_but_the_allocation() {
        let mut arena = Vec::new();
        let mut t = table(&[([1, 2, 3], None)], &mut arena);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.column(0).count(), 0);
        t.reset(2, 0);
        let (ids, slots) = t.push_unbound();
        assert_eq!((ids.len(), slots.len()), (2, 0));
        assert_eq!(t.anc_row(0), []);
    }
}
