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
//! ([`key_runs`]) over a table, not per-key row lists, and a stream of
//! probe keys that mostly ascends finds its runs through a
//! [`MergeCursor`].
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

    /// Empties the table, and frees its vectors when they hold more
    /// than `bytes` between them.
    pub fn keep(&mut self, bytes: usize) {
        let held = self.ids.capacity() * std::mem::size_of::<u64>()
            + self.anc.capacity() * std::mem::size_of::<AncList>();
        if held > bytes {
            *self = BindingTable::default();
        } else {
            self.clear();
        }
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

    /// Appends `src`'s row `i` (same shape) joined with a match that binds
    /// `ids` to the twig nodes `nodes` and carries the ancestor list
    /// `captured = (slot, list)`, which fills the slot only where the row
    /// captured none.
    pub fn push_joined(
        &mut self,
        src: &BindingTable,
        i: usize,
        nodes: &[usize],
        ids: &[u64],
        captured: Option<(usize, AncList)>,
    ) {
        let anc_at = self.anc.len();
        let bind = self.push_copy(src, i);
        for (&node, &id) in nodes.iter().zip(ids) {
            bind[node] = id;
        }
        if let Some((slot, list)) = captured {
            let mine = &mut self.anc[anc_at + slot];
            if mine.is_none() {
                *mine = list;
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

    /// Duplicate elimination: leaves one row per distinct binding tuple,
    /// in binding order, by sorting row indices (`order` is the scratch
    /// for them) and writing the survivors into `scratch`, which is then
    /// swapped in. Ancestor lists are functionally determined by the
    /// binding they were captured for, so whichever duplicate survives
    /// carries the right ones.
    ///
    /// Rows that already arrive strictly increasing — a probe's rows in
    /// key order, a join's in the order of its matches, once projection
    /// has unbound the columns no later step reads — stay as they are:
    /// one comparison pass instead of a sort and a copy.
    pub fn distinct(&mut self, order: &mut Vec<usize>, scratch: &mut BindingTable) {
        if (1..self.rows).all(|i| self.row(i - 1) < self.row(i)) {
            return;
        }
        scratch.reset(self.width, self.anc_width);
        order.clear();
        order.extend(0..self.rows);
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        for &i in order.iter() {
            scratch.push_copy(self, i);
        }
        std::mem::swap(self, scratch);
    }

    /// Keeps, in order and in place, the rows `keep` marks.
    pub fn retain(&mut self, keep: &[bool]) {
        let (w, aw) = (self.width, self.anc_width);
        let mut kept = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            self.ids.copy_within(i * w..(i + 1) * w, kept * w);
            self.anc.copy_within(i * aw..(i + 1) * aw, kept * aw);
            kept += 1;
        }
        self.rows = kept;
        self.ids.truncate(kept * w);
        self.anc.truncate(kept * aw);
    }

    /// The bindings of twig node `node`, one per row, in row order.
    pub fn column(&self, node: usize) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().skip(node).step_by(self.width.max(1)).copied()
    }
}

/// The build side of an equi-join on `node`: `table`'s `(binding, row
/// index)` pairs, sorted, so the rows of one key form one contiguous
/// run in ascending row order ([`MergeCursor::run`] finds it).
pub(crate) fn key_runs(table: &BindingTable, node: usize, out: &mut Vec<(u64, usize)>) {
    out.clear();
    out.extend(table.column(node).zip(0..));
    out.sort_unstable();
}

/// The run of `key` in pairs sorted by [`key_runs`] (empty when absent):
/// the plain binary search the cursor's tests compare against.
#[cfg(test)]
fn run_of(keys: &[(u64, usize)], key: u64) -> &[(u64, usize)] {
    let rest = &keys[keys.partition_point(|&(k, _)| k < key)..];
    &rest[..rest.partition_point(|&(k, _)| k == key)]
}

/// The run of a key among pairs sorted by [`key_runs`], for a stream of
/// keys that mostly ascend — the ids a leaf scan lends, which rise within
/// each schema path. A key at or above the
/// previous one is found by galloping forward from the previous hit, so
/// a join over an ascending stream is a merge; a smaller key restarts the
/// search, and `restarts` counts how often that happened.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MergeCursor {
    /// Where the previous key's run starts (or would).
    at: usize,
    /// The previous key; every pair before `at` sorts below it.
    last: u64,
    pub restarts: u64,
}

impl MergeCursor {
    /// The run of `key` in `keys`, the pairs every earlier call was
    /// given.
    pub fn run<'k>(&mut self, keys: &'k [(u64, usize)], key: u64) -> &'k [(u64, usize)] {
        let at = self.at.min(keys.len());
        self.at = if key < self.last {
            self.restarts += 1;
            keys[..at].partition_point(|&(k, _)| k < key)
        } else {
            gallop(keys, at, key)
        };
        self.last = key;
        let rest = &keys[self.at..];
        &rest[..rest.iter().take_while(|&&(k, _)| k == key).count()]
    }

    /// The least key a call that does not go below the previous key can
    /// still find a run for: the key at the cursor, `u64::MAX` once the
    /// cursor has passed every pair. A stream that only ascends can skip
    /// every key below it.
    pub fn floor(&self, keys: &[(u64, usize)]) -> u64 {
        keys.get(self.at).map_or(u64::MAX, |&(k, _)| k)
    }

    /// Starts over from the smallest key, for a caller that knows its
    /// stream begins a new ascending run. Not counted as a restart: a
    /// key below the previous one after it no longer is one.
    pub fn rewind(&mut self) {
        *self = MergeCursor { restarts: self.restarts, ..MergeCursor::default() };
    }
}

/// The first position at or after `from` whose key is not below `key`,
/// given that none before `from` is: steps of 1, 2, 4, … forward, then a
/// binary search inside the last step.
fn gallop(keys: &[(u64, usize)], from: usize, key: u64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while let Some(&(k, _)) = keys.get(lo + step - 1) {
        if k >= key {
            break;
        }
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(keys.len());
    lo + keys[lo..hi].partition_point(|&(k, _)| k < key)
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
        let (mut order, mut scratch) = (Vec::new(), BindingTable::default());
        t.distinct(&mut order, &mut scratch);
        assert_eq!(rows_of(&t), [[U, 5, 9], [U, 6, 9]]);
        // Keeping everything is the identity.
        let before = t.row(0).to_vec();
        t.project(&[true; 3], &[true]);
        assert_eq!(t.row(0), before);

        // Already strictly increasing on the kept columns (the first one
        // is unbound by the projection): left as is, ancestors too.
        let mut sorted = table(
            &[([9, 1, 2], Some(&[4])), ([3, 1, 5], None), ([9, 2, 0], Some(&[6, 7]))],
            &mut arena,
        );
        sorted.project(&[false, true, true], &[true]);
        sorted.distinct(&mut order, &mut scratch);
        assert_eq!(rows_of(&sorted), [[U, 1, 2], [U, 1, 5], [U, 2, 0]]);
        assert_eq!(sorted.anc_row(0)[0].of(&arena), [4]);
        assert!(sorted.anc_row(1)[0].is_none());
        assert_eq!(sorted.anc_row(2)[0].of(&arena), [6, 7]);
        // Unsorted: sorted, every row kept.
        let mut unsorted =
            table(&[([2, 1, 1], None), ([1, 9, 9], None), ([1, 2, 3], None)], &mut arena);
        unsorted.distinct(&mut order, &mut scratch);
        assert_eq!(rows_of(&unsorted), [[1, 2, 3], [1, 9, 9], [2, 1, 1]]);
        // Ascending but with a duplicate: not strictly increasing, so
        // the duplicate goes.
        let mut dup = table(&[([1, 1, 1], None), ([1, 1, 1], None), ([1, 1, 2], None)], &mut arena);
        dup.distinct(&mut order, &mut scratch);
        assert_eq!(rows_of(&dup), [[1, 1, 1], [1, 1, 2]]);
        // No row and one row are trivially in order.
        let mut empty = table(&[], &mut arena);
        empty.distinct(&mut order, &mut scratch);
        assert!(empty.is_empty());
        let mut one = table(&[([5, U, 6], None)], &mut arena);
        one.distinct(&mut order, &mut scratch);
        assert_eq!(rows_of(&one), [[5, U, 6]]);
    }

    #[test]
    fn retain_keeps_the_marked_rows_in_order() {
        let mut arena = Vec::new();
        let mut t = table(
            &[([1, U, U], Some(&[10])), ([2, U, U], None), ([3, U, U], Some(&[30, 31]))],
            &mut arena,
        );
        t.retain(&[false, true, true]);
        assert_eq!(rows_of(&t), [[2, U, U], [3, U, U]]);
        assert!(t.anc_row(0)[0].is_none());
        assert_eq!(t.anc_row(1)[0].of(&arena), [30, 31]);
        t.retain(&[true, false]);
        assert_eq!(rows_of(&t), [[2, U, U]]);
        t.retain(&[false]);
        assert!(t.is_empty());
        assert_eq!(t.column(0).count(), 0);
    }

    fn rows_of(t: &BindingTable) -> Vec<[u64; 3]> {
        (0..t.len()).map(|i| t.row(i).try_into().unwrap()).collect()
    }

    #[test]
    fn joined_rows_take_the_match_and_fill_only_empty_slots() {
        let mut arena = Vec::new();
        let left = table(&[([1, U, U], Some(&[10])), ([2, U, U], None)], &mut arena);
        let mut out = BindingTable::default();
        out.reset(3, 1);
        let list = AncList { off: arena.len(), len: 2 };
        arena.extend_from_slice(&[20, 21]);
        out.push_joined(&left, 0, &[1, 2], &[6, 7], Some((0, list)));
        out.push_joined(&left, 1, &[2], &[8], Some((0, list)));
        out.push_joined(&left, 1, &[1], &[9], None);
        assert_eq!(rows_of(&out), [[1, 6, 7], [2, U, 8], [2, 9, U]]);
        assert_eq!(out.anc_row(0)[0].of(&arena), [10], "the row's captured list wins");
        assert_eq!(out.anc_row(1)[0].of(&arena), [20, 21], "the match's fills the empty slot");
        assert!(out.anc_row(2)[0].is_none());
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
    fn the_cursor_merges_ascending_keys_and_restarts_on_a_descent() {
        let keys = [(2, 1), (4, 0), (4, 2), (7, 3), (9, 4)];
        let mut c = MergeCursor::default();
        // Ascending, a key repeated, an absent key between two present.
        assert_eq!(c.run(&keys, 2), [(2, 1)]);
        assert_eq!(c.run(&keys, 4), [(4, 0), (4, 2)]);
        assert_eq!(c.run(&keys, 4), [(4, 0), (4, 2)]);
        assert!(c.run(&keys, 5).is_empty());
        assert_eq!(c.run(&keys, 7), [(7, 3)]);
        assert_eq!(c.restarts, 0);
        // Below the previous key: found again, counted as a restart.
        assert_eq!(c.run(&keys, 4), [(4, 0), (4, 2)]);
        assert!(c.run(&keys, 1).is_empty());
        assert_eq!(c.restarts, 2);
        // Past the end, then back inside.
        assert!(c.run(&keys, 10).is_empty());
        assert!(c.run(&keys, u64::MAX).is_empty());
        assert_eq!(c.run(&keys, 9), [(9, 4)]);
        assert_eq!(c.restarts, 3);
        // An empty run of pairs answers nothing, whatever the key.
        let mut c = MergeCursor::default();
        for key in [3, 0, 8] {
            assert!(c.run(&[], key).is_empty());
        }
        assert_eq!(c.restarts, 1);
    }

    #[test]
    fn the_floor_is_the_key_at_the_cursor_and_a_rewind_starts_over() {
        let keys = [(2, 1), (4, 0), (4, 2), (7, 3), (9, 4)];
        let mut c = MergeCursor::default();
        // Fresh: nothing passed, the smallest key is the floor.
        assert_eq!(c.floor(&keys), 2);
        // A hit leaves the cursor on its run: the same key may come again.
        c.run(&keys, 4);
        assert_eq!(c.floor(&keys), 4);
        // A miss moves it to the next key up.
        assert!(c.run(&keys, 5).is_empty());
        assert_eq!(c.floor(&keys), 7);
        // Past the last pair nothing is left to find.
        assert!(c.run(&keys, 10).is_empty());
        assert_eq!(c.floor(&keys), u64::MAX);
        // A rewind starts over at the smallest key, and the keys of the
        // run that follows merge from there: none of it counts as a
        // restart.
        c.rewind();
        assert_eq!((c.floor(&keys), c.restarts), (2, 0));
        assert_eq!(c.run(&keys, 2), [(2, 1)]);
        assert_eq!(c.run(&keys, 9), [(9, 4)]);
        assert_eq!(c.restarts, 0);
        assert_eq!(MergeCursor::default().floor(&[]), u64::MAX);
    }

    proptest::proptest! {
        #[test]
        fn prop_an_ascending_run_skips_only_keys_without_a_run(
            raw in proptest::collection::vec(0u64..40, 0..60),
            streams in proptest::collection::vec(proptest::collection::vec(0u64..45, 0..30), 1..5),
        ) {
            let mut keys: Vec<(u64, usize)> = raw.into_iter().zip(0..).collect();
            keys.sort_unstable();
            // Each stream is one ascending run, merged the way a leapfrog
            // scan merges it: keys at or above the floor are looked up;
            // the first key of a run found below the floor rewinds the
            // cursor, which may have merged the runs before this one.
            let mut c = MergeCursor::default();
            for mut stream in streams {
                stream.sort_unstable();
                let mut rewound = false;
                for key in stream {
                    let mut floor = c.floor(&keys);
                    if key < floor && !rewound {
                        c.rewind();
                        rewound = true;
                        floor = c.floor(&keys);
                    }
                    // What lies below the floor has no run: skipping it
                    // loses nothing.
                    if key < floor {
                        proptest::prop_assert!(run_of(&keys, key).is_empty(), "key {}", key);
                        continue;
                    }
                    proptest::prop_assert_eq!(c.run(&keys, key), run_of(&keys, key));
                    let next = c.floor(&keys);
                    proptest::prop_assert!(next >= key);
                    // The floor is itself a key, unless nothing is left.
                    proptest::prop_assert!(next == u64::MAX || !run_of(&keys, next).is_empty());
                }
            }
        }

        #[test]
        fn prop_cursor_finds_what_run_of_finds(
            raw in proptest::collection::vec(0u64..40, 0..60),
            lookups in proptest::collection::vec(0u64..45, 0..80),
        ) {
            let mut keys: Vec<(u64, usize)> = raw.into_iter().zip(0..).collect();
            keys.sort_unstable();
            let mut c = MergeCursor::default();
            for (n, &key) in lookups.iter().enumerate() {
                proptest::prop_assert_eq!(c.run(&keys, key), run_of(&keys, key), "lookup {}", n);
            }
            let descents = lookups.windows(2).filter(|w| w[1] < w[0]).count() as u64;
            proptest::prop_assert_eq!(c.restarts, descents);
        }
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
