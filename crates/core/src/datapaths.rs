//! The DATAPATHS index (paper §3.3).
//!
//! A B+-tree on `HeadId · LeafValue · ReverseSchemaPath` over **all
//! subpaths** of root-to-leaf paths, returning the complete IdList. This
//! is "exactly what is needed to solve the BoundIndex problem in one
//! index lookup": given a head node id, a probe returns every data path
//! rooted there that matches a PCsubpath pattern — which is what enables
//! the index-nested-loop join strategy (paper §5.2.3).
//!
//! A virtual root (head id 0) parents all documents, so the same tree
//! also answers FreeIndex probes (paper footnote 4); those rows are the
//! ROOTPATHS rows.
//!
//! Key layout:
//!
//! ```text
//! [ HeadId, 9 bytes ]
//! [ LeafValue: null | escaped string prefix ]
//! [ ReverseSchemaPath designators (from the head down) ]
//! [ 0x01 terminator ]
//! [ uniquifier: last node id, 9 bytes ]
//! ```
//!
//! Stored IdLists exclude the head (Fig. 5); lookups re-attach it so
//! every [`PathMatch`] has `tags`/`ids` aligned.

use crate::designator;
use crate::family::{
    BoundIndex, FamilyPosition, FreeIndex, IdListSublist, IndexedColumn, PathIndex, PathMatch,
    PcSubpathQuery, SchemaPathSubset,
};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::{for_each_root_path_in, for_each_subpath_in};
use crate::rootpaths::{push_value_part, skip_value_part};
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// Head-id pruning predicate (paper §4.3): rows whose head is not a
/// potential query branch point may be dropped, trading INLJ coverage for
/// space. `Sync` so sharded builds can apply it from worker threads.
pub type HeadFilter<'a> = dyn Fn(u64, &[TagId]) -> bool + Sync + 'a;

/// Build options.
#[derive(Clone, Copy, Default)]
pub struct DataPathsOptions {
    /// IdList storage codec (delta by default — §4.1).
    pub idlist: IdListCodec,
    /// B+-tree options.
    pub btree: BTreeOptions,
}

/// The DATAPATHS index.
pub struct DataPaths {
    tree: BTree,
    idlist: IdListCodec,
    rows: u64,
    pruned: bool,
}

impl DataPaths {
    /// Builds the full index from `forest` into `pool`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>, options: DataPathsOptions) -> Self {
        Self::build_filtered(forest, pool, options, None)
    }

    /// Builds with an optional head filter (§4.3 HeadId pruning). Rows
    /// with `head == 0` (FreeIndex rows) are always kept; a row with a
    /// real head is kept when `filter(head, path_tags_from_head)` returns
    /// true.
    pub fn build_filtered(
        forest: &XmlForest,
        pool: Arc<BufferPool>,
        options: DataPathsOptions,
        filter: Option<&HeadFilter<'_>>,
    ) -> Self {
        Self::build_filtered_sharded(forest, pool, options, filter, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`]; see
    /// [`RootPaths::build_sharded`](crate::rootpaths::RootPaths::build_sharded)
    /// for the run-merge argument that makes the output byte-identical.
    pub fn build_sharded(
        forest: &XmlForest,
        pool: Arc<BufferPool>,
        options: DataPathsOptions,
        plan: &ShardPlan,
    ) -> Self {
        Self::build_filtered_sharded(forest, pool, options, None, plan)
    }

    /// Shard-parallel [`Self::build_filtered`]. The head filter runs on
    /// the worker threads, and because shard boundaries may fall
    /// mid-subtree, rows sharing one head can be delivered on
    /// *different* threads (a head's descendants may span shards). That
    /// is only sound because the filter must be a pure function of
    /// `(head, path_tags)` — a filter keeping cross-row state would
    /// diverge from the sequential build.
    pub fn build_filtered_sharded(
        forest: &XmlForest,
        pool: Arc<BufferPool>,
        options: DataPathsOptions,
        filter: Option<&HeadFilter<'_>>,
        plan: &ShardPlan,
    ) -> Self {
        let runs = map_shards(plan, |range| {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            // FreeIndex rows: head = virtual root, IdList = full root path.
            for_each_root_path_in(forest, range, |tags, ids, value| {
                entries.push(Self::encode_row(options.idlist, 0, tags, ids, ids, value));
            });
            // BoundIndex rows: every subpath; stored IdList excludes the head.
            for_each_subpath_in(forest, range, |head, tags, ids, value| {
                if let Some(f) = filter {
                    if !f(head, tags) {
                        return;
                    }
                }
                entries.push(Self::encode_row(options.idlist, head, tags, ids, &ids[1..], value));
            });
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            entries
        });
        let rows = runs.iter().map(|r| r.len() as u64).sum();
        let tree = bulk_build(pool, options.btree, merge_sorted_runs(runs));
        DataPaths { tree, idlist: options.idlist, rows, pruned: filter.is_some() }
    }

    fn encode_row(
        codec_opt: IdListCodec,
        head: u64,
        tags: &[TagId],
        ids: &[u64],
        stored_ids: &[u64],
        value: Option<&str>,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut key = KeyBuf::new();
        key.push_u64(head);
        push_value_part(&mut key, value);
        let mut path = Vec::with_capacity(tags.len() + 1);
        designator::push_path_reversed(&mut path, tags);
        path.push(designator::TERMINATOR);
        key.push_raw(&path);
        key.push_u64(*ids.last().unwrap());
        (key.finish(), codec::encode_idlist(codec_opt, stored_ids))
    }

    /// Number of stored rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True when built with a head filter (INLJ is then only valid for
    /// retained heads — paper §4.3's caveat).
    pub fn is_pruned(&self) -> bool {
        self.pruned
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    /// Inserts the index entries for a new node whose full root path is
    /// `tags`/`ids` with optional leaf `value` (paper §7): one FreeIndex
    /// row (head 0) plus one BoundIndex row per ancestor position —
    /// depth + 1 entries per value variant.
    pub fn insert_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) {
        let mut add = |head: u64, t: &[TagId], full: &[u64], stored: &[u64], v: Option<&str>| {
            let (key, payload) = Self::encode_row(self.idlist, head, t, full, stored, v);
            self.tree.insert(&key, &payload);
            self.rows += 1;
        };
        add(0, tags, ids, ids, None);
        if let Some(v) = value {
            add(0, tags, ids, ids, Some(v));
        }
        for start in 0..tags.len() {
            let head = ids[start];
            add(head, &tags[start..], &ids[start..], &ids[start + 1..], None);
            if let Some(v) = value {
                add(head, &tags[start..], &ids[start..], &ids[start + 1..], Some(v));
            }
        }
    }

    /// Removes the entries for the node at the end of `tags`/`ids`.
    /// Self-locating, like ROOTPATHS deletes (§7).
    pub fn delete_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) -> bool {
        let mut removed = false;
        let mut del = |head: u64, t: &[TagId], full: &[u64], v: Option<&str>| {
            let (key, _) = Self::encode_row(self.idlist, head, t, full, &[], v);
            if self.tree.delete(&key).is_some() {
                self.rows -= 1;
                removed = true;
            }
        };
        del(0, tags, ids, None);
        if let Some(v) = value {
            del(0, tags, ids, Some(v));
        }
        for start in 0..tags.len() {
            del(ids[start], &tags[start..], &ids[start..], None);
            if let Some(v) = value {
                del(ids[start], &tags[start..], &ids[start..], Some(v));
            }
        }
        removed
    }

    /// The key prefix of a probe under `head`: `head_tag` is `None` for
    /// the virtual root (FreeIndex rows store the path from the document
    /// root) and the head's tag for a BoundIndex probe.
    fn probe_prefix(
        head: u64,
        head_tag: Option<TagId>,
        tags: &[TagId],
        anchored: bool,
        value: Option<&str>,
    ) -> Vec<u8> {
        let mut key = KeyBuf::new();
        key.push_u64(head);
        push_value_part(&mut key, value);
        let mut path = Vec::with_capacity(tags.len() + 2);
        designator::push_path_reversed(&mut path, tags);
        if anchored {
            // Under a real head the first pattern step is a *child* of
            // the head: the stored path must be exactly head_tag/t1/…/tk.
            if let Some(tag) = head_tag {
                designator::push_designator(&mut path, tag);
            }
            path.push(designator::TERMINATOR);
        }
        key.push_raw(&path);
        key.finish()
    }

    /// The one scan of this index, under both lookup kinds: decodes each
    /// entry under `prefix` into `ids` (re-attaching `head` in front of
    /// a BoundIndex row's stored list) and lends it to `sink` with the
    /// undecoded entry key when it spans at least `min_len` steps, until
    /// the sink answers `Break`.
    fn scan(
        &self,
        prefix: &[u8],
        head: u64,
        min_len: usize,
        ids: &mut Vec<u64>,
        mut sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) {
        self.tree.for_each_prefix(prefix, |key, payload| {
            ids.clear();
            if head != 0 {
                ids.push(head);
            }
            codec::decode_idlist_into(self.idlist, payload, ids);
            if ids.len() >= min_len {
                sink(key, ids)
            } else {
                ControlFlow::Continue(())
            }
        });
    }

    /// The streaming FreeIndex lookup: `sink(key, ids)` per match until
    /// it answers `Break`, `ids` decoded into the caller's reused
    /// buffer, `key` lent undecoded from the leaf page
    /// ([`FreeIndex::lookup_free`] is the collector that also decodes
    /// the schema path out of it).
    pub fn for_each_free(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) {
        let prefix = Self::probe_prefix(0, None, &q.tags, q.anchored, q.value.as_deref());
        self.scan(&prefix, 0, 0, ids, sink);
    }

    /// Prepares BoundIndex probes of the pattern `tags` (a child chain
    /// of the head when `anchored`, any descendant chain otherwise) with
    /// leaf `value` under heads tagged `head_tag`: the key is encoded
    /// once, and [`DataPaths::for_each_bound`] re-aims it at each head
    /// by overwriting the HeadId component.
    pub fn bound_probe(
        &self,
        head_tag: TagId,
        tags: &[TagId],
        anchored: bool,
        value: Option<&str>,
    ) -> BoundProbe {
        BoundProbe {
            key: Self::probe_prefix(0, Some(head_tag), tags, anchored, value),
            // Strict descendant: a stored path includes the head step.
            min_len: tags.len() + 1,
        }
    }

    /// The streaming BoundIndex lookup: [`DataPaths::for_each_free`]
    /// rooted at `head` (`ids[0]` is the head itself).
    pub fn for_each_bound(
        &self,
        probe: &mut BoundProbe,
        head: u64,
        ids: &mut Vec<u64>,
        sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) {
        codec::set_u64(&mut probe.key, 0, head);
        self.scan(&probe.key, head, probe.min_len, ids, sink);
    }

    /// Collects one lent entry as a [`PathMatch`], decoding its schema
    /// path out of the key.
    fn collect(head: u64, key: &[u8], ids: &[u64]) -> PathMatch {
        let pos = skip_value_part(key, 9); // 9: past the head component
        let (tags, _next) = designator::decode_path_reversed(key, pos);
        debug_assert_eq!(tags.len(), ids.len());
        PathMatch { head, tags, ids: ids.to_vec() }
    }
}

/// A prepared BoundIndex probe (see [`DataPaths::bound_probe`]).
pub struct BoundProbe {
    key: Vec<u8>,
    min_len: usize,
}

impl DataPaths {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]).
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        crate::persist::write_codec(w, self.idlist);
        w.push_bool(self.pruned);
        w.push_u64(self.rows);
        crate::persist::write_tree_meta(w, &self.tree);
    }

    /// Reattaches a persisted DATAPATHS index over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        let idlist = crate::persist::read_codec(r)?;
        let pruned = r.bool()?;
        let rows = r.u64()?;
        let tree = crate::persist::read_tree_meta(r, pool)?;
        Ok(DataPaths { tree, idlist, rows, pruned })
    }
}

impl PathIndex for DataPaths {
    fn name(&self) -> &'static str {
        "DATAPATHS"
    }

    fn family_position(&self) -> FamilyPosition {
        FamilyPosition {
            schema_paths: SchemaPathSubset::AllSubpaths,
            idlist: IdListSublist::Full,
            indexed: vec![
                IndexedColumn::HeadId,
                IndexedColumn::LeafValue,
                IndexedColumn::ReverseSchemaPath,
            ],
        }
    }

    fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

impl FreeIndex for DataPaths {
    fn lookup_free(&self, q: &PcSubpathQuery) -> Vec<PathMatch> {
        let mut out = Vec::new();
        self.for_each_free(q, &mut Vec::new(), |key, ids| {
            out.push(Self::collect(0, key, ids));
            ControlFlow::Continue(())
        });
        out
    }
}

impl BoundIndex for DataPaths {
    fn lookup_bound(&self, head: u64, head_tag: TagId, q: &PcSubpathQuery) -> Vec<PathMatch> {
        let mut out = Vec::new();
        let mut probe = self.bound_probe(head_tag, &q.tags, q.anchored, q.value.as_deref());
        self.for_each_bound(&mut probe, head, &mut Vec::new(), |key, ids| {
            out.push(Self::collect(head, key, ids));
            ControlFlow::Continue(())
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn build(forest: &XmlForest) -> DataPaths {
        DataPaths::build(forest, Arc::new(BufferPool::in_memory(8192)), DataPathsOptions::default())
    }

    fn q(
        forest: &XmlForest,
        steps: &[&str],
        anchored: bool,
        value: Option<&str>,
    ) -> PcSubpathQuery {
        PcSubpathQuery::resolve(forest.dict(), steps, anchored, value).expect("tags exist")
    }

    fn tag(forest: &XmlForest, name: &str) -> TagId {
        forest.dict().lookup(name).unwrap()
    }

    fn last_ids(ms: &[PathMatch]) -> Vec<u64> {
        let mut v: Vec<u64> = ms.iter().map(|m| m.last_id()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn free_lookup_equals_rootpaths_semantics() {
        let f = fig1_book_document();
        let dp = build(&f);
        let ms = dp.lookup_free(&q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(last_ids(&ms), vec![7, 42]);
        for m in &ms {
            assert_eq!(m.head, 0);
            assert_eq!(m.ids[0], 1); // full root IdList
        }
        let anchored = dp.lookup_free(&q(&f, &["book", "title"], true, None));
        assert_eq!(last_ids(&anchored), vec![2]);
    }

    #[test]
    fn bound_lookup_restricts_to_head_subtree() {
        // Paper §3.3's example: probe authors under a known book id.
        let f = fig1_book_document();
        let dp = build(&f);
        let book = tag(&f, "book");
        let ms = dp.lookup_bound(1, book, &q(&f, &["author", "ln"], false, Some("doe")));
        assert_eq!(last_ids(&ms), vec![25, 45]);
        for m in &ms {
            assert_eq!(m.head, 1);
            assert_eq!(m.ids[0], 1); // head re-attached
            assert_eq!(m.tags[0], book);
        }
        // Under allauthors (5) the same pattern also matches both.
        let ua = dp.lookup_bound(
            5,
            tag(&f, "allauthors"),
            &q(&f, &["author", "ln"], false, Some("doe")),
        );
        assert_eq!(last_ids(&ua), vec![25, 45]);
        // Under the first author (6) it matches nothing.
        let none =
            dp.lookup_bound(6, tag(&f, "author"), &q(&f, &["author", "ln"], false, Some("doe")));
        assert!(none.is_empty());
    }

    #[test]
    fn bound_lookup_is_strict_descendant() {
        // //author under an author head must not match the head itself.
        let f = fig1_book_document();
        let dp = build(&f);
        let author = tag(&f, "author");
        let ms = dp.lookup_bound(6, author, &q(&f, &["author"], false, None));
        assert!(ms.is_empty(), "head must not match itself: {ms:?}");
        // But under book it matches all three authors.
        let under_book = dp.lookup_bound(1, tag(&f, "book"), &q(&f, &["author"], false, None));
        assert_eq!(last_ids(&under_book), vec![6, 21, 41]);
    }

    #[test]
    fn bound_anchored_lookup_requires_child_step() {
        let f = fig1_book_document();
        let dp = build(&f);
        // /author/fn='jane' anchored under allauthors (5): children only.
        let ms = dp.lookup_bound(
            5,
            tag(&f, "allauthors"),
            &q(&f, &["author", "fn"], true, Some("jane")),
        );
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Anchored /fn under allauthors: fn is a grandchild, so empty.
        let none = dp.lookup_bound(5, tag(&f, "allauthors"), &q(&f, &["fn"], true, None));
        assert!(none.is_empty());
        // Anchored /author under book: author is a grandchild, so empty.
        let none = dp.lookup_bound(1, tag(&f, "book"), &q(&f, &["author"], true, None));
        assert!(none.is_empty());
    }

    #[test]
    fn row_count_is_depth_weighted() {
        let f = fig1_book_document();
        let dp = build(&f);
        // head-0 rows: nodes + valued; head rows: sum(depth) structural +
        // sum(depth of valued nodes) valued.
        let nodes = (f.node_count() - 1) as u64;
        let valued: Vec<_> = f.iter_nodes().filter(|&n| f.value(n).is_some()).collect();
        let depth_sum: u64 = f.iter_nodes().map(|n| f.depth(n) as u64).sum();
        let valued_depth_sum: u64 = valued.iter().map(|&n| f.depth(n) as u64).sum();
        let expected = (nodes + valued.len() as u64) + depth_sum + valued_depth_sum;
        assert_eq!(dp.rows(), expected);
    }

    #[test]
    fn datapaths_is_larger_than_rootpaths() {
        // Fig. 9: DATAPATHS space grows with nesting depth.
        let f = fig1_book_document();
        let dp = build(&f);
        let rp = crate::rootpaths::RootPaths::build(
            &f,
            Arc::new(BufferPool::in_memory(4096)),
            crate::rootpaths::RootPathsOptions::default(),
        );
        assert!(dp.rows() > rp.rows());
        assert!(dp.space_bytes() >= rp.space_bytes());
    }

    #[test]
    fn head_pruning_drops_rows_but_keeps_free_lookups() {
        let f = fig1_book_document();
        let book = tag(&f, "book");
        let pruned = DataPaths::build_filtered(
            &f,
            Arc::new(BufferPool::in_memory(8192)),
            DataPathsOptions::default(),
            // Keep only rows headed at book nodes (a workload whose only
            // branch point is `book`).
            Some(&|_head, tags: &[TagId]| tags[0] == book),
        );
        let full = build(&f);
        assert!(pruned.rows() < full.rows());
        assert!(pruned.is_pruned());
        // FreeIndex rows survive pruning:
        let ms = pruned.lookup_free(&q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Bound probes on retained heads still work:
        let ms = pruned.lookup_bound(1, book, &q(&f, &["author"], false, None));
        assert_eq!(ms.len(), 3);
        // ...but pruned heads return nothing (the §4.3 functionality loss).
        let none = pruned.lookup_bound(5, tag(&f, "allauthors"), &q(&f, &["author"], false, None));
        assert!(none.is_empty());
    }

    #[test]
    fn updates_maintain_bound_and_free_rows() {
        // §7: a node insertion touches one row per ancestor position
        // plus the FreeIndex row.
        let mut f = fig1_book_document();
        let tags: Vec<TagId> =
            ["book", "allauthors", "author", "fn"].iter().map(|t| f.dict_mut().intern(t)).collect();
        let mut dp = build(&f);
        let rows0 = dp.rows();
        dp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
        // depth 4: 1 free + 4 bound rows, x2 for the valued variant.
        assert_eq!(dp.rows(), rows0 + 10);
        let q = q(&f, &["author", "fn"], false, Some("ada"));
        assert_eq!(dp.lookup_free(&q).len(), 1);
        let bound = dp.lookup_bound(5, tag(&f, "allauthors"), &q);
        assert_eq!(bound.len(), 1);
        assert_eq!(bound[0].ids, vec![5, 900, 901]);
        assert!(dp.delete_path(&tags, &[1, 5, 900, 901], Some("ada")));
        assert_eq!(dp.rows(), rows0);
        assert!(dp.lookup_free(&q).is_empty());
    }

    #[test]
    fn family_position_is_fig3_row() {
        let f = fig1_book_document();
        let dp = build(&f);
        let pos = dp.family_position();
        assert_eq!(pos.schema_paths, SchemaPathSubset::AllSubpaths);
        assert_eq!(pos.idlist, IdListSublist::Full);
        assert_eq!(pos.indexed.len(), 3);
        assert_eq!(pos.indexed[0], IndexedColumn::HeadId);
    }

    #[test]
    fn fig5_rows_are_present() {
        // Probe (head=5, null, AU*) — the "5 AU null [6]" row family.
        let f = fig1_book_document();
        let dp = build(&f);
        let ms = dp.lookup_bound(5, tag(&f, "allauthors"), &q(&f, &["author"], false, None));
        let mut idlists: Vec<Vec<u64>> = ms.iter().map(|m| m.ids.clone()).collect();
        idlists.sort();
        assert_eq!(idlists, vec![vec![5, 6], vec![5, 21], vec![5, 41]]);
    }
}
