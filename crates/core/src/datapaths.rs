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
//! Stored IdLists exclude the head (Fig. 5); a bound lookup re-attaches
//! it, so each lent IdList is aligned with the schema path from the
//! head down.
//!
//! The FreeIndex rows keep ROOTPATHS' run order, and with it the
//! document-order bit that lets [`DataPaths::for_each_free`] seek past
//! entries a caller has no use for (see [`crate::rootpaths`]).

use crate::designator;
use crate::family::{count_under, value_key_prefix, Floor, PathIndex, PcSubpathQuery};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::{for_each_root_path_in, for_each_subpath_in};
use crate::rootpaths::{push_value_part, scan_entries, DocumentOrder, Lend};
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
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
    pub(crate) idlist: IdListCodec,
    rows: u64,
    pruned: bool,
    order: DocumentOrder,
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
            let mut run = RunArena::new();
            let mut push =
                |head: u64, tags: &[TagId], ids: &[u64], stored: &[u64], value: Option<&str>| {
                    run.push_with(
                        |k| Self::push_key(k, head, tags, *ids.last().unwrap(), value),
                        |v| codec::encode_idlist_into(options.idlist, stored, v),
                    );
                };
            // FreeIndex rows: head = virtual root, IdList = full root path.
            for_each_root_path_in(forest, range, |tags, ids, value| {
                push(0, tags, ids, ids, value);
            });
            // BoundIndex rows: every subpath; stored IdList excludes the head.
            for_each_subpath_in(forest, range, |head, tags, ids, value| {
                if let Some(f) = filter {
                    if !f(head, tags) {
                        return;
                    }
                }
                push(head, tags, ids, &ids[1..], value);
            });
            run.sort();
            run
        });
        let rows = runs.iter().map(|r| r.len() as u64).sum();
        let tree = bulk_build(pool, options.btree, merge_sorted_runs(&runs));
        let order = DocumentOrder::of(forest);
        DataPaths { tree, idlist: options.idlist, rows, pruned: filter.is_some(), order }
    }

    /// Appends the key of the row under `head` for the path `tags`
    /// ending at node `last`, valued or not.
    fn push_key(out: &mut Vec<u8>, head: u64, tags: &[TagId], last: u64, value: Option<&str>) {
        let mut key = KeyBuf::appending_to(out);
        key.push_u64(head);
        push_value_part(&mut key, value);
        designator::push_path_reversed(key.raw_mut(), tags);
        key.raw_mut().push(designator::TERMINATOR);
        key.push_u64(last);
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

    /// True while the FreeIndex runs are in document order: set by the
    /// build, cleared by the first [`DataPaths::insert_path`] that is not
    /// appended (see [`crate::rootpaths`]), persisted with the index.
    pub fn document_ordered(&self) -> bool {
        self.order.ordered()
    }

    /// Inserts the index entries for a new node whose full root path is
    /// `tags`/`ids` with optional leaf `value` (paper §7): one FreeIndex
    /// row (head 0) plus one BoundIndex row per ancestor position —
    /// depth + 1 entries per value variant. Its ids are the caller's:
    /// unless they append the path to the document order, the index
    /// stops counting on that order.
    pub fn insert_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) {
        self.order.insert(ids);
        let mut key = Vec::new();
        let mut add = |head: u64, t: &[TagId], full: &[u64], stored: &[u64], v: Option<&str>| {
            key.clear();
            Self::push_key(&mut key, head, t, *full.last().unwrap(), v);
            self.tree.insert(&key, &codec::encode_idlist(self.idlist, stored));
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
        let mut key = Vec::new();
        let mut del = |head: u64, t: &[TagId], full: &[u64], v: Option<&str>| {
            key.clear();
            Self::push_key(&mut key, head, t, *full.last().unwrap(), v);
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
        let path = key.raw_mut();
        designator::push_path_reversed(path, tags);
        if anchored {
            // Under a real head the first pattern step is a *child* of
            // the head: the stored path must be exactly head_tag/t1/…/tk.
            if let Some(tag) = head_tag {
                designator::push_designator(path, tag);
            }
            path.push(designator::TERMINATOR);
        }
        key.finish()
    }

    /// The streaming FreeIndex lookup: `sink(key, ids)` per match until
    /// it answers `Break`, `ids` decoded into the caller's reused
    /// buffer, `key` lent undecoded from the leaf page. As for
    /// [`RootPaths::for_each_free`](crate::rootpaths::RootPaths::for_each_free),
    /// `leaf_only` lends the key's last id instead of the decoded
    /// IdList, and while the index is [`DataPaths::document_ordered`], a
    /// [`Floor`] decides which entries are sought past undecoded.
    /// Returns the seeks made.
    pub fn for_each_free(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        floor: Option<Floor<'_>>,
        leaf_only: bool,
        sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) -> u64 {
        let prefix = Self::probe_prefix(0, None, &q.tags, q.anchored, q.value.as_deref());
        let floor = floor.filter(|_| self.order.ordered());
        scan_entries(&self.tree, &prefix, self.idlist, Lend::free(leaf_only), floor, ids, sink)
    }

    /// Counts the nodes of `tag` whose value is `v`: the valued
    /// FreeIndex rows under `0 · value_part(v) · des(tag)`, one per node,
    /// up to the first count `enough` accepts (see
    /// [`QueryEngine::value_instances`](crate::engine::QueryEngine::value_instances)).
    pub(crate) fn count_value(&self, tag: TagId, v: &str, enough: impl FnMut(u64) -> bool) -> u64 {
        let value = codec::str_component(value_key_prefix(v));
        let prefix =
            codec::u64_component(0).into_iter().chain(value).chain(designator::designator(tag));
        count_under(&self.tree, prefix, enough)
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
        // Bound probes always decode: the extension binds the tail ids,
        // and `min_len` counts the list.
        let what = Lend::IdList { head, min_len: probe.min_len };
        scan_entries(&self.tree, &probe.key, self.idlist, what, None, ids, sink);
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
        self.order.write(w);
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
        let order = DocumentOrder::read(r)?;
        let tree = crate::persist::read_tree_meta(r, pool)?;
        Ok(DataPaths { tree, idlist, rows, pruned, order })
    }
}

impl PathIndex for DataPaths {
    fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
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

    /// The IdList of every free match of `q`, sorted.
    fn free(dp: &DataPaths, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        dp.for_each_free(q, &mut Vec::new(), None, false, |_, ids| {
            out.push(ids.to_vec());
            ControlFlow::Continue(())
        });
        out.sort();
        out
    }

    /// The IdList of every match of `q` under `head`, the head first,
    /// sorted.
    fn bound(dp: &DataPaths, head: u64, head_tag: TagId, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
        let mut probe = dp.bound_probe(head_tag, &q.tags, q.anchored, q.value.as_deref());
        let mut out = Vec::new();
        dp.for_each_bound(&mut probe, head, &mut Vec::new(), |_, ids| {
            out.push(ids.to_vec());
            ControlFlow::Continue(())
        });
        out.sort();
        out
    }

    fn last_ids(ms: &[Vec<u64>]) -> Vec<u64> {
        let mut v: Vec<u64> = ms.iter().map(|m| m[m.len() - 1]).collect();
        v.sort_unstable();
        v
    }

    /// Asserts that every entry's key ends with the last id of its
    /// IdList, the head re-attached (a BoundIndex row of the head alone
    /// stores an empty list): the id a leaf-only scan lends without
    /// decoding the list.
    fn assert_keys_end_with_their_leaf(dp: &DataPaths, ctx: &str) {
        let (mut ids, mut entries) = (Vec::new(), 0);
        dp.tree.for_each_prefix(&[], |key, payload| {
            let (head, _) = codec::dec_u64(key, 0);
            ids.clear();
            if head != 0 {
                ids.push(head);
            }
            codec::decode_idlist_into(dp.idlist, payload, &mut ids);
            assert_eq!(ids.last(), Some(&crate::rootpaths::key_leaf(key)), "{ctx}: {key:?}");
            entries += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(entries, dp.rows(), "{ctx}: every entry seen");
    }

    #[test]
    fn every_key_ends_with_the_last_id_of_its_idlist() {
        for (name, forest) in crate::rootpaths::tests::generated_forests() {
            let mut dp = DataPaths::build(
                &forest,
                Arc::new(BufferPool::in_memory(4096)),
                DataPathsOptions::default(),
            );
            assert_keys_end_with_their_leaf(&dp, name);
            crate::rootpaths::tests::churn(&forest, |insert, tags, ids, value| {
                if insert {
                    dp.insert_path(tags, ids, value);
                } else {
                    assert!(dp.delete_path(tags, ids, value), "{name}: {ids:?} indexed");
                }
            });
            assert!(!dp.document_ordered(), "{name}: the churn inserted out of order");
            assert_keys_end_with_their_leaf(&dp, &format!("{name} after churn"));
        }
    }

    #[test]
    fn free_lookup_equals_rootpaths_semantics() {
        let f = fig1_book_document();
        let dp = build(&f);
        let ms = free(&dp, &q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(last_ids(&ms), vec![7, 42]);
        for m in &ms {
            assert_eq!(m[0], 1); // full root IdList
        }
        let anchored = free(&dp, &q(&f, &["book", "title"], true, None));
        assert_eq!(last_ids(&anchored), vec![2]);
    }

    #[test]
    fn bound_lookup_restricts_to_head_subtree() {
        // Paper §3.3's example: probe authors under a known book id.
        let f = fig1_book_document();
        let dp = build(&f);
        let book = tag(&f, "book");
        let ms = bound(&dp, 1, book, &q(&f, &["author", "ln"], false, Some("doe")));
        assert_eq!(last_ids(&ms), vec![25, 45]);
        for m in &ms {
            assert_eq!(m[0], 1); // head re-attached
        }
        // Under allauthors (5) the same pattern also matches both.
        let ua =
            bound(&dp, 5, tag(&f, "allauthors"), &q(&f, &["author", "ln"], false, Some("doe")));
        assert_eq!(last_ids(&ua), vec![25, 45]);
        // Under the first author (6) it matches nothing.
        let none = bound(&dp, 6, tag(&f, "author"), &q(&f, &["author", "ln"], false, Some("doe")));
        assert!(none.is_empty());
    }

    #[test]
    fn bound_lookup_is_strict_descendant() {
        // //author under an author head must not match the head itself.
        let f = fig1_book_document();
        let dp = build(&f);
        let author = tag(&f, "author");
        let ms = bound(&dp, 6, author, &q(&f, &["author"], false, None));
        assert!(ms.is_empty(), "head must not match itself: {ms:?}");
        // But under book it matches all three authors.
        let under_book = bound(&dp, 1, tag(&f, "book"), &q(&f, &["author"], false, None));
        assert_eq!(last_ids(&under_book), vec![6, 21, 41]);
    }

    #[test]
    fn bound_anchored_lookup_requires_child_step() {
        let f = fig1_book_document();
        let dp = build(&f);
        // /author/fn='jane' anchored under allauthors (5): children only.
        let ms =
            bound(&dp, 5, tag(&f, "allauthors"), &q(&f, &["author", "fn"], true, Some("jane")));
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Anchored /fn under allauthors: fn is a grandchild, so empty.
        let none = bound(&dp, 5, tag(&f, "allauthors"), &q(&f, &["fn"], true, None));
        assert!(none.is_empty());
        // Anchored /author under book: author is a grandchild, so empty.
        let none = bound(&dp, 1, tag(&f, "book"), &q(&f, &["author"], true, None));
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
        let ms = free(&pruned, &q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Bound probes on retained heads still work:
        let ms = bound(&pruned, 1, book, &q(&f, &["author"], false, None));
        assert_eq!(ms.len(), 3);
        // ...but pruned heads return nothing (the §4.3 functionality loss).
        let none = bound(&pruned, 5, tag(&f, "allauthors"), &q(&f, &["author"], false, None));
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
        assert_eq!(free(&dp, &q).len(), 1);
        assert_eq!(bound(&dp, 5, tag(&f, "allauthors"), &q), vec![vec![5, 900, 901]]);
        assert!(dp.delete_path(&tags, &[1, 5, 900, 901], Some("ada")));
        assert_eq!(dp.rows(), rows0);
        assert!(free(&dp, &q).is_empty());
    }

    #[test]
    fn fig5_rows_are_present() {
        // Probe (head=5, null, AU*) — the "5 AU null [6]" row family.
        let f = fig1_book_document();
        let dp = build(&f);
        let ms = bound(&dp, 5, tag(&f, "allauthors"), &q(&f, &["author"], false, None));
        assert_eq!(ms, vec![vec![5, 6], vec![5, 21], vec![5, 41]]);
    }
}
