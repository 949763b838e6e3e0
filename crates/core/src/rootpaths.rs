//! The ROOTPATHS index (paper §3.2).
//!
//! A B+-tree on `LeafValue · ReverseSchemaPath` over all *prefixes of
//! root-to-leaf paths*, returning the complete IdList. Differences from
//! the Index Fabric it generalizes (paper §3.2): prefix paths are stored
//! too (queries need not reach a leaf), and the full IdList is returned
//! (branch-point ids come out of the lookup itself).
//!
//! Key layout (order-preserving):
//!
//! ```text
//! [ LeafValue: null | escaped string prefix ]
//! [ ReverseSchemaPath designators ]
//! [ 0x01 terminator ]
//! [ uniquifier: last node id, 9 bytes ]
//! ```
//!
//! The terminator is what separates the two probe shapes: an anchored
//! pattern (`/a/b`) includes it (exact path match), a `//`-headed pattern
//! omits it (pure prefix probe = suffix match on the forward path).
//! Entry payload: the delta-encoded IdList (paper §4.1).

use crate::designator;
use crate::family::{
    value_key_prefix, FamilyPosition, FreeIndex, IdListSublist, IndexedColumn, PathIndex,
    PathMatch, PcSubpathQuery, SchemaPathSubset,
};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::persist;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// Which IdList sublist to store (paper §4.1's lossy pruning).
///
/// "With some knowledge about the query workload, it is also possible to
/// prune the IdLists … This compression of IdLists results in loss in
/// functionality": a `LastOnly` index answers filter-style path queries
/// (the Index Fabric's query class) but cannot supply branch-point ids,
/// so it cannot drive ad hoc twig joins. The query engine therefore only
/// accepts `Full` indexes; `LastOnly` is for the §5.2.5 space study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IdListKeep {
    /// Store the complete IdList (the paper's default).
    #[default]
    Full,
    /// Store only the final node id (extreme workload pruning).
    LastOnly,
}

/// Build options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RootPathsOptions {
    /// IdList storage codec (delta by default — §4.1 lossless).
    pub idlist: IdListCodec,
    /// IdList sublist to keep (§4.1 lossy pruning).
    pub keep: IdListKeep,
    /// B+-tree options (prefix truncation, fill factor).
    pub btree: BTreeOptions,
}

/// The ROOTPATHS index.
pub struct RootPaths {
    tree: BTree,
    idlist: IdListCodec,
    keep: IdListKeep,
    rows: u64,
}

/// Encodes the `LeafValue` key component.
pub(crate) fn push_value_part(key: &mut KeyBuf, value: Option<&str>) {
    match value {
        None => {
            key.push_null();
        }
        Some(v) => {
            key.push_str(value_key_prefix(v));
        }
    }
}

/// Position just past the `LeafValue` component at `pos`.
pub(crate) fn skip_value_part(bytes: &[u8], pos: usize) -> usize {
    codec::dec_null(bytes, pos).unwrap_or_else(|| codec::skip_str(bytes, pos))
}

impl RootPaths {
    /// Builds the index from `forest` into `pool`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>, options: RootPathsOptions) -> Self {
        Self::build_sharded(forest, pool, options, &ShardPlan::sequential(forest))
    }

    /// Builds the index shard-parallel: each shard enumerates and sorts
    /// its own entry run on the plan's worker pool, and the merged runs
    /// are bulk-loaded in one pass — the same strictly increasing entry
    /// sequence (and therefore the same page image) as [`Self::build`].
    pub fn build_sharded(
        forest: &XmlForest,
        pool: Arc<BufferPool>,
        options: RootPathsOptions,
        plan: &ShardPlan,
    ) -> Self {
        let runs = map_shards(plan, |range| {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                let mut key = KeyBuf::new();
                push_value_part(&mut key, value);
                let mut path = Vec::with_capacity(tags.len() + 1);
                designator::push_path_reversed(&mut path, tags);
                path.push(designator::TERMINATOR);
                key.push_raw(&path);
                key.push_u64(*ids.last().unwrap());
                let stored: &[u64] = match options.keep {
                    IdListKeep::Full => ids,
                    IdListKeep::LastOnly => &ids[ids.len() - 1..],
                };
                entries.push((key.finish(), codec::encode_idlist(options.idlist, stored)));
            });
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            entries
        });
        let rows = runs.iter().map(|r| r.len() as u64).sum();
        let tree = bulk_build(pool, options.btree, merge_sorted_runs(runs));
        RootPaths { tree, idlist: options.idlist, keep: options.keep, rows }
    }

    /// Number of stored rows (structural + valued).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The underlying tree (benchmarks read its shape).
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    fn probe_prefix(&self, q: &PcSubpathQuery) -> Vec<u8> {
        let mut key = KeyBuf::new();
        push_value_part(&mut key, q.value.as_deref());
        let mut path = Vec::with_capacity(q.tags.len() + 1);
        designator::push_path_reversed(&mut path, &q.tags);
        if q.anchored {
            path.push(designator::TERMINATOR);
        }
        key.push_raw(&path);
        key.finish()
    }

    /// The streaming FreeIndex lookup — the one scan of this index.
    /// Calls `sink(key, ids)` per matching entry, in key order, until it
    /// answers `Break`: `ids` is the entry's IdList decoded into the
    /// caller's reused `ids` buffer, `key` the entry key lent from the
    /// leaf page, left undecoded (an IdList is as long as its schema
    /// path; [`FreeIndex::lookup_free`] is the collector that also
    /// decodes the path out of the key).
    pub fn for_each_free(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        mut sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) {
        self.tree.for_each_prefix(&self.probe_prefix(q), |key, payload| {
            ids.clear();
            codec::decode_idlist_into(self.idlist, payload, ids);
            sink(key, ids)
        });
    }

    /// The stored IdList sublist.
    pub fn idlist_keep(&self) -> IdListKeep {
        self.keep
    }

    /// Inserts the index entries for a new node whose root path is
    /// `tags`/`ids` with optional leaf `value` (paper §7: updating
    /// ROOTPATHS requires one entry per new prefix — the caller invokes
    /// this once per inserted node).
    pub fn insert_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) {
        let payload = codec::encode_idlist(self.idlist, ids);
        let mut key = KeyBuf::new();
        push_value_part(&mut key, None);
        let mut path = Vec::with_capacity(tags.len() + 1);
        designator::push_path_reversed(&mut path, tags);
        path.push(designator::TERMINATOR);
        key.push_raw(&path);
        key.push_u64(*ids.last().unwrap());
        self.tree.insert(&key.finish(), &payload);
        self.rows += 1;
        if let Some(v) = value {
            let mut key = KeyBuf::new();
            push_value_part(&mut key, Some(v));
            key.push_raw(&path);
            key.push_u64(*ids.last().unwrap());
            self.tree.insert(&key.finish(), &payload);
            self.rows += 1;
        }
    }

    /// Removes the entries for the node at the end of `tags`/`ids`
    /// (paper §7: ROOTPATHS is self-locating — the path plus value find
    /// the entries to delete without joins).
    pub fn delete_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) -> bool {
        let mut path = Vec::with_capacity(tags.len() + 1);
        designator::push_path_reversed(&mut path, tags);
        path.push(designator::TERMINATOR);
        let mut key = KeyBuf::new();
        push_value_part(&mut key, None);
        key.push_raw(&path);
        key.push_u64(*ids.last().unwrap());
        let mut removed = self.tree.delete(&key.finish()).is_some();
        if removed {
            self.rows -= 1;
        }
        if let Some(v) = value {
            let mut key = KeyBuf::new();
            push_value_part(&mut key, Some(v));
            key.push_raw(&path);
            key.push_u64(*ids.last().unwrap());
            if self.tree.delete(&key.finish()).is_some() {
                self.rows -= 1;
                removed = true;
            }
        }
        removed
    }
}

impl RootPaths {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): codecs, row count, and the tree's shape.
    pub(crate) fn write_meta(&self, w: &mut persist::ByteWriter) {
        persist::write_codec(w, self.idlist);
        w.push_u8(match self.keep {
            IdListKeep::Full => 0,
            IdListKeep::LastOnly => 1,
        });
        w.push_u64(self.rows);
        persist::write_tree_meta(w, &self.tree);
    }

    /// Reattaches a persisted ROOTPATHS index over `pool`.
    pub(crate) fn open_meta(
        r: &mut persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, persist::FormatError> {
        let idlist = persist::read_codec(r)?;
        let keep = match r.u8()? {
            0 => IdListKeep::Full,
            1 => IdListKeep::LastOnly,
            b => return persist::format_err(format!("unknown IdList sublist {b}")),
        };
        let rows = r.u64()?;
        let tree = persist::read_tree_meta(r, pool)?;
        Ok(RootPaths { tree, idlist, keep, rows })
    }
}

impl PathIndex for RootPaths {
    fn name(&self) -> &'static str {
        "ROOTPATHS"
    }

    fn family_position(&self) -> FamilyPosition {
        FamilyPosition {
            schema_paths: SchemaPathSubset::RootToLeafPrefixes,
            idlist: IdListSublist::Full,
            indexed: vec![IndexedColumn::LeafValue, IndexedColumn::ReverseSchemaPath],
        }
    }

    fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

impl FreeIndex for RootPaths {
    fn lookup_free(&self, q: &PcSubpathQuery) -> Vec<PathMatch> {
        let mut out = Vec::new();
        self.for_each_free(q, &mut Vec::new(), |key, ids| {
            let (tags, _) = designator::decode_path_reversed(key, skip_value_part(key, 0));
            debug_assert!(self.keep == IdListKeep::LastOnly || tags.len() == ids.len());
            out.push(PathMatch { head: 0, tags, ids: ids.to_vec() });
            ControlFlow::Continue(())
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn build(forest: &XmlForest) -> RootPaths {
        RootPaths::build(forest, Arc::new(BufferPool::in_memory(4096)), RootPathsOptions::default())
    }

    fn q(
        forest: &XmlForest,
        steps: &[&str],
        anchored: bool,
        value: Option<&str>,
    ) -> PcSubpathQuery {
        PcSubpathQuery::resolve(forest.dict(), steps, anchored, value).expect("tags exist")
    }

    fn last_ids(ms: &[PathMatch]) -> Vec<u64> {
        let mut v: Vec<u64> = ms.iter().map(|m| m.last_id()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_lookup_answers_valued_suffix_pattern() {
        // Paper §3.2: "//author[fn='jane']" is one probe on ('jane', FA*).
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = rp.lookup_free(&q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(ms.len(), 2);
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Full IdLists give the author (penultimate) and book (first) ids
        // without any join:
        for m in &ms {
            assert_eq!(m.ids[0], 1);
            assert!(m.id_from_end(1) == 6 || m.id_from_end(1) == 41);
        }
    }

    #[test]
    fn structural_suffix_pattern() {
        let f = fig1_book_document();
        let rp = build(&f);
        // "//author/fn" without a value: probe (null, FA*).
        let ms = rp.lookup_free(&q(&f, &["author", "fn"], false, None));
        assert_eq!(last_ids(&ms), vec![7, 22, 42]);
    }

    #[test]
    fn anchored_pattern_matches_exact_path_only() {
        let f = fig1_book_document();
        let rp = build(&f);
        // /book/title matches only node 2; //title also finds the chapter
        // title 48.
        let anchored = rp.lookup_free(&q(&f, &["book", "title"], true, None));
        assert_eq!(last_ids(&anchored), vec![2]);
        let recursive = rp.lookup_free(&q(&f, &["title"], false, None));
        assert_eq!(last_ids(&recursive), vec![2, 48]);
    }

    #[test]
    fn anchored_valued_pattern() {
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = rp.lookup_free(&q(&f, &["book", "title"], true, Some("XML")));
        assert_eq!(last_ids(&ms), vec![2]);
        let none = rp.lookup_free(&q(&f, &["book", "title"], true, Some("JSON")));
        assert!(none.is_empty());
    }

    #[test]
    fn prefix_paths_are_stored() {
        // §3.2: "/book" must be answerable (Index Fabric cannot).
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = rp.lookup_free(&q(&f, &["book"], true, None));
        assert_eq!(last_ids(&ms), vec![1]);
    }

    #[test]
    fn idlists_enumerate_full_paths() {
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = rp.lookup_free(&q(&f, &["book", "allauthors", "author", "ln"], true, Some("doe")));
        let mut idlists: Vec<Vec<u64>> = ms.iter().map(|m| m.ids.clone()).collect();
        idlists.sort();
        assert_eq!(idlists, vec![vec![1, 5, 21, 25], vec![1, 5, 41, 45]]);
    }

    #[test]
    fn row_count_matches_enumeration() {
        let f = fig1_book_document();
        let rp = build(&f);
        let nodes = (f.node_count() - 1) as u64;
        let valued = f.iter_nodes().filter(|&n| f.value(n).is_some()).count() as u64;
        assert_eq!(rp.rows(), nodes + valued);
        assert_eq!(rp.tree().len(), rp.rows());
    }

    #[test]
    fn family_position_is_fig3_row() {
        let f = fig1_book_document();
        let rp = build(&f);
        let pos = rp.family_position();
        assert_eq!(pos.schema_paths, SchemaPathSubset::RootToLeafPrefixes);
        assert_eq!(pos.idlist, IdListSublist::Full);
        assert_eq!(pos.indexed, vec![IndexedColumn::LeafValue, IndexedColumn::ReverseSchemaPath]);
        assert!(rp.space_bytes() > 0);
    }

    #[test]
    fn update_roundtrip() {
        // §7's example: insert an author with a name under the book.
        let mut f = fig1_book_document();
        let rp_rows_before = build(&f).rows();
        // Simulate appending nodes: reuse tag ids, fabricate fresh node ids.
        let dict_ids: Vec<TagId> =
            ["book", "allauthors", "author", "fn"].iter().map(|t| f.dict_mut().intern(t)).collect();
        let mut rp = build(&f);
        rp.insert_path(&dict_ids[..3], &[1, 5, 1000], None);
        rp.insert_path(&dict_ids, &[1, 5, 1000, 1001], Some("zoe"));
        assert_eq!(rp.rows(), rp_rows_before + 3);
        let ms = rp.lookup_free(&q(&f, &["author", "fn"], false, Some("zoe")));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].ids, vec![1, 5, 1000, 1001]);
        // Self-locating delete (no joins needed).
        assert!(rp.delete_path(&dict_ids, &[1, 5, 1000, 1001], Some("zoe")));
        assert!(rp.lookup_free(&q(&f, &["author", "fn"], false, Some("zoe"))).is_empty());
    }

    #[test]
    fn last_only_pruning_trades_space_for_branch_ids() {
        // §4.1 lossy pruning: keep only the final id. Filter-style
        // lookups still work; branch-point extraction is gone.
        let f = fig1_book_document();
        let full = build(&f);
        let pruned = RootPaths::build(
            &f,
            Arc::new(BufferPool::in_memory(4096)),
            RootPathsOptions { keep: IdListKeep::LastOnly, ..Default::default() },
        );
        assert!(pruned.space_bytes() <= full.space_bytes());
        let q = q(&f, &["author", "fn"], false, Some("jane"));
        let full_ms = full.lookup_free(&q);
        let pruned_ms = pruned.lookup_free(&q);
        assert_eq!(last_ids(&full_ms), last_ids(&pruned_ms));
        assert!(pruned_ms.iter().all(|m| m.ids.len() == 1), "only the leaf id remains");
        assert!(full_ms.iter().all(|m| m.ids.len() == 4), "full index keeps the chain");
    }

    #[test]
    fn unknown_value_returns_empty_fast() {
        let f = fig1_book_document();
        let rp = build(&f);
        assert!(rp.lookup_free(&q(&f, &["author", "fn"], false, Some("zzz"))).is_empty());
    }
}
