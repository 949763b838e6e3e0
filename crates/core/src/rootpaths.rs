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
//!
//! The entries of one *run* — one value and one full schema path, the
//! key bytes before the uniquifier — sort by their last node id. Under
//! pre-order ids, every IdList position then ascends with it too (two
//! nodes at one depth have their ancestors at each depth in the same
//! order), and no position exceeds it. A lookup whose caller wants only
//! entries binding some position at or above an id `t` can therefore
//! seek past every entry of the run whose last id is below `t` without
//! decoding it ([`RootPaths::for_each_free`]). That holds for every
//! built index. An inserted path carries ids of the client's choosing,
//! and it keeps the order only when it is *appended*: its ids ascend and
//! each is at or past the largest id at its depth, so it sorts last in
//! its run and above every entry there at every position. Any other
//! insert clears the index's `document_ordered` bit, and the lookups
//! stop skipping.

use crate::designator;
use crate::family::{value_key_prefix, Floor, PathIndex, PcSubpathQuery};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::persist;
use std::borrow::BorrowMut;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena, Visit, Walk};
use xtwig_rel::codec::{self, IdListCodec, KeyBuf};
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// Build options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RootPathsOptions {
    /// IdList storage codec (delta by default — §4.1 lossless).
    pub idlist: IdListCodec,
    /// B+-tree options (prefix truncation).
    pub btree: BTreeOptions,
}

/// The ROOTPATHS index.
pub struct RootPaths {
    tree: BTree,
    pub(crate) idlist: IdListCodec,
    rows: u64,
    order: DocumentOrder,
}

/// Whether the runs of a path index are in document order (see the
/// module docs), and the frontier an inserted path must reach to keep
/// them so.
#[derive(Debug, Clone)]
pub(crate) struct DocumentOrder {
    ordered: bool,
    /// `frontier[d]`: the largest id at depth `d + 1` (document roots
    /// are at depth 1) the index has held.
    frontier: Vec<u64>,
}

impl DocumentOrder {
    /// A built index's: ordered, at the forest's frontier.
    pub(crate) fn of(forest: &XmlForest) -> Self {
        let mut frontier = Vec::new();
        // In pre-order, the last node met at a depth is its largest.
        for node in forest.iter_nodes() {
            let depth = forest.depth(node) - 1;
            if frontier.len() <= depth {
                frontier.resize(depth + 1, 0);
            }
            frontier[depth] = node.0;
        }
        DocumentOrder { ordered: true, frontier }
    }

    pub(crate) fn ordered(&self) -> bool {
        self.ordered
    }

    /// Records an inserted root path `ids`, which keeps the index ordered
    /// only when it is appended.
    pub(crate) fn insert(&mut self, ids: &[u64]) {
        let appended = ids.windows(2).all(|w| w[0] < w[1])
            && ids.iter().zip(&self.frontier).all(|(id, last)| id >= last);
        self.ordered &= appended;
        for (depth, &id) in ids.iter().enumerate() {
            match self.frontier.get_mut(depth) {
                Some(last) => *last = (*last).max(id),
                None => self.frontier.push(id),
            }
        }
    }

    pub(crate) fn write(&self, w: &mut persist::ByteWriter) {
        w.push_bool(self.ordered);
        w.push_u32(self.frontier.len() as u32);
        for &id in &self.frontier {
            w.push_u64(id);
        }
    }

    pub(crate) fn read(r: &mut persist::ByteReader<'_>) -> Result<Self, persist::FormatError> {
        let ordered = r.bool()?;
        let depths = r.u32()?;
        let frontier = (0..depths).map(|_| r.u64()).collect::<Result<_, _>>()?;
        Ok(DocumentOrder { ordered, frontier })
    }
}

/// Encodes the `LeafValue` key component.
pub(crate) fn push_value_part<B: BorrowMut<Vec<u8>>>(key: &mut KeyBuf<B>, value: Option<&str>) {
    match value {
        None => {
            key.push_null();
        }
        Some(v) => {
            key.push_str(value_key_prefix(v));
        }
    }
}

/// Appends the entry key of the root path `tags` ending at node `last`:
/// leaf value, reversed schema path, terminator, uniquifier.
fn push_key(out: &mut Vec<u8>, tags: &[TagId], last: u64, value: Option<&str>) {
    let mut key = KeyBuf::appending_to(out);
    push_value_part(&mut key, value);
    designator::push_path_reversed(key.raw_mut(), tags);
    key.raw_mut().push(designator::TERMINATOR);
    key.push_u64(last);
}

/// The last id of the entry under `key`: its uniquifier, the key's last
/// component. Every entry's IdList ends with it. The baselines' keys end
/// the same way, with the id an entry stands for.
pub(crate) fn key_leaf(key: &[u8]) -> u64 {
    codec::dec_u64(key, key.len() - 9).0
}

/// What [`scan_entries`] lends of each entry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lend {
    /// The IdList, decoded behind `head` unless that is the virtual root
    /// 0, of each entry whose list then spans at least `min_len` steps.
    IdList { head: u64, min_len: usize },
    /// The last id alone, read from the key: the IdList is never decoded.
    Leaf,
}

impl Lend {
    /// A free lookup's: the whole IdList, or only its last id.
    pub(crate) fn free(leaf_only: bool) -> Self {
        if leaf_only {
            Lend::Leaf
        } else {
            Lend::IdList { head: 0, min_len: 0 }
        }
    }
}

/// The one leaf walk of both path indexes: lends what `what` asks of
/// each entry under `prefix` — its IdList decoded into `ids`, or its last
/// id from the key — with the undecoded entry key to `sink`, until `sink`
/// answers `Break`. A `floor`, which the caller may pass only for an
/// index in document order (see the module docs), decides which entries
/// are sought past undecoded. Returns the seeks made.
pub(crate) fn scan_entries(
    tree: &BTree,
    prefix: &[u8],
    idlist: IdListCodec,
    what: Lend,
    floor: Option<Floor<'_>>,
    ids: &mut Vec<u64>,
    mut sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
) -> u64 {
    let lend = |key: &[u8], payload: &[u8]| {
        let Lend::IdList { head, min_len } = what else {
            return sink(key, &[key_leaf(key)]);
        };
        ids.clear();
        if head != 0 {
            ids.push(head);
        }
        codec::decode_idlist_into(idlist, payload, ids);
        if ids.len() < min_len {
            return ControlFlow::Continue(());
        }
        sink(key, ids)
    };
    // A scan that cannot seek walks with the closure alone: the visitor
    // that can costs a few per cent on a scan that never does.
    let Some(floor) = floor else {
        tree.for_each_prefix(prefix, lend);
        return 0;
    };
    let mut seeks = 0;
    tree.visit_prefix(prefix, Leapfrog { floor, lend, run: Vec::new(), seeks: &mut seeks });
    seeks
}

/// [`scan_entries`]' visitor for a scan with a floor: `lend` decodes and
/// lends the entries the floor lets through.
struct Leapfrog<'f, 's, L> {
    floor: Floor<'f>,
    lend: L,
    /// The key bytes of the run the floor last started over for, then
    /// the uniquifier sought.
    run: Vec<u8>,
    seeks: &'s mut u64,
}

impl<L: FnMut(&[u8], &[u8]) -> ControlFlow<()>> Visit for Leapfrog<'_, '_, L> {
    fn visit(&mut self, key: &[u8], payload: &[u8]) -> Walk {
        let at = key.len() - 9;
        let last = key_leaf(key);
        if self.run.is_empty() {
            // The scan's first run: the floor has seen nothing before it.
            self.run.extend_from_slice(key);
        }
        let mut floor = (self.floor)(false);
        // A floor that has seen the lends of an earlier run may lie past
        // keys this run still binds: before skipping through a new run,
        // the floor starts over for it. Entries lent before that are
        // merged as they come, so runs are only compared here.
        if last < floor && (self.run.len() != key.len() || self.run[..at] != key[..at]) {
            self.run.clear();
            self.run.extend_from_slice(key);
            floor = (self.floor)(true);
        }
        if last < floor {
            codec::set_u64(&mut self.run, at, floor);
            *self.seeks += 1;
            return Walk::Seek;
        }
        match (self.lend)(key, payload) {
            ControlFlow::Continue(()) => Walk::Next,
            ControlFlow::Break(()) => Walk::Stop,
        }
    }

    fn seek_key(&self) -> &[u8] {
        &self.run
    }
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
            let mut run = RunArena::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                run.push_with(
                    |k| push_key(k, tags, *ids.last().unwrap(), value),
                    |v| codec::encode_idlist_into(options.idlist, ids, v),
                );
            });
            run.sort();
            run
        });
        let rows = runs.iter().map(|r| r.len() as u64).sum();
        let tree = bulk_build(pool, options.btree, merge_sorted_runs(&runs));
        let order = DocumentOrder::of(forest);
        RootPaths { tree, idlist: options.idlist, rows, order }
    }

    /// Number of stored rows (structural + valued).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True while every run of entries is in document order (see the
    /// module docs): set by the build, cleared by the first
    /// [`RootPaths::insert_path`] that is not appended, persisted with
    /// the index.
    pub fn document_ordered(&self) -> bool {
        self.order.ordered()
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
    /// path).
    ///
    /// A caller that reads nothing but the matched node asks for
    /// `leaf_only`: `ids` is then the entry's last id alone, taken from
    /// the key's uniquifier, and no IdList is decoded (§4.1's
    /// filter-style path queries, the value index's sublist).
    ///
    /// While the index is [`RootPaths::document_ordered`], a [`Floor`]
    /// decides which entries are sought past, never decoded. Returns the
    /// seeks made.
    pub fn for_each_free(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        floor: Option<Floor<'_>>,
        leaf_only: bool,
        sink: impl FnMut(&[u8], &[u64]) -> ControlFlow<()>,
    ) -> u64 {
        let floor = floor.filter(|_| self.order.ordered());
        let what = Lend::free(leaf_only);
        scan_entries(&self.tree, &self.probe_prefix(q), self.idlist, what, floor, ids, sink)
    }

    /// Inserts the index entries for a new node whose root path is
    /// `tags`/`ids` with optional leaf `value` (paper §7: updating
    /// ROOTPATHS requires one entry per new prefix — the caller invokes
    /// this once per inserted node). Its ids are the caller's: unless
    /// they append the path to the document order, the index stops
    /// counting on that order.
    pub fn insert_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) {
        self.order.insert(ids);
        let payload = codec::encode_idlist(self.idlist, ids);
        let mut key = Vec::new();
        push_key(&mut key, tags, *ids.last().unwrap(), None);
        self.tree.insert(&key, &payload);
        self.rows += 1;
        if let Some(v) = value {
            key.clear();
            push_key(&mut key, tags, *ids.last().unwrap(), Some(v));
            self.tree.insert(&key, &payload);
            self.rows += 1;
        }
    }

    /// Removes the entries for the node at the end of `tags`/`ids`
    /// (paper §7: ROOTPATHS is self-locating — the path plus value find
    /// the entries to delete without joins).
    pub fn delete_path(&mut self, tags: &[TagId], ids: &[u64], value: Option<&str>) -> bool {
        let mut key = Vec::new();
        push_key(&mut key, tags, *ids.last().unwrap(), None);
        let mut removed = self.tree.delete(&key).is_some();
        if removed {
            self.rows -= 1;
        }
        if let Some(v) = value {
            key.clear();
            push_key(&mut key, tags, *ids.last().unwrap(), Some(v));
            if self.tree.delete(&key).is_some() {
                self.rows -= 1;
                removed = true;
            }
        }
        removed
    }
}

impl RootPaths {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): codecs, row count, the document order, and
    /// the tree's shape.
    pub(crate) fn write_meta(&self, w: &mut persist::ByteWriter) {
        persist::write_codec(w, self.idlist);
        w.push_u64(self.rows);
        self.order.write(w);
        persist::write_tree_meta(w, &self.tree);
    }

    /// Reattaches a persisted ROOTPATHS index over `pool`.
    pub(crate) fn open_meta(
        r: &mut persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, persist::FormatError> {
        let idlist = persist::read_codec(r)?;
        let rows = r.u64()?;
        let order = DocumentOrder::read(r)?;
        let tree = persist::read_tree_meta(r, pool)?;
        Ok(RootPaths { tree, idlist, rows, order })
    }
}

impl PathIndex for RootPaths {
    fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xtwig_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
    use xtwig_xml::tree::fig1_book_document;
    use xtwig_xml::NodeId;

    fn build(forest: &XmlForest) -> RootPaths {
        RootPaths::build(forest, Arc::new(BufferPool::in_memory(4096)), RootPathsOptions::default())
    }

    /// Small XMark and DBLP forests.
    pub(crate) fn generated_forests() -> [(&'static str, XmlForest); 2] {
        let mut xmark = XmlForest::new();
        generate_xmark(&mut xmark, XmarkConfig { scale: 0.005, seed: 29 });
        let mut dblp = XmlForest::new();
        generate_dblp(&mut dblp, DblpConfig { scale: 0.005, seed: 29 });
        [("XMark", xmark), ("DBLP", dblp)]
    }

    /// Churns a path index built over `forest` through `apply(insert,
    /// tags, ids, value)`, which inserts (`true`) or deletes the entries
    /// of the node at the end of `tags`/`ids`: for every 61st node, deletes
    /// its entries, inserts a fresh sibling and a fresh child, then
    /// inserts the node again.
    pub(crate) fn churn(
        forest: &XmlForest,
        mut apply: impl FnMut(bool, &[TagId], &[u64], Option<&str>),
    ) {
        let mut fresh = forest.iter_nodes().map(|n| n.0).max().unwrap_or(0);
        for node in forest.iter_nodes().step_by(61) {
            let tags = forest.root_path_tags(node);
            let mut ids: Vec<u64> = forest.root_path_ids(node).iter().map(|n| n.0).collect();
            let value = forest.value_str(node).map(str::to_owned);
            apply(false, &tags, &ids, value.as_deref());
            fresh += 1;
            let mut sibling = ids.clone();
            *sibling.last_mut().unwrap() = fresh;
            apply(true, &tags, &sibling, Some("churned"));
            fresh += 1;
            let mut child_tags = tags.clone();
            child_tags.push(forest.tag(NodeId(ids[0])));
            ids.push(fresh);
            apply(true, &child_tags, &ids, None);
            ids.pop();
            apply(true, &tags, &ids, value.as_deref());
        }
    }

    /// Asserts that every entry's key ends with the last id of its
    /// IdList: the id a leaf-only scan lends without decoding the list.
    fn assert_keys_end_with_their_leaf(rp: &RootPaths, ctx: &str) {
        let (mut ids, mut entries) = (Vec::new(), 0);
        rp.tree.for_each_prefix(&[], |key, payload| {
            ids.clear();
            codec::decode_idlist_into(rp.idlist, payload, &mut ids);
            assert_eq!(ids.last(), Some(&key_leaf(key)), "{ctx}: entry {key:?}");
            entries += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(entries, rp.rows(), "{ctx}: every entry seen");
    }

    #[test]
    fn every_key_ends_with_the_last_id_of_its_idlist() {
        for (name, forest) in generated_forests() {
            let mut rp = build(&forest);
            assert_keys_end_with_their_leaf(&rp, name);
            churn(&forest, |insert, tags, ids, value| {
                if insert {
                    rp.insert_path(tags, ids, value);
                } else {
                    assert!(rp.delete_path(tags, ids, value), "{name}: {ids:?} indexed");
                }
            });
            assert!(!rp.document_ordered(), "{name}: the churn inserted out of order");
            assert_keys_end_with_their_leaf(&rp, &format!("{name} after churn"));
        }
    }

    #[test]
    fn a_leaf_only_scan_lends_the_last_ids_a_full_scan_decodes() {
        let f = fig1_book_document();
        let rp = build(&f);
        for (steps, anchored, value) in [
            (&["author", "fn"][..], false, Some("jane")),
            (&["book", "allauthors", "author"][..], true, None),
            (&["title"][..], false, None),
        ] {
            let q = q(&f, steps, anchored, value);
            let scan = |leaf_only| {
                let mut lent = Vec::new();
                rp.for_each_free(&q, &mut Vec::new(), None, leaf_only, |_, ids| {
                    lent.push(ids.to_vec());
                    ControlFlow::Continue(())
                });
                lent
            };
            let (full, leaves) = (scan(false), scan(true));
            assert!(!full.is_empty(), "{steps:?}");
            let last: Vec<Vec<u64>> =
                full.iter().map(|ids| ids[ids.len() - 1..].to_vec()).collect();
            assert_eq!(leaves, last, "{steps:?}");
        }
    }

    fn q(
        forest: &XmlForest,
        steps: &[&str],
        anchored: bool,
        value: Option<&str>,
    ) -> PcSubpathQuery {
        PcSubpathQuery::resolve(forest.dict(), steps, anchored, value).expect("tags exist")
    }

    /// The IdList of every match of `q`, sorted.
    fn free(rp: &RootPaths, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        rp.for_each_free(q, &mut Vec::new(), None, false, |_, ids| {
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

    #[test]
    fn single_lookup_answers_valued_suffix_pattern() {
        // Paper §3.2: "//author[fn='jane']" is one probe on ('jane', FA*).
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = free(&rp, &q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(ms.len(), 2);
        assert_eq!(last_ids(&ms), vec![7, 42]);
        // Full IdLists give the author (penultimate) and book (first) ids
        // without any join:
        for m in &ms {
            assert_eq!(m[0], 1);
            assert!(m[m.len() - 2] == 6 || m[m.len() - 2] == 41);
        }
    }

    #[test]
    fn structural_suffix_pattern() {
        let f = fig1_book_document();
        let rp = build(&f);
        // "//author/fn" without a value: probe (null, FA*).
        let ms = free(&rp, &q(&f, &["author", "fn"], false, None));
        assert_eq!(last_ids(&ms), vec![7, 22, 42]);
    }

    #[test]
    fn anchored_pattern_matches_exact_path_only() {
        let f = fig1_book_document();
        let rp = build(&f);
        // /book/title matches only node 2; //title also finds the chapter
        // title 48.
        let anchored = free(&rp, &q(&f, &["book", "title"], true, None));
        assert_eq!(last_ids(&anchored), vec![2]);
        let recursive = free(&rp, &q(&f, &["title"], false, None));
        assert_eq!(last_ids(&recursive), vec![2, 48]);
    }

    #[test]
    fn anchored_valued_pattern() {
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = free(&rp, &q(&f, &["book", "title"], true, Some("XML")));
        assert_eq!(last_ids(&ms), vec![2]);
        let none = free(&rp, &q(&f, &["book", "title"], true, Some("JSON")));
        assert!(none.is_empty());
    }

    #[test]
    fn prefix_paths_are_stored() {
        // §3.2: "/book" must be answerable (Index Fabric cannot).
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = free(&rp, &q(&f, &["book"], true, None));
        assert_eq!(last_ids(&ms), vec![1]);
    }

    #[test]
    fn idlists_enumerate_full_paths() {
        let f = fig1_book_document();
        let rp = build(&f);
        let ms = free(&rp, &q(&f, &["book", "allauthors", "author", "ln"], true, Some("doe")));
        assert_eq!(ms, vec![vec![1, 5, 21, 25], vec![1, 5, 41, 45]]);
    }

    #[test]
    fn row_count_matches_enumeration() {
        let f = fig1_book_document();
        let rp = build(&f);
        let nodes = (f.node_count() - 1) as u64;
        let valued = f.iter_nodes().filter(|&n| f.value(n).is_some()).count() as u64;
        assert_eq!(rp.rows(), nodes + valued);
        assert_eq!(rp.tree().len(), rp.rows());
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
        let ms = free(&rp, &q(&f, &["author", "fn"], false, Some("zoe")));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0], vec![1, 5, 1000, 1001]);
        // Self-locating delete (no joins needed).
        assert!(rp.delete_path(&dict_ids, &[1, 5, 1000, 1001], Some("zoe")));
        assert!(free(&rp, &q(&f, &["author", "fn"], false, Some("zoe"))).is_empty());
    }

    #[test]
    fn only_an_appended_path_keeps_the_document_order() {
        let f = fig1_book_document();
        let built = DocumentOrder::of(&f);
        assert!(built.ordered);
        // One document: its root is the largest id at depth 1, and the
        // frontier is the last node at each depth.
        assert_eq!(built.frontier[0], 1);
        for depth in 1..=built.frontier.len() {
            let last = f.iter_nodes().filter(|&n| f.depth(n) == depth).last().unwrap();
            assert_eq!(built.frontier[depth - 1], last.0, "depth {depth}");
        }
        let appended = |order: &DocumentOrder, ids: &[u64]| {
            let mut order = order.clone();
            order.insert(ids);
            order
        };
        let past = built.frontier.iter().max().unwrap() + 1;
        // Past the frontier at every depth, deeper than any node so far:
        // appended, and the frontier moves with it.
        let grown = appended(&built, &[1, past, past + 1, past + 2, past + 3, past + 4, past + 5]);
        assert!(grown.ordered);
        assert_eq!(grown.frontier.len(), 7);
        assert_eq!(grown.frontier[1], past);
        // An existing ancestor that is not the last at its depth, ids that
        // do not ascend, or ids behind the moved frontier: not appended.
        assert!(!appended(&built, &[1, 5, past]).ordered);
        assert!(!appended(&built, &[1, past + 1, past]).ordered);
        assert!(!appended(&grown, &[1, past - 1]).ordered);
        // Once cleared, it stays cleared; the frontier survives the
        // catalog codec either way.
        let cleared = appended(&appended(&built, &[1, 5, past]), &[1, past + 9]);
        assert!(!cleared.ordered);
        for order in [&built, &grown, &cleared] {
            let mut w = persist::ByteWriter::new();
            order.write(&mut w);
            let bytes = w.finish();
            let read = DocumentOrder::read(&mut persist::ByteReader::new(&bytes)).unwrap();
            assert_eq!((read.ordered, &read.frontier), (order.ordered, &order.frontier));
        }
    }

    #[test]
    fn unknown_value_returns_empty_fast() {
        let f = fig1_book_document();
        let rp = build(&f);
        assert!(free(&rp, &q(&f, &["author", "fn"], false, Some("zzz"))).is_empty());
    }
}
