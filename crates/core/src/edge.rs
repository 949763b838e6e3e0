//! The Edge-table baseline (paper §5.1.2).
//!
//! XML stored as one row per node in an Edge relation
//! `(child, parent, tag, value)` [Florescu/Kossmann], indexed the way the
//! paper's Edge configuration is: a Lore-style **value index** on
//! `(tag, value) → node`, a **forward link** index on
//! `(parent, tag) → child`, and a **backward link** index on
//! `child → (parent, parent-tag)` [McHugh/Widom].
//!
//! Path evaluation performs "a join operation for each step along the
//! path" (§5.2.1): candidates come from one value-index probe, then each
//! parent-child step is an index-nested-loop step through the backward
//! link index. The per-candidate, per-step probes are exactly the cost
//! the paper attributes to this baseline.

use crate::family::{value_key_prefix, PathIndex, PcSubpathQuery};
use crate::parallel::{map_shards, ShardPlan};
use crate::rootpaths::key_leaf;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
use xtwig_rel::codec::KeyBuf;
use xtwig_rel::value::{serialize_tuple, Value};
use xtwig_rel::HeapFile;
use xtwig_storage::BufferPool;
use xtwig_xml::{NodeId, TagId, XmlForest};

/// Edge table plus its three Lore-style indexes.
pub struct EdgeTable {
    heap: HeapFile,
    /// `(tag, value, child) → ()` — the value index (structural rows have
    /// a null value component, so a `(tag)` prefix probe enumerates a tag).
    node_idx: BTree,
    /// `(parent, tag, child) → ()` — the forward link index.
    flink: BTree,
    /// `child → (parent, parent_tag)` — the backward link index.
    blink: BTree,
}

fn push_node_key(out: &mut Vec<u8>, tag: TagId, value: Option<&str>, child: u64) {
    let mut k = KeyBuf::appending_to(out);
    k.push_i64(i64::from(tag.0 as i32));
    match value {
        None => {
            k.push_null();
        }
        Some(v) => {
            k.push_str(value_key_prefix(v));
        }
    }
    k.push_u64(child);
}

fn push_flink_key(out: &mut Vec<u8>, parent: u64, tag: TagId, child: u64) {
    KeyBuf::appending_to(out).push_u64(parent).push_i64(i64::from(tag.0 as i32)).push_u64(child);
}

fn push_blink_payload(out: &mut Vec<u8>, parent: u64, parent_tag: TagId) {
    out.extend_from_slice(&parent.to_le_bytes());
    out.extend_from_slice(&parent_tag.0.to_le_bytes());
}

fn decode_blink(bytes: &[u8]) -> (u64, TagId) {
    let mut p = [0u8; 8];
    p.copy_from_slice(&bytes[0..8]);
    let mut t = [0u8; 4];
    t.copy_from_slice(&bytes[8..12]);
    (u64::from_le_bytes(p), TagId(u32::from_le_bytes(t)))
}

impl EdgeTable {
    /// Builds the Edge table and its indexes from `forest` into `pool`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        Self::build_sharded(forest, pool, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`]: workers serialize each shard's
    /// heap tuples and sort its index-entry runs; the calling thread
    /// then appends the tuples in shard (= document) order and
    /// bulk-loads the merged runs, reproducing the sequential page
    /// image exactly (heap pages first, then the three trees).
    ///
    /// With one shard (or one worker) the heap tuples stream straight
    /// into the heap file instead of being buffered — holding the whole
    /// serialized tuple set in memory is the price of cross-thread
    /// enumeration and must not be paid by the sequential path.
    pub fn build_sharded(forest: &XmlForest, pool: Arc<BufferPool>, plan: &ShardPlan) -> Self {
        let mut heap = HeapFile::new(pool.clone());
        let buffered = plan.workers() > 1 && plan.shard_count() > 1;
        type ShardOut = (Vec<Vec<u8>>, [RunArena; 3]);
        let enumerate = |range, sink: &mut dyn FnMut(Vec<u8>)| {
            let [mut node_run, mut flink_run, mut blink_run] = <[RunArena; 3]>::default();
            for node in forest.iter_range(range) {
                let parent = forest.parent(node).unwrap_or(NodeId::VIRTUAL_ROOT);
                let tag = forest.tag(node);
                let value = forest.value_str(node);
                sink(serialize_tuple(&[
                    Value::id(node.0),
                    Value::id(parent.0),
                    Value::Int(i64::from(tag.0)),
                    value.map_or(Value::Null, |v| Value::Str(v.to_owned())),
                ]));
                node_run.push_with(|k| push_node_key(k, tag, value, node.0), |_| {});
                flink_run.push_with(|k| push_flink_key(k, parent.0, tag, node.0), |_| {});
                let parent_tag = forest.tag(parent);
                blink_run.push_with(
                    |k| {
                        KeyBuf::appending_to(k).push_u64(node.0);
                    },
                    |v| push_blink_payload(v, parent.0, parent_tag),
                );
            }
            let mut runs = [node_run, flink_run, blink_run];
            runs.iter_mut().for_each(RunArena::sort);
            runs
        };
        let mut node_runs = Vec::with_capacity(plan.shard_count());
        let mut flink_runs = Vec::with_capacity(plan.shard_count());
        let mut blink_runs = Vec::with_capacity(plan.shard_count());
        let mut collect = |[n, f, b]: [RunArena; 3]| {
            node_runs.push(n);
            flink_runs.push(f);
            blink_runs.push(b);
        };
        if buffered {
            let shards: Vec<ShardOut> = map_shards(plan, |range| {
                let mut tuples = Vec::new();
                let runs = enumerate(range, &mut |t| tuples.push(t));
                (tuples, runs)
            });
            for (tuples, runs) in shards {
                for t in &tuples {
                    heap.append(t);
                }
                collect(runs);
            }
        } else {
            for &range in plan.ranges() {
                collect(enumerate(range, &mut |t| {
                    heap.append(&t);
                }));
            }
        }
        let opts = BTreeOptions::default();
        EdgeTable {
            heap,
            node_idx: bulk_build(pool.clone(), opts, merge_sorted_runs(&node_runs)),
            flink: bulk_build(pool.clone(), opts, merge_sorted_runs(&flink_runs)),
            blink: bulk_build(pool, opts, merge_sorted_runs(&blink_runs)),
        }
    }

    /// Lends the id of every node with `tag` and (optionally) `value` to
    /// `visit` — in id order for a given value — until it answers
    /// `Break`: one value-index probe, counted into `probes`. The visitor
    /// is handed the counter back, for the probes it issues itself.
    pub fn nodes_with(
        &self,
        tag: TagId,
        value: Option<&str>,
        probes: &mut u64,
        mut visit: impl FnMut(&mut u64, u64) -> ControlFlow<()>,
    ) {
        *probes += 1;
        let mut prefix = KeyBuf::new();
        prefix.push_i64(i64::from(tag.0 as i32));
        if let Some(v) = value {
            prefix.push_str(value_key_prefix(v));
        }
        // The id is the key's trailing u64 component.
        self.node_idx.for_each_prefix(prefix.as_bytes(), |k, _| visit(probes, key_leaf(k)));
    }

    /// Parent and parent-tag of `id` — one backward-link probe, counted
    /// into `probes`.
    pub fn parent_of(&self, id: u64, probes: &mut u64) -> Option<(u64, TagId)> {
        *probes += 1;
        let mut key = KeyBuf::new();
        key.push_u64(id);
        self.blink.get(key.as_bytes()).map(|v| decode_blink(&v))
    }

    /// Lends the id of every child of `parent` with `tag` to `visit`, in
    /// id order, until it answers `Break` — one forward-link probe,
    /// counted into `probes`.
    pub fn children_with(
        &self,
        parent: u64,
        tag: TagId,
        probes: &mut u64,
        mut visit: impl FnMut(u64) -> ControlFlow<()>,
    ) {
        *probes += 1;
        let mut prefix = KeyBuf::new();
        prefix.push_u64(parent);
        prefix.push_i64(i64::from(tag.0 as i32));
        self.flink.for_each_prefix(prefix.as_bytes(), |k, _| visit(key_leaf(k)));
    }

    /// Lends every proper ancestor of `id` to `visit`, bottom-up, one
    /// blink probe per step — how Edge-family plans find branch points
    /// above a node.
    pub fn ancestors_of(&self, id: u64, probes: &mut u64, mut visit: impl FnMut(u64)) {
        let mut cur = id;
        while let Some((parent, _)) = self.parent_of(cur, probes) {
            if parent == 0 {
                break;
            }
            visit(parent);
            cur = parent;
        }
    }

    /// Walks the backward links up from `leaf` through `tags.len() - 1`
    /// parents, one probe each, checking each parent's tag against the
    /// pattern step it stands for, and writes the ids of the path —
    /// `leaf` last — into `ids`. False, at the first probe that finds no
    /// parent or one of another tag, when no such path ends at `leaf`.
    pub fn walk_up(&self, tags: &[TagId], leaf: u64, ids: &mut Vec<u64>, probes: &mut u64) -> bool {
        let k = tags.len();
        ids.clear();
        ids.resize(k, 0);
        ids[k - 1] = leaf;
        for step in (0..k - 1).rev() {
            match self.parent_of(ids[step + 1], probes) {
                Some((parent, tag)) if parent != 0 && tag == tags[step] => ids[step] = parent,
                _ => return false,
            }
        }
        true
    }

    /// Evaluates a PCsubpath by one value-index probe plus a
    /// backward-link walk per candidate per step — the §5.2.1 join chain
    /// — lending each match, exactly the pattern's step ids, to `sink`
    /// from the reused `ids` until it answers `Break`. Every probe is
    /// counted into `probes`.
    pub fn for_each_match(
        &self,
        q: &PcSubpathQuery,
        ids: &mut Vec<u64>,
        probes: &mut u64,
        mut sink: impl FnMut(&[u64]) -> ControlFlow<()>,
    ) {
        let leaf_tag = *q.tags.last().expect("a subpath has a step");
        self.nodes_with(leaf_tag, q.value.as_deref(), probes, |probes, leaf| {
            if !self.walk_up(&q.tags, leaf, ids, probes) {
                return ControlFlow::Continue(());
            }
            // An anchored match starts at a document root.
            if q.anchored && !matches!(self.parent_of(ids[0], probes), Some((0, _))) {
                return ControlFlow::Continue(());
            }
            sink(ids)
        });
    }

    /// Row count of the Edge relation.
    pub fn rows(&self) -> u64 {
        self.heap.len()
    }

    /// Physical shape of the three index trees plus the heap, for the
    /// optimizer's catalog (see [`crate::auto`]).
    pub fn cost_profile(&self) -> xtwig_opt::EdgeProfile {
        xtwig_opt::EdgeProfile {
            value: crate::auto::tree_profile(&self.node_idx),
            blink: crate::auto::tree_profile(&self.blink),
            flink: crate::auto::tree_profile(&self.flink),
            heap_pages: self.heap.space_bytes() / xtwig_storage::PAGE_SIZE as u64,
        }
    }
}

impl EdgeTable {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]): the heap's page list and row count plus the
    /// three index trees' shapes.
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        w.push_u32(self.heap.page_ids().len() as u32);
        for &p in self.heap.page_ids() {
            w.push_u32(p.0);
        }
        w.push_u64(self.heap.len());
        crate::persist::write_tree_meta(w, &self.node_idx);
        crate::persist::write_tree_meta(w, &self.flink);
        crate::persist::write_tree_meta(w, &self.blink);
    }

    /// Reattaches a persisted Edge configuration over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        let n = r.u32()? as usize;
        let mut pages = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let p = xtwig_storage::PageId(r.u32()?);
            if p.0 >= pool.num_pages() {
                return crate::persist::format_err(format!("heap page {p} outside its pool"));
            }
            pages.push(p);
        }
        let rows = r.u64()?;
        let heap = HeapFile::from_parts(pool.clone(), pages, rows);
        let node_idx = crate::persist::read_tree_meta(r, pool.clone())?;
        let flink = crate::persist::read_tree_meta(r, pool.clone())?;
        let blink = crate::persist::read_tree_meta(r, pool)?;
        Ok(EdgeTable { heap, node_idx, flink, blink })
    }
}

impl PathIndex for EdgeTable {
    fn space_bytes(&self) -> u64 {
        self.heap.space_bytes()
            + self.node_idx.space_bytes()
            + self.flink.space_bytes()
            + self.blink.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn build(forest: &XmlForest) -> EdgeTable {
        EdgeTable::build(forest, Arc::new(BufferPool::in_memory(8192)))
    }

    fn q(
        forest: &XmlForest,
        steps: &[&str],
        anchored: bool,
        value: Option<&str>,
    ) -> PcSubpathQuery {
        PcSubpathQuery::resolve(forest.dict(), steps, anchored, value).unwrap()
    }

    /// Every match of `q`, and the probes the chain counted.
    fn matches(e: &EdgeTable, q: &PcSubpathQuery) -> (Vec<Vec<u64>>, u64) {
        let (mut out, mut probes) = (Vec::new(), 0);
        e.for_each_match(q, &mut Vec::new(), &mut probes, |ids| {
            out.push(ids.to_vec());
            ControlFlow::Continue(())
        });
        (out, probes)
    }

    fn nodes(e: &EdgeTable, tag: TagId, value: Option<&str>) -> Vec<u64> {
        let (mut out, mut probes) = (Vec::new(), 0);
        e.nodes_with(tag, value, &mut probes, |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        assert_eq!(probes, 1);
        out
    }

    #[test]
    fn value_index_probe() {
        let f = fig1_book_document();
        let e = build(&f);
        let fn_tag = f.dict().lookup("fn").unwrap();
        assert_eq!(nodes(&e, fn_tag, Some("jane")), vec![7, 42]);
        // Without a value, in value order first.
        assert_eq!(nodes(&e, fn_tag, None), vec![7, 42, 22]);
    }

    #[test]
    fn link_indexes() {
        let f = fig1_book_document();
        let e = build(&f);
        let mut probes = 0;
        assert_eq!(e.parent_of(7, &mut probes), Some((6, f.dict().lookup("author").unwrap())));
        assert_eq!(e.parent_of(1, &mut probes), Some((0, TagId::VIRTUAL_ROOT)));
        assert_eq!(e.parent_of(99_999, &mut probes), None);
        assert_eq!(probes, 3);
        let author = f.dict().lookup("author").unwrap();
        let mut authors = Vec::new();
        e.children_with(5, author, &mut probes, |id| {
            authors.push(id);
            ControlFlow::Continue(())
        });
        assert_eq!(authors, vec![6, 21, 41]);
        assert_eq!(probes, 4);
        let ancestors = |id| {
            let (mut out, mut probes) = (Vec::new(), 0);
            e.ancestors_of(id, &mut probes, |a| out.push(a));
            (out, probes)
        };
        // One probe per ancestor, and one that finds the virtual root.
        assert_eq!(ancestors(7), (vec![6, 5, 1], 4));
        assert_eq!(ancestors(1), (Vec::new(), 1));
    }

    #[test]
    fn pcsubpath_eval_matches_index_semantics() {
        let f = fig1_book_document();
        let e = build(&f);
        let (ms, _) = matches(&e, &q(&f, &["author", "fn"], false, Some("jane")));
        assert_eq!(ms, vec![vec![6, 7], vec![41, 42]]);
    }

    #[test]
    fn anchored_eval_checks_document_root() {
        let f = fig1_book_document();
        let e = build(&f);
        // /book/title matches; /title alone does not (title not a root).
        assert_eq!(matches(&e, &q(&f, &["book", "title"], true, None)).0.len(), 1);
        assert!(matches(&e, &q(&f, &["title"], true, None)).0.is_empty());
        // //title matches both titles.
        assert_eq!(matches(&e, &q(&f, &["title"], false, None)).0.len(), 2);
    }

    #[test]
    fn probe_count_grows_with_path_length_and_candidates() {
        // The effect behind Fig. 11: per-step joins get pricier as
        // selectivity drops.
        let f = fig1_book_document();
        let e = build(&f);
        let steps = ["book", "allauthors", "author", "fn"];
        let (_, probes_unselective) = matches(&e, &q(&f, &steps, true, None));
        let (_, probes_selective) = matches(&e, &q(&f, &steps, true, Some("john")));
        assert!(probes_unselective > probes_selective);
        // 3 candidates * (3 walk steps + 1 anchor check) + 1 value probe.
        assert_eq!(probes_unselective, 1 + 3 * 4);
        assert_eq!(probes_selective, 1 + 4);
    }

    #[test]
    fn a_sink_that_breaks_ends_the_chain() {
        let f = fig1_book_document();
        let e = build(&f);
        let (mut lent, mut probes) = (0, 0);
        let query = q(&f, &["book", "allauthors", "author", "fn"], true, None);
        e.for_each_match(&query, &mut Vec::new(), &mut probes, |_| {
            lent += 1;
            ControlFlow::Break(())
        });
        // The value probe and the first candidate's walk, nothing after.
        assert_eq!((lent, probes), (1, 1 + 4));
    }

    #[test]
    fn mismatched_interior_tags_prune_candidates() {
        let f = fig1_book_document();
        let e = build(&f);
        // //chapter/fn: fn nodes exist but never under chapter.
        assert!(matches(&e, &q(&f, &["chapter", "fn"], false, None)).0.is_empty());
    }

    #[test]
    fn space_includes_heap_and_three_indexes() {
        let f = fig1_book_document();
        let e = build(&f);
        assert_eq!(e.rows(), (f.node_count() - 1) as u64);
        // heap + 3 trees, each at least a page.
        assert!(e.space_bytes() >= 4 * 8192);
    }
}
