//! Simulated Index Fabric (paper §5.1.2, [Cooper et al.]).
//!
//! The Index Fabric indexes XML paths **and data values together**, but
//! only for full root-to-leaf paths, and returns only the leaf (or root)
//! id. Like the paper, we simulate the Patricia trie with a regular
//! B+-tree whose keys concatenate the forward schema path and the leaf
//! value; B+-tree interior prefix truncation plays the role of the
//! trie's key compression.
//!
//! Consequences measured in §5: fully-specified valued path queries are
//! one probe (Fig. 11's strong IF result), but prefix (non-leaf) paths,
//! `//` patterns, and branch-point retrieval all fall back to Edge-chain
//! evaluation (IF+Edge).

use crate::designator;
use crate::family::{value_key_prefix, PathIndex};
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::rootpaths::key_leaf;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
use xtwig_rel::codec::KeyBuf;
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// The simulated Index Fabric.
pub struct IndexFabric {
    tree: BTree,
}

impl IndexFabric {
    /// Builds the fabric (valued root-to-leaf paths only) from `forest`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        Self::build_sharded(forest, pool, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`] (sorted per-shard runs merged into
    /// one bulk load; byte-identical to the sequential build).
    pub fn build_sharded(forest: &XmlForest, pool: Arc<BufferPool>, plan: &ShardPlan) -> Self {
        let runs = map_shards(plan, |range| {
            let mut run = RunArena::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                let Some(v) = value else { return };
                run.push_with(
                    |k| {
                        designator::push_path(k, tags);
                        k.push(designator::TERMINATOR);
                        let mut key = KeyBuf::appending_to(k);
                        key.push_str(value_key_prefix(v));
                        key.push_u64(*ids.last().unwrap());
                    },
                    |_| {},
                );
            });
            run.sort();
            run
        });
        IndexFabric { tree: bulk_build(pool, BTreeOptions::default(), merge_sorted_runs(&runs)) }
    }

    /// Lends the leaf id of every instance of the exact root-anchored
    /// path `tags` whose leaf value equals `value` to `visit`, in id
    /// order, until it answers `Break` — one probe, counted into
    /// `probes`. The visitor is handed the counter back, for the probes
    /// it issues itself.
    pub fn leaf_instances(
        &self,
        tags: &[TagId],
        value: &str,
        probes: &mut u64,
        mut visit: impl FnMut(&mut u64, u64) -> ControlFlow<()>,
    ) {
        *probes += 1;
        let mut key = KeyBuf::new();
        let mut path = Vec::with_capacity(tags.len() + 1);
        designator::push_path(&mut path, tags);
        path.push(designator::TERMINATOR);
        key.push_raw(&path);
        key.push_str(value_key_prefix(value));
        self.tree.for_each_prefix(key.as_bytes(), |k, _| visit(probes, key_leaf(k)));
    }

    /// Entry count.
    pub fn rows(&self) -> u64 {
        self.tree.len()
    }

    /// Physical tree shape for the optimizer's catalog (see
    /// [`crate::auto`]).
    pub fn cost_profile(&self) -> xtwig_opt::TreeProfile {
        crate::auto::tree_profile(&self.tree)
    }
}

impl IndexFabric {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]).
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        crate::persist::write_tree_meta(w, &self.tree);
    }

    /// Reattaches a persisted Index Fabric over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        Ok(IndexFabric { tree: crate::persist::read_tree_meta(r, pool)? })
    }
}

impl PathIndex for IndexFabric {
    fn space_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_xml::tree::fig1_book_document;

    fn tags(f: &XmlForest, names: &[&str]) -> Vec<TagId> {
        names.iter().map(|n| f.dict().lookup(n).unwrap()).collect()
    }

    /// The leaves one probe lends, in order.
    fn leaves(fab: &IndexFabric, tags: &[TagId], value: &str) -> Vec<u64> {
        let (mut out, mut probes) = (Vec::new(), 0);
        fab.leaf_instances(tags, value, &mut probes, |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        assert_eq!(probes, 1);
        out
    }

    #[test]
    fn valued_root_to_leaf_is_one_probe() {
        let f = fig1_book_document();
        let fab = IndexFabric::build(&f, Arc::new(BufferPool::in_memory(4096)));
        let path = tags(&f, &["book", "allauthors", "author", "fn"]);
        assert_eq!(leaves(&fab, &path, "jane"), vec![7, 42]);
        assert!(leaves(&fab, &path, "zoe").is_empty());
    }

    #[test]
    fn only_valued_leaves_are_stored() {
        let f = fig1_book_document();
        let fab = IndexFabric::build(&f, Arc::new(BufferPool::in_memory(4096)));
        let valued = f.iter_nodes().filter(|&n| f.value(n).is_some()).count() as u64;
        assert_eq!(fab.rows(), valued);
    }

    #[test]
    fn value_must_match_exactly() {
        let f = fig1_book_document();
        let fab = IndexFabric::build(&f, Arc::new(BufferPool::in_memory(4096)));
        let path = tags(&f, &["book", "title"]);
        assert_eq!(leaves(&fab, &path, "XML"), vec![2]);
        assert!(leaves(&fab, &path, "XM").is_empty());
        assert!(leaves(&fab, &path, "XMLX").is_empty());
    }
}
