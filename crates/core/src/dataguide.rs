//! Simulated DataGuide (paper §5.1.2, [Goldman/Widom]).
//!
//! The DataGuide maps every root-to-leaf **prefix** schema path to the
//! ids of its final elements — structure only, no values. The paper
//! simulates it with a regular B+-tree (Patricia tries are not available
//! in commercial systems); we do the same: keys are forward designator
//! paths, one entry per instance.
//!
//! Because paths are stored forward and values are not indexed, a valued
//! query needs a separate value-index lookup plus a join (§5.2.1's
//! DG+Edge strategy), and `//` patterns cannot be answered by the
//! DataGuide at all (suffix match over forward keys) — those fall back
//! to the Edge chain in the engine.

use crate::designator;
use crate::family::PathIndex;
use crate::parallel::{map_shards, ShardPlan};
use crate::paths::for_each_root_path_in;
use crate::rootpaths::key_leaf;
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::{bulk_build, merge_sorted_runs, BTree, BTreeOptions, RunArena};
use xtwig_rel::codec::KeyBuf;
use xtwig_storage::BufferPool;
use xtwig_xml::{TagId, XmlForest};

/// The simulated DataGuide index.
pub struct DataGuide {
    tree: BTree,
}

impl DataGuide {
    /// Builds the DataGuide from `forest` into `pool`.
    pub fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        Self::build_sharded(forest, pool, &ShardPlan::sequential(forest))
    }

    /// Shard-parallel [`Self::build`] (sorted per-shard runs merged into
    /// one bulk load; byte-identical to the sequential build).
    pub fn build_sharded(forest: &XmlForest, pool: Arc<BufferPool>, plan: &ShardPlan) -> Self {
        let runs = map_shards(plan, |range| {
            let mut run = RunArena::new();
            for_each_root_path_in(forest, range, |tags, ids, value| {
                if value.is_some() {
                    return; // structure only
                }
                run.push_with(
                    |k| {
                        designator::push_path(k, tags);
                        k.push(designator::TERMINATOR);
                        KeyBuf::appending_to(k).push_u64(*ids.last().unwrap());
                    },
                    |_| {},
                );
            });
            run.sort();
            run
        });
        DataGuide { tree: bulk_build(pool, BTreeOptions::default(), merge_sorted_runs(&runs)) }
    }

    /// Lends the id of the final element of every instance of the exact
    /// root-anchored path `tags` to `visit`, in id order, until it
    /// answers `Break` — one probe, counted into `probes`. The visitor is
    /// handed the counter back, for the probes it issues itself.
    pub fn path_instances(
        &self,
        tags: &[TagId],
        probes: &mut u64,
        mut visit: impl FnMut(&mut u64, u64) -> ControlFlow<()>,
    ) {
        *probes += 1;
        let mut prefix = Vec::with_capacity(tags.len() + 1);
        designator::push_path(&mut prefix, tags);
        prefix.push(designator::TERMINATOR);
        self.tree.for_each_prefix(&prefix, |k, _| visit(probes, key_leaf(k)));
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

impl DataGuide {
    /// Writes the catalog metadata a reopen needs (see
    /// [`crate::persist`]).
    pub(crate) fn write_meta(&self, w: &mut crate::persist::ByteWriter) {
        crate::persist::write_tree_meta(w, &self.tree);
    }

    /// Reattaches a persisted DataGuide over `pool`.
    pub(crate) fn open_meta(
        r: &mut crate::persist::ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, crate::persist::FormatError> {
        Ok(DataGuide { tree: crate::persist::read_tree_meta(r, pool)? })
    }
}

impl PathIndex for DataGuide {
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

    /// The instances one probe lends, in order.
    fn instances(dg: &DataGuide, tags: &[TagId]) -> Vec<u64> {
        let (mut out, mut probes) = (Vec::new(), 0);
        dg.path_instances(tags, &mut probes, |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        assert_eq!(probes, 1);
        out
    }

    #[test]
    fn exact_path_probe_returns_instances() {
        let f = fig1_book_document();
        let dg = DataGuide::build(&f, Arc::new(BufferPool::in_memory(4096)));
        let authors = instances(&dg, &tags(&f, &["book", "allauthors", "author"]));
        assert_eq!(authors, vec![6, 21, 41]);
    }

    #[test]
    fn prefix_paths_are_stored() {
        let f = fig1_book_document();
        let dg = DataGuide::build(&f, Arc::new(BufferPool::in_memory(4096)));
        assert_eq!(instances(&dg, &tags(&f, &["book"])), vec![1]);
        assert_eq!(instances(&dg, &tags(&f, &["book", "allauthors"])), vec![5]);
    }

    #[test]
    fn no_value_entries_exist() {
        let f = fig1_book_document();
        let dg = DataGuide::build(&f, Arc::new(BufferPool::in_memory(4096)));
        // One entry per node: structure only.
        assert_eq!(dg.rows(), (f.node_count() - 1) as u64);
    }

    #[test]
    fn wrong_paths_are_empty() {
        let f = fig1_book_document();
        let dg = DataGuide::build(&f, Arc::new(BufferPool::in_memory(4096)));
        // "author" alone is not a root path; the DataGuide is anchored.
        assert!(instances(&dg, &tags(&f, &["author"])).is_empty());
        // An existing path with one wrong step.
        assert!(instances(&dg, &tags(&f, &["book", "author"])).is_empty());
    }
}
