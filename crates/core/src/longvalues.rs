//! The long-value relation: the whole value of every leaf whose value
//! the index keys hold only a prefix of.
//!
//! Index keys carry at most `VALUE_KEY_PREFIX_BYTES` of a leaf value
//! ([`crate::family`]), so an equality on a literal for which
//! [`value_needs_recheck`] is true can match entries whose stored value
//! merely shares the literal's prefix. The executor rechecks each such
//! match here. A stored value shares a long literal's key prefix only
//! if it is long itself, so the relation keeps exactly the values for
//! which [`value_needs_recheck`] is true, and a leaf with no record
//! fails the recheck.
//!
//! It is one B+-tree in a pool of its own, keyed `(leaf id, chunk)`,
//! both big-endian, with at most [`MAX_VAL`] bytes of the value per
//! chunk. The build bulk-loads it from the forest; index maintenance
//! ([`crate::update`]) writes it beside ROOTPATHS and DATAPATHS, a fork
//! gives it a copy-on-write pool as it does theirs, and persist writes
//! it as one more extent. While it is empty it owns no page: no tree is
//! made, and its pool allocates no frame.

use crate::family::value_needs_recheck;
use crate::persist::{self, ByteReader, ByteWriter, FormatError};
use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_btree::node::MAX_VAL;
use xtwig_btree::{bulk_build, BTree, BTreeOptions};
use xtwig_storage::BufferPool;
use xtwig_xml::{NodeId, SymbolId, XmlForest};

/// The long-value relation and its pool.
pub(crate) struct LongValues {
    pool: Arc<BufferPool>,
    /// `None` while the relation is empty.
    tree: Option<BTree>,
}

/// The key of chunk `chunk` of leaf `leaf`.
fn key(leaf: u64, chunk: u32) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..8].copy_from_slice(&leaf.to_be_bytes());
    k[8..].copy_from_slice(&chunk.to_be_bytes());
    k
}

impl LongValues {
    /// The long values of `forest`, in `pool`.
    pub(crate) fn build(forest: &XmlForest, pool: Arc<BufferPool>) -> Self {
        let values = forest.values();
        // Most documents hold no value this long: then no node is visited.
        if !(0..values.len()).any(|s| value_needs_recheck(values.value(SymbolId(s as u32)))) {
            return LongValues { pool, tree: None };
        }
        let entries = (0..forest.node_count() as u64).flat_map(|id| {
            let v = forest.value_str(NodeId(id)).filter(|v| value_needs_recheck(v)).unwrap_or("");
            v.as_bytes()
                .chunks(MAX_VAL)
                .enumerate()
                .map(move |(c, chunk)| (key(id, c as u32), chunk))
        });
        let tree = bulk_build(pool.clone(), BTreeOptions::default(), entries);
        LongValues { pool, tree: Some(tree) }
    }

    /// The pool the relation lives in.
    pub(crate) fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// True when `leaf`'s record is `v`; false when it has none. Reads
    /// the leaf's chunks in one prefix walk and allocates nothing.
    pub(crate) fn holds(&self, leaf: u64, v: &str) -> bool {
        let Some(tree) = &self.tree else { return false };
        let mut rest = v.as_bytes();
        let (mut found, mut equal) = (false, true);
        tree.for_each_prefix(&leaf.to_be_bytes(), |_, chunk| {
            found = true;
            match rest.strip_prefix(chunk) {
                Some(after) => {
                    rest = after;
                    ControlFlow::Continue(())
                }
                None => {
                    equal = false;
                    ControlFlow::Break(())
                }
            }
        });
        found && equal && rest.is_empty()
    }

    /// Records `v` as `leaf`'s value when the index keys hold only a
    /// prefix of it, replacing the leaf's earlier record.
    pub(crate) fn insert(&mut self, leaf: u64, v: &str) {
        if !value_needs_recheck(v) {
            return;
        }
        self.remove(leaf);
        let tree = self.tree.get_or_insert_with(|| BTree::new(self.pool.clone()));
        for (c, chunk) in v.as_bytes().chunks(MAX_VAL).enumerate() {
            tree.insert(&key(leaf, c as u32), chunk);
        }
    }

    /// Removes `leaf`'s record when it is `v`.
    pub(crate) fn delete(&mut self, leaf: u64, v: &str) {
        if value_needs_recheck(v) && self.holds(leaf, v) {
            self.remove(leaf);
        }
    }

    /// Removes every chunk of `leaf`'s record.
    fn remove(&mut self, leaf: u64) {
        let Some(tree) = &mut self.tree else { return };
        let mut chunk = 0;
        while tree.delete(&key(leaf, chunk)).is_some() {
            chunk += 1;
        }
    }

    /// A copy-on-write sibling over a fork of the pool.
    pub(crate) fn fork(&self) -> Self {
        let pool = crate::fork::fork_pool(&self.pool);
        let tree = self.tree.as_ref().map(|t| {
            let s = t.stats();
            BTree::from_parts(pool.clone(), t.options(), t.root(), s.height, s.entries, s.pages)
        });
        LongValues { pool, tree }
    }

    /// Writes the catalog metadata: whether a tree exists, and its shape.
    pub(crate) fn write_meta(&self, w: &mut ByteWriter) {
        w.push_bool(self.tree.is_some());
        if let Some(tree) = &self.tree {
            persist::write_tree_meta(w, tree);
        }
    }

    /// Reattaches a relation written by [`LongValues::write_meta`].
    pub(crate) fn open_meta(
        r: &mut ByteReader<'_>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, FormatError> {
        let tree = if r.bool()? { Some(persist::read_tree_meta(r, pool.clone())?) } else { None };
        Ok(LongValues { pool, tree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::VALUE_KEY_PREFIX_BYTES;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::in_memory(64))
    }

    #[test]
    fn a_document_without_long_values_builds_no_tree() {
        let forest = xtwig_xml::tree::fig1_book_document();
        let lv = LongValues::build(&forest, pool());
        assert!(lv.tree.is_none());
        assert_eq!((lv.pool.num_pages(), lv.pool.resident_pages()), (0, 0));
        assert!(!lv.holds(3, &"x".repeat(200)));
    }

    #[test]
    fn values_round_trip_across_chunks_and_are_replaced_and_deleted() {
        let mut lv = LongValues { pool: pool(), tree: None };
        let short = "s".repeat(VALUE_KEY_PREFIX_BYTES - 4);
        lv.insert(7, &short);
        assert!(lv.tree.is_none(), "a value the key holds whole is not recorded");
        let long = "L".repeat(3 * MAX_VAL + 5);
        lv.insert(7, &long);
        lv.insert(8, &"m".repeat(100));
        assert!(lv.holds(7, &long));
        assert!(!lv.holds(7, &long[..long.len() - 1]), "a prefix is not the value");
        assert!(!lv.holds(7, &format!("{long}!")), "nor is an extension");
        assert!(lv.holds(8, &"m".repeat(100)));
        // A shorter value replaces every chunk of the longer one.
        lv.insert(7, &"n".repeat(120));
        assert!(lv.holds(7, &"n".repeat(120)));
        assert!(!lv.holds(7, &long));
        lv.delete(7, &"o".repeat(120));
        assert!(lv.holds(7, &"n".repeat(120)), "deleting another value leaves the record");
        lv.delete(7, &"n".repeat(120));
        assert!(!lv.holds(7, &"n".repeat(120)));
        assert!(lv.holds(8, &"m".repeat(100)), "neighbours stay");
    }

    #[test]
    fn a_fork_writes_apart_from_its_parent() {
        let mut base = LongValues { pool: pool(), tree: None };
        base.insert(1, &"a".repeat(100));
        let mut fork = base.fork();
        fork.insert(2, &"b".repeat(100));
        fork.delete(1, &"a".repeat(100));
        assert!(base.holds(1, &"a".repeat(100)) && !base.holds(2, &"b".repeat(100)));
        assert!(!fork.holds(1, &"a".repeat(100)) && fork.holds(2, &"b".repeat(100)));
    }
}
