//! Index maintenance (paper §7): what one update writes.
//!
//! An [`UpdateOp`] inserts or deletes one root-to-node data path. It is
//! applied in place to the structures that are maintained: ROOTPATHS and
//! DATAPATHS, when built, and the long-value relation (the private
//! `longvalues` module) that the executor rechecks long literals
//! against. The five comparison structures are never written. Callers
//! apply ops to a fork ([`QueryEngine::fork`]) and publish it, as
//! `xtwig-service` does, so readers of the original see none of it.

use crate::engine::QueryEngine;
use xtwig_btree::node::MAX_VAL;
use xtwig_rel::codec::encode_idlist;
use xtwig_xml::TagId;

/// One logical index-maintenance operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a root-to-node data path: `tags[i]` labels the node with
    /// id `ids[i]`, `value` is the leaf's value (if any).
    InsertPath {
        /// Schema path, root first.
        tags: Vec<TagId>,
        /// Node-id list, parallel to `tags`.
        ids: Vec<u64>,
        /// Leaf value of the path's head node.
        value: Option<String>,
    },
    /// Delete a previously inserted data path (same shape as insert).
    DeletePath {
        /// Schema path, root first.
        tags: Vec<TagId>,
        /// Node-id list, parallel to `tags`.
        ids: Vec<u64>,
        /// Leaf value the path was inserted with.
        value: Option<String>,
    },
}

impl QueryEngine {
    /// Applies `op` in place to ROOTPATHS and DATAPATHS, where built,
    /// and to the long-value relation. A leaf has one value, as in the
    /// document: inserting a long value replaces the leaf's record, and
    /// deleting removes it when it holds that value.
    ///
    /// # Panics
    /// Panics when `ids` encode to an IdList longer than an index value
    /// holds; [`QueryEngine::idlist_fits`] tells beforehand.
    pub fn apply(&mut self, op: &UpdateOp) {
        match op {
            UpdateOp::InsertPath { tags, ids, value } => {
                let value = value.as_deref();
                if let Some((rp, _)) = &mut self.rp {
                    rp.insert_path(tags, ids, value);
                }
                if let Some((dp, _)) = &mut self.dp {
                    dp.insert_path(tags, ids, value);
                }
                if let (Some(v), Some(&leaf)) = (value, ids.last()) {
                    self.long_values.insert(leaf, v);
                }
            }
            UpdateOp::DeletePath { tags, ids, value } => {
                let value = value.as_deref();
                if let Some((rp, _)) = &mut self.rp {
                    rp.delete_path(tags, ids, value);
                }
                if let Some((dp, _)) = &mut self.dp {
                    dp.delete_path(tags, ids, value);
                }
                if let (Some(v), Some(&leaf)) = (value, ids.last()) {
                    self.long_values.delete(leaf, v);
                }
            }
        }
    }

    /// True when every built maintainable index can store `ids` as one
    /// IdList: ROOTPATHS and DATAPATHS each encode a root path's ids
    /// into one B+-tree value of at most [`MAX_VAL`] bytes, and their
    /// `insert_path` panics on a longer one.
    pub fn idlist_fits(&self, ids: &[u64]) -> bool {
        let rp = self.rp.iter().map(|(rp, _)| rp.idlist);
        let mut codecs = rp.chain(self.dp.iter().map(|(dp, _)| dp.idlist));
        codecs.all(|codec| encode_idlist(codec, ids).len() <= MAX_VAL)
    }
}
