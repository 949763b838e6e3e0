//! Index maintenance (paper §7): what one update writes.
//!
//! An [`UpdateOp`] inserts or deletes one root-to-node data path. It is
//! applied in place to the structures that are maintained: ROOTPATHS and
//! DATAPATHS, when built, and the long-value relation (the private
//! `longvalues` module) that the executor rechecks long literals
//! against. The five comparison structures are never written. Callers
//! apply ops to a fork ([`QueryEngine::fork`]) and publish it, as
//! `xtwig-service` does, so readers of the original see none of it.
//! An op that names no root path the engine could hold is refused
//! whole, with an [`UpdateError`], before anything is written.

use crate::engine::QueryEngine;
use std::fmt;
use xtwig_btree::node::MAX_VAL;
use xtwig_rel::codec::encode_idlist;
use xtwig_xml::{TagId, MAX_DEPTH};

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

/// Why [`QueryEngine::check`] refused an op: it names no root path of
/// a document the parser accepts, or none the engine's indexes can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The op's tag and id counts, which differ.
    Arity(usize, usize),
    /// No step, or more than [`MAX_DEPTH`].
    Depth(usize),
    /// The ids do not ascend strictly.
    NotAscending,
    /// A tag the engine's dictionary does not hold.
    UnknownTag(TagId),
    /// The ids encode to an IdList longer than an index value holds.
    IdListTooLong,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Arity(tags, ids) => write!(f, "op has {tags} tags but {ids} ids"),
            Self::Depth(steps) => write!(f, "op has {steps} steps, not 1 to {MAX_DEPTH}"),
            Self::NotAscending => write!(f, "op ids do not ascend strictly, as a root path's do"),
            Self::UnknownTag(tag) => write!(f, "op tag {tag} is not in the dictionary"),
            Self::IdListTooLong => {
                write!(f, "op ids encode to an IdList longer than an index value holds")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl QueryEngine {
    /// Checks that `op` names a root path this engine can hold: one tag
    /// per id, 1 to [`MAX_DEPTH`] steps, ids ascending strictly, every
    /// tag in the dictionary, and ids that every built maintainable
    /// index can store as one IdList (ROOTPATHS and DATAPATHS each
    /// encode a root path's ids into one B+-tree value of at most
    /// [`MAX_VAL`] bytes).
    pub fn check(&self, op: &UpdateOp) -> Result<(), UpdateError> {
        let (UpdateOp::InsertPath { tags, ids, .. } | UpdateOp::DeletePath { tags, ids, .. }) = op;
        if tags.len() != ids.len() {
            return Err(UpdateError::Arity(tags.len(), ids.len()));
        }
        if ids.is_empty() || ids.len() > MAX_DEPTH {
            return Err(UpdateError::Depth(ids.len()));
        }
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(UpdateError::NotAscending);
        }
        if let Some(&tag) = tags.iter().find(|t| t.index() >= self.dict.len()) {
            return Err(UpdateError::UnknownTag(tag));
        }
        let rp = self.rp.iter().map(|(rp, _)| rp.idlist);
        let mut codecs = rp.chain(self.dp.iter().map(|(dp, _)| dp.idlist));
        if !codecs.all(|codec| encode_idlist(codec, ids).len() <= MAX_VAL) {
            return Err(UpdateError::IdListTooLong);
        }
        Ok(())
    }

    /// Applies `op` in place to ROOTPATHS and DATAPATHS, where built,
    /// and to the long-value relation. A leaf has one value, as in the
    /// document: inserting a long value replaces the leaf's record, and
    /// deleting removes it when it holds that value. An op that
    /// [`QueryEngine::check`] refuses is refused here, and nothing is
    /// written.
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), UpdateError> {
        self.check(op)?;
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
        Ok(())
    }
}
