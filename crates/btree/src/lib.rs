//! Disk-format B+-tree substrate.
//!
//! The paper's central implementation claim is that its indexes need
//! nothing beyond "the access methods of the underlying database system"
//! — i.e., ordinary B+-trees with prefix lookups (§1, §3). This crate is
//! that access method: a page-structured B+-tree over the
//! `xtwig-storage` buffer pool with
//!
//! * variable-length byte-string keys and values (composite keys are
//!   produced by the order-preserving codec in `xtwig-rel`),
//! * point lookups, inserts, deletes, range scans, and *prefix scans* —
//!   the operation that makes reversed schema paths answer `//` queries —
//!   whose visitor can jump forward past entries it has no use for,
//! * shortest-separator prefix truncation in interior nodes (the analogue
//!   of the key prefix compression the paper cites in DB2, §3.1), and
//! * sorted bulk loading, used to build every index in one pass.
//!
//! Trees carry no on-page catalog of their own: the root page id and
//! shape counters live in the `BTree` struct, exposed via
//! [`tree::BTree::root`]/[`tree::BTree::stats`] and reattachable with
//! [`tree::BTree::from_parts`] — which is how `xtwig-core`'s index
//! persistence stores trees in its catalog page and reopens them from
//! disk without a rebuild.

pub mod builder;
pub mod merge;
pub mod node;
pub mod tree;

pub use builder::bulk_build;
pub use merge::{merge_sorted_runs, MergeRuns};
pub use tree::{BTree, BTreeOptions, BTreeStats, RangeScan, Visit, Walk};
