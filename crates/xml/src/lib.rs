//! XML substrate for the twig-index reproduction.
//!
//! This crate implements the data model of Chen et al. (ICDE 2005), §2.1:
//! an XML database is a forest of rooted, ordered, labeled trees whose
//! non-leaf nodes are elements and attributes (labeled with tags and
//! attribute names) and whose leaf nodes are string values. Every
//! element/attribute node carries a unique numeric identifier assigned in
//! document (pre-)order.
//!
//! Provided here:
//!
//! * [`TagDict`] — the tag-name dictionary used to designator-encode schema
//!   paths (paper §3.1).
//! * [`XmlForest`] / [`TreeBuilder`] — the arena-based forest with a virtual
//!   root (id 0) acting as the parent of all documents (paper §3.3,
//!   footnote 4).
//! * [`parser`] — a small, dependency-free XML parser (elements, attributes,
//!   text, CDATA, comments, standard entities).
//! * [`twig`] — node-labeled query twig patterns with parent-child and
//!   ancestor-descendant edges (paper Fig. 1(c)).
//! * [`naive`] — a direct in-memory twig matcher used as the correctness
//!   oracle for every index strategy in `xtwig-core`.

pub mod dictionary;
pub mod naive;
pub mod parser;
pub mod serialize;
pub mod snapshot;
pub mod tree;
pub mod twig;

pub use dictionary::{TagDict, TagId};
pub use parser::{parse_document, ParseError, MAX_DEPTH};
pub use snapshot::SnapshotError;
pub use tree::{NodeId, NodeKind, NodeRange, SymbolId, TreeBuilder, XmlForest};
pub use twig::{Axis, TwigNode, TwigPattern};
