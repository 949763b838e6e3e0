//! ROOTPATHS and DATAPATHS: relational twig-pattern indexing for XML.
//!
//! This crate is the primary contribution of Chen, Gehrke, Korn, Koudas,
//! Shanmugasundaram and Srivastava, *"Index Structures for Matching XML
//! Twigs Using Relational Query Processors"* (ICDE 2005), rebuilt as a
//! Rust library over the substrates in `xtwig-storage`/`xtwig-btree`/
//! `xtwig-rel`:
//!
//! * [`paths`] — the 4-ary relational representation of XML data paths
//!   `(HeadId, SchemaPath, LeafValue, IdList)` (paper Fig. 2), enumerated
//!   from an [`xtwig_xml::XmlForest`].
//! * [`family`] — the unified framework: where each index sits in the
//!   (SchemaPath subset, IdList sublist, indexed columns) space
//!   (paper Fig. 3), the PCsubpath pattern, and the space metric every
//!   structure reports.
//! * [`rootpaths`] / [`datapaths`] — the two novel indexes (paper §3.2,
//!   §3.3), each answering the paper's FreeIndex problem (§2.3) with one
//!   streaming scan, and DATAPATHS the BoundIndex problem with another.
//! * [`edge`], [`dataguide`], [`fabric`], [`asr`], [`joinindex`] — the
//!   comparison systems of §5: Edge-table with Lore-style value/link
//!   indexes, simulated DataGuide, simulated Index Fabric, Access Support
//!   Relations, and Join Indices.
//! * [`compress`] — the §4 space optimizations: differential IdList
//!   encoding, SchemaPath dictionary compression, HeadId pruning.
//! * [`xpath`] — the XPath-subset parser producing query twigs.
//! * [`decompose`] — covering a twig with PCsubpaths (paper §2.2).
//! * [`plan`] / [`engine`] — plan selection (merge vs. index-nested-loop)
//!   and execution for all seven strategies, over one flat binding table
//!   (the private `table` module).
//! * [`persist`] — index durability: [`QueryEngine::persist`] writes
//!   every built structure into a single `.xtwig` file, and
//!   [`QueryEngine::open`] reattaches it with zero rebuild work,
//!   digest-verified against the stored catalog.
//! * [`fork`] — copy-on-write engine snapshots: [`QueryEngine::fork`]
//!   clones an engine without copying index pages, so maintenance on
//!   the fork is invisible to readers of the original (the MVCC
//!   primitive behind `xtwig-service`'s snapshot-isolated updates).
//! * [`auto`] — cost-based strategy selection: measures the built
//!   structures into an `xtwig-opt` catalog, ranks every strategy per
//!   query, resolves [`Strategy::Auto`], and backs `xtwig explain`.

pub mod asr;
pub mod auto;
pub mod compress;
pub mod dataguide;
pub mod datapaths;
pub mod decompose;
pub mod designator;
pub mod edge;
pub mod engine;
pub mod fabric;
pub mod family;
pub mod fork;
pub mod joinindex;
pub mod parallel;
pub mod paths;
pub mod persist;
pub mod plan;
pub mod rootpaths;
mod table;
pub mod xpath;

pub use auto::Explanation;
pub use engine::{ParseStrategyError, QueryAnswer, QueryEngine, QueryMetrics, Strategy};
// Tracing types, re-exported so engine callers need not depend on
// `xtwig-obs` directly.
pub use family::{PathIndex, PcSubpathQuery};
pub use fork::ForkError;
pub use parallel::ShardPlan;
pub use persist::{OpenError, OpenReport, PersistError, PersistReport};
pub use xpath::parse_xpath;
pub use xtwig_obs::{Span, SpanCounters, Trace};
