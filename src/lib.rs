//! # xtwig — relational twig-pattern indexing for XML
//!
//! A production-quality reproduction of Chen, Gehrke, Korn, Koudas,
//! Shanmugasundaram, Srivastava: *"Index Structures for Matching XML
//! Twigs Using Relational Query Processors"* (ICDE 2005), including the
//! full substrate stack the paper runs on: a paged storage engine with a
//! buffer pool, a disk-format B+-tree, a mini relational executor, an XML
//! data model and parser, the paper's two novel indexes (ROOTPATHS and
//! DATAPATHS), every comparison system of its evaluation, and a query
//! engine with merge and index-nested-loop twig plans.
//!
//! ## Quickstart
//!
//! ```
//! use xtwig::prelude::*;
//!
//! // Parse a document (or use xtwig::datagen's generators).
//! let mut forest = XmlForest::new();
//! xtwig::xml::parse_document(
//!     &mut forest,
//!     "<book><title>XML</title><allauthors>\
//!      <author><fn>jane</fn><ln>doe</ln></author>\
//!      </allauthors></book>",
//! )
//! .unwrap();
//!
//! // Build the indexes (here: just ROOTPATHS and DATAPATHS).
//! let engine = QueryEngine::build(
//!     &forest,
//!     EngineOptions {
//!         strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
//!         pool_pages: 256,
//!         ..Default::default()
//!     },
//! );
//!
//! // Ask the paper's intro query.
//! let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
//! let answer = engine.answer(&twig, Strategy::RootPaths);
//! assert_eq!(answer.ids.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xml`] | `xtwig-xml` | forest data model, parser, twig patterns, naive matcher |
//! | [`storage`] | `xtwig-storage` | pages, disk manager, buffer pool, I/O stats |
//! | [`btree`] | `xtwig-btree` | disk-format B+-tree with prefix scans and bulk load |
//! | [`rel`] | `xtwig-rel` | values, order-preserving codec, heap files |
//! | [`core`] | `xtwig-core` | ROOTPATHS, DATAPATHS, the index family, baselines, planner, and the engine whose joins are the relational processor |
//! | [`obs`] | `xtwig-obs` | query observability: span traces and per-stage I/O counters |
//! | [`opt`] | `xtwig-opt` | cost-based strategy selection: estimator, per-strategy cost model |
//! | [`service`] | `xtwig-service` | concurrent query service: caller-thread dispatch, admission, plan/result caches |
//! | [`net`] | `xtwig-net` | network front end: wire protocol, TCP server over a multi-index catalog, client |
//! | [`datagen`] | `xtwig-datagen` | XMark-like and DBLP-like generators, the Q1–Q15 workload |
//! | [`bench`](mod@bench) | `xtwig-bench` | shared measurement harness behind the figure-reproduction binaries |

pub use xtwig_bench as bench;
pub use xtwig_btree as btree;
pub use xtwig_core as core;
pub use xtwig_datagen as datagen;
pub use xtwig_net as net;
pub use xtwig_obs as obs;
pub use xtwig_opt as opt;
pub use xtwig_rel as rel;
pub use xtwig_service as service;
pub use xtwig_storage as storage;
pub use xtwig_xml as xml;

pub use xtwig_core::engine::EngineOptions;
pub use xtwig_core::{parse_xpath, QueryAnswer, QueryEngine, Strategy};
pub use xtwig_service::{ServiceAnswer, ServiceError, ServiceOptions, TwigService, UpdateOp};
pub use xtwig_xml::{TwigPattern, XmlForest};

/// Common imports for applications.
pub mod prelude {
    pub use crate::core::engine::{EngineOptions, QueryAnswer, QueryEngine, Strategy};
    pub use crate::core::family::{BoundIndex, FreeIndex, PathIndex, PcSubpathQuery};
    pub use crate::core::parse_xpath;
    pub use crate::service::{ServiceAnswer, ServiceError, ServiceOptions, TwigService, UpdateOp};
    pub use crate::xml::{Axis, NodeId, TwigPattern, XmlForest};
}
