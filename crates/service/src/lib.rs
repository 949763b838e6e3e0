//! # xtwig-service — a concurrent twig query service
//!
//! The paper evaluates ROOTPATHS/DATAPATHS one query at a time inside a
//! relational engine; this crate is the serving layer a production
//! deployment puts in front of those indexes. A [`TwigService`] owns a
//! shared [`QueryEngine`](xtwig_core::QueryEngine) (over an
//! `Arc<XmlForest>`, so the engine is `Send + Sync`) and answers many
//! concurrent twig queries, each on the thread that asked:
//!
//! * **One dispatch door** — [`TwigService::execute`] (and
//!   [`TwigService::execute_with`], which carries a wire request's id
//!   and trace flag) answers synchronously on the caller's thread
//!   against a pinned epoch. The service owns no thread and no queue:
//!   concurrency is however many threads the host — the network front
//!   end's connection threads, a benchmark's callers — put behind one
//!   `&TwigService`.
//! * **Plan cache** — keyed by canonicalized twig *shape* (tags, axes,
//!   value-predicate structure, output node), so repeated shapes skip
//!   `decompose`/`choose_plan` and differ only in the literals rebound
//!   into the cached cover (parameterized-plan semantics; the shape
//!   reuse argument follows the tree-pattern survey literature).
//! * **Result cache** — an LRU over exact queries with generation-based
//!   invalidation: every committed [`TwigService::apply_update`]
//!   publishes a new generation, atomically staling every cached
//!   result (and the cache refuses to let a slow writer's stale answer
//!   clobber a newer generation's entry).
//! * **Snapshot-isolated maintenance** — [`TwigService::apply_update`]
//!   commits a batch of [`UpdateOp`]s by forking the current engine
//!   (copy-on-write — no page copies) and publishing the fork as the
//!   next epoch; readers pin an epoch and never block on a writer.
//!   Every op is journaled, and [`TwigService::rebuild_parallel`]
//!   replays the journal onto the freshly built engine before swapping
//!   it in, so rebuilds cannot lose concurrent updates.
//!   [`TwigService::persist`] folds the accumulated overlay pages into
//!   a new base image on disk.
//! * **Stats** — [`TwigService::stats`] snapshots cache hit rates,
//!   in-flight queries, per-strategy latency histograms, and per-strategy
//!   cost counters (probes, rows fetched, logical/physical page reads,
//!   optimizer picks); the wire `Stats` op ships them as JSON.
//! * **Auto strategy selection** — requests may name
//!   [`Strategy::Auto`](xtwig_core::Strategy::Auto): the service
//!   resolves it through the engine's cost model (memoized per shape in
//!   the plan cache), keys the result cache on the resolved concrete
//!   strategy, and counts each pick in the stats.
//! * **Admission control** — every request draws from one bounded
//!   [`Admission`] budget that sheds load with a typed
//!   [`ServiceError::Overloaded`] instead of letting callers pile up.
//! * **Multi-index catalog** — a [`Catalog`] serves many persisted
//!   `.xtwig` indexes by name, opening them on demand and keeping an
//!   LRU of attached services (eviction never cuts off in-flight
//!   holders; they keep their `Arc`).
//!
//! ## Quickstart
//!
//! ```
//! use xtwig_service::{ServiceOptions, TwigService};
//! use xtwig_core::{parse_xpath, Strategy};
//! use xtwig_core::engine::EngineOptions;
//! use xtwig_xml::tree::fig1_book_document;
//!
//! let service = TwigService::build(
//!     fig1_book_document(),
//!     EngineOptions { pool_pages: 256, ..Default::default() },
//!     ServiceOptions::default(),
//! );
//! let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
//! let answer = service.execute(&twig, Strategy::RootPaths).unwrap();
//! assert_eq!(answer.ids.len(), 1);
//! ```

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod events;
pub mod metrics;
pub mod service;
pub mod shape;
pub mod stats;

pub use admission::{Admission, Permit};
pub use cache::{CacheStats, PlanCache, ResultCache};
pub use catalog::{Catalog, CatalogEntry, CatalogError, CatalogOptions, CatalogStats};
pub use events::{Event, EventJournal, JournalEntry, EVENT_KINDS};
pub use metrics::{render_metrics, MetricsRegistry, SlowQuery};
pub use service::{
    RequestCtx, ServiceAnswer, ServiceError, ServiceOptions, SharedEngine, TwigService, UpdateOp,
};
pub use shape::{exact_key, shape_key};
pub use stats::{
    json_escape, LatencySnapshot, ServiceSnapshot, ServiceStats, StrategyCostSnapshot,
};
