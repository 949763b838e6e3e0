//! The twig query service: the dispatch door, admission, the shared
//! caches, and the snapshot-isolated maintenance path.
//!
//! Threading model — one dispatch door. [`TwigService::execute`] and
//! [`TwigService::execute_with`] run the query synchronously on the
//! *caller's* thread against a pinned epoch: no queue, no hand-off, no
//! thread of the service's own.
//! Concurrency is the caller's business — the network front end gives
//! each connection a thread that dispatches its own queries, the ledger
//! harness runs one caller per core — and every call draws from one
//! [`Admission`] budget (bounded in-flight queries, typed
//! [`ServiceError::Overloaded`] rejection).
//!
//! Concurrency model (MVCC over the copy-on-write page layer): the
//! engine lives inside an immutable `EngineEpoch` — engine, the
//! generation it serves, and the result cache of answers computed on
//! it — behind an `RwLock<Arc<EngineEpoch>>` held only long enough to
//! clone or swap the `Arc`. Readers **pin** the current epoch and
//! execute with no lock held, so a query never waits on maintenance,
//! and cache what they computed in the epoch they pinned. Writers
//! serialize on a maintenance mutex: [`TwigService::apply_update`]
//! forks the newest epoch (`QueryEngine::fork` — a page-free
//! copy-on-write snapshot), applies its [`UpdateOp`]s to the fork in
//! place (§7), and publishes the fork as the next epoch with an empty
//! result cache; [`TwigService::persist`] folds the current epoch's
//! overlay pages into a file. Every epoch keeps the strategy set the
//! service was built with, so whether a strategy is built is a property
//! of the epoch a request pinned, checked once at the door. The plan
//! cache, the metrics and the event journal live as long as the
//! service.

use crate::admission::Admission;
use crate::cache::{PlanCache, Resolved, ResultCache};
use crate::events::{Event, EventJournal, EVENT_CAPACITY};
use crate::metrics::{micros, Metrics, ServiceSnapshot, SlowQuery};
use crate::shape::exact_key;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xtwig_core::engine::{EngineOptions, QueryMetrics};
use xtwig_core::persist::{PersistError, PersistReport};
use xtwig_core::plan::PlanKind;
use xtwig_core::{QueryEngine, Strategy};
use xtwig_xml::{TagId, TwigPattern, XmlForest};

/// The engine a service shares across its callers' threads: an alias of
/// [`QueryEngine`], kept for callers that name it.
pub type SharedEngine = QueryEngine;

/// Why a query was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The requested strategy's structures were not built.
    StrategyNotBuilt(Strategy),
    /// The admission budget is exhausted: too many queries in flight.
    /// Typed so callers (and the wire protocol) can back off instead of
    /// piling onto an overloaded service.
    Overloaded {
        /// Queries in flight when the request was refused.
        in_flight: usize,
        /// The configured [`ServiceOptions::max_in_flight`] bound.
        limit: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::StrategyNotBuilt(s) => write!(f, "strategy {s} was not built"),
            ServiceError::Overloaded { in_flight, limit } => {
                write!(f, "service overloaded: {in_flight} queries in flight (limit {limit})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Service construction options.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Ignored. The service runs every query on its caller's thread
    /// and has no worker pool to size; the field survives only because
    /// the frozen `benchmark/` harness still writes `workers: 1`, and
    /// goes once that line does (ROADMAP item 2(a)).
    #[doc(hidden)]
    pub workers: usize,
    /// Result-cache entries each epoch keeps; 0 disables result caching
    /// (default 1024).
    pub result_cache_capacity: usize,
    /// Executions at or above this many microseconds are captured into
    /// the slow-query log (the newest
    /// [`SLOW_QUERY_CAPACITY`](crate::metrics::SLOW_QUERY_CAPACITY)
    /// kept) together with the span tree of that same execution
    /// (`None` disables the log; default). While the log is enabled
    /// every executed query records spans, because whether it was slow
    /// is known only afterwards — the ledger's `obs.traced_exec_ratio`
    /// (`benchmark/`) is what that costs on each execution; fast runs
    /// discard their spans.
    pub slow_query_micros: Option<u64>,
    /// Admission bound: queries in flight (executing on their callers'
    /// threads) beyond which requests are refused with
    /// [`ServiceError::Overloaded`]. `0` disables the bound (default
    /// 1024).
    pub max_in_flight: usize,
    /// Event journal this service emits into. `None` (default) gives
    /// the service a private journal of 256 entries; the catalog
    /// injects one shared journal so every index's events land in a
    /// single stream the wire `Events` opcode serves.
    pub events: Option<Arc<EventJournal>>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 0,
            result_cache_capacity: 1024,
            slow_query_micros: None,
            max_in_flight: 1024,
            events: None,
        }
    }
}

/// Distinct shapes a service's plan cache holds.
const PLAN_CACHE_CAPACITY: usize = 4096;

/// Per-request context the wire front end threads through
/// [`TwigService::execute_with`]: the client-stamped request id, whether
/// the client asked for a trace capture, and the connection's peer
/// address. Local callers use the default (id 0, unsampled, no peer).
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// Client-stamped wire request id (0 = unstamped/local).
    pub request_id: u64,
    /// True when the client requested a traced execution: the result
    /// cache is bypassed and the execution's span tree is kept
    /// regardless of the slow threshold, retrievable via the `Trace`
    /// opcode.
    pub sample: bool,
    /// Peer address of the issuing connection (empty for local).
    pub peer: String,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct ServiceAnswer {
    /// Distinct ids bound to the twig's output node (shared: cache hits
    /// hand out the same allocation).
    pub ids: Arc<BTreeSet<u64>>,
    /// The plan kind that ran (or originally ran, for cache hits).
    pub plan: PlanKind,
    /// Strategy that answered — the optimizer's concrete pick when the
    /// query was requested with [`Strategy::Auto`].
    pub strategy: Strategy,
    /// True when served from the result cache.
    pub from_cache: bool,
    /// Execution metrics; zeroed for cache hits (no index work done).
    pub metrics: QueryMetrics,
}

/// One immutable engine generation. An epoch's engine is never
/// mutated after publication: writers fork the newest epoch's engine,
/// mutate the fork, and publish a *new* epoch. Readers that cloned the
/// `Arc` keep a consistent snapshot, and the answers they compute go
/// into that snapshot's own `results`, so a cached answer is always
/// one the epoch's engine gave.
struct EngineEpoch {
    engine: QueryEngine,
    generation: u64,
    results: ResultCache,
}

/// One logical index-maintenance operation, applied in place to every
/// maintainable structure the engine built (ROOTPATHS and DATAPATHS).
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

/// The proof of holding the maintenance lock, which
/// [`Published::publish`] and `fork_engine` demand. Built only in
/// [`TwigService::over`], straight into the maintenance `Mutex`, so a
/// `&Maintenance` or `&mut Maintenance` exists only while the
/// maintenance guard is held.
struct Maintenance;

/// The published epoch. The service's one lock order — maintenance
/// before epoch — holds by construction here: the epoch lock is private
/// to this module and taken only inside [`Published::pin`] and
/// [`Published::publish`], each of which releases it before returning,
/// so no epoch guard can be held across another acquisition; and
/// publishing demands the `&mut Maintenance` that only the maintenance
/// guard hands out.
mod published {
    use super::{EngineEpoch, Maintenance};
    use parking_lot::RwLock;
    use std::sync::Arc;

    pub(super) struct Published {
        /// Held only to clone (readers) or swap (writers) the `Arc` —
        /// never across query execution or index mutation, so readers
        /// and writers never wait on each other's *work*, only on a
        /// pointer exchange.
        slot: RwLock<Arc<EngineEpoch>>,
    }

    impl Published {
        pub(super) fn new(first: EngineEpoch) -> Self {
            Published { slot: RwLock::new(Arc::new(first)) }
        }

        /// Pins the published epoch: clones the `Arc` under a momentary
        /// read lock. Everything pinned stays readable (and consistent)
        /// for as long as the clone lives, however many swaps happen.
        pub(super) fn pin(&self) -> Arc<EngineEpoch> {
            self.slot.read().clone()
        }

        /// Publishes `next` as the current epoch; `_held` proves the
        /// caller holds the maintenance lock. Returns the displaced
        /// epoch so callers drop it outside the lock.
        pub(super) fn publish(
            &self,
            _held: &mut Maintenance,
            next: Arc<EngineEpoch>,
        ) -> Arc<EngineEpoch> {
            std::mem::replace(&mut *self.slot.write(), next)
        }
    }
}

use published::Published;

struct Shared {
    epoch: Published,
    /// Serializes writers ([`TwigService::apply_update`],
    /// [`TwigService::persist`]). Lock order: maintenance before epoch
    /// (see [`Published`]).
    maintenance: Mutex<Maintenance>,
    plan_cache: PlanCache,
    /// Capacity of each epoch's result cache.
    result_cache_capacity: usize,
    metrics: Metrics,
    /// Structured event journal (shared with the catalog/server when
    /// injected via [`ServiceOptions::events`]).
    events: Arc<EventJournal>,
}

/// Forks `epoch`'s engine, retrying while a concurrent reader pins a
/// freshly dirtied page (transient — see [`xtwig_core::ForkError`]).
/// `_held` proves the caller holds the maintenance lock, so no *writer*
/// races the fork.
fn fork_engine(_held: &Maintenance, epoch: &EngineEpoch) -> QueryEngine {
    loop {
        match epoch.engine.fork() {
            Ok(engine) => return engine,
            Err(xtwig_core::ForkError::PinnedPages { .. }) => std::thread::yield_now(),
        }
    }
}

/// A twig query service over one shared [`QueryEngine`]: `Sync`, with
/// no thread of its own — share it (`&TwigService`, or in an `Arc`)
/// among as many caller threads as should have queries in flight.
pub struct TwigService {
    shared: Arc<Shared>,
    admission: Admission,
}

impl TwigService {
    /// Builds the engine over `forest` and serves it.
    pub fn build(forest: XmlForest, engine: EngineOptions, options: ServiceOptions) -> Self {
        TwigService::over(QueryEngine::build(Arc::new(forest), engine), options)
    }

    /// Reopens a persisted index file (see `xtwig-core`'s
    /// [`QueryEngine::persist`](xtwig_core::QueryEngine::persist)) and
    /// serves it — a service restart without paying the index build: no
    /// enumeration, no sorting, no bulk loads; the stored per-strategy
    /// digests are verified against the reopened page images before any
    /// query is accepted.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        options: ServiceOptions,
    ) -> Result<Self, xtwig_core::persist::OpenError> {
        Ok(TwigService::over(QueryEngine::open(path)?, options))
    }

    /// Serves an already-built shared engine. Spawns nothing.
    pub fn over(engine: QueryEngine, options: ServiceOptions) -> Self {
        let events =
            options.events.clone().unwrap_or_else(|| Arc::new(EventJournal::new(EVENT_CAPACITY)));
        let results = ResultCache::new(options.result_cache_capacity);
        let shared = Arc::new(Shared {
            epoch: Published::new(EngineEpoch { engine, generation: 0, results }),
            maintenance: Mutex::new(Maintenance),
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            result_cache_capacity: options.result_cache_capacity,
            metrics: Metrics::new(options.slow_query_micros),
            events,
        });
        TwigService { shared, admission: Admission::new(options.max_in_flight) }
    }

    /// Answers `twig` synchronously on the **caller's** thread (one
    /// connection thread = one dispatcher in the network front end; see
    /// the module docs) against a pinned epoch, through the plan and
    /// result caches. Rejects with [`ServiceError::StrategyNotBuilt`]
    /// when the service was built without `strategy` (for
    /// [`Strategy::Auto`], without any), and with
    /// [`ServiceError::Overloaded`] when the admission budget is
    /// exhausted.
    pub fn execute(
        &self,
        twig: &TwigPattern,
        strategy: Strategy,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.execute_with(twig, strategy, &RequestCtx::default())
    }

    /// [`TwigService::execute`] with a wire [`RequestCtx`]: the request
    /// id and peer stamp any slow-query capture, and `ctx.sample`
    /// bypasses the result cache and records the span tree of the one
    /// execution that serves the request, which the `Trace` opcode can
    /// fetch by id.
    pub fn execute_with(
        &self,
        twig: &TwigPattern,
        strategy: Strategy,
        ctx: &RequestCtx,
    ) -> Result<ServiceAnswer, ServiceError> {
        // The one availability check, against the epoch the request runs
        // on, before admission: a refused strategy is never submitted.
        let epoch = self.shared.epoch.pin();
        if !epoch.engine.has_strategy(strategy) {
            return Err(ServiceError::StrategyNotBuilt(strategy));
        }
        let Some(_permit) = self.admission.try_acquire() else {
            return Err(self.reject_overloaded());
        };
        let metrics = &self.shared.metrics;
        metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let answer = answer_pinned(&self.shared, &epoch, twig, strategy, ctx);
        metrics.completed.fetch_add(1, Ordering::Relaxed);
        Ok(answer)
    }

    /// Builds the typed Overloaded rejection and journals it — every
    /// admission refusal leaves an event.
    fn reject_overloaded(&self) -> ServiceError {
        let in_flight = self.admission.in_flight();
        let limit = self.admission.limit();
        self.shared
            .events
            .emit(Event::AdmissionRejected { in_flight: in_flight as u64, limit: limit as u64 });
        ServiceError::Overloaded { in_flight, limit }
    }

    /// Commits a batch of index-maintenance operations atomically and
    /// returns the generation that serves them.
    ///
    /// Snapshot isolation, not mutual exclusion: the writer forks the
    /// newest epoch's engine ([`QueryEngine::fork`] — a warm copy-on-
    /// write fork: the new pools share every resident page image with
    /// the old ones and copy a page only when an op first writes it),
    /// applies every op to the fork, and publishes the fork as the next
    /// epoch, with an empty result cache; the ops are not kept once
    /// applied, and the displaced epoch's cached answers go with it
    /// (counted as invalidated). In-flight
    /// queries keep reading the epoch they pinned and **never block on
    /// this writer**; queries that arrive after the publish see every op
    /// and find the pool as warm as the one they left. Concurrent
    /// writers serialize on the maintenance lock.
    pub fn apply_update(&self, ops: Vec<UpdateOp>) -> u64 {
        let mut maint = self.shared.maintenance.lock();
        let current = self.shared.epoch.pin();
        let mut engine = fork_engine(&maint, &current);
        let op_count = ops.len() as u64;
        for op in ops {
            match op {
                UpdateOp::InsertPath { tags, ids, value } => {
                    if let Some(rp) = engine.rootpaths_mut() {
                        rp.insert_path(&tags, &ids, value.as_deref());
                    }
                    if let Some(dp) = engine.datapaths_mut() {
                        dp.insert_path(&tags, &ids, value.as_deref());
                    }
                }
                UpdateOp::DeletePath { tags, ids, value } => {
                    if let Some(rp) = engine.rootpaths_mut() {
                        rp.delete_path(&tags, &ids, value.as_deref());
                    }
                    if let Some(dp) = engine.datapaths_mut() {
                        dp.delete_path(&tags, &ids, value.as_deref());
                    }
                }
            }
        }
        self.shared.metrics.journal_ops.fetch_add(op_count, Ordering::Relaxed);
        let generation = current.generation + 1;
        drop(current);
        let results = ResultCache::new(self.shared.result_cache_capacity);
        let next = Arc::new(EngineEpoch { engine, generation, results });
        let old = self.shared.epoch.publish(&mut maint, next.clone());
        let displaced = next.results.take_over(&old.results);
        drop(maint);
        let metrics = &self.shared.metrics;
        metrics.updates.fetch_add(1, Ordering::Relaxed);
        metrics.result_invalidated.fetch_add(displaced as u64, Ordering::Relaxed);
        self.shared.events.emit(Event::UpdateCommitted { generation, ops: op_count });
        // The displaced epoch may hold the last reference to its pools.
        // Tearing them down frees only the page images the new epoch
        // does not share (the ones this commit replaced), but it still
        // walks every resident frame: do it outside both locks.
        drop(old);
        generation
    }

    /// Persists the current epoch's indexes to one `.xtwig` file,
    /// **folding** every copy-on-write overlay page accumulated by
    /// [`TwigService::apply_update`] into the new base image (the
    /// persist path reads pages through the pools, overlay-first).
    /// Reopening the file yields an engine with the updates applied and
    /// an empty overlay. Queries keep running against the pinned epoch
    /// throughout; concurrent updates serialize behind the fold. A
    /// reader pinning a page the fold must flush is transient, as it is
    /// for a fork (`fork_engine`): the fold retries.
    pub fn persist<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<PersistReport, PersistError> {
        let path = path.as_ref();
        let maint = self.shared.maintenance.lock();
        let epoch = self.shared.epoch.pin();
        let report = loop {
            match epoch.engine.persist(path) {
                Err(PersistError::PinnedPages { .. }) => std::thread::yield_now(),
                done => break done?,
            }
        };
        self.shared.metrics.folds.fetch_add(1, Ordering::Relaxed);
        drop(maint);
        self.shared.events.emit(Event::PersistFolded { path: path.display().to_string() });
        Ok(report)
    }

    /// Runs a read-only closure against a pinned epoch's engine
    /// (sequential-baseline comparisons, stats reporting). The closure
    /// sees one consistent snapshot and holds **no lock** — concurrent
    /// updates proceed freely and are invisible to it.
    pub fn with_engine<R>(&self, f: impl FnOnce(&QueryEngine) -> R) -> R {
        let epoch = self.shared.epoch.pin();
        f(&epoch.engine)
    }

    /// The generation of the current epoch: the number of updates
    /// committed since the service started.
    pub fn generation(&self) -> u64 {
        self.shared.epoch.pin().generation
    }

    /// Snapshot of every service metric, the current engine's per-pool
    /// page counters included (read from a pinned epoch, like a query).
    pub fn stats(&self) -> ServiceSnapshot {
        let shared = &self.shared;
        let epoch = shared.epoch.pin();
        let pools = epoch.engine.pool_counters();
        ServiceSnapshot {
            in_flight: self.admission.in_flight(),
            admission_limit: self.admission.limit(),
            overloaded: self.admission.rejected(),
            generation: epoch.generation,
            plan_cache: shared.plan_cache.stats(),
            pools: pools.iter().map(|(p, c)| (*p, c.snapshot(), c.resident_pages())).collect(),
            events: shared.events.kind_counts(),
            events_dropped: shared.events.dropped(),
            ..shared.metrics.snapshot()
        }
    }

    /// [`TwigService::stats`] in the Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.stats().to_prometheus()
    }

    /// The retained slow-query records, oldest first (see
    /// [`ServiceOptions::slow_query_micros`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.metrics.slow_queries()
    }

    /// The event journal this service emits into (shared when the
    /// catalog injected one; see [`ServiceOptions::events`]).
    pub fn events(&self) -> Arc<EventJournal> {
        self.shared.events.clone()
    }

    /// The newest retained trace record stamped with `request_id`
    /// (slow-query capture or an explicitly sampled request).
    pub fn find_trace(&self, request_id: u64) -> Option<SlowQuery> {
        self.shared.metrics.find_trace(request_id)
    }

    /// Consumes the service. Every query ran on its caller's thread and
    /// `self` is owned here, so none is in flight and there is nothing
    /// to drain or join: this is `drop`, kept under its old name because
    /// the frozen `benchmark/` harness calls it.
    pub fn shutdown(self) {}
}

/// The one lookup path: answers `twig` against a pinned epoch, which
/// the door has checked has `strategy` built. A result computed here is
/// cached in the pinned epoch's own result cache, so an update that
/// publishes the next epoch mid-execution never sees it. Result-cache
/// hits return without executing at all.
fn answer_pinned(
    shared: &Shared,
    epoch: &EngineEpoch,
    twig: &TwigPattern,
    strategy: Strategy,
    ctx: &RequestCtx,
) -> ServiceAnswer {
    let key = exact_key(twig);
    // Concrete strategies check the result cache before touching the
    // engine. Auto must compile (cheap on a plan-cache hit) to learn
    // its concrete key first — see `answer_miss`. A sampled request
    // skips the cache: the client asked for a trace of a real
    // execution, so a cache hit would return nothing to trace.
    if !strategy.is_auto() && !ctx.sample {
        if let Some(hit) = cached_answer(shared, epoch, &key, strategy) {
            return hit;
        }
    }
    answer_miss(shared, epoch, twig, strategy, key, ctx)
}

/// The result-cache lookup: `epoch`'s answer under the concrete
/// `strategy`, as it is served, counted as a hit or a miss.
fn cached_answer(
    shared: &Shared,
    epoch: &EngineEpoch,
    key: &str,
    strategy: Strategy,
) -> Option<ServiceAnswer> {
    let hit = epoch.results.get(key, strategy);
    let metrics = &shared.metrics;
    let counter = if hit.is_some() { &metrics.result_hits } else { &metrics.result_misses };
    counter.fetch_add(1, Ordering::Relaxed);
    let (ids, plan) = hit?;
    Some(ServiceAnswer { ids, plan, strategy, from_cache: true, metrics: QueryMetrics::default() })
}

/// The execution path: compile and resolve the strategy (through the
/// plan cache — an Auto request resolves to its shape's memoized
/// concrete pick), check/fill the result cache *under the resolved
/// strategy* (so auto and explicit requests for one query share
/// entries), execute, and record latency and cost counters.
fn answer_miss(
    shared: &Shared,
    epoch: &EngineEpoch,
    twig: &TwigPattern,
    requested: Strategy,
    key: String,
    ctx: &RequestCtx,
) -> ServiceAnswer {
    let engine = &epoch.engine;
    let Resolved { compiled, plan, strategy, shape } =
        match shared.plan_cache.compile_resolved(engine, twig, requested) {
            // Unknown tag: the answer is necessarily empty (§2.2); still
            // cacheable in the pinned epoch when the request
            // named a concrete strategy (nothing resolved, nothing
            // executed, no latency sample). An Auto request resolves
            // nothing here, and the lookup paths only read concrete keys,
            // so caching under `Auto` would waste an LRU slot on an entry
            // no one can hit.
            Err(_) => {
                let ids = Arc::new(BTreeSet::new());
                if !requested.is_auto() {
                    epoch.results.insert(key, requested, ids.clone(), PlanKind::Merge);
                }
                return ServiceAnswer {
                    ids,
                    plan: PlanKind::Merge,
                    strategy: requested,
                    from_cache: false,
                    metrics: QueryMetrics::default(),
                };
            }
            Ok(resolved) => resolved,
        };
    if requested.is_auto() {
        shared.metrics.record_auto_pick(strategy);
        // The pick's concrete key may already be cached (by an earlier
        // auto request or an explicit one). A sampled request skips
        // the hit for the same reason `answer_pinned` does.
        if !ctx.sample {
            if let Some(hit) = cached_answer(shared, epoch, &key, strategy) {
                return hit;
            }
        }
    }
    // Whether this run turns out slow is known only once it has run, so
    // a trace is recorded whenever its spans could be wanted — the
    // client sampled the request, or the slow log is on — and dropped
    // below if they were not. The spans are those of the execution that
    // serves the request, cold reads included.
    let slow_log = shared.metrics.slow_threshold.is_some();
    let mut trace = (ctx.sample || slow_log).then(xtwig_core::Trace::new);
    let answer = engine.answer_compiled_with(&compiled, &plan, strategy, trace.as_mut());
    shared.metrics.record(strategy, shape, &answer.metrics);
    let slow = shared.metrics.is_slow(answer.metrics.elapsed);
    if let Some(trace) = trace.filter(|_| slow || ctx.sample) {
        let micros = micros(answer.metrics.elapsed);
        let record = SlowQuery {
            query: twig.to_string(),
            strategy,
            micros,
            generation: epoch.generation,
            spans: trace.render(),
            request_id: ctx.request_id,
            peer: ctx.peer.clone(),
        };
        shared.metrics.record_trace(record, slow);
        if slow {
            shared.events.emit(Event::SlowQuery {
                query: twig.to_string(),
                micros,
                request_id: ctx.request_id,
                peer: ctx.peer.clone(),
            });
        }
    }
    let ids = Arc::new(answer.ids);
    epoch.results.insert(key, strategy, ids.clone(), answer.plan);
    ServiceAnswer { ids, plan: answer.plan, strategy, from_cache: false, metrics: answer.metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn small_service() -> TwigService {
        TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions::default(),
        )
    }

    #[test]
    fn execute_answers_on_the_caller_thread_and_shares_the_caches() {
        let svc = small_service();
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert_eq!(a.ids.len(), 1);
        assert!(!a.from_cache);
        // Asking again: result-cache hit with the same shared ids.
        let b = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(b.from_cache);
        assert!(Arc::ptr_eq(&a.ids, &b.ids));
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.result_cache.hits, 1);
        assert_eq!(stats.in_flight, 0, "permits released when the calls return");
    }

    #[test]
    fn exhausted_admission_budget_rejects_at_the_door_and_recovers() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions { max_in_flight: 1, ..Default::default() },
        );
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let hold = svc.admission.try_acquire().unwrap();
        match svc.execute(&twig, Strategy::RootPaths) {
            Err(ServiceError::Overloaded { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|a| a.ids)),
        }
        // Releasing the permit restores service.
        drop(hold);
        let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!a.ids.is_empty());
        let stats = svc.stats();
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.admission_limit, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn plan_cache_reuses_shapes_across_literals() {
        let svc = small_service();
        for v in ["jane", "john", "nobody"] {
            let twig = parse_xpath(&format!("//author[fn='{v}']")).unwrap();
            svc.execute(&twig, Strategy::DataPaths).unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.plan_cache.misses, 1, "one shape compiled once");
        assert_eq!(stats.plan_cache.hits, 2);
    }

    #[test]
    fn a_plan_cached_for_one_literal_does_not_bind_the_next_to_its_join_methods() {
        // XMark at scale 0.02: nine items have quantity 3, sixty-three
        // have quantity 2, nearly all have quantity 1. The three twigs
        // share one shape, so one cached plan.
        let ladder = |quantity: &str| {
            parse_xpath(&format!(
                "/site//item[quantity = '{quantity}'][location = 'united states']"
            ))
            .unwrap()
        };
        let service = || {
            let mut forest = XmlForest::new();
            xtwig_datagen::generate_xmark(
                &mut forest,
                xtwig_datagen::XmarkConfig { scale: 0.02, seed: 7 },
            );
            TwigService::build(
                forest,
                EngineOptions {
                    strategies: vec![Strategy::DataPaths],
                    pool_pages: 1024,
                    ..Default::default()
                },
                ServiceOptions { result_cache_capacity: 0, ..Default::default() },
            )
        };
        // Rare literal first: its plan probes `location` under each of
        // the few items it found.
        let svc = service();
        let rare = svc.execute(&ladder("3"), Strategy::DataPaths).unwrap();
        assert_eq!(rare.plan, PlanKind::IndexNestedLoop);
        assert!(rare.metrics.probes > 3, "one probe per item found: {:?}", rare.metrics);
        // The commoner literals run through the same cached plan — and
        // issue one probe per subpath, not one per item they found.
        for quantity in ["2", "1"] {
            let common = svc.execute(&ladder(quantity), Strategy::DataPaths).unwrap();
            assert!(common.ids.len() > 4 * rare.ids.len(), "quantity {quantity}");
            assert_eq!(common.plan, PlanKind::Merge, "quantity {quantity}");
            assert_eq!(common.metrics.probes, 3, "quantity {quantity}");
        }
        assert_eq!(svc.stats().plan_cache.misses, 1, "one shape, one plan");
        // The other way round, on a two-step shape: planned for the
        // sixty-three items of quantity 2, every `mailbox/mail/to` is one
        // free lookup; the eleven items of quantity 3 probe theirs.
        let mails = |quantity: &str| {
            parse_xpath(&format!("//item[quantity = '{quantity}']/mailbox/mail/to")).unwrap()
        };
        let common = svc.execute(&mails("2"), Strategy::DataPaths).unwrap();
        assert_eq!((common.plan, common.metrics.probes), (PlanKind::Merge, 2));
        let rare = svc.execute(&mails("3"), Strategy::DataPaths).unwrap();
        assert_eq!(rare.plan, PlanKind::IndexNestedLoop);
        assert!(rare.metrics.probes > 2 && rare.metrics.probes < 20, "{:?}", rare.metrics);
        assert!(rare.metrics.rows_fetched * 4 < common.metrics.rows_fetched);
        assert_eq!(svc.stats().plan_cache.misses, 2, "two shapes, two plans");
    }

    #[test]
    fn auto_requests_resolve_and_share_the_concrete_cache_key() {
        let svc = small_service();
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let a = svc.execute(&twig, Strategy::Auto).unwrap();
        assert!(!a.strategy.is_auto(), "answer must report the optimizer's concrete pick");
        assert_eq!(a.ids.len(), 1);
        assert!(!a.from_cache);
        // A second auto request for the same query hits the result
        // cache under the resolved concrete key…
        let b = svc.execute(&twig, Strategy::Auto).unwrap();
        assert!(b.from_cache);
        assert_eq!(b.strategy, a.strategy);
        assert!(Arc::ptr_eq(&a.ids, &b.ids));
        // …and so does an *explicit* request for the picked strategy.
        let c = svc.execute(&twig, a.strategy).unwrap();
        assert!(c.from_cache, "auto and explicit requests share cache entries");
        let stats = svc.stats();
        let picks: u64 = stats.costs.iter().map(|c| c.auto_picks).sum();
        assert_eq!(picks, 2, "each auto request counts one optimizer pick");
        let picked = stats.costs.iter().find(|c| c.strategy == a.strategy).unwrap();
        assert_eq!(picked.auto_picks, 2);
        assert_eq!(picked.executed, 1, "one execution, one cache hit");
        assert!(picked.probes > 0 && picked.logical_reads > 0);
    }

    #[test]
    fn auto_resolution_is_memoized_per_shape_in_the_plan_cache() {
        let svc = small_service();
        // Same shape, different literals: one compile, one ranking.
        for v in ["jane", "john", "nobody"] {
            let twig = parse_xpath(&format!("//author[fn='{v}']")).unwrap();
            let a = svc.execute(&twig, Strategy::Auto).unwrap();
            assert!(!a.strategy.is_auto());
        }
        let stats = svc.stats();
        assert_eq!(stats.plan_cache.misses, 1, "one shape compiled once");
        assert_eq!(stats.plan_cache.hits, 2);
        assert_eq!(stats.costs.iter().map(|c| c.auto_picks).sum::<u64>(), 3);
    }

    #[test]
    fn auto_requires_some_built_strategy() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions {
                strategies: vec![Strategy::Asr],
                pool_pages: 256,
                ..Default::default()
            },
            ServiceOptions::default(),
        );
        let twig = parse_xpath("//author").unwrap();
        // Auto is accepted whenever anything is built, and resolves
        // within the built subset.
        let a = svc.execute(&twig, Strategy::Auto).unwrap();
        assert_eq!(a.strategy, Strategy::Asr);
        assert_eq!(a.ids.len(), 3);
    }

    #[test]
    fn the_door_shares_cache_entries_bypasses_them_when_sampled_and_adds_no_probe() {
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        for requested in [Strategy::RootPaths, Strategy::Auto] {
            let svc = small_service();
            let first = svc.execute(&twig, requested).unwrap();
            assert!(!first.from_cache && !first.strategy.is_auto());
            let second = svc.execute_with(&twig, requested, &RequestCtx::default()).unwrap();
            assert!(second.from_cache, "{requested}: cached by one entry point, hit by the other");
            assert!(Arc::ptr_eq(&first.ids, &second.ids));
            assert_eq!(second.strategy, first.strategy);
            // A sampled request executes despite the entry, on the
            // concrete key and on the key Auto resolves to alike.
            let ctx = RequestCtx { request_id: 77, sample: true, peer: String::new() };
            let sampled = svc.execute_with(&twig, requested, &ctx).unwrap();
            assert!(!sampled.from_cache, "{requested}: sampling bypasses the hit");
            assert_eq!(*sampled.ids, *first.ids);
            let trace = svc.find_trace(77).expect("sampled execution leaves its trace");
            assert_eq!(trace.strategy, first.strategy);
        }
        // An unknown tag resolves nothing under Auto, so nothing is cached.
        let svc = small_service();
        let unknown = parse_xpath("//nosuchtag").unwrap();
        for _ in 0..3 {
            let a = svc.execute(&unknown, Strategy::Auto).unwrap();
            assert!(a.ids.is_empty() && !a.from_cache);
        }
        assert!(svc.shared.epoch.pin().results.is_empty());
        // With the result cache off every request executes, and the
        // service path adds no probe and carries no state from one
        // request into the next: its counters are the bare engine's.
        // (Single-threaded and RP only: the Edge family's deferred lookup
        // counters are per pool and would mix under concurrent callers.)
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions { result_cache_capacity: 0, ..Default::default() },
        );
        let bare = svc.with_engine(|e| e.answer(&twig, Strategy::RootPaths));
        assert!(bare.metrics.probes > 0);
        for _ in 0..2 {
            let served = svc.execute(&twig, Strategy::RootPaths).unwrap();
            assert!(!served.from_cache);
            assert_eq!(*served.ids, bare.ids);
            assert_eq!(served.metrics.probes, bare.metrics.probes);
            assert_eq!(served.metrics.rows_fetched, bare.metrics.rows_fetched);
        }
    }

    #[test]
    fn strategy_not_built_is_rejected_at_the_door() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 256,
                ..Default::default()
            },
            ServiceOptions::default(),
        );
        let twig = parse_xpath("//author").unwrap();
        assert_eq!(
            svc.execute(&twig, Strategy::Edge).err(),
            Some(ServiceError::StrategyNotBuilt(Strategy::Edge))
        );
        assert!(svc.execute(&twig, Strategy::RootPaths).is_ok());
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.failed), (1, 0), "refused before admission");
    }

    /// The §7 maintenance ops the update tests insert: one new author
    /// path with `fn='ada'` (author node id 900).
    fn ada_ops(svc: &TwigService) -> Vec<UpdateOp> {
        let tags: Vec<TagId> = svc.with_engine(|engine| {
            let dict = engine.forest().dict();
            ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
        });
        vec![
            UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 5, 900], value: None },
            UpdateOp::InsertPath { tags, ids: vec![1, 5, 900, 901], value: Some("ada".into()) },
        ]
    }

    #[test]
    fn update_bumps_generation_and_invalidates_results() {
        let svc = small_service();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        let before = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(before.ids.is_empty());
        let ops = ada_ops(&svc);
        assert_eq!(svc.apply_update(ops), 1);
        assert_eq!(svc.generation(), 1);
        let after = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!after.from_cache, "stale cached empty answer must not be served");
        assert_eq!(after.ids.iter().copied().collect::<Vec<_>>(), vec![900]);
        assert_eq!(svc.stats().result_cache.invalidated, 1);
        assert_eq!(svc.stats().journal_ops, 2);
    }

    #[test]
    fn an_answer_cached_on_a_displaced_epoch_misses_on_the_next() {
        let svc = small_service();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        let pinned = svc.shared.epoch.pin();
        svc.apply_update(ada_ops(&svc));
        // A reader that pinned the old epoch finishes after the publish:
        // its answer lands in that epoch's cache and nowhere else.
        let ctx = RequestCtx::default();
        let late = answer_pinned(&svc.shared, &pinned, &twig, Strategy::RootPaths, &ctx);
        assert!(late.ids.is_empty() && !late.from_cache);
        assert_eq!(pinned.results.len(), 1);
        let now = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!now.from_cache, "the newer epoch misses the displaced epoch's entry");
        assert_eq!(now.ids.iter().copied().collect::<Vec<_>>(), vec![900]);
        assert!(svc.execute(&twig, Strategy::RootPaths).unwrap().from_cache);
    }

    #[test]
    fn delete_op_reverts_an_insert_on_every_maintainable_structure() {
        let svc = small_service();
        let ops = ada_ops(&svc);
        svc.apply_update(ops.clone());
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert_eq!(svc.execute(&twig, s).unwrap().ids.len(), 1, "{s}");
        }
        let deletes: Vec<UpdateOp> = ops
            .into_iter()
            .rev()
            .map(|op| match op {
                UpdateOp::InsertPath { tags, ids, value } => {
                    UpdateOp::DeletePath { tags, ids, value }
                }
                #[allow(clippy::unreachable)] // `ada_ops` yields inserts only
                UpdateOp::DeletePath { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(svc.apply_update(deletes), 2);
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert!(svc.execute(&twig, s).unwrap().ids.is_empty(), "{s}");
        }
    }

    #[test]
    fn pinned_snapshot_stays_consistent_while_updates_publish() {
        // A reader holding an epoch must not observe an update that
        // commits while it reads — and must not block the writer.
        let svc = Arc::new(small_service());
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        let ops = ada_ops(&svc);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let reader = {
            let svc = svc.clone();
            let twig = twig.clone();
            std::thread::spawn(move || {
                svc.with_engine(|engine| {
                    entered_tx.send(()).unwrap();
                    // Hold the snapshot open until the writer commits.
                    release_rx.recv().unwrap();
                    engine.answer(&twig, Strategy::RootPaths).ids.len()
                })
            })
        };
        entered_rx.recv().unwrap();
        // The writer publishes while the reader's snapshot is open —
        // if readers held a lock, this would deadlock.
        svc.apply_update(ops);
        assert_eq!(svc.generation(), 1);
        release_tx.send(()).unwrap();
        let seen = reader.join().unwrap();
        assert_eq!(seen, 0, "pinned snapshot predates the update");
        // A fresh pin sees the committed update.
        let now = svc.with_engine(|e| e.answer(&twig, Strategy::RootPaths).ids.len());
        assert_eq!(now, 1);
    }

    #[test]
    fn persist_folds_overlay_updates_into_the_file() {
        let dir = std::env::temp_dir().join(format!("xtwig-svc-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("folded.xtwig");
        let svc = small_service();
        svc.apply_update(ada_ops(&svc));
        let report = svc.persist(&path).unwrap();
        assert!(report.file_bytes > 0);
        assert_eq!(svc.stats().folds, 1);
        // Reopen: the update is part of the base image now.
        let reopened = TwigService::open(&path, ServiceOptions::default()).unwrap();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = reopened.execute(&twig, s).unwrap();
            assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![900], "{s}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_text_and_slow_query_log() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions {
                // Zero threshold: every executed query is "slow".
                slow_query_micros: Some(0),
                ..Default::default()
            },
        );
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        svc.execute(&twig, Strategy::RootPaths).unwrap();
        let text = svc.metrics_text();
        assert!(text.contains("xtwig_queries_completed_total 1"), "{text}");
        assert!(text.contains("xtwig_strategy_executed_total{strategy=\"RP\"} 1"));
        assert!(text.contains("xtwig_pool_page_reads_total{pool=\"rootpaths\"}"));
        assert!(text.contains("xtwig_query_latency_micros_bucket{strategy=\"RP\",le=\"+Inf\"} 1"));
        assert!(text.contains("xtwig_shape_queries_total{shape="));
        assert!(text.contains("xtwig_slow_queries_total 1"));
        let slow = svc.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].strategy, Strategy::RootPaths);
        assert_eq!(slow[0].generation, 0);
        assert!(slow[0].spans.contains("execute"), "{}", slow[0].spans);
        assert!(slow[0].query.contains("author"));
        // A cache hit does no index work: not slow, not re-counted.
        svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert_eq!(svc.slow_queries().len(), 1);
        // Past capacity the ring keeps the newest and the counter all.
        let capacity = crate::metrics::SLOW_QUERY_CAPACITY;
        for i in 0..=capacity {
            let twig = parse_xpath(&format!("//author[fn='v{i}']")).unwrap();
            svc.execute(&twig, Strategy::RootPaths).unwrap();
        }
        let slow = svc.slow_queries();
        assert_eq!(slow.len(), capacity);
        assert!(slow[0].query.contains("v1"), "{}", slow[0].query);
        assert_eq!(svc.stats().slow_queries, capacity as u64 + 2);
    }

    #[test]
    fn metrics_text_exposes_the_maintenance_counters() {
        let dir = std::env::temp_dir().join(format!("xtwig-svc-counters-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let svc = small_service();
        svc.apply_update(ada_ops(&svc));
        svc.persist(dir.join("folded.xtwig")).unwrap();
        let text = svc.metrics_text();
        for sample in [
            "xtwig_journal_ops_total 2",
            "xtwig_folds_total 1",
            "xtwig_admission_limit 1024",
            "xtwig_result_cache_invalidated_total 0",
        ] {
            assert!(text.lines().any(|l| l == sample), "{sample} missing from:\n{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
