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
//! engine lives inside an immutable `EngineEpoch` — engine plus the
//! generation it serves — behind an `RwLock<Arc<EngineEpoch>>` held
//! only long enough to clone or swap the `Arc`. Readers **pin** the
//! current epoch and execute with no lock held, so a query never waits
//! on maintenance. Writers serialize on a maintenance mutex that also
//! owns the update journal: [`TwigService::apply_update`] forks the
//! newest epoch (`QueryEngine::fork` — a page-free copy-on-write
//! snapshot), applies its [`UpdateOp`]s to the fork, appends them to
//! the journal, and publishes the fork as the next epoch;
//! [`TwigService::rebuild_parallel`] rebuilds from the forest with no
//! lock held, then **replays the journal** onto the new engine under
//! the maintenance lock before swapping it in, so a rebuild can never
//! lose a committed update.

use crate::admission::Admission;
use crate::cache::{PlanCache, ResultCache};
use crate::events::{Event, EventJournal};
use crate::metrics::{render_metrics, MetricsRegistry, SlowQuery};
use crate::shape::{exact_key, shape_key};
use crate::stats::{ServiceSnapshot, ServiceStats};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xtwig_core::engine::{EngineOptions, QueryMetrics};
use xtwig_core::persist::{PersistError, PersistReport};
use xtwig_core::plan::PlanKind;
use xtwig_core::{QueryEngine, Strategy};
use xtwig_xml::{TagId, TwigPattern, XmlForest};

/// The engine type a service shares across its callers' threads.
pub type SharedEngine = QueryEngine<Arc<XmlForest>>;

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
    /// goes once that line does (ROADMAP item 4).
    #[doc(hidden)]
    pub workers: usize,
    /// Distinct shapes the plan cache may hold (default 4096).
    pub plan_cache_capacity: usize,
    /// Result-cache entries; 0 disables result caching (default 1024).
    pub result_cache_capacity: usize,
    /// Executions at or above this many microseconds are captured into
    /// the slow-query log together with the span tree of that same
    /// execution (`None` disables the log; default). While the log is
    /// enabled every executed query records spans, because whether it
    /// was slow is known only afterwards — the ledger's
    /// `obs.traced_exec_ratio` (`benchmark/`) is what that costs on
    /// each execution; fast runs discard their spans.
    pub slow_query_micros: Option<u64>,
    /// Slow-query records retained, oldest evicted first (default 32).
    pub slow_query_capacity: usize,
    /// Admission bound: queries in flight (executing on their callers'
    /// threads) beyond which requests are refused with
    /// [`ServiceError::Overloaded`]. `0` disables the bound (default
    /// 1024).
    pub max_in_flight: usize,
    /// Event journal this service emits into. `None` (default) gives
    /// the service a private journal of [`ServiceOptions::event_capacity`]
    /// entries; the catalog injects one shared journal so every index's
    /// events land in a single stream the wire `Events` opcode serves.
    pub events: Option<Arc<EventJournal>>,
    /// Ring capacity of a privately created journal (default 256).
    pub event_capacity: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 0,
            plan_cache_capacity: 4096,
            result_cache_capacity: 1024,
            slow_query_micros: None,
            slow_query_capacity: 32,
            max_in_flight: 1024,
            events: None,
            event_capacity: 256,
        }
    }
}

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

/// One immutable engine generation. An epoch is never mutated after
/// publication: writers fork the newest epoch's engine, mutate the
/// fork, and publish a *new* epoch. Readers that cloned the `Arc` keep
/// a consistent snapshot — engine state and the generation it serves
/// are one atomic unit, so a result computed against an epoch can
/// always be cached under exactly that epoch's generation.
struct EngineEpoch {
    engine: SharedEngine,
    generation: u64,
}

/// One logical index-maintenance operation, applied to every
/// maintainable structure the engine built (ROOTPATHS and DATAPATHS)
/// and journaled so a concurrent rebuild can replay it.
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

/// Applies one op to every maintainable structure the engine built.
/// Returns true when at least one structure changed.
fn apply_op(engine: &mut SharedEngine, op: &UpdateOp) -> bool {
    let mut changed = false;
    match op {
        UpdateOp::InsertPath { tags, ids, value } => {
            if let Some(rp) = engine.rootpaths_mut() {
                rp.insert_path(tags, ids, value.as_deref());
                changed = true;
            }
            if let Some(dp) = engine.datapaths_mut() {
                dp.insert_path(tags, ids, value.as_deref());
                changed = true;
            }
        }
        UpdateOp::DeletePath { tags, ids, value } => {
            if let Some(rp) = engine.rootpaths_mut() {
                changed |= rp.delete_path(tags, ids, value.as_deref());
            }
            if let Some(dp) = engine.datapaths_mut() {
                changed |= dp.delete_path(tags, ids, value.as_deref());
            }
        }
    }
    changed
}

/// Writer-side state, serialized by the maintenance mutex: the journal
/// of every update committed since the engine was built (or last
/// rebuilt *and* folded — see [`TwigService::rebuild_parallel`], which
/// replays it, and [`TwigService::persist`], which folds the page
/// overlay but keeps the journal for rebuilds from the forest).
struct Maintenance {
    journal: Vec<UpdateOp>,
}

struct Shared {
    /// The published epoch. The lock is held only to clone (readers) or
    /// swap (writers) the `Arc` — never across query execution or index
    /// mutation, so readers and writers never wait on each other's
    /// *work*, only on a pointer exchange.
    epoch: RwLock<Arc<EngineEpoch>>,
    /// Serializes writers ([`TwigService::apply_update`],
    /// [`TwigService::rebuild_parallel`], [`TwigService::persist`]) and
    /// owns the journal. Lock order: maintenance before epoch.
    maintenance: Mutex<Maintenance>,
    plan_cache: PlanCache,
    result_cache: ResultCache,
    /// Lock-free mirror of the published epoch's generation (for
    /// [`TwigService::generation`] and stats).
    generation: AtomicU64,
    stats: ServiceStats,
    metrics: MetricsRegistry,
    /// Structured event journal (shared with the catalog/server when
    /// injected via [`ServiceOptions::events`]).
    events: Arc<EventJournal>,
    /// Which strategies the *current* engine has built — atomic because
    /// [`TwigService::rebuild_parallel`] may swap in an engine with a
    /// different strategy set while requests race the check.
    available: [AtomicBool; Strategy::ALL.len()],
}

impl Shared {
    /// Pins the published epoch: clones the `Arc` under a momentary
    /// read lock. Everything pinned stays readable (and consistent)
    /// for as long as the clone lives, however many swaps happen.
    fn pin(&self) -> Arc<EngineEpoch> {
        self.epoch.read().clone()
    }

    /// Publishes `next` as the current epoch and mirrors its generation.
    /// Returns the displaced epoch so callers drop it outside the lock.
    fn publish(&self, next: Arc<EngineEpoch>) -> Arc<EngineEpoch> {
        let mut slot = self.epoch.write();
        self.generation.store(next.generation, Ordering::SeqCst);
        std::mem::replace(&mut *slot, next)
    }

    fn set_available(&self, engine: &SharedEngine) {
        for (slot, s) in self.available.iter().zip(Strategy::ALL.iter()) {
            slot.store(engine.has_strategy(*s), Ordering::SeqCst);
        }
    }
}

/// Forks `epoch`'s engine, retrying while a concurrent reader pins a
/// freshly dirtied page (transient — see [`xtwig_core::ForkError`]).
/// Callers hold the maintenance lock, so no *writer* races the fork.
fn fork_engine(epoch: &EngineEpoch) -> SharedEngine {
    loop {
        match epoch.engine.fork() {
            Ok(engine) => return engine,
            Err(xtwig_core::ForkError::PinnedPages { .. }) => std::thread::yield_now(),
        }
    }
}

/// A twig query service over one shared [`SharedEngine`]: `Sync`, with
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
    pub fn over(engine: SharedEngine, options: ServiceOptions) -> Self {
        let available = std::array::from_fn(|i| {
            AtomicBool::new(Strategy::ALL.get(i).is_some_and(|s| engine.has_strategy(*s)))
        });
        let events = options
            .events
            .clone()
            .unwrap_or_else(|| Arc::new(EventJournal::new(options.event_capacity)));
        let shared = Arc::new(Shared {
            epoch: RwLock::new(Arc::new(EngineEpoch { engine, generation: 0 })),
            maintenance: Mutex::new(Maintenance { journal: Vec::new() }),
            plan_cache: PlanCache::new(options.plan_cache_capacity),
            result_cache: ResultCache::new(options.result_cache_capacity),
            generation: AtomicU64::new(0),
            stats: ServiceStats::default(),
            metrics: MetricsRegistry::new(options.slow_query_micros, options.slow_query_capacity),
            events,
            available,
        });
        TwigService { shared, admission: Admission::new(options.max_in_flight) }
    }

    /// Answers `twig` synchronously on the **caller's** thread (one
    /// connection thread = one dispatcher in the network front end; see
    /// the module docs) against a pinned epoch, through the plan and
    /// result caches. Rejects with [`ServiceError::Overloaded`] when the
    /// admission budget is exhausted.
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
        self.check_strategy_available(strategy)?;
        let Some(_permit) = self.admission.try_acquire() else {
            return Err(self.reject_overloaded());
        };
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let answer = answer_pinned(&self.shared, &self.shared.pin(), twig, strategy, ctx);
        let outcome =
            if answer.is_ok() { &self.shared.stats.completed } else { &self.shared.stats.failed };
        outcome.fetch_add(1, Ordering::Relaxed);
        answer
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

    /// The availability check at the door, before admission (see
    /// `answer_pinned` for the recheck against the pinned engine that
    /// closes the rebuild TOCTOU). Auto needs any built strategy — the
    /// optimizer only ranks what exists — and a strategy missing from
    /// `Strategy::ALL` reads as unavailable, never as a panic.
    fn check_strategy_available(&self, strategy: Strategy) -> Result<(), ServiceError> {
        let available = &self.shared.available;
        let built = if strategy.is_auto() {
            available.iter().any(|a| a.load(Ordering::SeqCst))
        } else {
            Strategy::ALL
                .iter()
                .position(|s| *s == strategy)
                .and_then(|i| available.get(i))
                .is_some_and(|a| a.load(Ordering::SeqCst))
        };
        if built {
            Ok(())
        } else {
            Err(ServiceError::StrategyNotBuilt(strategy))
        }
    }

    /// Commits a batch of index-maintenance operations atomically and
    /// returns the generation that serves them.
    ///
    /// Snapshot isolation, not mutual exclusion: the writer forks the
    /// newest epoch's engine ([`QueryEngine::fork`] — a warm copy-on-
    /// write fork: the new pools share every resident page image with
    /// the old ones and copy a page only when an op first writes it),
    /// applies every op to the fork, journals the ops for future
    /// rebuilds, and publishes the fork as the next epoch. In-flight
    /// queries keep reading the epoch they pinned and **never block on
    /// this writer**; queries that arrive after the publish see every op
    /// and find the pool as warm as the one they left. Concurrent
    /// writers serialize on the maintenance lock.
    pub fn apply_update(&self, ops: Vec<UpdateOp>) -> u64 {
        let mut maint = self.shared.maintenance.lock();
        let current = self.shared.pin();
        let mut engine = fork_engine(&current);
        for op in &ops {
            apply_op(&mut engine, op);
        }
        let op_count = ops.len() as u64;
        self.shared.stats.journal_ops.fetch_add(op_count, Ordering::Relaxed);
        maint.journal.extend(ops);
        let generation = current.generation + 1;
        drop(current);
        let old = self.shared.publish(Arc::new(EngineEpoch { engine, generation }));
        self.shared.stats.updates.fetch_add(1, Ordering::Relaxed);
        drop(maint);
        self.shared.events.emit(Event::UpdateCommitted { generation, ops: op_count });
        // The displaced epoch may hold the last reference to its pools.
        // Tearing them down frees only the page images the new epoch
        // does not share (the ones this commit replaced), but it still
        // walks every resident frame: do it outside both locks.
        drop(old);
        generation
    }

    /// Rebuilds every index configuration with the shard-parallel
    /// builder and swaps the new engine in — **without draining
    /// readers**: the build runs over the shared `Arc<XmlForest>`
    /// handle with no lock held, so queries keep executing against the
    /// old epoch for the whole build, and in-flight queries that pinned
    /// it finish on it even after the swap.
    ///
    /// Updates are never lost to the race between building and
    /// swapping: the forest is static, so the fresh engine knows
    /// nothing of any [`TwigService::apply_update`] ever committed —
    /// before the swap, the **full journal is replayed** onto it under
    /// the maintenance lock (which also blocks new updates for the
    /// replay's duration, bounded by journal length, not build time).
    /// The new epoch's generation supersedes every earlier one, staling
    /// all cached results, and the strategy-availability flags are
    /// refreshed for the new engine's strategy set.
    pub fn rebuild_parallel(&self, options: EngineOptions, shards: usize) {
        let forest = self.shared.pin().engine.forest_handle();
        let mut new_engine = QueryEngine::build_parallel(forest, options, shards);
        let (old, generation, replayed_ops) = {
            let maint = self.shared.maintenance.lock();
            for op in &maint.journal {
                apply_op(&mut new_engine, op);
            }
            let replayed = maint.journal.len() as u64;
            self.shared.stats.replayed_ops.fetch_add(replayed, Ordering::Relaxed);
            self.shared.set_available(&new_engine);
            let generation = self.shared.pin().generation + 1;
            self.shared.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            let old = self.shared.publish(Arc::new(EngineEpoch { engine: new_engine, generation }));
            (old, generation, replayed)
        };
        self.shared.events.emit(Event::RebuildSwapped { generation, replayed_ops });
        // Tear the old epoch down (up to seven strategies' pools and
        // trees) only after releasing the locks — readers must not
        // stall behind the deallocation.
        drop(old);
    }

    /// Persists the current epoch's indexes to one `.xtwig` file,
    /// **folding** every copy-on-write overlay page accumulated by
    /// [`TwigService::apply_update`] into the new base image (the
    /// persist path reads pages through the pools, overlay-first).
    /// Reopening the file yields an engine with the updates applied and
    /// an empty overlay. Queries keep running against the pinned epoch
    /// throughout; concurrent updates serialize behind the fold.
    pub fn persist<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<PersistReport, PersistError> {
        let path = path.as_ref();
        let maint = self.shared.maintenance.lock();
        let epoch = self.shared.pin();
        let report = epoch.engine.persist(path)?;
        self.shared.stats.folds.fetch_add(1, Ordering::Relaxed);
        drop(maint);
        self.shared.events.emit(Event::PersistFolded { path: path.display().to_string() });
        Ok(report)
    }

    /// Runs a read-only closure against a pinned epoch's engine
    /// (sequential-baseline comparisons, stats reporting). The closure
    /// sees one consistent snapshot and holds **no lock** — concurrent
    /// updates and rebuilds proceed freely and are invisible to it.
    pub fn with_engine<R>(&self, f: impl FnOnce(&SharedEngine) -> R) -> R {
        let epoch = self.shared.pin();
        f(&epoch.engine)
    }

    /// Current invalidation generation.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Snapshot of every service metric.
    pub fn stats(&self) -> ServiceSnapshot {
        let s = &self.shared.stats;
        ServiceSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            updates: s.updates.load(Ordering::Relaxed),
            rebuilds: s.rebuilds.load(Ordering::Relaxed),
            journal_ops: s.journal_ops.load(Ordering::Relaxed),
            replayed_ops: s.replayed_ops.load(Ordering::Relaxed),
            folds: s.folds.load(Ordering::Relaxed),
            in_flight: self.admission.in_flight(),
            admission_limit: self.admission.limit(),
            overloaded: self.admission.rejected(),
            generation: self.generation(),
            plan_cache: self.shared.plan_cache.stats(),
            result_cache: self.shared.result_cache.stats(),
            latency: s.latency_snapshots(),
            costs: s.cost_snapshots(),
        }
    }

    /// Renders every service metric in the Prometheus text exposition
    /// format: request/cache counters, per-strategy execution costs
    /// and log2 latency histograms, per-pool page-read/miss/pin
    /// counters from the current engine, per-shape traffic, and the
    /// slow-query count. Scrape-safe: holds no lock across query
    /// execution (the engine is pinned like any reader).
    pub fn metrics_text(&self) -> String {
        let snapshot = self.stats();
        let pools = self.with_engine(|e| e.pool_counters());
        render_metrics(&snapshot, &pools, &self.shared.metrics, &self.shared.events)
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

/// The one lookup path: answers `twig` against a pinned epoch. The
/// epoch binds engine state and generation into one atomic unit: a
/// result computed here is cached under the pinned epoch's generation,
/// so an update publishing generation N+1 mid-execution cannot cause a
/// stale result to be tagged fresh (the cache also refuses to clobber a
/// newer-generation entry). Result-cache hits return without executing
/// at all. (A
/// rebuild that dropped the strategy published a higher generation; a
/// caller that pinned the old epoch *before* the swap may still serve
/// one cached pre-rebuild answer — correct data for the epoch that was
/// live when the query was accepted, after which the entry is stale.)
///
/// Errs with [`ServiceError::StrategyNotBuilt`] when a rebuild dropped
/// the strategy between the door's availability check and the pin — the
/// recheck is against the pinned engine this call actually executes on,
/// so a query never reaches an unbuilt structure (whose accessor would
/// panic on the caller's thread — a connection thread, under `net`).
fn answer_pinned(
    shared: &Shared,
    epoch: &EngineEpoch,
    twig: &TwigPattern,
    strategy: Strategy,
    ctx: &RequestCtx,
) -> Result<ServiceAnswer, ServiceError> {
    let key = exact_key(twig);
    // Concrete strategies check the result cache before touching the
    // engine. Auto must compile (cheap on a plan-cache hit) to learn
    // its concrete key first — see `answer_miss`. A sampled request
    // skips the cache: the client asked for a trace of a real
    // execution, so a cache hit would return nothing to trace.
    if !strategy.is_auto() && !ctx.sample {
        if let Some(hit) = cached_answer(shared, &key, strategy, epoch.generation) {
            return Ok(hit);
        }
    }
    if !epoch.engine.has_strategy(strategy) {
        return Err(ServiceError::StrategyNotBuilt(strategy));
    }
    Ok(answer_miss(shared, epoch, twig, strategy, key, ctx))
}

/// The result-cache lookup: a hit under the concrete `strategy` and
/// `generation`, as the answer it is served as.
fn cached_answer(
    shared: &Shared,
    key: &str,
    strategy: Strategy,
    generation: u64,
) -> Option<ServiceAnswer> {
    shared.result_cache.get(key, strategy, generation).map(|(ids, plan)| ServiceAnswer {
        ids,
        plan,
        strategy,
        from_cache: true,
        metrics: QueryMetrics::default(),
    })
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
    let (engine, generation) = (&epoch.engine, epoch.generation);
    let (compiled, plan, strategy) =
        match shared.plan_cache.compile_resolved(engine, twig, requested) {
            // Unknown tag: the answer is necessarily empty (§2.2); still
            // cacheable under the current generation when the request
            // named a concrete strategy (nothing resolved, nothing
            // executed, no latency sample). An Auto request resolves
            // nothing here, and the lookup paths only read concrete keys,
            // so caching under `Auto` would waste an LRU slot on an entry
            // no one can hit.
            Err(_) => {
                let ids = Arc::new(BTreeSet::new());
                if !requested.is_auto() {
                    shared.result_cache.insert(
                        key,
                        requested,
                        ids.clone(),
                        PlanKind::Merge,
                        generation,
                    );
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
        shared.stats.record_auto_pick(strategy);
        // The pick's concrete key may already be cached (by an earlier
        // auto request or an explicit one). A sampled request skips
        // the hit for the same reason `answer_pinned` does.
        if !ctx.sample {
            if let Some(hit) = cached_answer(shared, &key, strategy, generation) {
                return hit;
            }
        }
    }
    // Whether this run turns out slow is known only once it has run, so
    // a trace is recorded whenever its spans could be wanted — the
    // client sampled the request, or the slow log is on — and dropped
    // below if they were not. The spans are those of the execution that
    // serves the request, cold reads included.
    let mut trace = (ctx.sample || shared.metrics.slow_log_enabled()).then(xtwig_core::Trace::new);
    let answer = engine.answer_compiled_with(&compiled, &plan, strategy, trace.as_mut());
    shared.stats.record_latency(strategy, answer.metrics.elapsed);
    shared.stats.record_cost(strategy, &answer.metrics);
    shared.metrics.observe_shape(&shape_key(twig), answer.metrics.elapsed);
    let slow = shared.metrics.is_slow(answer.metrics.elapsed);
    if let Some(trace) = trace.filter(|_| slow || ctx.sample) {
        let micros = answer.metrics.elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let record = SlowQuery {
            query: twig.to_string(),
            strategy,
            micros,
            generation,
            spans: trace.render(),
            request_id: ctx.request_id,
            peer: ctx.peer.clone(),
        };
        if slow {
            shared.metrics.record_slow(record);
            shared.events.emit(Event::SlowQuery {
                query: twig.to_string(),
                micros,
                request_id: ctx.request_id,
                peer: ctx.peer.clone(),
            });
        } else {
            shared.metrics.record_sampled(record);
        }
    }
    let ids = Arc::new(answer.ids);
    shared.result_cache.insert(key, strategy, ids.clone(), answer.plan, generation);
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
    fn memoized_auto_pick_survives_rebuilds_that_drop_the_picked_strategy() {
        // The plan cache memoizes the optimizer's pick per shape; a
        // rebuild may swap in an engine without that strategy. The
        // stale pick must re-resolve against the live engine — never
        // reach an unbuilt structure (whose accessor would panic the
        // calling thread).
        let svc = small_service();
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let first = svc.execute(&twig, Strategy::Auto).unwrap();
        let picked = first.strategy;
        assert!(!picked.is_auto());
        // Rebuild with every strategy EXCEPT the memoized pick.
        let remaining: Vec<Strategy> =
            Strategy::ALL.iter().copied().filter(|s| *s != picked).collect();
        svc.rebuild_parallel(
            EngineOptions { strategies: remaining.clone(), pool_pages: 256, ..Default::default() },
            2,
        );
        let after = svc.execute(&twig, Strategy::Auto).unwrap();
        assert!(remaining.contains(&after.strategy), "re-resolved within the new subset");
        assert_eq!(*after.ids, *first.ids);
        // The re-resolved pick replaced the stale memo and keeps serving.
        let alive = svc.execute(&twig, Strategy::Auto).unwrap();
        assert_eq!(*alive.ids, *first.ids);
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
        assert!(svc.shared.result_cache.is_empty());
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
    fn rebuild_replays_the_journal_so_no_update_is_lost() {
        // The lost-update bug this PR fixes: a rebuild re-reads the
        // static forest, which knows nothing of index-only updates. The
        // journal replay must restore every committed op — including
        // ops committed *before* the rebuild started.
        let svc = small_service();
        svc.apply_update(ada_ops(&svc));
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 2);
        let stats = svc.stats();
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.replayed_ops, 2, "full journal replayed onto the fresh engine");
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = svc.execute(&twig, s).unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![900],
                "{s}: update survived the rebuild"
            );
        }
        // A second rebuild replays the (still-retained) journal again.
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 2);
        assert_eq!(svc.stats().replayed_ops, 4);
        let again = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert_eq!(again.ids.len(), 1);
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
    fn rebuild_swaps_engine_and_invalidates_results() {
        let svc = small_service();
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let before = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert_eq!(before.ids.len(), 2);
        // Cached now; a rebuild must stale the cache even though the
        // answer set is unchanged (the indexes were reconstructed).
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 4);
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.stats().rebuilds, 1);
        let after = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!after.from_cache, "rebuild must invalidate cached results");
        assert_eq!(*after.ids, *before.ids);
    }

    #[test]
    fn rebuild_can_change_the_strategy_set() {
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
        assert!(svc.execute(&twig, Strategy::DataPaths).is_err());
        svc.rebuild_parallel(
            EngineOptions {
                strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
                pool_pages: 256,
                ..Default::default()
            },
            2,
        );
        let a = svc.execute(&twig, Strategy::DataPaths).unwrap();
        assert_eq!(a.ids.len(), 3);
        // Dropping a strategy makes it unavailable again.
        svc.rebuild_parallel(
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 256,
                ..Default::default()
            },
            2,
        );
        assert_eq!(
            svc.execute(&twig, Strategy::DataPaths).err(),
            Some(ServiceError::StrategyNotBuilt(Strategy::DataPaths))
        );
    }

    #[test]
    fn rebuilds_racing_callers_answer_or_reject_but_never_panic() {
        // TOCTOU guard: a request can pass the door's availability check
        // and pin its epoch only after a rebuild dropped its strategy.
        // The recheck against the pinned engine must turn that into
        // StrategyNotBuilt — never reach the unbuilt structure, whose
        // accessor would panic the calling thread.
        let options = |strategies: &[Strategy]| EngineOptions {
            strategies: strategies.to_vec(),
            pool_pages: 256,
            ..Default::default()
        };
        let both = [Strategy::RootPaths, Strategy::DataPaths];
        let svc = TwigService::over(
            QueryEngine::build(Arc::new(fig1_book_document()), options(&both)),
            ServiceOptions { result_cache_capacity: 0, ..Default::default() },
        );
        let twig = parse_xpath("//author").unwrap();
        let (answered, rejected) = (AtomicU64::new(0), AtomicU64::new(0));
        let stop = AtomicBool::new(false);
        // Rebuilds until a caller has seen `outcome` move past `seen`, so
        // every swap is followed by requests racing the next one.
        let rebuild_until_observed = |outcome: &AtomicU64, strategies: &[Strategy]| {
            let seen = outcome.load(Ordering::SeqCst);
            svc.rebuild_parallel(options(strategies), 2);
            let patience = std::time::Instant::now();
            while outcome.load(Ordering::SeqCst) == seen {
                if patience.elapsed().as_secs() >= 60 {
                    stop.store(true, Ordering::SeqCst); // let the scope join
                    panic!("callers stopped making progress");
                }
                std::thread::yield_now();
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        match svc.execute(&twig, Strategy::DataPaths) {
                            Ok(a) => {
                                assert_eq!(a.ids.len(), 3);
                                answered.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(ServiceError::StrategyNotBuilt(Strategy::DataPaths)) => {
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        }
                        // RootPaths is in every engine: it answers throughout.
                        assert_eq!(svc.execute(&twig, Strategy::RootPaths).unwrap().ids.len(), 3);
                    }
                });
            }
            for _ in 0..4 {
                rebuild_until_observed(&rejected, &[Strategy::RootPaths]);
                rebuild_until_observed(&answered, &both);
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(answered.load(Ordering::SeqCst) > 0 && rejected.load(Ordering::SeqCst) > 0);
        let stats = svc.stats();
        assert_eq!(stats.rebuilds, 8);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn queries_keep_serving_across_concurrent_rebuilds() {
        // Readers and rebuilds interleave: every answer must come from
        // either the old or the new engine — both correct — and nothing
        // deadlocks or errors.
        let svc = small_service();
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let expected = svc.execute(&twig, Strategy::RootPaths).unwrap().ids;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // At least one rebuild, even if the readers finish first.
                loop {
                    svc.rebuild_parallel(
                        EngineOptions { pool_pages: 256, ..Default::default() },
                        3,
                    );
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..60 {
                            let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
                            assert_eq!(*a.ids, *expected);
                        }
                    })
                })
                .collect();
            // Stop the rebuilder before surfacing a reader's panic, or
            // the scope would wait on it forever.
            let outcomes: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
            stop.store(true, Ordering::SeqCst);
            for outcome in outcomes {
                outcome.unwrap();
            }
        });
        assert!(svc.stats().rebuilds >= 1);
    }

    #[test]
    fn metrics_text_and_slow_query_log() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions {
                // Zero threshold: every executed query is "slow".
                slow_query_micros: Some(0),
                slow_query_capacity: 4,
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
    }
}
