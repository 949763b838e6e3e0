//! The concurrent query service: submission API, worker pool, deadlines,
//! graceful shutdown, and the snapshot-isolated maintenance path.
//!
//! Threading model — two dispatch doors over one execution path, both
//! behind the same [`Admission`] budget (bounded in-flight queries,
//! typed [`ServiceError::Overloaded`] rejection):
//!
//! * **Direct dispatch** ([`TwigService::execute`] /
//!   [`TwigService::execute_batch`]): the query runs synchronously on
//!   the *caller's* thread against a pinned epoch — no queue, no
//!   handoff, no shared consumer lock. This is how the network front
//!   end serves: each connection thread dispatches its own queries, so
//!   concurrency scales with connections and cores instead of
//!   serializing through one channel (the old shared-`mpsc`-behind-a-
//!   mutex worker queue was single-core-shaped and is gone).
//! * **Queued dispatch** ([`TwigService::submit`] and friends): the
//!   query is cloned into a `Job` pushed onto a condvar-backed deque
//!   (`JobQueue`) that `workers` std threads drain; each job carries
//!   a [`Ticket`] slot (mutex + condvar) the submitter waits on.
//!   Deadlines bound queue residence; shutdown closes the queue and
//!   drains what is already accepted.
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

use crate::admission::{Admission, Permit};
use crate::cache::{PlanCache, ResultCache};
use crate::events::{Event, EventJournal};
use crate::metrics::{render_metrics, MetricsRegistry, SlowQuery};
use crate::shape::{exact_key, shape_key};
use crate::stats::{ServiceSnapshot, ServiceStats};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xtwig_core::engine::{EngineOptions, ProbeMemo, QueryMetrics};
use xtwig_core::persist::{PersistError, PersistReport};
use xtwig_core::plan::PlanKind;
use xtwig_core::{QueryEngine, Strategy};
use xtwig_xml::{TagId, TwigPattern, XmlForest};

/// The engine type a service shares across worker threads.
pub type SharedEngine = QueryEngine<Arc<XmlForest>>;

/// Why a submission or wait failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The requested strategy's structures were not built.
    StrategyNotBuilt(Strategy),
    /// The query was still queued when its deadline passed.
    DeadlineExceeded,
    /// The job was dropped without an answer (worker panic or teardown).
    Canceled,
    /// The admission budget is exhausted: too many queries in flight.
    /// Typed so callers (and the wire protocol) can back off instead of
    /// piling onto an overloaded service.
    Overloaded {
        /// Queries in flight when the submission was refused.
        in_flight: usize,
        /// The configured [`ServiceOptions::max_in_flight`] bound.
        limit: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::StrategyNotBuilt(s) => write!(f, "strategy {s} was not built"),
            ServiceError::DeadlineExceeded => write!(f, "query deadline exceeded while queued"),
            ServiceError::Canceled => write!(f, "query canceled without an answer"),
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
    /// Worker threads (minimum 1; default 4).
    pub workers: usize,
    /// Enable the shape-keyed plan cache (default true).
    pub plan_cache: bool,
    /// Distinct shapes the plan cache may hold (default 4096).
    pub plan_cache_capacity: usize,
    /// Result-cache entries; 0 disables result caching (default 1024).
    pub result_cache_capacity: usize,
    /// Deadline applied to submissions that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Executions at or above this many microseconds are captured into
    /// the slow-query log together with the span tree of that same
    /// execution (`None` disables the log; default). While the log is
    /// enabled every executed query records spans, because whether it
    /// was slow is known only afterwards — `fig_obs`'s `on`/`off` ratio
    /// (1.05–1.08 in `BENCH_obs.json`) is what that costs on each
    /// execution; fast runs discard their spans.
    pub slow_query_micros: Option<u64>,
    /// Slow-query records retained, oldest evicted first (default 32).
    pub slow_query_capacity: usize,
    /// Admission bound: queries in flight (queued + executing, across
    /// both dispatch doors) beyond which submissions are refused with
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
            workers: 4,
            plan_cache: true,
            plan_cache_capacity: 4096,
            result_cache_capacity: 1024,
            default_deadline: None,
            slow_query_micros: None,
            slow_query_capacity: 32,
            max_in_flight: 1024,
            events: None,
            event_capacity: 256,
        }
    }
}

/// Per-request context the wire front end threads through direct
/// dispatch: the client-stamped request id, whether the client asked
/// for a trace capture, and the connection's peer address. Local
/// submissions use the default (id 0, unsampled, no peer).
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
    /// query was submitted with [`Strategy::Auto`].
    pub strategy: Strategy,
    /// True when served from the result cache.
    pub from_cache: bool,
    /// Execution metrics; zeroed for cache hits (no index work done).
    pub metrics: QueryMetrics,
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

type JobResult = Result<Vec<ServiceAnswer>, ServiceError>;

struct Slot {
    state: StdMutex<Option<JobResult>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { state: StdMutex::new(None), cv: Condvar::new() })
    }

    /// First resolution wins; later calls (e.g. the cancel-on-drop
    /// guard after a normal resolve) are no-ops.
    fn resolve(&self, result: JobResult) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some(result);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> JobResult {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`Slot::wait`] but gives up after `timeout`, leaving the
    /// slot intact (a later wait can still take the result).
    fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _) =
                self.cv.wait_timeout(state, deadline - now).unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }
}

/// Handle to one in-flight query.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the worker resolves the query.
    pub fn wait(self) -> Result<ServiceAnswer, ServiceError> {
        // A resolved single-query job always carries one answer; an
        // empty vector would mean a worker bug, which surfaces as a
        // typed error instead of panicking the waiting thread.
        self.slot.wait().and_then(|mut answers| answers.pop().ok_or(ServiceError::Canceled))
    }

    /// Waits at most `timeout` for the answer; `None` leaves the ticket
    /// usable for a later `wait`/`wait_timeout`. This is the caller-side
    /// bound — the submission deadline only rejects work still *queued*
    /// when it expires, it cannot preempt an executing worker.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServiceAnswer, ServiceError>> {
        self.slot
            .wait_timeout(timeout)
            .map(|r| r.and_then(|mut answers| answers.pop().ok_or(ServiceError::Canceled)))
    }
}

/// Handle to one in-flight batch.
pub struct BatchTicket {
    slot: Arc<Slot>,
}

impl BatchTicket {
    /// Blocks until the worker resolves the batch; answers are in
    /// submission order.
    pub fn wait(self) -> Result<Vec<ServiceAnswer>, ServiceError> {
        self.slot.wait()
    }
}

// ---------------------------------------------------------------------------
// Jobs and workers
// ---------------------------------------------------------------------------

enum JobKind {
    Single(TwigPattern, Strategy),
    Batch(Vec<TwigPattern>, Strategy),
}

struct Job {
    kind: JobKind,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
    /// Admission units held for the whole queued + executing lifetime
    /// and taken out just before the slot resolves (by `run_job`, or by
    /// `Drop` for a job that never ran): a waiter that has its result
    /// also sees the budget returned, as on the direct door.
    permit: Option<Permit>,
}

/// The worker queue: a plain deque under a mutex with a condvar, shared
/// by every worker. This replaced the original `mpsc::Receiver` behind
/// a `Mutex` (where a worker had to win two locks to take a job and
/// at most one could block on `recv`): workers park on the condvar and
/// each push wakes exactly one. Closing the queue wakes everyone;
/// already-accepted jobs drain before workers exit (graceful shutdown).
struct JobQueue {
    inner: StdMutex<JobQueueInner>,
    cv: Condvar,
}

struct JobQueueInner {
    jobs: VecDeque<Job>,
    open: bool,
}

impl JobQueue {
    fn new() -> Arc<JobQueue> {
        Arc::new(JobQueue {
            inner: StdMutex::new(JobQueueInner { jobs: VecDeque::new(), open: true }),
            cv: Condvar::new(),
        })
    }

    /// Enqueues `job`, or hands it back when the queue is closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.open {
            return Err(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Takes the next job, blocking while the queue is open and empty.
    /// `None` means closed *and* drained — the worker should exit.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting jobs and wakes every parked worker to drain.
    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.open = false;
        drop(inner);
        self.cv.notify_all();
    }

    fn is_open(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).open
    }
}

impl JobKind {
    /// Queries this job carries (stats count queries, not jobs).
    fn query_count(&self) -> u64 {
        match self {
            JobKind::Single(..) => 1,
            JobKind::Batch(twigs, _) => twigs.len() as u64,
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // Covers worker panics and teardown paths: a job never resolved
        // by execution resolves to Canceled instead of hanging waiters.
        drop(self.permit.take());
        self.slot.resolve(Err(ServiceError::Canceled));
    }
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
    /// different strategy set while submissions race the check.
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

/// A multi-threaded twig query service over one shared [`SharedEngine`].
pub struct TwigService {
    shared: Arc<Shared>,
    queue: Arc<JobQueue>,
    admission: Arc<Admission>,
    workers: Vec<JoinHandle<()>>,
    default_deadline: Option<Duration>,
}

impl TwigService {
    /// Builds the engine over `forest` and starts the worker pool.
    pub fn build(forest: XmlForest, engine: EngineOptions, options: ServiceOptions) -> Self {
        TwigService::over(QueryEngine::build(Arc::new(forest), engine), options)
    }

    /// Reopens a persisted index file (see `xtwig-core`'s
    /// [`QueryEngine::persist`](xtwig_core::QueryEngine::persist)) and
    /// starts the worker pool over it — a service restart without
    /// paying the index build: no enumeration, no sorting, no bulk
    /// loads; the stored per-strategy digests are verified against the
    /// reopened page images before any query is accepted.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        options: ServiceOptions,
    ) -> Result<Self, xtwig_core::persist::OpenError> {
        Ok(TwigService::over(QueryEngine::open(path)?, options))
    }

    /// Starts a worker pool over an already-built shared engine.
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
            plan_cache: PlanCache::new(options.plan_cache, options.plan_cache_capacity),
            result_cache: ResultCache::new(options.result_cache_capacity),
            generation: AtomicU64::new(0),
            stats: ServiceStats::default(),
            metrics: MetricsRegistry::new(options.slow_query_micros, options.slow_query_capacity),
            events,
            available,
        });
        let queue = JobQueue::new();
        let mut workers = Vec::new();
        for i in 0..options.workers.max(1) {
            let shared = shared.clone();
            let worker_queue = queue.clone();
            match std::thread::Builder::new()
                .name(format!("xtwig-worker-{i}"))
                .spawn(move || worker_loop(&shared, &worker_queue))
            {
                Ok(handle) => workers.push(handle),
                // Spawn failure (OS thread exhaustion) degrades the
                // pool instead of panicking the attaching thread —
                // which is a *connection* thread when the catalog
                // attaches an index on first use.
                Err(_) => break,
            }
        }
        if workers.is_empty() {
            // With no workers, queued submissions would park forever;
            // closing the queue makes them fail fast with a typed
            // ShuttingDown. Direct dispatch (`execute`) still serves.
            queue.close();
        }
        TwigService {
            shared,
            queue,
            admission: Admission::new(options.max_in_flight),
            workers,
            default_deadline: options.default_deadline,
        }
    }

    /// Submits one query; the returned [`Ticket`] resolves when a
    /// worker answers it.
    pub fn submit(&self, twig: &TwigPattern, strategy: Strategy) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(twig, strategy, self.default_deadline)
    }

    /// [`TwigService::submit`] with an explicit queueing deadline,
    /// enforced when a worker dequeues the job: a query still queued
    /// past its deadline resolves to [`ServiceError::DeadlineExceeded`]
    /// at that point. It bounds queue residence, not the caller's wait —
    /// `Ticket::wait` still blocks until a worker picks the job up (use
    /// [`Ticket::wait_timeout`] for a caller-side bound), and a query
    /// already executing runs to completion (workers are not preempted).
    pub fn submit_with_deadline(
        &self,
        twig: &TwigPattern,
        strategy: Strategy,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let slot = self.enqueue(JobKind::Single(twig.clone(), strategy), strategy, deadline)?;
        Ok(Ticket { slot })
    }

    /// Submits a batch answered as one unit on one worker, with index
    /// probes deduplicated across the batch's shared PCsubpaths.
    pub fn submit_batch(
        &self,
        twigs: &[TwigPattern],
        strategy: Strategy,
    ) -> Result<BatchTicket, ServiceError> {
        let slot = self.enqueue(
            JobKind::Batch(twigs.to_vec(), strategy),
            strategy,
            self.default_deadline,
        )?;
        Ok(BatchTicket { slot })
    }

    fn enqueue(
        &self,
        kind: JobKind,
        strategy: Strategy,
        deadline: Option<Duration>,
    ) -> Result<Arc<Slot>, ServiceError> {
        // Auto needs any built strategy — the optimizer only ranks
        // what exists.
        if !strategy_available(&self.shared, strategy) {
            return Err(ServiceError::StrategyNotBuilt(strategy));
        }
        if !self.queue.is_open() {
            return Err(ServiceError::ShuttingDown);
        }
        let queries = kind.query_count();
        let Some(permit) = self.admission.try_acquire(queries as usize) else {
            return Err(self.reject_overloaded());
        };
        let slot = Slot::new();
        let job = Job {
            kind,
            deadline: deadline.map(|d| Instant::now() + d),
            slot: slot.clone(),
            permit: Some(permit),
        };
        self.shared.stats.enqueue(queries);
        if let Err(job) = self.queue.push(job) {
            // The queue closed between the open check and the push; the
            // dropped job resolves its slot to Canceled, but no ticket
            // ever sees it — the caller gets the typed rejection.
            self.shared.stats.dequeue();
            drop(job);
            return Err(ServiceError::ShuttingDown);
        }
        Ok(slot)
    }

    /// Answers `twig` synchronously on the **caller's** thread — the
    /// direct-dispatch door the network front end uses (one connection
    /// thread = one dispatcher; see the module docs). Shares everything
    /// with the queued path: the pinned-epoch snapshot discipline, plan
    /// and result caches, stats, and the admission budget. Rejects with
    /// [`ServiceError::Overloaded`] when the budget is exhausted and
    /// [`ServiceError::ShuttingDown`] after shutdown began.
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
        if !self.queue.is_open() {
            return Err(ServiceError::ShuttingDown);
        }
        let Some(_permit) = self.admission.try_acquire(1) else {
            return Err(self.reject_overloaded());
        };
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        match answer_one(&self.shared, twig, strategy, ctx) {
            Ok(answer) => {
                self.shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                Ok(answer)
            }
            Err(e) => {
                self.shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// [`TwigService::execute`] for a batch: answered on the caller's
    /// thread as one unit against one pinned epoch, with index probes
    /// deduplicated across the batch's shared PCsubpaths. The whole
    /// batch draws its member count from the admission budget.
    pub fn execute_batch(
        &self,
        twigs: &[TwigPattern],
        strategy: Strategy,
    ) -> Result<Vec<ServiceAnswer>, ServiceError> {
        self.check_strategy_available(strategy)?;
        if !self.queue.is_open() {
            return Err(ServiceError::ShuttingDown);
        }
        let Some(_permit) = self.admission.try_acquire(twigs.len()) else {
            return Err(self.reject_overloaded());
        };
        self.shared.stats.submitted.fetch_add(twigs.len() as u64, Ordering::Relaxed);
        answer_batch(&self.shared, twigs, strategy)
    }

    /// Builds the typed Overloaded rejection and journals it — every
    /// admission refusal (queued, direct, batch) leaves an event.
    fn reject_overloaded(&self) -> ServiceError {
        let in_flight = self.admission.in_flight();
        let limit = self.admission.limit();
        self.shared
            .events
            .emit(Event::AdmissionRejected { in_flight: in_flight as u64, limit: limit as u64 });
        ServiceError::Overloaded { in_flight, limit }
    }

    /// The submit-time availability check both doors share (see
    /// `answer_one` for the execution-time recheck that closes the
    /// rebuild TOCTOU).
    fn check_strategy_available(&self, strategy: Strategy) -> Result<(), ServiceError> {
        if strategy_available(&self.shared, strategy) {
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
    /// this writer**; queries submitted after the publish see every op
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
            deadline_missed: s.deadline_missed.load(Ordering::Relaxed),
            updates: s.updates.load(Ordering::Relaxed),
            rebuilds: s.rebuilds.load(Ordering::Relaxed),
            journal_ops: s.journal_ops.load(Ordering::Relaxed),
            replayed_ops: s.replayed_ops.load(Ordering::Relaxed),
            folds: s.folds.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batch_queries: s.batch_queries.load(Ordering::Relaxed),
            memo_hits: s.memo_hits.load(Ordering::Relaxed),
            memo_misses: s.memo_misses.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            queue_high_water: s.queue_high_water.load(Ordering::Relaxed),
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

    /// Worker threads serving the queue.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Renders every service metric in the Prometheus text exposition
    /// format: submission/cache counters, per-strategy execution costs
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

    /// Graceful shutdown: stop accepting submissions, let the workers
    /// drain every queued job, then join them.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        self.queue.close(); // rejects new pushes; workers drain what's queued
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TwigService {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// The submit-time availability check both dispatch doors share. A
/// strategy missing from `Strategy::ALL` reads as unavailable (a typed
/// `StrategyNotBuilt`), never as a panic.
fn strategy_available(shared: &Shared, strategy: Strategy) -> bool {
    if strategy.is_auto() {
        shared.available.iter().any(|a| a.load(Ordering::SeqCst))
    } else {
        Strategy::ALL
            .iter()
            .position(|s| *s == strategy)
            .and_then(|i| shared.available.get(i))
            .is_some_and(|a| a.load(Ordering::SeqCst))
    }
}

fn worker_loop(shared: &Shared, queue: &JobQueue) {
    while let Some(job) = queue.pop() {
        shared.stats.dequeue();
        run_job(shared, job);
    }
    // `pop` returned None: queue closed and drained — shutdown.
}

fn run_job(shared: &Shared, mut job: Job) {
    let queries = job.kind.query_count();
    let result = if job.deadline.is_some_and(|d| Instant::now() > d) {
        shared.stats.deadline_missed.fetch_add(queries, Ordering::Relaxed);
        shared.stats.failed.fetch_add(queries, Ordering::Relaxed);
        Err(ServiceError::DeadlineExceeded)
    } else {
        match &job.kind {
            JobKind::Single(twig, strategy) => {
                let answer = answer_one(shared, twig, *strategy, &RequestCtx::default());
                let outcome =
                    if answer.is_ok() { &shared.stats.completed } else { &shared.stats.failed };
                outcome.fetch_add(1, Ordering::Relaxed);
                answer.map(|a| vec![a])
            }
            JobKind::Batch(twigs, strategy) => answer_batch(shared, twigs, *strategy),
        }
    };
    drop(job.permit.take());
    job.slot.resolve(result);
}

/// Answers a batch as one unit: one pinned epoch, one shared probe
/// memo, full completion/failure accounting. Shared by the queued path
/// (`run_job`) and the direct-dispatch door
/// ([`TwigService::execute_batch`]).
fn answer_batch(
    shared: &Shared,
    twigs: &[TwigPattern],
    strategy: Strategy,
) -> Result<Vec<ServiceAnswer>, ServiceError> {
    let queries = twigs.len() as u64;
    // ONE pinned epoch for the whole batch: the memo must not
    // straddle an update, or matches memoized before it could
    // be re-served — and cached — under the post-update
    // generation. The epoch carries its own generation, so the
    // batch's snapshot and its cache tag cannot disagree.
    let epoch = shared.pin();
    let mut memo = ProbeMemo::new();
    let answers: Result<Vec<ServiceAnswer>, ServiceError> = {
        // Recheck against the engine actually executing: a
        // rebuild may have dropped the strategy after submit's
        // availability check passed (see `answer_one`).
        if epoch.engine.has_strategy(strategy) {
            Ok(twigs
                .iter()
                .map(|t| {
                    answer_pinned(
                        shared,
                        &epoch.engine,
                        t,
                        strategy,
                        Some(&mut memo),
                        epoch.generation,
                    )
                })
                .collect())
        } else {
            Err(ServiceError::StrategyNotBuilt(strategy))
        }
    };
    match answers {
        Ok(answers) => {
            let memo_stats = memo.stats();
            shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            shared.stats.batch_queries.fetch_add(queries, Ordering::Relaxed);
            shared.stats.memo_hits.fetch_add(memo_stats.hits, Ordering::Relaxed);
            shared.stats.memo_misses.fetch_add(memo_stats.misses, Ordering::Relaxed);
            shared.stats.completed.fetch_add(queries, Ordering::Relaxed);
            Ok(answers)
        }
        Err(e) => {
            shared.stats.failed.fetch_add(queries, Ordering::Relaxed);
            Err(e)
        }
    }
}

/// Answers one single-submission query against a pinned epoch. The
/// epoch binds engine state and generation into one atomic unit: a
/// result computed here is cached under the pinned epoch's generation,
/// so an update publishing generation N+1 mid-execution cannot cause a
/// stale result to be tagged fresh (the cache also refuses to clobber
/// a newer-generation entry). Result-cache hits return without
/// executing at all. (A rebuild that dropped the strategy published a
/// higher generation; a worker that pinned the old epoch *before* the
/// swap may still serve one cached pre-rebuild answer — correct data
/// for the epoch that was live when the query was accepted, after
/// which the entry is stale.)
///
/// Errs with [`ServiceError::StrategyNotBuilt`] when a rebuild dropped
/// the strategy between submit's availability check and execution —
/// the recheck is against the pinned engine this worker actually
/// executes on, so a query never reaches an unbuilt structure (whose
/// accessor would panic and kill the worker thread).
fn answer_one(
    shared: &Shared,
    twig: &TwigPattern,
    strategy: Strategy,
    ctx: &RequestCtx,
) -> Result<ServiceAnswer, ServiceError> {
    let epoch = shared.pin();
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
    Ok(answer_miss(shared, &epoch.engine, twig, strategy, None, epoch.generation, key, ctx))
}

/// The result-cache lookup every path shares: a hit under the concrete
/// `strategy` and `generation`, as the answer it is served as.
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

/// Answers one query of a batch against the batch's pinned epoch and
/// its generation (see `run_job`'s batch arm for why both are shared).
fn answer_pinned(
    shared: &Shared,
    engine: &SharedEngine,
    twig: &TwigPattern,
    strategy: Strategy,
    memo: Option<&mut ProbeMemo>,
    generation: u64,
) -> ServiceAnswer {
    let key = exact_key(twig);
    if !strategy.is_auto() {
        if let Some(hit) = cached_answer(shared, &key, strategy, generation) {
            return hit;
        }
    }
    answer_miss(shared, engine, twig, strategy, memo, generation, key, &RequestCtx::default())
}

/// The execution path: compile and resolve the strategy (through the
/// plan cache — an Auto submission resolves to its shape's memoized
/// concrete pick), check/fill the result cache *under the resolved
/// strategy* (so auto and explicit submissions of one query share
/// entries), execute, and record latency and cost counters.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by three call sites
fn answer_miss(
    shared: &Shared,
    engine: &SharedEngine,
    twig: &TwigPattern,
    requested: Strategy,
    memo: Option<&mut ProbeMemo>,
    generation: u64,
    key: String,
    ctx: &RequestCtx,
) -> ServiceAnswer {
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
        // auto submission or an explicit one). A sampled request skips
        // the hit for the same reason `answer_one` does.
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
    let answer = engine.answer_compiled_with(&compiled, &plan, strategy, memo, trace.as_mut());
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
#[allow(clippy::unwrap_used)] // tests assert; unwrap is the assert
mod tests {
    use super::*;
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn small_service(workers: usize) -> TwigService {
        TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions { workers, ..Default::default() },
        )
    }

    #[test]
    fn execute_answers_on_the_caller_thread_and_shares_the_caches() {
        let svc = small_service(1);
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert_eq!(a.ids.len(), 1);
        assert!(!a.from_cache);
        // A queued submission of the same query hits the result cache
        // populated by the direct dispatch — one cache, two doors.
        let b = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert!(b.from_cache);
        assert!(Arc::ptr_eq(&a.ids, &b.ids));
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 0, "permits released when queries resolve");
        svc.shutdown();
    }

    #[test]
    fn execute_batch_matches_queued_batch_answers() {
        let svc = small_service(1);
        let twigs: Vec<TwigPattern> = ["//author[fn='jane']", "//author[fn='john']"]
            .iter()
            .map(|q| parse_xpath(q).unwrap())
            .collect();
        let direct = svc.execute_batch(&twigs, Strategy::DataPaths).unwrap();
        let queued = svc.submit_batch(&twigs, Strategy::DataPaths).unwrap().wait().unwrap();
        assert_eq!(direct.len(), queued.len());
        for (d, q) in direct.iter().zip(queued.iter()) {
            assert_eq!(d.ids, q.ids);
        }
        let stats = svc.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batch_queries, 4);
        svc.shutdown();
    }

    #[test]
    fn exhausted_admission_budget_rejects_both_doors_and_recovers() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions { workers: 1, max_in_flight: 1, ..Default::default() },
        );
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let hold = svc.admission.try_acquire(1).unwrap();
        match svc.execute(&twig, Strategy::RootPaths) {
            Err(ServiceError::Overloaded { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|a| a.ids)),
        }
        assert!(matches!(
            svc.submit(&twig, Strategy::RootPaths),
            Err(ServiceError::Overloaded { .. })
        ));
        // A batch larger than the whole budget can never be admitted.
        let twigs = vec![twig.clone(), twig.clone()];
        drop(hold);
        assert!(matches!(
            svc.execute_batch(&twigs, Strategy::RootPaths),
            Err(ServiceError::Overloaded { .. })
        ));
        // Releasing the unit restores single-query service.
        let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!a.ids.is_empty());
        let stats = svc.stats();
        assert_eq!(stats.overloaded, 3);
        assert_eq!(stats.admission_limit, 1);
        assert_eq!(stats.in_flight, 0);
        svc.shutdown();
    }

    #[test]
    fn submit_and_wait_roundtrip() {
        let svc = small_service(2);
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let a = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(a.ids.len(), 1);
        assert!(!a.from_cache);
        // Resubmission: result-cache hit with the same shared ids.
        let b = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert!(b.from_cache);
        assert!(Arc::ptr_eq(&a.ids, &b.ids));
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.result_cache.hits, 1);
        svc.shutdown();
    }

    #[test]
    fn plan_cache_reuses_shapes_across_literals() {
        let svc = small_service(1);
        for v in ["jane", "john", "nobody"] {
            let twig = parse_xpath(&format!("//author[fn='{v}']")).unwrap();
            svc.submit(&twig, Strategy::DataPaths).unwrap().wait().unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.plan_cache.misses, 1, "one shape compiled once");
        assert_eq!(stats.plan_cache.hits, 2);
        svc.shutdown();
    }

    #[test]
    fn auto_submissions_resolve_and_share_the_concrete_cache_key() {
        let svc = small_service(2);
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let a = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        assert!(!a.strategy.is_auto(), "answer must report the optimizer's concrete pick");
        assert_eq!(a.ids.len(), 1);
        assert!(!a.from_cache);
        // A second auto submission of the same query hits the result
        // cache under the resolved concrete key…
        let b = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        assert!(b.from_cache);
        assert_eq!(b.strategy, a.strategy);
        assert!(Arc::ptr_eq(&a.ids, &b.ids));
        // …and so does an *explicit* submission of the picked strategy.
        let c = svc.submit(&twig, a.strategy).unwrap().wait().unwrap();
        assert!(c.from_cache, "auto and explicit submissions share cache entries");
        let stats = svc.stats();
        let picks: u64 = stats.costs.iter().map(|c| c.auto_picks).sum();
        assert_eq!(picks, 2, "each auto submission counts one optimizer pick");
        let picked = stats.costs.iter().find(|c| c.strategy == a.strategy).unwrap();
        assert_eq!(picked.auto_picks, 2);
        assert_eq!(picked.executed, 1, "one execution, one cache hit");
        assert!(picked.probes > 0 && picked.logical_reads > 0);
        svc.shutdown();
    }

    #[test]
    fn auto_resolution_is_memoized_per_shape_in_the_plan_cache() {
        let svc = small_service(1);
        // Same shape, different literals: one compile, one ranking.
        for v in ["jane", "john", "nobody"] {
            let twig = parse_xpath(&format!("//author[fn='{v}']")).unwrap();
            let a = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
            assert!(!a.strategy.is_auto());
        }
        let stats = svc.stats();
        assert_eq!(stats.plan_cache.misses, 1, "one shape compiled once");
        assert_eq!(stats.plan_cache.hits, 2);
        assert_eq!(stats.costs.iter().map(|c| c.auto_picks).sum::<u64>(), 3);
        svc.shutdown();
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
            ServiceOptions { workers: 1, ..Default::default() },
        );
        let twig = parse_xpath("//author").unwrap();
        // Auto is accepted whenever anything is built, and resolves
        // within the built subset.
        let a = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        assert_eq!(a.strategy, Strategy::Asr);
        assert_eq!(a.ids.len(), 3);
        svc.shutdown();
    }

    #[test]
    fn memoized_auto_pick_survives_rebuilds_that_drop_the_picked_strategy() {
        // The plan cache memoizes the optimizer's pick per shape; a
        // rebuild may swap in an engine without that strategy. The
        // stale pick must re-resolve against the live engine — never
        // reach an unbuilt structure (whose accessor would panic and
        // permanently kill the worker thread).
        let svc = small_service(1);
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let first = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        let picked = first.strategy;
        assert!(!picked.is_auto());
        // Rebuild with every strategy EXCEPT the memoized pick.
        let remaining: Vec<Strategy> =
            Strategy::ALL.iter().copied().filter(|s| *s != picked).collect();
        svc.rebuild_parallel(
            EngineOptions { strategies: remaining.clone(), pool_pages: 256, ..Default::default() },
            2,
        );
        let after = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        assert!(remaining.contains(&after.strategy), "re-resolved within the new subset");
        assert_eq!(*after.ids, *first.ids);
        // The worker survived and keeps serving.
        let alive = svc.submit(&twig, Strategy::Auto).unwrap().wait().unwrap();
        assert_eq!(*alive.ids, *first.ids);
        svc.shutdown();
    }

    #[test]
    fn batch_accepts_auto() {
        let svc = small_service(2);
        let twigs: Vec<TwigPattern> = ["//author[fn='jane']/ln", "//author[fn='jane']"]
            .iter()
            .map(|q| parse_xpath(q).unwrap())
            .collect();
        let answers = svc.submit_batch(&twigs, Strategy::Auto).unwrap().wait().unwrap();
        assert_eq!(answers.len(), 2);
        for (t, a) in twigs.iter().zip(&answers) {
            assert!(!a.strategy.is_auto());
            let expected = svc.with_engine(|e| e.answer(t, Strategy::RootPaths).ids);
            assert_eq!(*a.ids, expected, "{t}");
        }
        svc.shutdown();
    }

    #[test]
    fn strategy_not_built_is_rejected_at_submit() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 256,
                ..Default::default()
            },
            ServiceOptions { workers: 1, ..Default::default() },
        );
        let twig = parse_xpath("//author").unwrap();
        assert_eq!(
            svc.submit(&twig, Strategy::Edge).err(),
            Some(ServiceError::StrategyNotBuilt(Strategy::Edge))
        );
        assert!(svc.submit(&twig, Strategy::RootPaths).is_ok());
        svc.shutdown();
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
        let svc = small_service(2);
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        let before = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert!(before.ids.is_empty());
        let ops = ada_ops(&svc);
        assert_eq!(svc.apply_update(ops), 1);
        assert_eq!(svc.generation(), 1);
        let after = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert!(!after.from_cache, "stale cached empty answer must not be served");
        assert_eq!(after.ids.iter().copied().collect::<Vec<_>>(), vec![900]);
        assert_eq!(svc.stats().result_cache.invalidated, 1);
        assert_eq!(svc.stats().journal_ops, 2);
        svc.shutdown();
    }

    #[test]
    fn delete_op_reverts_an_insert_on_every_maintainable_structure() {
        let svc = small_service(1);
        let ops = ada_ops(&svc);
        svc.apply_update(ops.clone());
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert_eq!(svc.submit(&twig, s).unwrap().wait().unwrap().ids.len(), 1, "{s}");
        }
        let deletes: Vec<UpdateOp> = ops
            .into_iter()
            .rev()
            .map(|op| match op {
                UpdateOp::InsertPath { tags, ids, value } => {
                    UpdateOp::DeletePath { tags, ids, value }
                }
                UpdateOp::DeletePath { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(svc.apply_update(deletes), 2);
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert!(svc.submit(&twig, s).unwrap().wait().unwrap().ids.is_empty(), "{s}");
        }
        svc.shutdown();
    }

    #[test]
    fn rebuild_replays_the_journal_so_no_update_is_lost() {
        // The lost-update bug this PR fixes: a rebuild re-reads the
        // static forest, which knows nothing of index-only updates. The
        // journal replay must restore every committed op — including
        // ops committed *before* the rebuild started.
        let svc = small_service(2);
        svc.apply_update(ada_ops(&svc));
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 2);
        let stats = svc.stats();
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.replayed_ops, 2, "full journal replayed onto the fresh engine");
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = svc.submit(&twig, s).unwrap().wait().unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![900],
                "{s}: update survived the rebuild"
            );
        }
        // A second rebuild replays the (still-retained) journal again.
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 2);
        assert_eq!(svc.stats().replayed_ops, 4);
        let again = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(again.ids.len(), 1);
        svc.shutdown();
    }

    #[test]
    fn pinned_snapshot_stays_consistent_while_updates_publish() {
        // A reader holding an epoch must not observe an update that
        // commits while it reads — and must not block the writer.
        let svc = Arc::new(small_service(2));
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
        Arc::try_unwrap(svc).map(TwigService::shutdown).ok().unwrap();
    }

    #[test]
    fn persist_folds_overlay_updates_into_the_file() {
        let dir = std::env::temp_dir().join(format!("xtwig-svc-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("folded.xtwig");
        let svc = small_service(1);
        svc.apply_update(ada_ops(&svc));
        let report = svc.persist(&path).unwrap();
        assert!(report.file_bytes > 0);
        assert_eq!(svc.stats().folds, 1);
        svc.shutdown();
        // Reopen: the update is part of the base image now.
        let reopened = TwigService::open(&path, ServiceOptions::default()).unwrap();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = reopened.submit(&twig, s).unwrap().wait().unwrap();
            assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![900], "{s}");
        }
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_swaps_engine_and_invalidates_results() {
        let svc = small_service(2);
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let before = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(before.ids.len(), 2);
        // Cached now; a rebuild must stale the cache even though the
        // answer set is unchanged (the indexes were reconstructed).
        svc.rebuild_parallel(EngineOptions { pool_pages: 256, ..Default::default() }, 4);
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.stats().rebuilds, 1);
        let after = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert!(!after.from_cache, "rebuild must invalidate cached results");
        assert_eq!(*after.ids, *before.ids);
        svc.shutdown();
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
            ServiceOptions { workers: 2, ..Default::default() },
        );
        let twig = parse_xpath("//author").unwrap();
        assert!(svc.submit(&twig, Strategy::DataPaths).is_err());
        svc.rebuild_parallel(
            EngineOptions {
                strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
                pool_pages: 256,
                ..Default::default()
            },
            2,
        );
        let a = svc.submit(&twig, Strategy::DataPaths).unwrap().wait().unwrap();
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
            svc.submit(&twig, Strategy::DataPaths).err(),
            Some(ServiceError::StrategyNotBuilt(Strategy::DataPaths))
        );
        svc.shutdown();
    }

    #[test]
    fn queued_query_against_dropped_strategy_cannot_kill_the_worker() {
        // TOCTOU guard: a query can pass submit's availability check,
        // queue, and only reach a worker after a rebuild dropped its
        // strategy. The worker must resolve it (StrategyNotBuilt) via
        // the engine recheck — never touch the unbuilt structure, whose
        // accessor would panic and permanently kill the worker thread.
        let both = || EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 256,
            ..Default::default()
        };
        let svc = TwigService::over(
            QueryEngine::build(Arc::new(fig1_book_document()), both()),
            ServiceOptions { workers: 1, result_cache_capacity: 0, ..Default::default() },
        );
        // Occupy the single worker so the DP query sits in the queue.
        let filler: Vec<TwigPattern> =
            (0..64).map(|_| parse_xpath("//section/head").unwrap()).collect();
        let batch = svc.submit_batch(&filler, Strategy::RootPaths).unwrap();
        let twig = parse_xpath("//author").unwrap();
        let queued = svc.submit(&twig, Strategy::DataPaths).unwrap();
        // Drop DataPaths while the query is (likely still) queued.
        svc.rebuild_parallel(
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 256,
                ..Default::default()
            },
            2,
        );
        match queued.wait() {
            // Worker dequeued after the swap: rejected by the recheck.
            Err(ServiceError::StrategyNotBuilt(Strategy::DataPaths)) => {}
            // Worker won the race and executed against the old engine.
            Ok(a) => assert_eq!(a.ids.len(), 3),
            Err(e) => panic!("unexpected error {e}"),
        }
        batch.wait().unwrap();
        // Either way the worker must still be alive and serving.
        let alive = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(alive.ids.len(), 3);
        svc.shutdown();
    }

    #[test]
    fn queries_keep_serving_across_concurrent_rebuilds() {
        // Readers and rebuilds interleave: every answer must come from
        // either the old or the new engine — both correct — and nothing
        // deadlocks or errors.
        let svc = Arc::new(small_service(3));
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let expected = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap().ids;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let rebuilder = {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
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
            })
        };
        for _ in 0..60 {
            let a = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
            assert_eq!(*a.ids, *expected);
        }
        stop.store(true, Ordering::SeqCst);
        rebuilder.join().unwrap();
        assert!(svc.stats().rebuilds >= 1);
        match Arc::try_unwrap(svc) {
            Ok(svc) => svc.shutdown(),
            Err(_) => panic!("service still shared"),
        }
    }

    #[test]
    fn batch_resolves_in_order_and_dedupes_probes() {
        let svc = small_service(2);
        // Distinct queries (identical ones would hit the result cache
        // before reaching the engine) sharing the //author/fn='jane'
        // PCsubpath: the batch memo answers it once.
        let twigs: Vec<TwigPattern> = ["//author[fn='jane']/ln", "//author[fn='jane']"]
            .iter()
            .map(|q| parse_xpath(q).unwrap())
            .collect();
        let answers = svc.submit_batch(&twigs, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(answers.len(), 2);
        let sequential: Vec<_> = svc
            .with_engine(|e| twigs.iter().map(|t| e.answer(t, Strategy::RootPaths).ids).collect());
        for (a, s) in answers.iter().zip(&sequential) {
            assert_eq!(*a.ids, *s);
        }
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_queries, 2);
        assert!(stats.memo_hits > 0, "shared subpath memoized across the batch");
        // Batch members count as queries on both sides of the ledger.
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, stats.submitted);
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_rejects_queued_query() {
        let svc = small_service(1);
        // A deadline already in the past when the worker dequeues.
        let twig = parse_xpath("//author").unwrap();
        let t = svc.submit_with_deadline(&twig, Strategy::RootPaths, Some(Duration::ZERO)).unwrap();
        match t.wait() {
            Err(ServiceError::DeadlineExceeded) => {
                assert_eq!(svc.stats().deadline_missed, 1);
            }
            Ok(_) => {
                // Scheduling race: the worker dequeued within the same
                // instant. Either outcome is legal; an answer must be
                // correct though.
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        svc.shutdown();
    }

    #[test]
    fn wait_timeout_leaves_ticket_usable() {
        let svc = small_service(1);
        let twig = parse_xpath("//author").unwrap();
        let t = svc.submit(&twig, Strategy::RootPaths).unwrap();
        // Whether or not the first bounded wait wins the race, a
        // follow-up wait must deliver the answer exactly once.
        let first = t.wait_timeout(Duration::from_millis(200));
        match first {
            Some(r) => assert!(!r.unwrap().ids.is_empty()),
            None => assert!(!t.wait().unwrap().ids.is_empty()),
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_rejects_new() {
        let svc = small_service(2);
        let twig = parse_xpath("//section/head").unwrap();
        let tickets: Vec<Ticket> =
            (0..32).map(|_| svc.submit(&twig, Strategy::Edge).unwrap()).collect();
        svc.shutdown();
        for t in tickets {
            let a = t.wait().expect("queued work drains during graceful shutdown");
            assert!(!a.ids.is_empty());
        }
    }

    #[test]
    fn metrics_text_and_slow_query_log() {
        let svc = TwigService::build(
            fig1_book_document(),
            EngineOptions { pool_pages: 256, ..Default::default() },
            ServiceOptions {
                workers: 1,
                // Zero threshold: every executed query is "slow".
                slow_query_micros: Some(0),
                slow_query_capacity: 4,
                ..Default::default()
            },
        );
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
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
        svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(svc.slow_queries().len(), 1);
        svc.shutdown();
    }

    /// Panics a thread while it holds `mutex`-like state guarded by
    /// `lock`, leaving the lock poisoned for every later acquirer.
    fn poison_by_panicking_holder<T: Send + Sync + 'static>(
        target: Arc<T>,
        hold: impl Fn(&T) + Send + 'static,
    ) {
        let handle = std::thread::spawn(move || {
            hold(&target);
        });
        assert!(handle.join().is_err(), "holder thread must panic to poison the lock");
    }

    #[test]
    fn poisoned_slot_lock_still_resolves_waiters() {
        let slot = Slot::new();
        poison_by_panicking_holder(slot.clone(), |slot| {
            let _guard = slot.state.lock().unwrap();
            panic!("poison the slot state lock");
        });
        assert!(slot.state.lock().is_err(), "lock must actually be poisoned");
        // Resolve and wait both cross the poisoned lock without
        // panicking — the waiter gets its answer, not a propagated
        // poison panic.
        slot.resolve(Ok(Vec::new()));
        assert!(slot.wait().is_ok());
    }

    #[test]
    fn poisoned_queue_lock_still_serves_queries() {
        let svc = small_service(2);
        poison_by_panicking_holder(svc.queue.clone(), |queue| {
            let _guard = queue.inner.lock().unwrap();
            panic!("poison the job queue lock");
        });
        assert!(svc.queue.inner.lock().is_err(), "lock must actually be poisoned");
        // The connection path — submit, worker pop, resolve — still
        // works end to end across the poisoned mutex.
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let answer = svc.submit(&twig, Strategy::RootPaths).unwrap().wait().unwrap();
        assert_eq!(answer.ids.len(), 1);
        // Shutdown also crosses the poisoned lock (close + drain).
        svc.shutdown();
    }

    #[test]
    fn dropped_service_cancels_nothing_silently() {
        // Drop without explicit shutdown must still drain (Drop calls
        // do_shutdown) — tickets all resolve.
        let twig = parse_xpath("//title").unwrap();
        let tickets: Vec<Ticket> = {
            let svc = small_service(2);
            (0..8).map(|_| svc.submit(&twig, Strategy::RootPaths).unwrap()).collect()
            // svc dropped here
        };
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }
}
