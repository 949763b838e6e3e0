//! Plan and result caches for the query service.
//!
//! A service keeps one plan cache for its whole life, and each engine
//! epoch keeps its own result cache: plans depend on the tag dictionary
//! alone, answers on the epoch's data. Both caches are internally
//! synchronized (one short-held mutex each) so concurrent callers use
//! them through `&self` while executing against a pinned epoch; neither
//! ever calls back into the engine while locked, so lock order is
//! trivially acyclic.
//!
//! Both are keyed by a lane of the request's [`Fingerprint`], computed
//! once per request by the caller. A fingerprint is a hash, so each
//! entry also keeps the [`Canonical`] form of the twig it was admitted
//! for and compares it with the request's on every hit: two twigs under
//! one fingerprint never share a plan, a memoized `auto` pick or an
//! answer — the second one compiles its own plan and misses the result
//! cache. A plan entry carries its shape's label, rendered once when the
//! shape is admitted, for the per-shape metrics.
//!
//! [`Fingerprint`]: crate::shape::Fingerprint

use crate::shape::{shape_label, Canonical, FoldState};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xtwig_core::decompose::{CompiledTwig, UnknownTag};
use xtwig_core::plan::{PlanKind, QueryPlan};
use xtwig_core::{QueryEngine, Strategy};
use xtwig_xml::TwigPattern;

/// Hit/miss counters shared by both caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through.
    pub misses: u64,
    /// Entries dropped with the epoch an update displaced, counted at
    /// publish (result cache only).
    pub invalidated: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Shape-keyed cache of compiled plans.
///
/// A hit skips `decompose`/`choose_plan` entirely: the cached entry is
/// handed out shared, cover and plan alike, and the executor reads the
/// incoming twig's literals from the twig itself
/// ([`QueryEngine::answer_compiled_with`]); nothing is copied. The
/// step order is the one chosen for the first-seen literals —
/// parameterized-plan semantics, like a relational engine's statement
/// cache — while each step's free-vs-bound method is priced again by
/// the executor for the literal at hand. The same semantics extend to
/// cost-based strategy selection: an entry memoizes the
/// [`Strategy::Auto`] resolution for its shape, so repeated auto
/// submissions rank the strategies once and every later query of the
/// shape keys its cached results on the resolved *concrete* strategy.
/// Plans never go stale under the §7 updates path (decomposition
/// depends on the tag dictionary, not the data), so one plan cache
/// serves every epoch; and a memoized pick stays built because a cache
/// serves the engines of one service, whose strategy set never changes.
/// Capacity overflow evicts the oldest-inserted shape (FIFO — misses
/// only cost a recompile, so recency tracking on the hit path isn't
/// worth its bookkeeping).
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

/// One cached shape: the compiled cover and plan, the shape's label,
/// and the memoized optimizer pick for `Strategy::Auto` requests of
/// this shape (resolved once, from the first-seen literals, then a
/// plain load).
pub struct PlanEntry {
    /// The cover, compiled from the first twig of the shape seen.
    pub compiled: CompiledTwig,
    /// The plan every twig of the shape runs.
    pub plan: QueryPlan,
    /// The shape's label ([`shape_label`]), rendered at admission.
    pub label: Arc<str>,
    /// The shape this entry was admitted for.
    shape: Canonical,
    auto_pick: OnceLock<Strategy>,
}

/// A twig compiled through the [`PlanCache`], its strategy resolved.
pub struct Resolved {
    /// The shape's cached entry: cover, plan and label.
    pub entry: Arc<PlanEntry>,
    /// The concrete strategy to run.
    pub strategy: Strategy,
}

struct PlanCacheInner {
    map: HashMap<u64, Arc<PlanEntry>, FoldState>,
    /// Insertion order, oldest first (FIFO eviction).
    order: VecDeque<u64>,
}

impl PlanCache {
    /// A cache holding at most `capacity` shapes.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner { map: HashMap::default(), order: VecDeque::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Compiles `twig`, whose shape fingerprint is `shape`
    /// ([`Fingerprint::shape`](crate::shape::Fingerprint::shape)),
    /// through the cache and resolves its strategy: `Auto` resolves
    /// through the shape's memoized optimizer pick (computed once from
    /// the first-seen literals — the same parameterized-plan semantics
    /// the plan itself uses), concrete strategies pass through. The
    /// returned strategy is always concrete, so callers key their result
    /// caches on it.
    pub fn compile_resolved(
        &self,
        engine: &QueryEngine,
        twig: &TwigPattern,
        shape: u64,
        strategy: Strategy,
    ) -> Result<Resolved, UnknownTag> {
        let entry = self.entry(engine, twig, shape)?;
        let resolved = if strategy.is_auto() {
            *entry.auto_pick.get_or_init(|| {
                engine.resolve_strategy(Strategy::Auto, &entry.compiled, &entry.plan)
            })
        } else {
            strategy
        };
        Ok(Resolved { entry, strategy: resolved })
    }

    /// The cached entry of `twig`'s shape, compiling and admitting it on
    /// a miss. Another shape already cached under the same fingerprint
    /// keeps its slot; `twig` is then served by a plan of its own.
    fn entry(
        &self,
        engine: &QueryEngine,
        twig: &TwigPattern,
        shape: u64,
    ) -> Result<Arc<PlanEntry>, UnknownTag> {
        let cached = self.inner.lock().map.get(&shape).cloned();
        if let Some(entry) = cached.filter(|entry| entry.shape.matches(twig)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
        }
        let (compiled, plan) = engine.compile(twig)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(PlanEntry {
            compiled,
            plan,
            label: shape_label(twig).into(),
            shape: Canonical::shape(twig),
            auto_pick: OnceLock::new(),
        });
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.map.get(&shape) {
            // A racing caller admitted the shape first: share its entry
            // (and its memoized pick). Or another shape holds the slot.
            let shared = existing.shape.matches(twig).then(|| existing.clone());
            return Ok(shared.unwrap_or(entry));
        }
        inner.map.insert(shape, entry.clone());
        inner.order.push_back(shape);
        while inner.map.len() > self.capacity {
            // `order` tracks every entry; an empty queue here would mean
            // the invariant broke, and stopping eviction (a bounded
            // overshoot) beats panicking on a serving path.
            let Some(victim) = inner.order.pop_front() else { break };
            inner.map.remove(&victim);
        }
        Ok(entry)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: 0,
        }
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no shape is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// One cached answer.
struct CachedResult {
    /// The twig whose answer this is, in its exact form.
    query: Canonical,
    ids: Arc<BTreeSet<u64>>,
    plan: PlanKind,
    /// Recency stamp, moved forward by every hit.
    stamp: u64,
    /// The stamp the entry is listed under in the LRU order map: its
    /// stamp when it was inserted or last requeued, never a later one.
    queued: u64,
}

/// The result cache's key: a request's exact fingerprint and the
/// concrete strategy that answered.
type ResultKey = (u64, Strategy);

/// LRU cache of one engine epoch's exact-query answers.
///
/// Every epoch owns one, and [`crate::TwigService::apply_update`]
/// publishes its fork with an empty one: an answer computed on an epoch
/// can land only in that epoch's cache, so none outlives the data it was
/// computed from. The published cache then takes the displaced epoch's
/// answers over ([`ResultCache::take_over`]), never to serve them: its
/// first insert frees them, so a query that missed pays for that
/// teardown, not the commit. The service counts hits and misses across
/// epochs.
///
/// Recency is a `BTreeMap<stamp, key>` alongside the entry map, kept
/// lazily: a hit only moves its entry's stamp forward, and allocates
/// nothing. Eviction pops the smallest listed stamp, and an entry hit
/// since it was listed is listed again under its stamp instead of
/// evicted; every entry is listed under a stamp no later than its own,
/// so the first entry popped under its own stamp is the least recently
/// used.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    capacity: usize,
}

#[derive(Default)]
struct ResultCacheInner {
    map: HashMap<ResultKey, CachedResult, FoldState>,
    lru: BTreeMap<u64, ResultKey>,
    clock: u64,
    /// A displaced epoch's answers, left for the next insert to free.
    /// `None` whenever `map` holds an entry: every insert takes it.
    displaced: Option<Box<ResultCacheInner>>,
}

impl ResultCache {
    /// A cache of at most `capacity` answers; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache { inner: Mutex::default(), capacity }
    }

    /// Takes every answer out of `old`, the cache of the epoch this
    /// cache's epoch displaced, for this cache's next insert to free,
    /// and returns how many there were. They are never served.
    pub fn take_over(&self, old: &ResultCache) -> usize {
        let mut taken = std::mem::take(&mut *old.inner.lock());
        let answers = taken.map.len();
        // An epoch that cached nothing hands its own displaced answers
        // on, so they are never boxed more than one deep.
        let displaced = if answers == 0 { taken.displaced.take() } else { Some(Box::new(taken)) };
        if displaced.is_some() {
            self.inner.lock().displaced = displaced;
        }
        answers
    }

    /// Looks up the answer of `twig`, whose exact fingerprint is `key`
    /// ([`Fingerprint::exact`](crate::shape::Fingerprint::exact)),
    /// under `strategy`; touches it on a hit. An entry cached for
    /// another twig under the same fingerprint is a miss.
    pub fn get(
        &self,
        key: u64,
        twig: &TwigPattern,
        strategy: Strategy,
    ) -> Option<(Arc<BTreeSet<u64>>, PlanKind)> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let entry = inner.map.get_mut(&(key, strategy)).filter(|e| e.query.matches(twig))?;
        inner.clock += 1;
        entry.stamp = inner.clock;
        Some((entry.ids.clone(), entry.plan))
    }

    /// Caches the answer of `twig`, whose exact fingerprint is `key`,
    /// under `strategy` — in place of whatever the key held — and evicts
    /// the least-recently-used entries beyond capacity.
    pub fn insert(
        &self,
        key: u64,
        twig: &TwigPattern,
        strategy: Strategy,
        ids: Arc<BTreeSet<u64>>,
        plan: PlanKind,
    ) {
        if self.capacity == 0 {
            return;
        }
        let query = Canonical::exact(twig);
        let mut inner = self.inner.lock();
        let displaced = inner.displaced.take();
        let key = (key, strategy);
        inner.clock += 1;
        let stamp = inner.clock;
        let entry = CachedResult { query, ids, plan, stamp, queued: stamp };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.lru.remove(&old.queued);
        }
        inner.lru.insert(stamp, key);
        while inner.map.len() > self.capacity {
            // Same discipline as plan-cache eviction: if the LRU index
            // ever desynced, stop evicting instead of panicking.
            let Some((queued, victim)) = inner.lru.pop_first() else { break };
            match inner.map.get_mut(&victim) {
                Some(entry) if entry.stamp != queued => {
                    // Hit since it was listed: list it under its stamp.
                    entry.queued = entry.stamp;
                    let stamp = entry.stamp;
                    inner.lru.insert(stamp, victim);
                }
                _ => {
                    inner.map.remove(&victim);
                }
            }
        }
        drop(inner);
        drop(displaced);
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Fingerprint;
    use xtwig_core::engine::EngineOptions;
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn ids(v: &[u64]) -> Arc<BTreeSet<u64>> {
        Arc::new(v.iter().copied().collect())
    }

    fn engine() -> QueryEngine {
        let f = Arc::new(fig1_book_document());
        QueryEngine::build(f, EngineOptions { pool_pages: 256, ..Default::default() })
    }

    fn twig(xpath: &str) -> TwigPattern {
        parse_xpath(xpath).unwrap()
    }

    fn shape(twig: &TwigPattern) -> u64 {
        Fingerprint::of(twig).shape
    }

    #[test]
    fn plan_cache_hits_on_shape_and_reads_each_twigs_literals() {
        let engine = engine();
        let cache = PlanCache::new(64);
        let a = twig("//author[fn='jane']/ln");
        let b = twig("//author[fn='john']/ln");
        let ra = cache.compile_resolved(&engine, &a, shape(&a), Strategy::RootPaths).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let rb = cache.compile_resolved(&engine, &b, shape(&b), Strategy::RootPaths).unwrap();
        assert_eq!(cache.stats().hits, 1, "same shape must hit");
        assert!(Arc::ptr_eq(&ra.entry, &rb.entry), "a hit must not copy the entry");
        // The cover keeps the first-seen literal; each twig gives its own.
        let valued = rb.entry.compiled.subpaths.iter().find(|sp| sp.q.value.is_some()).unwrap();
        assert_eq!(valued.q.value.as_deref(), Some("jane"));
        assert_eq!(valued.literal(&b), Some("john"));
        // Executing the shared pair with `b`'s literals matches direct
        // answering under every strategy, bound probes (DATAPATHS)
        // included.
        let entry = &rb.entry;
        for s in Strategy::ALL {
            let direct = engine.answer(&b, s);
            let shared = engine.answer_compiled_with(&entry.compiled, &b, &entry.plan, s, None);
            assert_eq!(direct.ids, shared.ids, "{s}");
            assert!(!direct.ids.is_empty());
            assert_ne!(engine.answer(&a, s).ids, shared.ids, "{s}: `jane`'s answer");
        }
    }

    #[test]
    fn plan_cache_evicts_oldest_shape_beyond_capacity() {
        let engine = engine();
        let cache = PlanCache::new(2);
        let compile = |q: &str| {
            let t = twig(q);
            cache.compile_resolved(&engine, &t, shape(&t), Strategy::RootPaths).unwrap();
        };
        for q in ["/book/title", "/book/year", "//author/fn"] {
            compile(q);
        }
        assert_eq!(cache.len(), 2, "capacity enforced by eviction, not by refusal");
        // The newest shape must be cached (FIFO evicted the oldest).
        compile("//author/fn");
        assert_eq!(cache.stats().hits, 1);
        // The evicted oldest shape recompiles — and is re-admitted.
        compile("/book/title");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 4);
    }

    /// Two twigs forced under one fingerprint: neither the plan entry,
    /// the memoized `auto` pick nor a cached answer crosses between
    /// them.
    #[test]
    fn twigs_under_one_fingerprint_share_nothing() {
        let engine = engine();
        let (plans, results) = (PlanCache::new(64), ResultCache::new(64));
        let (a, b) = (twig("/book/title"), twig("//author[fn = 'jane']/ln"));
        let forced = Fingerprint::of(&a);
        let ra = plans.compile_resolved(&engine, &a, forced.shape, Strategy::Auto).unwrap();
        let rb = plans.compile_resolved(&engine, &b, forced.shape, Strategy::Auto).unwrap();
        assert_eq!(plans.stats().misses, 2, "the second twig compiles its own plan");
        assert!(!Arc::ptr_eq(&ra.entry, &rb.entry));
        assert_eq!(rb.entry.compiled.twig, b);
        assert_ne!(ra.entry.label, rb.entry.label);
        // Each pick is the one its own twig resolves to, and the slot
        // stays with the shape admitted first.
        let own = |t: &TwigPattern| {
            let (compiled, plan) = engine.compile(t).unwrap();
            engine.resolve_strategy(Strategy::Auto, &compiled, &plan)
        };
        assert_eq!((ra.strategy, rb.strategy), (own(&a), own(&b)));
        let again = plans.compile_resolved(&engine, &a, forced.shape, Strategy::Auto).unwrap();
        assert!(Arc::ptr_eq(&ra.entry, &again.entry));
        assert_eq!(plans.len(), 1);
        // The result cache: `a`'s answer never answers `b`.
        let s = Strategy::RootPaths;
        let answer_a = ids(&engine.answer(&a, s).ids.into_iter().collect::<Vec<_>>());
        results.insert(forced.exact, &a, s, answer_a.clone(), PlanKind::Merge);
        assert!(results.get(forced.exact, &b, s).is_none(), "b misses");
        assert_eq!(results.get(forced.exact, &a, s).map(|(ids, _)| ids), Some(answer_a));
        // `b`'s own answer takes the slot over, and `a` then misses.
        results.insert(forced.exact, &b, s, ids(&[7]), PlanKind::Merge);
        assert!(results.get(forced.exact, &a, s).is_none(), "a misses");
        assert_eq!(results.get(forced.exact, &b, s).map(|(ids, _)| ids), Some(ids(&[7])));
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn result_cache_lru_evicts_oldest_untouched() {
        let cache = ResultCache::new(2);
        let (a, b, c) = (twig("/a"), twig("/b"), twig("/c"));
        let key = |t: &TwigPattern| Fingerprint::of(t).exact;
        let s = Strategy::RootPaths;
        cache.insert(key(&a), &a, s, ids(&[1]), PlanKind::Merge);
        cache.insert(key(&b), &b, s, ids(&[2]), PlanKind::Merge);
        // Touch "a" so "b" is LRU, then overflow.
        assert!(cache.get(key(&a), &a, s).is_some());
        cache.insert(key(&c), &c, s, ids(&[3]), PlanKind::Merge);
        assert!(cache.get(key(&b), &b, s).is_none(), "b evicted");
        assert!(cache.get(key(&a), &a, s).is_some());
        assert!(cache.get(key(&c), &c, s).is_some());
        // "c" was touched last: "a" goes next.
        cache.insert(key(&b), &b, s, ids(&[2]), PlanKind::Merge);
        assert!(cache.get(key(&a), &a, s).is_none(), "a evicted");
        assert!(cache.get(key(&c), &c, s).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn taken_over_answers_are_never_served_and_the_next_insert_frees_them() {
        let (old, next) = (ResultCache::new(8), ResultCache::new(8));
        let (q, r) = (twig("/q"), twig("/r"));
        let (kq, kr) = (Fingerprint::of(&q).exact, Fingerprint::of(&r).exact);
        let answer = ids(&[1]);
        old.insert(kq, &q, Strategy::RootPaths, answer.clone(), PlanKind::Merge);
        assert_eq!(next.take_over(&old), 1);
        assert!(old.is_empty() && next.is_empty());
        assert!(next.get(kq, &q, Strategy::RootPaths).is_none());
        assert_eq!(Arc::strong_count(&answer), 2, "held until an insert");
        // An epoch that caches nothing hands them on.
        let after = ResultCache::new(8);
        assert_eq!(after.take_over(&next), 0);
        after.insert(kr, &r, Strategy::RootPaths, ids(&[2]), PlanKind::Merge);
        assert_eq!(Arc::strong_count(&answer), 1, "the insert freed them");
    }

    #[test]
    fn result_cache_keys_include_strategy() {
        let cache = ResultCache::new(8);
        let q = twig("/q");
        let key = Fingerprint::of(&q).exact;
        cache.insert(key, &q, Strategy::RootPaths, ids(&[1]), PlanKind::Merge);
        assert!(cache.get(key, &q, Strategy::Edge).is_none());
    }

    #[test]
    fn zero_capacity_disables_result_cache() {
        let cache = ResultCache::new(0);
        let q = twig("/q");
        let key = Fingerprint::of(&q).exact;
        cache.insert(key, &q, Strategy::RootPaths, ids(&[1]), PlanKind::Merge);
        assert!(cache.get(key, &q, Strategy::RootPaths).is_none());
        assert!(cache.is_empty());
    }
}
