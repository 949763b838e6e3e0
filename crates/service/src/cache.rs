//! Plan and result caches for the query service.
//!
//! A service keeps one plan cache for its whole life, and each engine
//! epoch keeps its own result cache: plans depend on the tag dictionary
//! alone, answers on the epoch's data. Both caches are internally
//! synchronized (one short-held mutex each) so concurrent callers use
//! them through `&self` while executing against a pinned epoch; neither
//! ever calls back into the engine while locked, so lock order is
//! trivially acyclic.

use crate::shape::shape_key;
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
/// A hit skips `decompose`/`choose_plan` entirely: the cached cover is
/// rebound onto the incoming twig (literals re-read, structure reused)
/// and the plan is handed out shared — it carries no literal; a probe
/// reads its value from the rebound cover. The step order is the one
/// chosen for the first-seen literals — parameterized-plan semantics,
/// like a relational engine's statement cache — while each step's
/// free-vs-bound method is priced again by the executor for the literal
/// at hand. The same semantics extend to cost-based strategy selection:
/// an entry memoizes the [`Strategy::Auto`] resolution for its shape,
/// so repeated auto submissions rank the strategies once and every
/// later query of the shape keys its cached results on the resolved
/// *concrete* strategy. Plans never go stale under the §7 updates path
/// (decomposition depends on the tag dictionary, not the data), so one
/// plan cache serves every epoch; and a memoized pick stays built because
/// a cache serves the engines of one service, whose strategy set never
/// changes. Capacity overflow evicts the
/// oldest-inserted shape (FIFO — misses only cost a recompile, so
/// recency tracking on the hit path isn't worth its bookkeeping).
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

/// One cached shape: the compiled cover and plan, plus the memoized
/// optimizer pick for `Strategy::Auto` requests of this shape
/// (resolved once, from the first-seen literals, then a plain load).
struct PlanEntry {
    compiled: CompiledTwig,
    plan: Arc<QueryPlan>,
    auto_pick: OnceLock<Strategy>,
}

/// A twig compiled through the [`PlanCache`], its strategy resolved.
pub struct Resolved {
    /// The shape's cached cover, rebound onto this twig's literals.
    pub compiled: CompiledTwig,
    /// The shape's plan, shared by every twig of the shape.
    pub plan: Arc<QueryPlan>,
    /// The concrete strategy to run.
    pub strategy: Strategy,
    /// The shape key the plan is cached under ([`shape_key`]).
    pub shape: String,
}

struct PlanCacheInner {
    map: HashMap<String, Arc<PlanEntry>>,
    /// Insertion order, oldest first (FIFO eviction).
    order: VecDeque<String>,
}

impl PlanCache {
    /// A cache holding at most `capacity` shapes.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner { map: HashMap::new(), order: VecDeque::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Compiles `twig` through the cache and resolves its strategy:
    /// `Auto` resolves through the shape's memoized optimizer pick
    /// (computed once from the first-seen literals — the same
    /// parameterized-plan semantics the plan itself uses), concrete
    /// strategies pass through. The returned strategy is always
    /// concrete, so callers key their result caches on it.
    pub fn compile_resolved(
        &self,
        engine: &QueryEngine,
        twig: &TwigPattern,
        strategy: Strategy,
    ) -> Result<Resolved, UnknownTag> {
        let (shape, entry) = self.entry(engine, twig)?;
        let resolved = if strategy.is_auto() {
            *entry.auto_pick.get_or_init(|| {
                engine.resolve_strategy(Strategy::Auto, &entry.compiled, &entry.plan)
            })
        } else {
            strategy
        };
        Ok(Resolved {
            compiled: entry.compiled.rebind(twig),
            plan: entry.plan.clone(),
            strategy: resolved,
            shape,
        })
    }

    /// `twig`'s shape key and the cached entry for it, compiling and
    /// admitting it on a miss.
    fn entry(
        &self,
        engine: &QueryEngine,
        twig: &TwigPattern,
    ) -> Result<(String, Arc<PlanEntry>), UnknownTag> {
        let key = shape_key(twig);
        let cached = self.inner.lock().map.get(&key).cloned();
        if let Some(entry) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((key, entry));
        }
        let (compiled, plan) = engine.compile(twig)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry =
            Arc::new(PlanEntry { compiled, plan: Arc::new(plan), auto_pick: OnceLock::new() });
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.map.get(&key) {
            // A racing caller admitted the shape first; share its entry
            // (and its memoized pick).
            return Ok((key, existing.clone()));
        }
        inner.map.insert(key.clone(), entry.clone());
        inner.order.push_back(key.clone());
        while inner.map.len() > self.capacity {
            // `order` tracks every entry; an empty queue here would mean
            // the invariant broke, and stopping eviction (a bounded
            // overshoot) beats panicking on a serving path.
            let Some(victim) = inner.order.pop_front() else { break };
            inner.map.remove(&victim);
        }
        Ok((key, entry))
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
    ids: Arc<BTreeSet<u64>>,
    plan: PlanKind,
    /// Recency stamp; also the entry's key in the LRU order map.
    stamp: u64,
}

/// LRU cache of one engine epoch's exact-query answers.
///
/// Every epoch owns one, and [`crate::TwigService::apply_update`]
/// publishes its fork with an empty one: an answer computed on an epoch
/// can land only in that epoch's cache, so none outlives the data it was
/// computed from. The published cache then takes the displaced epoch's
/// answers over ([`ResultCache::take_over`]), never to serve them: its
/// first insert frees them, so a query that missed pays for that
/// teardown, not the commit. Recency is a `BTreeMap<stamp, key>`
/// alongside the entry map: touch = move to a fresh stamp, evict = pop
/// the smallest stamp. The service counts hits and misses across
/// epochs.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    capacity: usize,
}

#[derive(Default)]
struct ResultCacheInner {
    map: HashMap<(String, Strategy), CachedResult>,
    lru: BTreeMap<u64, (String, Strategy)>,
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

    /// Looks up an answer; touches it on hit.
    pub fn get(&self, key: &str, strategy: Strategy) -> Option<(Arc<BTreeSet<u64>>, PlanKind)> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        let full_key = (key.to_owned(), strategy);
        let entry = inner.map.get(&full_key)?;
        let (ids, plan, old_stamp) = (entry.ids.clone(), entry.plan, entry.stamp);
        inner.clock += 1;
        let stamp = inner.clock;
        inner.lru.remove(&old_stamp);
        inner.lru.insert(stamp, full_key.clone());
        if let Some(entry) = inner.map.get_mut(&full_key) {
            entry.stamp = stamp;
        }
        Some((ids, plan))
    }

    /// Inserts an answer, evicting the least-recently-used entries
    /// beyond capacity.
    pub fn insert(&self, key: String, strategy: Strategy, ids: Arc<BTreeSet<u64>>, plan: PlanKind) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let displaced = inner.displaced.take();
        let full_key = (key, strategy);
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.insert(full_key.clone(), CachedResult { ids, plan, stamp }) {
            inner.lru.remove(&old.stamp);
        }
        inner.lru.insert(stamp, full_key);
        while inner.map.len() > self.capacity {
            // Same discipline as plan-cache eviction: if the LRU index
            // ever desynced, stop evicting instead of panicking.
            let Some((_, victim)) = inner.lru.pop_first() else { break };
            inner.map.remove(&victim);
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
    use xtwig_core::engine::EngineOptions;
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn ids(v: &[u64]) -> Arc<BTreeSet<u64>> {
        Arc::new(v.iter().copied().collect())
    }

    #[test]
    fn plan_cache_hits_on_shape_and_rebinds_literals() {
        let f = Arc::new(fig1_book_document());
        let engine =
            QueryEngine::build(f.clone(), EngineOptions { pool_pages: 256, ..Default::default() });
        let cache = PlanCache::new(64);
        let a = parse_xpath("//author[fn='jane']/ln").unwrap();
        let b = parse_xpath("//author[fn='john']/ln").unwrap();
        let Resolved { compiled: ca, plan: pa, .. } =
            cache.compile_resolved(&engine, &a, Strategy::RootPaths).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let Resolved { compiled: cb, plan: pb, .. } =
            cache.compile_resolved(&engine, &b, Strategy::RootPaths).unwrap();
        assert_eq!(cache.stats().hits, 1, "same shape must hit");
        // The rebind carried the new literal into the cover; the plan
        // carries none and is the one allocation both requests share.
        let valued: Vec<_> = cb.subpaths.iter().filter_map(|sp| sp.q.value.as_deref()).collect();
        assert_eq!(valued, vec!["john"]);
        assert_eq!(ca.subpaths.len(), cb.subpaths.len());
        assert!(Arc::ptr_eq(&pa, &pb), "a hit must not clone the plan");
        // Execution through the rebound pair matches direct answering,
        // bound probes (DATAPATHS) included: they read `john` from `cb`.
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let direct = engine.answer(&b, s);
            let rebound = engine.answer_compiled(&cb, &pb, s);
            assert_eq!(direct.ids, rebound.ids, "{s}");
            assert!(!direct.ids.is_empty());
        }
    }

    #[test]
    fn plan_cache_evicts_oldest_shape_beyond_capacity() {
        let f = Arc::new(fig1_book_document());
        let engine =
            QueryEngine::build(f.clone(), EngineOptions { pool_pages: 256, ..Default::default() });
        let cache = PlanCache::new(2);
        for q in ["/book/title", "/book/year", "//author/fn"] {
            cache.compile_resolved(&engine, &parse_xpath(q).unwrap(), Strategy::RootPaths).unwrap();
        }
        assert_eq!(cache.len(), 2, "capacity enforced by eviction, not by refusal");
        // The newest shape must be cached (FIFO evicted the oldest).
        cache
            .compile_resolved(&engine, &parse_xpath("//author/fn").unwrap(), Strategy::RootPaths)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        // The evicted oldest shape recompiles — and is re-admitted.
        cache
            .compile_resolved(&engine, &parse_xpath("/book/title").unwrap(), Strategy::RootPaths)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn result_cache_lru_evicts_oldest_untouched() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge);
        cache.insert("b".into(), Strategy::RootPaths, ids(&[2]), PlanKind::Merge);
        // Touch "a" so "b" is LRU, then overflow.
        assert!(cache.get("a", Strategy::RootPaths).is_some());
        cache.insert("c".into(), Strategy::RootPaths, ids(&[3]), PlanKind::Merge);
        assert!(cache.get("b", Strategy::RootPaths).is_none(), "b evicted");
        assert!(cache.get("a", Strategy::RootPaths).is_some());
        assert!(cache.get("c", Strategy::RootPaths).is_some());
    }

    #[test]
    fn taken_over_answers_are_never_served_and_the_next_insert_frees_them() {
        let (old, next) = (ResultCache::new(8), ResultCache::new(8));
        let answer = ids(&[1]);
        old.insert("q".into(), Strategy::RootPaths, answer.clone(), PlanKind::Merge);
        assert_eq!(next.take_over(&old), 1);
        assert!(old.is_empty() && next.is_empty());
        assert!(next.get("q", Strategy::RootPaths).is_none());
        assert_eq!(Arc::strong_count(&answer), 2, "held until an insert");
        // An epoch that caches nothing hands them on.
        let after = ResultCache::new(8);
        assert_eq!(after.take_over(&next), 0);
        after.insert("r".into(), Strategy::RootPaths, ids(&[2]), PlanKind::Merge);
        assert_eq!(Arc::strong_count(&answer), 1, "the insert freed them");
    }

    #[test]
    fn result_cache_keys_include_strategy() {
        let cache = ResultCache::new(8);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge);
        assert!(cache.get("q", Strategy::Edge).is_none());
    }

    #[test]
    fn zero_capacity_disables_result_cache() {
        let cache = ResultCache::new(0);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge);
        assert!(cache.get("q", Strategy::RootPaths).is_none());
        assert!(cache.is_empty());
    }
}
