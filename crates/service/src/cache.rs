//! Plan and result caches for the query service.
//!
//! Both caches are internally synchronized (one short-held mutex each)
//! so concurrent callers use them through `&self` while executing
//! against a pinned epoch; neither ever calls back into the engine while
//! locked, so lock order is trivially acyclic.

use crate::shape::shape_key;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xtwig_core::decompose::{CompiledTwig, UnknownTag};
use xtwig_core::plan::{PlanKind, QueryPlan};
use xtwig_core::{QueryEngine, Strategy};
use xtwig_xml::{TwigPattern, XmlForest};

/// Hit/miss counters shared by both caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through.
    pub misses: u64,
    /// Entries discarded because their generation went stale (result
    /// cache only).
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
/// (decomposition depends on the tag dictionary, not the data), so
/// there is no generation here. Capacity overflow evicts the
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
/// (resolved lazily, from the first-seen literals). The pick is
/// revalidated against the live engine on every use — a
/// `rebuild_parallel` may swap in an engine whose strategy set no
/// longer contains it, and a stale pick must re-resolve rather than
/// reach an unbuilt structure (whose accessor would panic the caller).
struct PlanEntry {
    compiled: CompiledTwig,
    plan: Arc<QueryPlan>,
    auto_pick: Mutex<Option<Strategy>>,
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
    pub fn compile_resolved<F: Borrow<XmlForest>>(
        &self,
        engine: &QueryEngine<F>,
        twig: &TwigPattern,
        strategy: Strategy,
    ) -> Result<Resolved, UnknownTag> {
        let (shape, entry) = self.entry(engine, twig)?;
        let resolved = if strategy.is_auto() {
            let mut pick = entry.auto_pick.lock();
            match *pick {
                // A memoized pick is only trusted while the current
                // engine still has it built.
                Some(s) if engine.has_strategy(s) => s,
                _ => {
                    let s = engine.resolve_strategy(Strategy::Auto, &entry.compiled, &entry.plan);
                    *pick = Some(s);
                    s
                }
            }
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
    fn entry<F: Borrow<XmlForest>>(
        &self,
        engine: &QueryEngine<F>,
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
            Arc::new(PlanEntry { compiled, plan: Arc::new(plan), auto_pick: Mutex::new(None) });
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
    /// Index generation the answer was computed under (read *before*
    /// execution, so an update racing with the computation stales it).
    generation: u64,
    /// Recency stamp; also the entry's key in the LRU order map.
    stamp: u64,
}

/// LRU cache of exact-query answers with generation-based invalidation.
///
/// An entry is valid only while the service generation equals the one
/// captured before computing it; [`crate::TwigService::apply_update`]
/// bumps the generation, which lazily evicts every older entry on its
/// next lookup. Recency is a `BTreeMap<stamp, key>` alongside the entry
/// map: touch = move to a fresh stamp, evict = pop the smallest stamp.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    capacity: usize,
}

struct ResultCacheInner {
    map: HashMap<(String, Strategy), CachedResult>,
    lru: BTreeMap<u64, (String, Strategy)>,
    clock: u64,
}

impl ResultCache {
    /// A cache of at most `capacity` answers; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultCacheInner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            capacity,
        }
    }

    /// Looks up an answer valid at `generation`; touches it on hit.
    pub fn get(
        &self,
        key: &str,
        strategy: Strategy,
        generation: u64,
    ) -> Option<(Arc<BTreeSet<u64>>, PlanKind)> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        let full_key = (key.to_owned(), strategy);
        match inner.map.get(&full_key) {
            Some(entry) if entry.generation == generation => {
                let (ids, plan, old_stamp) = (entry.ids.clone(), entry.plan, entry.stamp);
                inner.clock += 1;
                let stamp = inner.clock;
                inner.lru.remove(&old_stamp);
                inner.lru.insert(stamp, full_key.clone());
                if let Some(entry) = inner.map.get_mut(&full_key) {
                    entry.stamp = stamp;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((ids, plan))
            }
            Some(_) => {
                // Stale generation: drop the entry now rather than at
                // eviction time.
                if let Some(entry) = inner.map.remove(&full_key) {
                    inner.lru.remove(&entry.stamp);
                }
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an answer computed under `generation`, evicting the
    /// least-recently-used entries beyond capacity.
    ///
    /// An insert never clobbers an entry carrying a **newer**
    /// generation: a slow caller that pinned epoch N finishing after a
    /// fast caller already cached the same query under N+1 must not
    /// replace the fresh answer with its stale one (which the next
    /// N+1 lookup would then serve as current).
    pub fn insert(
        &self,
        key: String,
        strategy: Strategy,
        ids: Arc<BTreeSet<u64>>,
        plan: PlanKind,
        generation: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let full_key = (key, strategy);
        if let Some(existing) = inner.map.get(&full_key) {
            if existing.generation > generation {
                return;
            }
        }
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) =
            inner.map.insert(full_key.clone(), CachedResult { ids, plan, generation, stamp })
        {
            inner.lru.remove(&old.stamp);
        }
        inner.lru.insert(stamp, full_key);
        while inner.map.len() > self.capacity {
            // Same discipline as plan-cache eviction: if the LRU index
            // ever desynced, stop evicting instead of panicking.
            let Some((_, victim)) = inner.lru.pop_first() else { break };
            inner.map.remove(&victim);
        }
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries (stale ones included until touched).
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
        let f = fig1_book_document();
        let engine =
            QueryEngine::build(&f, EngineOptions { pool_pages: 256, ..Default::default() });
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
        let f = fig1_book_document();
        let engine =
            QueryEngine::build(&f, EngineOptions { pool_pages: 256, ..Default::default() });
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
        cache.insert("a".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge, 0);
        cache.insert("b".into(), Strategy::RootPaths, ids(&[2]), PlanKind::Merge, 0);
        // Touch "a" so "b" is LRU, then overflow.
        assert!(cache.get("a", Strategy::RootPaths, 0).is_some());
        cache.insert("c".into(), Strategy::RootPaths, ids(&[3]), PlanKind::Merge, 0);
        assert!(cache.get("b", Strategy::RootPaths, 0).is_none(), "b evicted");
        assert!(cache.get("a", Strategy::RootPaths, 0).is_some());
        assert!(cache.get("c", Strategy::RootPaths, 0).is_some());
    }

    #[test]
    fn result_cache_generation_invalidates() {
        let cache = ResultCache::new(8);
        cache.insert("q".into(), Strategy::DataPaths, ids(&[7]), PlanKind::Merge, 0);
        assert!(cache.get("q", Strategy::DataPaths, 0).is_some());
        assert!(cache.get("q", Strategy::DataPaths, 1).is_none(), "stale generation");
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.len(), 0, "stale entry dropped eagerly");
    }

    #[test]
    fn stale_generation_insert_never_clobbers_a_newer_entry() {
        // The lost-race the guard closes: caller A pins generation 0,
        // caller B pins generation 1 (post-update) and caches its
        // answer first; A's late insert must be dropped, or the next
        // generation-1 lookup would serve A's pre-update ids as fresh.
        let cache = ResultCache::new(8);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1, 2]), PlanKind::Merge, 1);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge, 0);
        let (got, _) = cache.get("q", Strategy::RootPaths, 1).expect("fresh entry survives");
        assert_eq!(got.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        // And the stale result can never be served under generation 0
        // either — that generation is gone for good.
        assert!(cache.get("q", Strategy::RootPaths, 0).is_none());
    }

    #[test]
    fn same_generation_reinsert_still_updates_the_entry() {
        let cache = ResultCache::new(8);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge, 3);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::IndexNestedLoop, 3);
        let (_, plan) = cache.get("q", Strategy::RootPaths, 3).unwrap();
        assert_eq!(plan, PlanKind::IndexNestedLoop);
        // A newer-generation insert replaces an older entry as before.
        cache.insert("q".into(), Strategy::RootPaths, ids(&[2]), PlanKind::Merge, 4);
        let (got, _) = cache.get("q", Strategy::RootPaths, 4).unwrap();
        assert_eq!(got.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn result_cache_keys_include_strategy() {
        let cache = ResultCache::new(8);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge, 0);
        assert!(cache.get("q", Strategy::Edge, 0).is_none());
    }

    #[test]
    fn zero_capacity_disables_result_cache() {
        let cache = ResultCache::new(0);
        cache.insert("q".into(), Strategy::RootPaths, ids(&[1]), PlanKind::Merge, 0);
        assert!(cache.get("q", Strategy::RootPaths, 0).is_none());
        assert!(cache.is_empty());
    }
}
