//! Model-based property test of the copy-on-write pool family: random
//! `{fetch, fetch_mut, allocate, cow_fork, clear_cache, content_hash,
//! drop}` sequences over a tree of parent/child/sibling pools, checked
//! against a per-pool model of page contents *and* of the LRU resident
//! set. The model is what makes "a fork is warm" and "one pool's
//! eviction is nobody else's business" exact: every fetch must hit or
//! miss as the pool's own inherited LRU order predicts.

use proptest::prelude::*;
use xtwig_storage::{BufferPool, PageId, PAGE_SIZE};

/// Small enough that eviction is routine.
const CAPACITY: usize = 4;
const MAX_POOLS: usize = 5;
const MAX_PAGES: usize = 12;

#[derive(Debug, Clone)]
enum Op {
    Fetch(usize, usize),
    FetchMut(usize, usize, u8),
    Allocate(usize, u8),
    Fork(usize),
    ClearCache(usize),
    Hash(usize),
    Drop(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pool = 0..MAX_POOLS;
    let page = 0..MAX_PAGES;
    prop_oneof![
        (pool.clone(), page.clone()).prop_map(|(p, i)| Op::Fetch(p, i)),
        (pool.clone(), page.clone()).prop_map(|(p, i)| Op::Fetch(p, i)),
        (pool.clone(), page.clone(), 1..=255u8).prop_map(|(p, i, v)| Op::FetchMut(p, i, v)),
        (pool.clone(), page, 1..=255u8).prop_map(|(p, i, v)| Op::FetchMut(p, i, v)),
        (pool.clone(), 1..=255u8).prop_map(|(p, v)| Op::Allocate(p, v)),
        pool.clone().prop_map(Op::Fork),
        pool.clone().prop_map(Op::ClearCache),
        pool.clone().prop_map(Op::Hash),
        pool.prop_map(Op::Drop),
    ]
}

/// One pool and what the model says about it.
struct Member {
    pool: BufferPool,
    /// Page id -> the byte every position of that page holds.
    pages: Vec<u8>,
    /// Resident page ids, least recently used first.
    lru: Vec<u32>,
    /// Forked from: sealed by the fork contract, never written again.
    sealed: bool,
    /// `content_hash` as last observed, valid until the next own write.
    hash: Option<u64>,
}

impl Member {
    /// Records an access in the LRU model; true when it is a hit.
    fn touch(&mut self, pid: u32) -> bool {
        let hit = self.lru.contains(&pid);
        if hit {
            self.lru.retain(|&p| p != pid);
        } else if self.lru.len() == CAPACITY {
            self.lru.remove(0);
        }
        self.lru.push(pid);
        hit
    }

    fn misses(&self) -> u64 {
        self.pool.stats().snapshot().physical_reads
    }

    /// Fetches `pid`, checking content and hit/miss against the model.
    fn fetch(&mut self, pid: u32) {
        let before = self.misses();
        let first = {
            let g = self.pool.fetch(PageId(pid));
            assert_eq!(g.len(), PAGE_SIZE);
            assert_eq!(g[0], g[PAGE_SIZE - 1]);
            g[0]
        };
        assert_eq!(first, self.pages[pid as usize], "content of page {pid}");
        let hit = self.touch(pid);
        assert_eq!(self.misses() - before, u64::from(!hit), "hit/miss of page {pid}");
    }

    fn write(&mut self, pid: u32, v: u8) {
        let before = self.misses();
        self.pool.fetch_mut(PageId(pid)).fill(v);
        self.pages[pid as usize] = v;
        self.hash = None;
        let hit = self.touch(pid);
        assert_eq!(self.misses() - before, u64::from(!hit), "hit/miss of page {pid}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn pool_family_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..160)) {
        let root = BufferPool::in_memory(CAPACITY);
        let mut family = vec![Member { pool: root, pages: vec![], lru: vec![], sealed: false, hash: None }];
        for op in ops {
            let n = family.len();
            match op {
                Op::Fetch(p, i) => {
                    let m = &mut family[p % n];
                    if !m.pages.is_empty() {
                        m.fetch((i % m.pages.len()) as u32);
                    }
                }
                Op::FetchMut(p, i, v) => {
                    let m = &mut family[p % n];
                    if !m.pages.is_empty() {
                        let pid = (i % m.pages.len()) as u32;
                        if m.sealed { m.fetch(pid) } else { m.write(pid, v) }
                    }
                }
                Op::Allocate(p, v) => {
                    let m = &mut family[p % n];
                    if !m.sealed && m.pages.len() < MAX_PAGES {
                        let before = m.misses();
                        let (pid, mut g) = m.pool.allocate();
                        g.fill(v);
                        drop(g);
                        prop_assert_eq!(pid.0 as usize, m.pages.len(), "ids stay dense per pool");
                        m.pages.push(v);
                        m.hash = None;
                        prop_assert!(!m.touch(pid.0));
                        prop_assert_eq!(m.misses(), before, "allocation reads nothing");
                    }
                }
                Op::Fork(p) => {
                    if n < MAX_POOLS {
                        let m = &mut family[p % n];
                        let pool = m.pool.cow_fork().expect("no guard outlives an op");
                        m.sealed = true;
                        let child = Member {
                            pool,
                            pages: m.pages.clone(),
                            lru: m.lru.clone(),
                            sealed: false,
                            hash: m.hash,
                        };
                        family.push(child);
                    }
                }
                Op::ClearCache(p) => {
                    let m = &mut family[p % n];
                    m.pool.clear_cache();
                    m.lru.clear();
                }
                Op::Hash(p) => {
                    // content_hash reads every page through the pool.
                    let m = &mut family[p % n];
                    let before = m.misses();
                    let hash = m.pool.content_hash();
                    let hits = (0..m.pages.len() as u32).filter(|&pid| m.touch(pid)).count();
                    prop_assert_eq!(m.misses() - before, (m.pages.len() - hits) as u64);
                    if let Some(seen) = m.hash {
                        prop_assert_eq!(hash, seen, "an unwritten pool's hash never changes");
                    }
                    m.hash = Some(hash);
                }
                Op::Drop(p) => {
                    if n > 1 {
                        family.remove(p % n);
                    }
                }
            }
            for m in &family {
                prop_assert_eq!(m.pool.resident_pages(), m.lru.len());
            }
        }
        // Every survivor still reads exactly its own history.
        for m in &mut family {
            for pid in 0..m.pages.len() as u32 {
                m.fetch(pid);
            }
        }
    }
}
