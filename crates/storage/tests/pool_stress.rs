//! Multi-threaded `BufferPool` stress: guards the read-path concurrency
//! audit (see `src/buffer.rs` module docs) that `xtwig-service` relies
//! on for serving concurrent queries over shared index pools.
//!
//! Shape: a deliberately small pool (so eviction churns constantly)
//! under N reader threads doing pin/verify/unpin cycles, one writer
//! thread mutating a disjoint set of pages, and one thread hammering
//! `flush_all` (which must skip pinned frames rather than deadlock).
//! The last test is the MVCC shape instead: readers on whichever pool
//! is current while a writer runs a chain of `cow_fork`s under them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xtwig_storage::page::{get_u64, put_u64, PageId};
use xtwig_storage::BufferPool;

/// Tiny deterministic generator (the vendored `rand` stub is aimed at
/// datagen; an LCG is all the churn schedule needs).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn seed_pages(pool: &BufferPool, n: u64, tag: u64) -> Vec<PageId> {
    (0..n)
        .map(|i| {
            let (pid, mut g) = pool.allocate();
            put_u64(&mut g, 0, tag + i * 17);
            pid
        })
        .collect()
}

#[test]
fn concurrent_readers_writer_and_flush_over_small_pool() {
    // 8 frames, 48 resident pages: every fetch is likely an eviction.
    let pool = Arc::new(BufferPool::in_memory(8));
    let read_pages = Arc::new(seed_pages(&pool, 32, 1_000));
    let write_pages = Arc::new(seed_pages(&pool, 16, 9_000));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    // Readers: pin, verify, occasionally hold a second pin (two guards
    // per thread at most — 4 threads * 2 pins < 8 frames, so the pool
    // can always make progress).
    for t in 0..4u64 {
        let pool = pool.clone();
        let pages = read_pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xC0FFEE ^ t);
            for round in 0..2_000 {
                let i = (rng.next() as usize) % pages.len();
                let g = pool.fetch(pages[i]);
                assert_eq!(get_u64(&g, 0), 1_000 + i as u64 * 17, "round {round}");
                if rng.next().is_multiple_of(4) {
                    let j = (rng.next() as usize) % pages.len();
                    let g2 = pool.fetch(pages[j]);
                    assert_eq!(get_u64(&g2, 0), 1_000 + j as u64 * 17);
                }
            }
        }));
    }
    // Writer: bump counters on its own pages; values stay self-consistent.
    {
        let pool = pool.clone();
        let pages = write_pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xBEEF);
            for _ in 0..2_000 {
                let i = (rng.next() as usize) % pages.len();
                let mut g = pool.fetch_mut(pages[i]);
                let v = get_u64(&g, 0);
                assert_eq!((v - 9_000 - i as u64 * 17) % 1_000_000, 0);
                put_u64(&mut g, 0, v + 1_000_000);
            }
        }));
    }
    // Flusher: flush_all concurrently with held pins must neither
    // deadlock nor panic (pinned frames are skipped).
    let flusher = {
        let pool = pool.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                pool.flush_all();
                std::thread::yield_now();
            }
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    flusher.join().unwrap();

    // Post-churn: every page still readable with its final value intact.
    for (i, &pid) in read_pages.iter().enumerate() {
        let g = pool.fetch(pid);
        assert_eq!(get_u64(&g, 0), 1_000 + i as u64 * 17);
    }
    let mut writes = 0u64;
    for (i, &pid) in write_pages.iter().enumerate() {
        let g = pool.fetch(pid);
        let v = get_u64(&g, 0);
        assert_eq!((v - 9_000 - i as u64 * 17) % 1_000_000, 0);
        writes += (v - 9_000 - i as u64 * 17) / 1_000_000;
    }
    assert_eq!(writes, 2_000, "every write landed exactly once");
    let snap = pool.stats().snapshot();
    assert!(snap.evictions > 0, "small pool must churn");
    assert!(snap.logical_reads >= snap.physical_reads);
}

#[test]
fn flush_all_with_pinned_dirty_page_skips_it() {
    let pool = BufferPool::in_memory(4);
    let (pid, mut g) = pool.allocate();
    put_u64(&mut g, 0, 7);
    // Dirty + pinned: flush_all must return without touching it, and
    // report the skip so persistence can refuse to copy a torn image.
    assert_eq!(pool.flush_all(), 1);
    put_u64(&mut g, 0, 8);
    drop(g);
    // Unpinned now: the page is still dirty and a flush writes it back,
    // skipping nothing.
    let before = pool.stats().snapshot().physical_writes;
    assert_eq!(pool.flush_all(), 0);
    assert!(pool.stats().snapshot().physical_writes > before);
    assert_eq!(get_u64(&pool.fetch(pid), 0), 8);
}

#[test]
fn concurrent_allocation_hands_out_distinct_pages() {
    // The write-path audit in `buffer.rs`: allocate from many threads
    // must hand out distinct ids, never lose a page, and leave each
    // thread's writes intact. (The sharded index builders keep
    // allocation single-threaded for deterministic layout, but the pool
    // itself must stay correct under concurrent allocation.)
    let pool = Arc::new(BufferPool::in_memory(64));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let pool = pool.clone();
        handles.push(std::thread::spawn(move || {
            let mut mine = Vec::new();
            for i in 0..200u64 {
                let (pid, mut g) = pool.allocate();
                put_u64(&mut g, 0, t * 1_000_000 + i);
                drop(g);
                mine.push((pid, t * 1_000_000 + i));
            }
            mine
        }));
    }
    let mut all: Vec<(xtwig_storage::PageId, u64)> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    assert_eq!(all.len(), 6 * 200);
    let mut ids: Vec<u32> = all.iter().map(|(p, _)| p.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6 * 200, "no page id handed out twice");
    assert_eq!(pool.num_pages(), 6 * 200);
    for (pid, expected) in all {
        assert_eq!(get_u64(&pool.fetch(pid), 0), expected);
    }
}

#[test]
fn pin_unpin_churn_many_threads_exact_counts() {
    // Pure pin/unpin churn on a pool exactly the size of the hot set:
    // no evictions, every fetch a hit, pins balancing back to zero.
    let pool = Arc::new(BufferPool::in_memory(8));
    let pages = Arc::new(seed_pages(&pool, 8, 100));
    pool.stats().reset();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let pool = pool.clone();
        let pages = pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(t + 1);
            for _ in 0..5_000 {
                let i = (rng.next() as usize) % pages.len();
                let g = pool.fetch(pages[i]);
                assert_eq!(get_u64(&g, 0), 100 + i as u64 * 17);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = pool.stats().snapshot();
    assert_eq!(snap.logical_reads, 8 * 5_000);
    assert_eq!(snap.physical_reads, 0, "hot set fits: all hits");
    // All pins released: clear_cache's pin==0 assertion must pass.
    pool.clear_cache();
}

#[test]
fn readers_hammer_each_epoch_of_a_fork_chain() {
    // The MVCC shape: a writer forks the newest pool, writes the fork
    // while it is still private, publishes it and drops its handle on
    // the parent; readers pin whichever pool is current and must see
    // one consistent image of it — generation `g` everywhere `g` wrote,
    // older generations elsewhere — however many epochs go by under
    // them. Capacity covers the working set, so "buffer pool exhausted"
    // would be a leak of pins or frames across the fork.
    const PAGES: u64 = 16;
    const GENERATIONS: u64 = 50;
    const READERS: usize = 3;
    // Generation g rewrites the pages i with i % 3 == g % 3.
    fn expected(generation: u64, page: u64) -> u64 {
        (0..=generation).rev().find(|g| g % 3 == page % 3 && *g > 0).unwrap_or(0)
    }

    let root = BufferPool::in_memory(32);
    // Fresh pages read 0 — generation 0's image.
    let pages: Arc<Vec<PageId>> = Arc::new((0..PAGES).map(|_| root.allocate().0).collect());
    let current = Arc::new(std::sync::Mutex::new((0u64, Arc::new(root))));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let start = Arc::new(std::sync::Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS as u64)
        .map(|t| {
            let (current, stop, reads, start, pages) =
                (current.clone(), stop.clone(), reads.clone(), start.clone(), pages.clone());
            std::thread::spawn(move || {
                let mut rng = Lcg(0xF0F0 ^ t);
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let (generation, pool) = current.lock().unwrap().clone();
                    for _ in 0..PAGES {
                        let i = rng.next() % PAGES;
                        let g = pool.fetch(pages[i as usize]);
                        assert_eq!(
                            get_u64(&g, 0),
                            expected(generation, i),
                            "gen {generation} page {i}"
                        );
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    start.wait();
    for generation in 1..=GENERATIONS {
        // Let the readers work on every epoch before it is displaced.
        let seen = reads.load(Ordering::Relaxed);
        while reads.load(Ordering::Relaxed) < seen + READERS as u64 {
            std::thread::yield_now();
        }
        let parent = current.lock().unwrap().1.clone();
        // Only this thread writes, but a reader may still pin a page the
        // last generation dirtied: such a page cannot be flushed under
        // it, the fork is refused, and the writer retries — each
        // attempt flushes what it can, so the dirty set only shrinks.
        let child = loop {
            match parent.cow_fork() {
                Ok(child) => break child,
                Err(_) => std::thread::yield_now(),
            }
        };
        for i in (0..PAGES).filter(|i| i % 3 == generation % 3) {
            put_u64(&mut child.fetch_mut(pages[i as usize]), 0, generation);
        }
        *current.lock().unwrap() = (generation, Arc::new(child));
        drop(parent); // the last reader to unpin it tears it down
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let (generation, pool) = current.lock().unwrap().clone();
    assert_eq!(generation, GENERATIONS);
    for i in 0..PAGES {
        assert_eq!(get_u64(&pool.fetch(pages[i as usize]), 0), expected(GENERATIONS, i));
    }
    // Each generation copied exactly the pages it wrote, once.
    let written: u64 =
        (1..=GENERATIONS).map(|g| (0..PAGES).filter(|i| i % 3 == g % 3).count() as u64).sum();
    assert_eq!(pool.counters().cow_copies(), written);
    assert_eq!(pool.resident_pages(), PAGES as usize);
}
