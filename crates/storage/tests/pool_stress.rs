//! Multi-threaded `BufferPool` stress: guards the read-path concurrency
//! audit (see `src/buffer.rs` module docs) that `xtwig-service` relies
//! on for serving concurrent queries over shared index pools.
//!
//! Shape: a deliberately small pool (so eviction churns constantly)
//! under N reader threads doing pin/verify/unpin cycles, one writer
//! thread mutating a disjoint set of pages, and one thread hammering
//! `flush_all` (which must skip pinned frames rather than deadlock).
//! `hits_beside_an_eviction_storm_read_their_own_page` mixes hits and
//! misses on a pool a quarter the size of its pages.
//! `readers_hammer_each_epoch_of_a_fork_chain` is the MVCC shape
//! instead: readers on whichever pool is current while a writer runs a
//! chain of `cow_fork`s under them. The tests after it hook the backend
//! read of one page — parking it on a gate, failing it, or both — to pin
//! down what a page miss does to everyone else: it stalls no fetch of
//! another page, two fetches of one cold page share one read, and a read
//! that unwinds leaves no pin and no stale bytes behind.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use xtwig_storage::page::{get_u64, put_u64, PageId};
use xtwig_storage::{BufferPool, DiskManager, MemBackend, ReadBackend, StorageBackend, PAGE_SIZE};

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
fn hits_beside_an_eviction_storm_read_their_own_page() {
    // Four times the pages the pool holds: most fetches miss and evict
    // while the rest hit under the shared table lock. A hit that pinned
    // a frame an eviction was refilling would read another page's id.
    const PAGES: u32 = 64;
    const THREADS: u64 = 4;
    const FETCHES: u64 = 20_000;
    let pool = Arc::new(BufferPool::in_memory(16));
    let pages: Arc<Vec<PageId>> = Arc::new(
        (0..PAGES)
            .map(|_| {
                let (pid, mut g) = pool.allocate();
                put_u64(&mut g, 0, u64::from(pid.0));
                pid
            })
            .collect(),
    );
    pool.flush_all();
    pool.stats().reset();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = pool.clone();
            let pages = pages.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0x5EED ^ t);
                for _ in 0..FETCHES {
                    let pid = pages[(rng.next() as usize) % pages.len()];
                    assert_eq!(get_u64(&pool.fetch(pid), 0), u64::from(pid.0));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = pool.stats().snapshot();
    assert_eq!(snap.logical_reads, THREADS * FETCHES, "one logical read per fetch");
    assert!(snap.evictions > 0 && snap.physical_reads > 0, "the storm evicted: {snap:?}");
    // No pin leaked: clear_cache panics on a pinned frame.
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

/// How long a test waits on another thread before calling it stuck.
const STUCK: Duration = Duration::from_secs(10);

/// No page hooked.
const NO_PAGE: u32 = u32::MAX;

/// What the next backend read of one chosen page does, and where every
/// backend write reports.
struct ReadHook {
    /// The hooked page ([`NO_PAGE`] once its read has happened).
    page: AtomicU32,
    /// Report on `parked`, then wait for the gate before reading on.
    park: bool,
    /// Scribble on the buffer and panic instead of reading.
    fail: bool,
    parked: std::sync::Mutex<mpsc::Sender<()>>,
    gate: std::sync::Mutex<mpsc::Receiver<()>>,
    wrote: std::sync::Mutex<mpsc::Sender<()>>,
    /// Backend reads of any page.
    reads: AtomicUsize,
}

struct HookedBackend {
    pages: MemBackend,
    hook: Arc<ReadHook>,
}

impl ReadBackend for HookedBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let hook = &self.hook;
        hook.reads.fetch_add(1, Ordering::SeqCst);
        if hook.page.compare_exchange(pid.0, NO_PAGE, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            if hook.park {
                hook.parked.lock().unwrap().send(()).unwrap();
                // Time out rather than hang if the test never opens it,
                // but only well after the test has stopped waiting.
                let _ = hook.gate.lock().unwrap().recv_timeout(3 * STUCK);
            }
            if hook.fail {
                buf.fill(0xEE);
                panic!("injected read fault on page {}", pid.0);
            }
        }
        self.pages.read_page(pid, buf);
    }

    fn num_pages(&self) -> u32 {
        self.pages.num_pages()
    }
}

impl StorageBackend for HookedBackend {
    fn write_page(&self, pid: PageId, buf: &[u8]) {
        self.pages.write_page(pid, buf);
        // A test that does not wait for writes has dropped the receiver.
        let _ = self.hook.wrote.lock().unwrap().send(());
    }

    fn allocate(&self) -> PageId {
        self.pages.allocate()
    }
}

/// Page `i`'s bytes: `i + 1` everywhere but a tag in the first word.
fn page_image(i: u32) -> Vec<u8> {
    let mut page = vec![i as u8 + 1; PAGE_SIZE];
    put_u64(&mut page, 0, 1_000 + u64::from(i) * 17);
    page
}

fn assert_page(bytes: &[u8], i: u32) {
    assert_eq!(bytes.len(), PAGE_SIZE, "page {i}");
    assert_eq!(get_u64(bytes, 0), 1_000 + u64::from(i) * 17, "page {i}");
    assert_eq!(bytes[PAGE_SIZE - 1], i as u8 + 1, "page {i}");
}

/// A cold pool over a [`HookedBackend`], and the test's ends of its
/// channels.
struct Hooked {
    pool: Arc<BufferPool>,
    hook: Arc<ReadHook>,
    /// Opens the gate a parked read waits on.
    gate: mpsc::Sender<()>,
    /// Where a parked read reports.
    parked: mpsc::Receiver<()>,
    /// Where each backend write reports.
    wrote: mpsc::Receiver<()>,
}

/// A cold pool of `capacity` frames over `pages` pages, whose hooked
/// read parks and/or fails.
fn hooked_pool(pages: u32, capacity: usize, park: bool, fail: bool) -> Hooked {
    let backend = MemBackend::new();
    for i in 0..pages {
        let pid = backend.allocate();
        backend.write_page(pid, &page_image(i));
    }
    let (parked_tx, parked) = mpsc::channel();
    let (gate, gate_rx) = mpsc::channel();
    let (wrote_tx, wrote) = mpsc::channel();
    let hook = Arc::new(ReadHook {
        page: AtomicU32::new(NO_PAGE),
        park,
        fail,
        parked: std::sync::Mutex::new(parked_tx),
        gate: std::sync::Mutex::new(gate_rx),
        wrote: std::sync::Mutex::new(wrote_tx),
        reads: AtomicUsize::new(0),
    });
    let disk =
        DiskManager::with_backend(Box::new(HookedBackend { pages: backend, hook: hook.clone() }));
    Hooked { pool: Arc::new(BufferPool::new(disk, capacity)), hook, gate, parked, wrote }
}

#[test]
fn a_read_that_unwinds_leaves_no_pin_and_no_stale_bytes() {
    // 4 frames over 12 pages: every hooked page lands in a victim frame
    // that still holds another page's bytes.
    const PAGES: u32 = 12;
    let Hooked { pool, hook, .. } = hooked_pool(PAGES, 4, false, true);
    for round in 0..8u32 {
        // Fill the pool, so the faulting load reuses a victim's buffer.
        for i in 0..4 {
            assert_page(&pool.fetch(PageId((round + i) % PAGES)), (round + i) % PAGES);
        }
        let x = (round + 6) % PAGES;
        hook.page.store(x, Ordering::SeqCst);
        let write = round % 2 == 1;
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if write {
                drop(pool.fetch_mut(PageId(x)));
            } else {
                drop(pool.fetch(PageId(x)));
            }
        }));
        assert!(fault.is_err(), "round {round}: the hooked read must fail");
        // The page reads its true bytes again, from the backend.
        let reads = hook.reads.load(Ordering::SeqCst);
        assert_page(&pool.fetch(PageId(x)), x);
        assert_eq!(hook.reads.load(Ordering::SeqCst), reads + 1, "round {round}: re-read");
        for i in 0..PAGES {
            assert_page(&pool.fetch(PageId(i)), i);
        }
    }
    // No pin leaked, and nothing the faults touched is written back.
    pool.clear_cache();
    for i in 0..PAGES {
        assert_page(&pool.fetch(PageId(i)), i);
    }
}

#[test]
fn a_parked_miss_stalls_no_fetch_of_another_page() {
    const X: u32 = 0;
    const Y: u32 = 1;
    const Z: u32 = 2;
    let Hooked { pool, hook, gate, parked, .. } = hooked_pool(4, 8, true, false);
    assert_page(&pool.fetch(PageId(Y)), Y); // Y resident, X and Z cold
    hook.page.store(X, Ordering::SeqCst);
    let loader = {
        let pool = pool.clone();
        std::thread::spawn(move || assert_page(&pool.fetch(PageId(X)), X))
    };
    parked.recv_timeout(STUCK).expect("the read of X parks");
    let (done_tx, done_rx) = mpsc::channel();
    let other = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            assert_page(&pool.fetch(PageId(Y)), Y); // a hit
            assert_page(&pool.fetch(PageId(Z)), Z); // a miss
            done_tx.send(()).unwrap();
        })
    };
    let unstalled = done_rx.recv_timeout(STUCK);
    gate.send(()).unwrap();
    loader.join().unwrap();
    other.join().unwrap();
    assert!(unstalled.is_ok(), "a hit and a miss on other pages waited for X's read");
    pool.clear_cache();
}

#[test]
fn two_fetches_of_one_cold_page_share_one_read() {
    const X: u32 = 3;
    let Hooked { pool, hook, gate, parked, .. } = hooked_pool(4, 8, true, false);
    hook.page.store(X, Ordering::SeqCst);
    let before = pool.stats().snapshot();
    let fetcher = || {
        let pool = pool.clone();
        std::thread::spawn(move || assert_page(&pool.fetch(PageId(X)), X))
    };
    let first = fetcher();
    parked.recv_timeout(STUCK).expect("the read of X parks");
    let second = fetcher();
    // The second fetch has pinned X's frame (and now waits on its latch)
    // once a second pin shows in the counters.
    let deadline = Instant::now() + STUCK;
    while pool.stats().snapshot().since(&before).pins < 2 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let pinned = pool.stats().snapshot().since(&before).pins;
    gate.send(()).unwrap();
    first.join().unwrap();
    second.join().unwrap();
    assert_eq!(pinned, 2, "the second fetch found X published while its read was parked");
    assert_eq!(hook.reads.load(Ordering::SeqCst), 1, "one backend read");
    let delta = pool.stats().snapshot().since(&before);
    assert_eq!((delta.logical_reads, delta.physical_reads), (2, 1));
}

#[test]
fn a_fetch_waiting_on_a_read_that_unwinds_reads_the_page_itself() {
    const X: u32 = 2;
    let Hooked { pool, hook, gate, parked, .. } = hooked_pool(4, 8, true, true);
    hook.page.store(X, Ordering::SeqCst);
    let before = pool.stats().snapshot();
    let loader = {
        let pool = pool.clone();
        std::thread::spawn(move || drop(pool.fetch(PageId(X))))
    };
    parked.recv_timeout(STUCK).expect("the read of X parks");
    let waiter = {
        let pool = pool.clone();
        std::thread::spawn(move || assert_page(&pool.fetch(PageId(X)), X))
    };
    let deadline = Instant::now() + STUCK;
    while pool.stats().snapshot().since(&before).pins < 2 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    gate.send(()).unwrap();
    assert!(loader.join().is_err(), "the hooked read fails its own fetch");
    waiter.join().expect("the waiting fetch retries and reads X");
    assert_eq!(hook.reads.load(Ordering::SeqCst), 2, "the failed read, then the retry");
    pool.clear_cache();
}

#[test]
fn a_fork_waiting_on_a_read_that_unwinds_is_refused_then_reads_the_page() {
    const X: u32 = 1;
    const D: u32 = 3;
    let Hooked { pool, hook, gate, parked, wrote } = hooked_pool(4, 8, true, true);
    // A dirty unpinned page, so the fork writes it back under the table
    // mutex before it copies a frame.
    drop(pool.fetch_mut(PageId(D)));
    hook.page.store(X, Ordering::SeqCst);
    let loader = {
        let pool = pool.clone();
        std::thread::spawn(move || drop(pool.fetch(PageId(X))))
    };
    parked.recv_timeout(STUCK).expect("the read of X parks");
    let (forked, fork) = mpsc::channel();
    {
        let pool = pool.clone();
        std::thread::spawn(move || forked.send(pool.cow_fork().err()).unwrap());
    }
    // The fork holds the table lock from its write-back until it returns,
    // and the failed load can only unpublish X under that lock: the fork
    // copies X's frame after the load emptied it, whatever the timing.
    // That needs the load to release X's latch before it takes the table
    // lock; in the other order the two wait on each other, which fails
    // here within `STUCK` rather than hanging.
    wrote.recv_timeout(STUCK).expect("the fork writes D back");
    gate.send(()).unwrap();
    let refused = fork.recv_timeout(STUCK).expect("the fork returns: no latch/table deadlock");
    assert_eq!(refused, Some(1), "the emptied frame refuses the fork");
    assert!(loader.join().is_err(), "the hooked read fails its own fetch");
    // Once the loader has retired X's frame, the fork goes through and
    // reads X itself.
    let fork = pool.cow_fork().expect("no load in flight");
    assert_page(&fork.fetch(PageId(X)), X);
    assert_page(&fork.fetch(PageId(D)), D);
    assert_page(&pool.fetch(PageId(X)), X);
}
