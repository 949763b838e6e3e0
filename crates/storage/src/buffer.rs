//! Buffer pool with LRU eviction, pin counts, and dirty-page write-back.
//!
//! Mirrors the role of the paper's 40 MB DB2 buffer pool (§5.1.1): all
//! page access from the B+-tree and heap-file layers goes through
//! [`BufferPool::fetch`] / [`BufferPool::fetch_mut`], so logical and
//! physical I/O are observable per experiment.
//!
//! Concurrency: the page table and replacement state sit behind one
//! `RwLock` (the table lock); page contents sit behind per-frame
//! `RwLock`s (the frame's latch). A hit looks its page up and pins it
//! under the *shared* table lock, so hits on any pages run side by side;
//! installing and evicting take it *exclusively*. Pins are counted so a
//! resident, in-use page is never evicted. Eviction picks the
//! least-recently-used unpinned frame (timestamp scan — O(frames), which
//! is fine at the pool sizes used here). A miss holds the exclusive lock
//! only to pick, pin and latch its frame and publish the page; the
//! backend read itself runs under the frame's latch alone, so it stalls
//! no fetch of another page, and a fetch of the same page waits on that
//! latch rather than on the table. Both locks are `std::sync::RwLock`s
//! (through the `parking_lot` stand-in): an uncontended shared
//! acquisition and release is one atomic each, with no syscall.
//!
//! Memory: frames and their 8 KiB page images are materialized on first
//! use, so a pool costs what it holds, not what it could hold. An image
//! lives behind an `Arc` that a [`BufferPool::cow_fork`] sibling and the
//! disk manager's copy-on-write overlay may share; a shared image is never
//! written in place — the first write through a pool copies it.
//!
//! Read-path concurrency audit (the invariants `xtwig-service` relies
//! on; guarded by `tests/pool_stress.rs`):
//!
//! * A frame's pin count only rises 0→1 under the table lock (`pin`):
//!   shared for a hit, exclusive for an install. `pick_victim` runs only
//!   under the exclusive lock, so it can never evict a frame that a
//!   guard is about to reference. A writer's dirty mark is set in the
//!   same critical section, so `flush_all` and `cow_fork`, which hold
//!   the lock exclusively, never see a writer's pin without its mark.
//! * The table lock is never held across a fetch, a backend read or a
//!   frame latch that a guard may hold. Page-content locks are only
//!   acquired under the exclusive table lock for frames with **zero**
//!   pins (eviction write-back, `flush_all`, the load latch), where no
//!   outstanding guard can hold the content lock — otherwise a reader
//!   that holds a page guard and fetches a second page (which needs the
//!   table lock) could deadlock against the lock holder waiting on its
//!   page lock. This is why `flush_all` skips pinned frames.
//! * The load latch is the write lock `install` takes, under the
//!   exclusive table lock, on the zero-pin frame it has just pinned for
//!   a missing page. It is held across the backend read *without* the
//!   table lock and released before the frame is handed out; nothing a
//!   loader does on success needs the table lock again. If the read
//!   unwinds, `Pending` empties the frame and releases the latch first,
//!   and only then takes the table lock to unpublish the page, retire
//!   the slot and drop its pin: a fetch that pinned the frame meanwhile
//!   finds it empty and retries, and the next fetch of the page reads
//!   it again.
//! * The one exception is `cow_fork`, which *read*-locks pinned
//!   **clean** frames under the exclusive table lock to share their
//!   images, and so waits for a load in flight. No cycle: the loader
//!   never needs the table lock while it holds the latch. A frame pinned
//!   by a writer is dirty (see above) and refuses the fork first, so
//!   otherwise only readers hold those locks and a shared acquisition
//!   cannot wait. A frame a failed load left empty refuses the fork
//!   too, until its loader has retired it.
//! * `clear_cache` requires quiescence (it panics on pinned pages); it
//!   is a bench/ablation facility, not a serving-path operation.
//!
//! Writer preference: `std`'s `RwLock` makes a new reader wait behind a
//! queued writer. A thread holding a page guard may fetch the same page
//! again, read-locking a latch it already holds, and that deadlocks if a
//! writer queued on the latch in between. No write acquisition here can
//! queue behind such a re-entering reader:
//!
//! * the load latch is taken only on a zero-pin frame, which no guard
//!   holds and no reader can reach until the exclusive table lock drops;
//! * `fetch_mut` and `allocate` latch frames only on a pool that is
//!   being built or on a [`BufferPool::cow_fork`] not yet published to
//!   readers (the engine writes nothing else), so no reader of another
//!   thread holds a guard on that pool;
//! * the table's `write()` is never held across a fetch, and its
//!   `read()` is held only to look a page up and pin it — no thread
//!   holds the table lock while it takes it again;
//! * the service's epoch lock is held only to clone or swap the epoch
//!   `Arc`, never across another acquisition: the type that owns it
//!   (`Published` in `xtwig-service`) takes it only inside `pin` and
//!   `publish` and hands no guard out.
//!
//! Write-path concurrency audit (for the sharded index builds in
//! `xtwig-core::parallel`): `allocate` is safe to call from any number
//! of threads — the backend hands out ids under its own mutex/atomic,
//! `install` pins and latches the fresh frame under the table lock and
//! zero-fills it before the guard is handed out, and the returned write
//! guard owns the content lock. What concurrent allocation does **not**
//! give is a deterministic id order, which is why the sharded builders
//! deliberately keep all allocation on the calling thread (workers only
//! enumerate and sort rows) so a parallel build's page image stays
//! byte-identical to the sequential one. `pool_stress` exercises the
//! multi-threaded allocate path.

// The read path the query engine touches: a panic here kills the
// serving thread that touched it (same table as `[workspace.lints.clippy]`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::disk::DiskManager;
use crate::hash::{hash_bytes, SEED};
use crate::page::{PageBuf, PageId};
use crate::stats::{IoStats, PoolCounters};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A frame's page image: `None` until a page is first installed, then an
/// `Arc` that sibling pools (after [`BufferPool::cow_fork`]) and the
/// disk manager's copy-on-write overlay may share. A shared image is never
/// mutated — writers copy it first (see `write_guard`).
type Image = Option<Arc<PageBuf>>;

// One cache line per frame: neighbours are pinned and locked by
// different threads at the same moment. With frames packed 56 bytes
// apart the 2-thread hit cost (bimodal either way — the table mutex)
// had a median near 1 µs over seven runs; aligned, near 260 ns.
#[derive(Default)]
#[repr(align(64))]
struct Frame {
    data: RwLock<Image>,
    pin: AtomicUsize,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

// Exactly one line: a latch type that grew past it would silently undo
// the alignment above.
const _: () = assert!(std::mem::size_of::<Frame>() == 64);

/// Frames are created a chunk at a time, on first use, so an empty pool
/// of any capacity owns no frames and a fork copies only the chunks its
/// parent touched. Chunks never move once created, which is what lets
/// guards borrow a frame without holding the table lock.
const FRAME_CHUNK: usize = 64;

fn new_chunk() -> Box<[Frame]> {
    (0..FRAME_CHUNK).map(|_| Frame::default()).collect()
}

struct PoolInner {
    /// page id -> frame index
    table: HashMap<PageId, usize>,
    /// frame index -> resident page id. Frames fill in index order, so
    /// this is as long as the resident set and every scan is O(resident).
    resident: Vec<PageId>,
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: DiskManager,
    capacity: usize,
    frames: Box<[OnceLock<Box<[Frame]>>]>,
    inner: RwLock<PoolInner>,
    clock: AtomicU64,
    /// Shared with every pool forked from this one, so the counters an
    /// operator scrapes stay cumulative across epochs.
    stats: Arc<IoStats>,
    /// Materialized page images in *this* pool (one per resident page).
    resident: Arc<AtomicU64>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `disk`. No frame or page
    /// buffer is allocated until a page is installed.
    pub fn new(disk: DiskManager, capacity: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least 2 frames");
        BufferPool {
            disk,
            capacity,
            frames: (0..capacity.div_ceil(FRAME_CHUNK)).map(|_| OnceLock::new()).collect(),
            inner: RwLock::new(PoolInner { table: HashMap::new(), resident: Vec::new() }),
            clock: AtomicU64::new(1),
            stats: Arc::new(IoStats::new()),
            resident: Arc::default(),
        }
    }

    /// Convenience: in-memory pool with `capacity` frames.
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::new(DiskManager::in_memory(), capacity)
    }

    /// The shared I/O statistics.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// A cheap cloneable handle onto this pool's page-read/miss/pin
    /// counters, for observability layers that sample them without
    /// holding the pool.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters::new(self.stats.clone(), self.resident.clone())
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Page images this pool currently holds (shared or not) — one per
    /// resident page, 0 for a pool nothing has touched.
    pub fn resident_pages(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }

    /// Pages allocated in the underlying disk manager.
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }

    /// [`hash_bytes`] chained over the byte content of every allocated
    /// page, in page-id order. Dirty resident frames are read through
    /// the pool, so the hash reflects the latest content even before
    /// write-back. Two pools built the same way hash equal iff their
    /// page images are byte-identical — the assertion behind the
    /// sharded-build equivalence tests (`QueryEngine::structure_digest`).
    pub fn content_hash(&self) -> u64 {
        (0..self.num_pages()).fold(SEED, |h, pid| hash_bytes(h, &self.fetch(PageId(pid))))
    }

    /// Pages in the disk manager's copy-on-write overlay (0 for one
    /// that writes through) — observability for the MVCC fork path.
    pub fn overlay_pages(&self) -> usize {
        self.disk.overlay_pages()
    }

    /// Forks this pool into an independent copy-on-write sibling. The
    /// fork is **warm**: it inherits this pool's page table, resident
    /// set and LRU stamps, each frame pointing at the *same* page image
    /// as its parent's, over a [`DiskManager::fork_cow`] view of the
    /// current page image. Nothing is copied at fork time — the cost is
    /// one pointer copy per resident page, whatever the capacity — and
    /// a page is copied only when one side first writes it
    /// ([`IoStats::cow_copies`]), so writes through the fork never reach
    /// this pool or its backend (and vice versa).
    ///
    /// Dirty resident frames are flushed down to the backend first so
    /// the fork's view is complete. Frames pinned *dirty* by an
    /// outstanding write guard cannot be flushed safely (see
    /// [`BufferPool::flush_all`]); the fork is refused with the skipped
    /// count — `Err` means a concurrent writer owns part of the image,
    /// and the caller retries once that writer finishes. A page whose
    /// backend read unwound while the fork waited on it is refused the
    /// same way. Read pins on clean frames never block a fork.
    ///
    /// **Contract:** after a successful fork, this pool must not be
    /// written again — it is the sealed base the fork's COW view reads
    /// through. The engine-level fork upholds this by always forking
    /// the newest generation and retiring the old one to read-only
    /// service.
    pub fn cow_fork(&self) -> Result<BufferPool, usize> {
        // One critical section: no writer can pin a page between the
        // flush and the copy of the frame table.
        let inner = self.inner.write();
        let skipped = self.flush_locked(&inner);
        if skipped > 0 {
            return Err(skipped);
        }
        let used = inner.resident.len();
        // Published pages left empty by a load that unwound while this
        // fork waited on its latch (see `Pending`).
        let mut unloaded = 0;
        let frames = (0..self.frames.len())
            .map(|c| {
                let start = c * FRAME_CHUNK;
                if start >= used {
                    return OnceLock::new();
                }
                // A pinned frame is clean here (the flush skipped none),
                // so only readers hold its content lock, or a loader,
                // which never needs the table lock to finish.
                let chunk: Box<[Frame]> = (start..start + FRAME_CHUNK)
                    .map(|idx| match inner.resident.get(idx) {
                        Some(pid) => {
                            let mut frame = self.frame(idx).fork();
                            if pid.is_valid() && frame.data.get_mut().is_none() {
                                unloaded += 1;
                            }
                            frame
                        }
                        None => Frame::default(),
                    })
                    .collect();
                OnceLock::from(chunk)
            })
            .collect();
        if unloaded > 0 {
            return Err(unloaded);
        }
        Ok(BufferPool {
            disk: self.disk.fork_cow(),
            capacity: self.capacity,
            frames,
            inner: RwLock::new(PoolInner {
                table: inner.table.clone(),
                resident: inner.resident.clone(),
            }),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            stats: self.stats.clone(),
            resident: Arc::new(AtomicU64::new(used as u64)),
        })
    }

    /// Allocates a fresh zeroed page and returns it pinned for writing.
    pub fn allocate(&self) -> (PageId, PageWriteGuard<'_>) {
        let pid = self.disk.allocate();
        self.stats.record_allocation();
        (pid, self.write_guard(self.install(pid, false, true)))
    }

    /// Fetches page `pid` for reading.
    pub fn fetch(&self, pid: PageId) -> PageReadGuard<'_> {
        self.stats.record_logical();
        loop {
            let frame = self.install(pid, true, false);
            let page = PageReadGuard { guard: frame.data.read(), _pin: PinToken { frame } };
            // Empty only if the load this fetch waited on unwound.
            if page.guard.is_some() {
                return page;
            }
        }
    }

    /// Fetches page `pid` for writing; marks it dirty.
    pub fn fetch_mut(&self, pid: PageId) -> PageWriteGuard<'_> {
        self.stats.record_logical();
        loop {
            let page = self.write_guard(self.install(pid, true, true));
            if page.guard.is_some() {
                return page;
            }
        }
    }

    /// Locks a pinned, dirty frame for writing. An image still shared
    /// with another pool or an overlay is copied first, so a write is
    /// never visible outside this pool.
    fn write_guard<'a>(&self, frame: &'a Frame) -> PageWriteGuard<'a> {
        let mut guard = frame.data.write();
        if let Some(image) = guard.as_mut() {
            if Arc::get_mut(image).is_none() {
                *image = Arc::new(PageBuf::clone(image));
                self.stats.record_cow_copy();
            }
        }
        PageWriteGuard { guard, _pin: PinToken { frame } }
    }

    /// Writes all dirty **unpinned** resident pages back to disk, and
    /// returns the number of dirty pages it had to *skip* because they
    /// were pinned.
    ///
    /// Pinned frames are skipped: their content lock may be held by an
    /// outstanding guard whose owner could be blocked on the table
    /// lock we hold here (see the module-level audit) — and they stay
    /// dirty, so eviction or a later flush still writes them back. For
    /// cache hygiene ([`BufferPool::clear_cache`]) that is harmless and
    /// the count is ignored; a persistence pass, however, needs every
    /// page on the backend, so it treats `skipped > 0` as an error (a
    /// concurrent writer holds part of the image it is copying).
    pub fn flush_all(&self) -> usize {
        self.flush_locked(&self.inner.write())
    }

    fn flush_locked(&self, inner: &PoolInner) -> usize {
        let mut skipped = 0usize;
        for (frame, &pid) in self.used_frames(inner).zip(&inner.resident) {
            if frame.pin.load(Ordering::SeqCst) != 0 {
                if frame.dirty.load(Ordering::Relaxed) {
                    skipped += 1;
                }
                continue;
            }
            self.write_back(frame, pid);
        }
        skipped
    }

    /// Hands an unpinned frame's image to the backend if it is dirty —
    /// by `Arc`, so an overlay shares it instead of copying 8 KiB under
    /// the table lock.
    fn write_back(&self, frame: &Frame, pid: PageId) {
        if frame.dirty.swap(false, Ordering::Relaxed) {
            if let Some(image) = frame.data.read().as_ref() {
                self.disk.write_page(pid, image);
                self.stats.record_physical_write();
            }
        }
    }

    /// Drops every clean resident page so the next access is a physical
    /// read — the "cold cache" setting of the paper's omitted experiment.
    /// Dirty pages are flushed first. Panics if any page is pinned.
    pub fn clear_cache(&self) {
        let mut inner = self.inner.write();
        self.flush_locked(&inner);
        for frame in self.used_frames(&inner) {
            assert_eq!(frame.pin.load(Ordering::SeqCst), 0, "clear_cache with pinned pages");
            *frame.data.write() = None;
        }
        inner.table.clear();
        inner.resident.clear();
        self.resident.store(0, Ordering::Relaxed);
    }

    #[allow(clippy::indexing_slicing)] // frame indices come from the pool's own table/free list, bounded at construction
    fn frame(&self, idx: usize) -> &Frame {
        &self.frames[idx / FRAME_CHUNK].get_or_init(new_chunk)[idx % FRAME_CHUNK]
    }

    /// The frames holding a page, in index order (frames fill from 0).
    /// Scans walk the chunks directly: eviction visits every frame, and
    /// a per-index lookup there cost a sequential flood a third more.
    fn used_frames<'a>(&'a self, inner: &PoolInner) -> impl Iterator<Item = &'a Frame> {
        self.frames
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|c| c.iter())
            .take(inner.resident.len())
    }

    /// Pins `idx` (under the table lock, shared or exclusive) on behalf
    /// of a new guard. A writer's dirty mark is set here too, so a pinned
    /// frame seen clean under the exclusive lock has readers only.
    fn pin(&self, idx: usize, write: bool) -> &Frame {
        let frame = self.frame(idx);
        frame.pin.fetch_add(1, Ordering::SeqCst);
        if write {
            frame.dirty.store(true, Ordering::Relaxed);
        }
        self.stats.record_pin();
        frame.last_used.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        frame
    }

    /// Returns `pid`'s frame pinned, installing the page first if it is
    /// not resident: evicting if needed, then loading its content from
    /// disk (`load`) or zero-filling it.
    ///
    /// A resident page is pinned under the shared table lock alone. A
    /// miss takes the lock exclusively and looks again (another thread
    /// may have installed the page in between); only the bookkeeping
    /// runs there: the victim is picked, pinned and write-latched, and
    /// the page published. The victim had no pins, so no guard holds its
    /// latch and taking it cannot wait. The backend read runs after the
    /// lock is released, under the latch alone, so a concurrent fetch of
    /// this page pins the frame and waits on that latch while every
    /// other page of the pool stays available.
    fn install(&self, pid: PageId, load: bool, write: bool) -> &Frame {
        let shared = self.inner.read();
        if let Some(&idx) = shared.table.get(&pid) {
            return self.pin(idx, write);
        }
        drop(shared);
        let mut inner = self.inner.write();
        if let Some(&idx) = inner.table.get(&pid) {
            return self.pin(idx, write);
        }
        let idx = if inner.resident.len() < self.capacity {
            inner.resident.push(pid);
            inner.resident.len() - 1
        } else {
            let victim = self.pick_victim(&inner);
            #[allow(clippy::indexing_slicing)] // `pick_victim` returns an index into `resident`
            let old = std::mem::replace(&mut inner.resident[victim], pid);
            self.write_back(self.frame(victim), old);
            inner.table.remove(&old);
            self.stats.record_eviction();
            victim
        };
        let frame = self.pin(idx, write);
        let latch = frame.data.write();
        inner.table.insert(pid, idx);
        self.resident.store(inner.resident.len() as u64, Ordering::Relaxed);
        drop(inner);
        let mut pending = Pending { pool: self, pid, idx, latch: Some(latch) };
        if load {
            self.stats.record_physical_read();
        }
        if let Some(image) = pending.latch.as_deref_mut() {
            // Reuse the frame's buffer unless a sibling pool or an
            // overlay still shares it.
            match image.as_mut().and_then(Arc::get_mut) {
                Some(page) if load => self.disk.read_page(pid, page.bytes_mut()),
                Some(page) => page.bytes_mut().fill(0),
                None => {
                    let mut page = PageBuf::zeroed();
                    if load {
                        self.disk.read_page(pid, page.bytes_mut());
                    }
                    *image = Some(Arc::new(page));
                }
            }
        }
        pending.latch = None;
        frame
    }

    #[allow(clippy::expect_used)] // documented capacity invariant: every frame pinned means the pool is undersized
    fn pick_victim(&self, inner: &PoolInner) -> usize {
        self.used_frames(inner)
            .enumerate()
            .filter(|(_, frame)| frame.pin.load(Ordering::SeqCst) == 0)
            .min_by_key(|(_, frame)| frame.last_used.load(Ordering::Relaxed))
            .map(|(idx, _)| idx)
            .expect("buffer pool exhausted: every frame is pinned (pool too small for working set)")
    }
}

impl Frame {
    /// The child-pool twin of a resident frame: same image, same LRU
    /// stamp, unpinned and clean.
    fn fork(&self) -> Frame {
        Frame {
            data: RwLock::new(self.data.read().clone()),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
            ..Frame::default()
        }
    }
}

/// A page published in the table whose content is still being read,
/// outside the table lock, under `latch`. Installing clears `latch`
/// once the page is in place; a `Pending` dropped with the latch still
/// held means the backend read unwound, and the page is taken back out:
/// the frame is left empty (a fetch that pinned it meanwhile sees that
/// and retries), the slot is retired (so the next fetch of the page
/// reads it again instead of serving the victim's stale bytes), and the
/// loader's pin is released.
struct Pending<'a> {
    pool: &'a BufferPool,
    pid: PageId,
    idx: usize,
    latch: Option<RwLockWriteGuard<'a, Image>>,
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        let Some(mut latch) = self.latch.take() else { return };
        *latch = None;
        // Release the latch before taking the table lock: a `cow_fork`
        // may hold it while it waits on this latch.
        drop(latch);
        let mut inner = self.pool.inner.write();
        inner.table.remove(&self.pid);
        if let Some(slot) = inner.resident.get_mut(self.idx) {
            *slot = PageId::INVALID;
        }
        self.pool.frame(self.idx).pin.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the frame pin count on drop. Declared *after* the page
/// guard inside [`PageReadGuard`]/[`PageWriteGuard`] so the data lock is
/// released before the pin drops (eviction then never waits on a lock).
struct PinToken<'a> {
    frame: &'a Frame,
}

impl Drop for PinToken<'_> {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared read access to a pinned page.
pub struct PageReadGuard<'a> {
    guard: RwLockReadGuard<'a, Image>,
    _pin: PinToken<'a>,
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // A pinned frame always holds an image; the empty slice only
        // keeps this path panic-free.
        self.guard.as_deref().map_or(&[], PageBuf::bytes)
    }
}

/// Exclusive write access to a pinned, dirty page.
pub struct PageWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, Image>,
    _pin: PinToken<'a>,
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.guard.as_deref().map_or(&[], PageBuf::bytes)
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        // `write_guard` made the image unique and nothing can share it
        // again while this guard pins the frame dirty.
        self.guard.as_mut().and_then(Arc::get_mut).map_or(&mut [], PageBuf::bytes_mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::put_u64;

    #[test]
    fn allocate_write_read_roundtrip() {
        let pool = BufferPool::in_memory(4);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 42);
        drop(g);
        let g = pool.fetch(pid);
        assert_eq!(crate::page::get_u64(&g, 0), 42);
    }

    #[test]
    fn counters_handle_counts_reads_misses_and_pins() {
        let pool = BufferPool::in_memory(4);
        let counters = pool.counters();
        let (pid, g) = pool.allocate();
        assert_eq!(counters.pins(), 1); // allocate pins the fresh frame
        drop(g);
        let g = pool.fetch(pid); // hit: logical, no miss, one more pin
        drop(g);
        assert_eq!(counters.page_reads(), 1);
        assert_eq!(counters.misses(), 0);
        assert_eq!(counters.pins(), 2);
        pool.clear_cache();
        let g = pool.fetch(pid); // cold: logical + miss + pin
        drop(g);
        assert_eq!(counters.page_reads(), 2);
        assert_eq!(counters.misses(), 1);
        assert_eq!(counters.pins(), 3);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = BufferPool::in_memory(2);
        let mut pids = Vec::new();
        for i in 0..10u64 {
            let (pid, mut g) = pool.allocate();
            put_u64(&mut g, 0, i);
            pids.push(pid);
        }
        // Everything must still be readable after heavy eviction.
        for (i, &pid) in pids.iter().enumerate() {
            let g = pool.fetch(pid);
            assert_eq!(crate::page::get_u64(&g, 0), i as u64);
        }
        let snap = pool.stats().snapshot();
        assert!(snap.evictions > 0);
        assert!(snap.physical_writes > 0);
    }

    #[test]
    fn warm_cache_has_no_physical_reads() {
        let pool = BufferPool::in_memory(8);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 7);
        drop(g);
        pool.stats().reset();
        for _ in 0..5 {
            let g = pool.fetch(pid);
            assert_eq!(crate::page::get_u64(&g, 0), 7);
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.logical_reads, 5);
        assert_eq!(snap.physical_reads, 0);
        assert_eq!(snap.hit_ratio(), 1.0);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let pool = BufferPool::in_memory(8);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 9);
        drop(g);
        pool.clear_cache();
        pool.stats().reset();
        let g = pool.fetch(pid);
        assert_eq!(crate::page::get_u64(&g, 0), 9);
        assert_eq!(pool.stats().snapshot().physical_reads, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::in_memory(2);
        let (p0, g) = pool.allocate();
        drop(g);
        let (p1, g) = pool.allocate();
        drop(g);
        // Touch p0 so p1 is LRU.
        drop(pool.fetch(p0));
        let (_p2, g) = pool.allocate(); // must evict p1
        drop(g);
        pool.stats().reset();
        drop(pool.fetch(p0)); // still resident
        assert_eq!(pool.stats().snapshot().physical_reads, 0);
        drop(pool.fetch(p1)); // was evicted
        assert_eq!(pool.stats().snapshot().physical_reads, 1);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let pool = BufferPool::in_memory(3);
        let (p0, mut g0) = pool.allocate();
        put_u64(&mut g0, 0, 123);
        // Keep g0 pinned while cycling many pages through the pool.
        for _ in 0..20 {
            let (_, g) = pool.allocate();
            drop(g);
        }
        assert_eq!(crate::page::get_u64(&g0, 0), 123);
        drop(g0);
        let g = pool.fetch(p0);
        assert_eq!(crate::page::get_u64(&g, 0), 123);
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn exhausted_pool_panics() {
        let pool = BufferPool::in_memory(2);
        let (_, _g1) = pool.allocate();
        let (_, _g2) = pool.allocate();
        let (_, _g3) = pool.allocate();
    }

    #[test]
    fn concurrent_readers_share_pages() {
        let pool = std::sync::Arc::new(BufferPool::in_memory(16));
        let mut pids = Vec::new();
        for i in 0..8u64 {
            let (pid, mut g) = pool.allocate();
            put_u64(&mut g, 0, i * 11);
            pids.push(pid);
        }
        pool.flush_all();
        let pids = std::sync::Arc::new(pids);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let pid = pids[round % pids.len()];
                    let g = pool.fetch(pid);
                    assert_eq!(crate::page::get_u64(&g, 0), (round % pids.len()) as u64 * 11);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_pool_materializes_only_the_pages_it_touches() {
        let pool = BufferPool::in_memory(5_120);
        assert_eq!(pool.resident_pages(), 0, "an untouched pool owns no page image");
        let pids: Vec<PageId> = (0..7).map(|_| pool.allocate().0).collect();
        assert_eq!(pool.resident_pages(), 7);
        drop(pool.fetch(pids[3])); // a hit materializes nothing new
        assert_eq!(pool.counters().resident_pages(), 7);
        pool.clear_cache();
        assert_eq!(pool.resident_pages(), 0, "clear_cache releases the images");
        drop(pool.fetch(pids[0]));
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn cow_fork_gives_an_isolated_writable_sibling() {
        let pool = BufferPool::in_memory(4);
        let (pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 11);
        drop(g);
        // Dirty-resident state must be visible through the fork (the
        // fork flushes first).
        let fork = pool.cow_fork().expect("no writer holds pages");
        assert_eq!(fork.capacity(), pool.capacity());
        assert_eq!(fork.num_pages(), pool.num_pages());
        assert_eq!(crate::page::get_u64(&fork.fetch(pid), 0), 11);
        // Writes through the fork land in its COW overlay only.
        put_u64(&mut fork.fetch_mut(pid), 0, 22);
        fork.flush_all();
        assert_eq!(fork.overlay_pages(), 1);
        assert_eq!(crate::page::get_u64(&fork.fetch(pid), 0), 22);
        assert_eq!(crate::page::get_u64(&pool.fetch(pid), 0), 11, "base image frozen");
        // Fork allocations never grow the base.
        let (p2, g) = fork.allocate();
        drop(g);
        assert_eq!(p2.0, pool.num_pages());
        assert_eq!(pool.num_pages(), 1);
        // A fork of the fork sees the fork's state (flat chain).
        let fork2 = fork.cow_fork().expect("fork of fork");
        assert_eq!(crate::page::get_u64(&fork2.fetch(pid), 0), 22);
    }

    #[test]
    fn cow_fork_is_warm_and_copies_a_page_only_on_first_write() {
        let pool = BufferPool::in_memory(8);
        let pids: Vec<PageId> = (0..4u64)
            .map(|i| {
                let (pid, mut g) = pool.allocate();
                put_u64(&mut g, 0, i);
                pid
            })
            .collect();
        let fork = pool.cow_fork().expect("no writer holds pages");
        let before = fork.stats().snapshot();
        assert_eq!(fork.resident_pages(), 4, "the fork inherits the resident set");
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(crate::page::get_u64(&fork.fetch(pid), 0), i as u64);
        }
        let reads = fork.stats().snapshot().since(&before);
        assert_eq!((reads.logical_reads, reads.physical_reads), (4, 0), "every fetch is a hit");
        assert_eq!(reads.cow_copies, 0, "reading shares, never copies");
        // First write copies the shared image; the second finds it owned.
        put_u64(&mut fork.fetch_mut(pids[1]), 0, 77);
        put_u64(&mut fork.fetch_mut(pids[1]), 0, 78);
        assert_eq!(fork.counters().cow_copies(), 1);
        assert_eq!(crate::page::get_u64(&pool.fetch(pids[1]), 0), 1, "parent image untouched");
        // Counters are one cumulative series along the fork chain.
        assert!(Arc::ptr_eq(pool.stats(), fork.stats()));
    }

    #[test]
    fn cow_fork_inherits_lru_order() {
        let pool = BufferPool::in_memory(2);
        let (p0, g) = pool.allocate();
        drop(g);
        let (p1, g) = pool.allocate();
        drop(g);
        drop(pool.fetch(p0)); // p1 is now least recently used
        let fork = pool.cow_fork().expect("no writer holds pages");
        let (_p2, g) = fork.allocate(); // must evict p1, as the parent would
        drop(g);
        let before = fork.stats().snapshot().physical_reads;
        drop(fork.fetch(p0));
        assert_eq!(fork.stats().snapshot().physical_reads, before, "p0 survived in the fork");
        drop(fork.fetch(p1));
        assert_eq!(fork.stats().snapshot().physical_reads, before + 1, "p1 was the victim");
    }

    #[test]
    fn cow_fork_costs_what_is_resident_not_what_fits() {
        let pool = BufferPool::in_memory(1 << 20);
        for i in 0..10u64 {
            let (_, mut g) = pool.allocate();
            put_u64(&mut g, 0, i);
        }
        let t = std::time::Instant::now();
        let fork = pool.cow_fork().expect("no writer holds pages");
        let took = t.elapsed();
        assert_eq!(fork.capacity(), 1 << 20);
        assert_eq!(fork.resident_pages(), 10);
        // A million frames' worth of anything would take far longer
        // than this in a debug build.
        assert!(took < std::time::Duration::from_millis(50), "fork took {took:?}");
        assert_eq!(crate::page::get_u64(&fork.fetch(PageId(9)), 0), 9);
    }

    #[test]
    fn cow_fork_refuses_while_a_writer_pins_a_dirty_page() {
        let pool = BufferPool::in_memory(4);
        let (_pid, mut g) = pool.allocate();
        put_u64(&mut g, 0, 5);
        // An outstanding write guard means the image could be torn.
        assert_eq!(pool.cow_fork().err(), Some(1));
        drop(g);
        assert!(pool.cow_fork().is_ok(), "fork succeeds once the writer finishes");
    }
}
