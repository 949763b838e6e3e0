//! I/O statistics counters.
//!
//! The paper reports warm-cache execution times on DB2; the cross-machine
//! stable analogue is the count of *logical* page accesses (buffer-pool
//! requests) and *physical* reads (buffer misses). The benchmark harness
//! reports both, alongside wall-clock time.
//!
//! Every read is counted twice: into the pool's shared [`IoStats`], and
//! into a tally of the thread that makes it, over all pools
//! ([`IoStatsSnapshot::of_this_thread`]). A query runs on its caller's
//! thread, so the difference of that tally across the query is the reads
//! the query made, whatever other threads read meanwhile.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The `(logical, physical)` page reads this thread has made.
    static THREAD_READS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Thread-safe I/O counters shared by a buffer pool and its clients.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Buffer-pool page requests (hits + misses).
    pub logical_reads: AtomicU64,
    /// Pages fetched from the backend on a miss.
    pub physical_reads: AtomicU64,
    /// Pages written back to the backend.
    pub physical_writes: AtomicU64,
    /// Pages evicted from the pool.
    pub evictions: AtomicU64,
    /// Pages allocated.
    pub allocations: AtomicU64,
    /// Frame pins acquired (cumulative; never decremented on unpin).
    pub pins: AtomicU64,
    /// Page images copied because a write found them shared with a
    /// sibling pool or an overlay (copy on first write after a fork).
    pub cow_copies: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_logical(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        THREAD_READS.with(|r| r.set((r.get().0 + 1, r.get().1)));
    }

    /// Counts a page load: into the pool, and into the thread that loads
    /// it — also when another fetch waits on that load.
    #[inline]
    pub(crate) fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        THREAD_READS.with(|r| r.set((r.get().0, r.get().1 + 1)));
    }

    #[inline]
    pub(crate) fn record_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_allocation(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_pin(&self) {
        self.pins.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_cow_copy(&self) {
        self.cow_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            pins: self.pins.load(Ordering::Relaxed),
            cow_copies: self.cow_copies.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.pins.store(0, Ordering::Relaxed);
        self.cow_copies.store(0, Ordering::Relaxed);
    }
}

/// Immutable copy of [`IoStats`] counters, with delta arithmetic for
/// before/after measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Buffer-pool page requests (hits + misses).
    pub logical_reads: u64,
    /// Pages fetched from the backend on a miss.
    pub physical_reads: u64,
    /// Pages written back to the backend.
    pub physical_writes: u64,
    /// Pages evicted from the pool.
    pub evictions: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Frame pins acquired.
    pub pins: u64,
    /// Page images copied on first write while shared.
    pub cow_copies: u64,
}

impl IoStatsSnapshot {
    /// The logical and physical page reads the calling thread has made
    /// so far, over every pool; the other counters are zero.
    pub fn of_this_thread() -> IoStatsSnapshot {
        let (logical_reads, physical_reads) = THREAD_READS.with(Cell::get);
        IoStatsSnapshot { logical_reads, physical_reads, ..IoStatsSnapshot::default() }
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            pins: self.pins.saturating_sub(earlier.pins),
            cow_copies: self.cow_copies.saturating_sub(earlier.cow_copies),
        }
    }

    /// Buffer hit ratio in [0, 1]; 1.0 when there were no reads.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - (self.physical_reads as f64 / self.logical_reads as f64)
        }
    }
}

/// Cheap cloneable handle onto one pool's counters, for observability
/// layers that sample page reads/misses/pins without holding the pool
/// itself (obtained via `BufferPool::counters`).
///
/// Reads are single relaxed atomic loads; cloning is two `Arc` clones.
/// The handle stays valid (and keeps its final values) after the pool
/// is dropped. The cumulative counters are shared along a chain of
/// `BufferPool::cow_fork`s, so they never reset at a commit; the
/// resident-page gauge belongs to the one pool the handle came from.
#[derive(Debug, Clone)]
pub struct PoolCounters {
    stats: Arc<IoStats>,
    resident: Arc<AtomicU64>,
}

impl PoolCounters {
    /// Wraps a pool's shared counters and its resident-page gauge.
    pub(crate) fn new(stats: Arc<IoStats>, resident: Arc<AtomicU64>) -> Self {
        PoolCounters { stats, resident }
    }

    /// Buffer-pool page requests (hits + misses).
    pub fn page_reads(&self) -> u64 {
        self.stats.logical_reads.load(Ordering::Relaxed)
    }

    /// Buffer misses (pages read from the backend).
    pub fn misses(&self) -> u64 {
        self.stats.physical_reads.load(Ordering::Relaxed)
    }

    /// Frame pins acquired (cumulative).
    pub fn pins(&self) -> u64 {
        self.stats.pins.load(Ordering::Relaxed)
    }

    /// Page images copied on first write while shared with a sibling
    /// pool or an overlay (cumulative).
    pub fn cow_copies(&self) -> u64 {
        self.stats.cow_copies.load(Ordering::Relaxed)
    }

    /// Materialized page images the pool holds right now (a gauge).
    pub fn resident_pages(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }
}

impl std::fmt::Display for IoStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "logical={} physical_r={} physical_w={} evict={} alloc={} hit={:.1}%",
            self.logical_reads,
            self.physical_reads,
            self.physical_writes,
            self.evictions,
            self.allocations,
            self.hit_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_logical();
        s.record_logical();
        s.record_physical_read();
        s.record_physical_write();
        s.record_eviction();
        s.record_allocation();
        s.record_pin();
        let snap = s.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.allocations, 1);
        assert_eq!(snap.pins, 1);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_logical();
        let a = s.snapshot();
        s.record_logical();
        s.record_physical_read();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.logical_reads, 1);
        assert_eq!(d.physical_reads, 1);
    }

    #[test]
    fn each_thread_tallies_only_its_own_reads() {
        let s = Arc::new(IoStats::new());
        let before = IoStatsSnapshot::of_this_thread();
        s.record_logical();
        s.record_logical();
        s.record_physical_read();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let other = IoStatsSnapshot::of_this_thread();
                s.record_logical();
                let mine = IoStatsSnapshot::of_this_thread().since(&other);
                assert_eq!((mine.logical_reads, mine.physical_reads), (1, 0));
            });
        });
        let mine = IoStatsSnapshot::of_this_thread().since(&before);
        assert_eq!((mine.logical_reads, mine.physical_reads), (2, 1));
        assert_eq!(s.snapshot().logical_reads, 3, "the pool counts every thread");
    }

    #[test]
    fn hit_ratio_bounds() {
        let empty = IoStatsSnapshot::default();
        assert_eq!(empty.hit_ratio(), 1.0);
        let all_miss =
            IoStatsSnapshot { logical_reads: 4, physical_reads: 4, ..Default::default() };
        assert_eq!(all_miss.hit_ratio(), 0.0);
        let half = IoStatsSnapshot { logical_reads: 4, physical_reads: 2, ..Default::default() };
        assert!((half.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pool_counters_track_shared_stats() {
        let stats = Arc::new(IoStats::new());
        let handle = PoolCounters::new(stats.clone(), Arc::default());
        let clone = handle.clone();
        stats.record_logical();
        stats.record_physical_read();
        stats.record_pin();
        stats.record_pin();
        assert_eq!(handle.page_reads(), 1);
        assert_eq!(handle.misses(), 1);
        assert_eq!(clone.pins(), 2);
        drop(stats);
        // The handle outlives its pool and keeps the final values.
        assert_eq!(clone.snapshot().pins, 2);
    }
}
