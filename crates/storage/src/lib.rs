//! Page-based storage substrate.
//!
//! The paper runs its indexes inside DB2 with a 40 MB buffer pool and the
//! OS file cache disabled, so that the reported numbers reflect database
//! buffer management rather than memory-resident data (§5.1.1). This crate
//! is the equivalent substrate for the reproduction:
//!
//! * [`page`] — fixed 8 KiB pages.
//! * [`disk`] — a disk manager with file-backed and in-memory backends.
//! * [`buffer`] — a buffer pool with LRU eviction, pin counts, and dirty
//!   tracking.
//! * [`hash`] — the word-at-a-time content hash behind page digests
//!   and index-file checksums.
//! * [`stats`] — logical/physical I/O counters; logical page accesses are
//!   the machine-independent metric the benchmark harness reports next to
//!   wall-clock times.

pub mod buffer;
pub mod disk;
pub mod hash;
pub mod page;
pub mod stats;

pub use buffer::{BufferPool, PageReadGuard, PageWriteGuard};
pub use disk::{DiskManager, ExtentBackend, FileBackend, MemBackend, StorageBackend};
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use stats::{IoStats, IoStatsSnapshot, PoolCounters};
