//! Disk manager: page allocation and transfer against a backend.
//!
//! A page store comes in two halves: [`ReadBackend`] reads pages,
//! [`StorageBackend`] also writes and allocates them. Each store
//! implements only what it can do. [`MemBackend`] keeps pages in a
//! `Vec` and is written — used by tests, by freshly built indexes, and
//! by benchmarks that want to count I/O without disk noise (the paper
//! similarly disabled the OS file cache to isolate buffer-pool
//! behaviour). [`FileBackend`] reads a persisted index file through
//! positional reads that take no lock, so the extents of one file read
//! in parallel; it never opens its file for writing (`QueryEngine::persist`
//! writes the file once, through a plain `std::fs::File`).
//! [`ExtentBackend`] is a read-only view of one structure's extent of
//! such a file.
//!
//! A [`DiskManager`] either writes through to a [`StorageBackend`] or
//! keeps a copy-on-write overlay over a sealed [`ReadBackend`], which it
//! then never writes: that is how a reopened index file is served
//! ([`DiskManager::copy_on_write`]) and how an engine fork snapshots a
//! pool, reopened or freshly built ([`DiskManager::fork_cow`]). A
//! read-only store cannot be handed to a writing manager:
//!
//! ```compile_fail
//! # use std::sync::Arc;
//! # use xtwig_storage::{DiskManager, ExtentBackend, FileBackend};
//! # fn serve(file: Arc<FileBackend>) -> DiskManager {
//! DiskManager::with_backend(Box::new(ExtentBackend::new(file, 0, 1)))
//! # }
//! ```
//!
//! It is served sealed instead:
//!
//! ```
//! # use std::sync::Arc;
//! # use xtwig_storage::{DiskManager, ExtentBackend, FileBackend};
//! # fn serve(file: Arc<FileBackend>) -> DiskManager {
//! DiskManager::copy_on_write(Box::new(ExtentBackend::new(file, 0, 1)))
//! # }
//! ```

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A page store that can be read: the sealed base of a copy-on-write
/// [`DiskManager`].
pub trait ReadBackend: Send + Sync {
    /// Reads page `pid` into `buf`.
    fn read_page(&self, pid: PageId, buf: &mut [u8]);
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
}

/// A page store that can also be written: what a writing
/// [`DiskManager`] holds.
pub trait StorageBackend: ReadBackend {
    /// Writes `buf` to page `pid`.
    fn write_page(&self, pid: PageId, buf: &[u8]);
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> PageId;
}

/// In-memory backend.
#[derive(Default)]
pub struct MemBackend {
    pages: Mutex<Vec<PageBuf>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReadBackend for MemBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let pages = self.pages.lock();
        buf.copy_from_slice(pages[pid.0 as usize].bytes());
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }
}

impl StorageBackend for MemBackend {
    fn write_page(&self, pid: PageId, buf: &[u8]) {
        let mut pages = self.pages.lock();
        pages[pid.0 as usize].bytes_mut().copy_from_slice(buf);
    }

    fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        let pid = PageId(u32::try_from(pages.len()).expect("page-count overflow"));
        pages.push(PageBuf::zeroed());
        pid
    }
}

/// A read-only page file. Pages are stored contiguously at
/// `pid * PAGE_SIZE`, and every read is one positional `pread` at that
/// offset: there is no shared file cursor, so no lock, and concurrent
/// readers of one file never wait on each other.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    pages: u32,
}

impl FileBackend {
    /// Opens an existing page file at `path` without requesting write
    /// access, so a `chmod 444` file or a read-only mount opens too.
    ///
    /// The file length must be an exact multiple of [`PAGE_SIZE`]: a
    /// misaligned length means the last page was torn (e.g. a crash mid
    /// write) and silently rounding it away would hide the corruption,
    /// so it is rejected as [`std::io::ErrorKind::InvalidData`]. A file
    /// too large for 32-bit page ids is rejected the same way instead
    /// of panicking.
    pub fn open_read_only<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "backend file length {len} is not a multiple of the page size {PAGE_SIZE} \
                     (torn or truncated file)"
                ),
            ));
        }
        let pages = u32::try_from(len / PAGE_SIZE as u64).map_err(|_| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("backend file of {len} bytes exceeds the 32-bit page-id space"),
            )
        })?;
        Ok(FileBackend { file, pages })
    }
}

impl ReadBackend for FileBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let offset = u64::from(pid.0) * PAGE_SIZE as u64;
        // A page past the end of the file reads as zeroes. An
        // interrupted read is retried, as `read_exact_at` does.
        let mut read = 0usize;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], offset + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("page read failed: {e}"),
            }
        }
        buf[read..].fill(0);
    }

    fn num_pages(&self) -> u32 {
        self.pages
    }
}

/// A read-only view of `extent_pages` pages of a shared [`FileBackend`],
/// starting at file page `base`.
///
/// This is how a persisted index file is served: every structure's
/// buffer pool reopens over its own extent, so pool-local page ids
/// (what B+-tree nodes store) keep working unchanged — the extent
/// translates pool page `p` to file page `base + p`. It is a
/// [`ReadBackend`] only, so it can be served only sealed, under
/// [`DiskManager::copy_on_write`], whose overlay keeps evicted dirty
/// pages and post-open allocations: index maintenance on a reopened
/// engine cannot corrupt the file on disk (re-persist to a new file to
/// make such changes durable).
pub struct ExtentBackend {
    file: Arc<FileBackend>,
    base: u32,
    extent_pages: u32,
}

impl ExtentBackend {
    /// Views pages `[base, base + extent_pages)` of `file`.
    ///
    /// # Panics
    /// Panics if the extent reaches past the end of the file.
    pub fn new(file: Arc<FileBackend>, base: u32, extent_pages: u32) -> Self {
        let end = u64::from(base) + u64::from(extent_pages);
        assert!(
            end <= u64::from(file.num_pages()),
            "extent [{base}, {end}) reaches past the file's {} pages",
            file.num_pages()
        );
        ExtentBackend { file, base, extent_pages }
    }
}

impl ReadBackend for ExtentBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        if pid.0 < self.extent_pages {
            self.file.read_page(PageId(self.base + pid.0), buf);
        } else {
            buf.fill(0);
        }
    }

    fn num_pages(&self) -> u32 {
        self.extent_pages
    }
}

/// The copy-on-write layer of a [`DiskManager`]: every page written or
/// allocated since its backend was sealed. Pages are `Arc`'d so a fork
/// and the buffer pool that wrote them share them: a write always
/// *replaces* an entry, never mutates a shared page (the pool copies a
/// shared image before writing it), so a fork's view is frozen at fork
/// time.
struct Overlay {
    /// The backend's size when sealed; nothing allocates in the
    /// backend again, so this never drifts.
    base_pages: u32,
    pages: Mutex<HashMap<u32, Arc<PageBuf>>>,
    /// Pages allocated past `base_pages`.
    overflow: AtomicU32,
}

impl Overlay {
    fn over(backend: &dyn ReadBackend) -> Self {
        Overlay {
            base_pages: backend.num_pages(),
            pages: Mutex::new(HashMap::new()),
            overflow: AtomicU32::new(0),
        }
    }

    /// A flat sibling over the same base: a snapshot of the pages (one
    /// `Arc` clone each) and an independent overflow cursor. Forking a
    /// fork yields another sibling of the base, so chains never deepen.
    fn fork(&self) -> Self {
        Overlay {
            base_pages: self.base_pages,
            pages: Mutex::new(self.pages.lock().clone()),
            overflow: AtomicU32::new(self.overflow.load(Ordering::SeqCst)),
        }
    }
}

/// How a [`DiskManager`] treats its backend.
enum Mode {
    /// Writes and allocates through to the backend.
    Writing(Arc<dyn StorageBackend>),
    /// Reads through the overlay to the sealed `base`, and writes and
    /// allocates only in the overlay. The base is shared by `Arc`
    /// across forks.
    CopyOnWrite { base: Arc<dyn ReadBackend>, overlay: Overlay },
}

/// Disk manager wrapping a backend; a thin layer that owns allocation
/// accounting (physical transfer counting lives in the buffer pool).
pub struct DiskManager {
    mode: Mode,
}

impl DiskManager {
    /// Creates a manager over an in-memory backend.
    pub fn in_memory() -> Self {
        Self::with_backend(Box::new(MemBackend::new()))
    }

    /// Wraps a writable backend, writing through to it.
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        DiskManager { mode: Mode::Writing(Arc::from(backend)) }
    }

    /// A copy-on-write manager over `base`, sealed at its current size:
    /// reads fall through overlay → base → zero fill, and every write
    /// and allocation lands in the overlay (how a persisted index's
    /// [`ExtentBackend`]s are served).
    pub fn copy_on_write(base: Box<dyn ReadBackend>) -> Self {
        let overlay = Overlay::over(&*base);
        DiskManager { mode: Mode::CopyOnWrite { base: Arc::from(base), overlay } }
    }

    /// Forks into an independent copy-on-write manager: the fork sees
    /// this manager's pages as they stand, and writes on the fork never
    /// reach this manager's backend (nor vice versa). A copy-on-write
    /// manager forks into a flat sibling over its sealed base; a
    /// writing one seals its backend under an empty overlay. Pages that
    /// a buffer pool holds dirty are not here yet: the pool's
    /// `cow_fork` hands each to the fork's overlay with
    /// [`DiskManager::write_page`]. **Contract:** nothing new is
    /// written through `self` afterwards. A writing-mode parent (an
    /// engine built in memory) may still write a dirty page back into
    /// the backend that its forks read as their sealed base, but every
    /// fork already holds that page in its overlay, with the same
    /// bytes.
    pub fn fork_cow(&self) -> DiskManager {
        let (base, overlay): (Arc<dyn ReadBackend>, _) = match &self.mode {
            Mode::Writing(backend) => (backend.clone(), Overlay::over(&**backend)),
            Mode::CopyOnWrite { base, overlay } => (base.clone(), overlay.fork()),
        };
        DiskManager { mode: Mode::CopyOnWrite { base, overlay } }
    }

    /// Pages in the copy-on-write overlay (0 for a writing manager).
    pub fn overlay_pages(&self) -> usize {
        match &self.mode {
            Mode::Writing(_) => 0,
            Mode::CopyOnWrite { overlay, .. } => overlay.pages.lock().len(),
        }
    }

    /// Reads page `pid` into `buf`.
    pub fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let (base, overlay) = match &self.mode {
            Mode::Writing(backend) => return backend.read_page(pid, buf),
            Mode::CopyOnWrite { base, overlay } => (base, overlay),
        };
        if let Some(page) = overlay.pages.lock().get(&pid.0) {
            buf.copy_from_slice(page.bytes());
            return;
        }
        // The overlay's lock is released: base reads run in parallel.
        if pid.0 < overlay.base_pages {
            base.read_page(pid, buf);
        } else {
            // Allocated in the overlay but never written: zero fill.
            buf.fill(0);
        }
    }

    /// Writes the page image `page` to page `pid`. An overlay keeps the
    /// image itself, shared with the caller; a backend copies its bytes.
    pub fn write_page(&self, pid: PageId, page: &Arc<PageBuf>) {
        match &self.mode {
            Mode::Writing(backend) => backend.write_page(pid, page.bytes()),
            Mode::CopyOnWrite { overlay, .. } => {
                overlay.pages.lock().insert(pid.0, page.clone());
            }
        }
    }

    /// Allocates a fresh page.
    pub fn allocate(&self) -> PageId {
        match &self.mode {
            Mode::Writing(backend) => backend.allocate(),
            Mode::CopyOnWrite { overlay: o, .. } => {
                PageId(o.base_pages + o.overflow.fetch_add(1, Ordering::SeqCst))
            }
        }
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        match &self.mode {
            Mode::Writing(backend) => backend.num_pages(),
            Mode::CopyOnWrite { overlay: o, .. } => {
                o.base_pages + o.overflow.load(Ordering::SeqCst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn StorageBackend) {
        let p0 = backend.allocate();
        let p1 = backend.allocate();
        assert_eq!(p0, PageId(0));
        assert_eq!(p1, PageId(1));
        let mut w = vec![0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        backend.write_page(p1, &w);
        let mut r = vec![0u8; PAGE_SIZE];
        backend.read_page(p1, &mut r);
        assert_eq!(r, w);
        backend.read_page(p0, &mut r);
        assert!(r.iter().all(|&b| b == 0), "unwritten page reads as zeroes");
        assert_eq!(backend.num_pages(), 2);
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::new());
    }

    /// Writes `pages` (one image each) to a fresh file named `name` in
    /// this process's scratch directory, with plain `std::fs`, as
    /// `QueryEngine::persist` writes an index file.
    fn page_file(name: &str, pages: &[Vec<u8>]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xtwig-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, pages.concat()).unwrap();
        path
    }

    #[test]
    fn file_backend_reads_the_pages_written() {
        let mut w = vec![7u8; PAGE_SIZE];
        w[3] = 9;
        let path = page_file("reopen.db", &[vec![0u8; PAGE_SIZE], w.clone()]);
        let b = FileBackend::open_read_only(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(b.num_pages(), 2);
        let mut r = vec![0xFFu8; PAGE_SIZE];
        b.read_page(PageId(1), &mut r);
        assert_eq!(r, w);
        b.read_page(PageId(0), &mut r);
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn file_backend_reads_in_parallel_at_their_own_offsets() {
        let images: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i + 1; PAGE_SIZE]).collect();
        let path = page_file("parallel.db", &images);
        let b = Arc::new(FileBackend::open_read_only(&path).unwrap());
        std::fs::remove_file(&path).ok();
        // Page 8 lies past the end of the file: a short read, zero-filled.
        let tail = PageId(8);
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    let mut buf = vec![0xFFu8; PAGE_SIZE];
                    for round in 0..200u32 {
                        let pid = (round * 7 + t) % 9;
                        b.read_page(PageId(pid), &mut buf);
                        let want = if PageId(pid) == tail { 0 } else { pid as u8 + 1 };
                        assert!(buf.iter().all(|&x| x == want), "page {pid}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn open_rejects_misaligned_length() {
        // Half a page: a torn last page must be rejected, not silently
        // truncated away.
        let path = page_file("misaligned.db", &[vec![1u8; PAGE_SIZE / 2]]);
        let err = FileBackend::open_read_only(&path).expect_err("misaligned file must not open");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a multiple"), "{err}");
    }

    fn page(byte: u8) -> Arc<PageBuf> {
        let mut page = PageBuf::zeroed();
        page.bytes_mut().fill(byte);
        Arc::new(page)
    }

    fn first_byte(dm: &DiskManager, pid: u32) -> u8 {
        let mut buf = vec![0xFFu8; PAGE_SIZE];
        dm.read_page(PageId(pid), &mut buf);
        assert!(buf.iter().all(|&b| b == buf[0]), "page {pid} is one byte repeated");
        buf[0]
    }

    /// A manager with an overlay over three sealed pages reading 1, 2
    /// and 3, and a view of that base for checking that it is never
    /// written.
    struct Overlaid {
        dm: DiskManager,
        base_byte: Box<dyn Fn(u32) -> u8>,
        base_pages: Box<dyn Fn() -> u32>,
    }

    /// The two ways a manager gets its overlay: a reopened file's extent
    /// (file pages 1..4 of 0..5) and a fork of a writing in-memory
    /// manager, which copies what it is handed.
    fn overlaid(tag: &str) -> [Overlaid; 2] {
        let images: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; PAGE_SIZE]).collect();
        let path = page_file(&format!("overlay-{tag}.db"), &images);
        let file = Arc::new(FileBackend::open_read_only(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let extent = DiskManager::copy_on_write(Box::new(ExtentBackend::new(file.clone(), 1, 3)));
        let mem = Arc::new(DiskManager::in_memory());
        for i in 1..=3u8 {
            let p = mem.allocate();
            let image = page(i);
            mem.write_page(p, &image);
            assert_eq!(Arc::strong_count(&image), 1, "a backend copies the bytes");
        }
        assert_eq!(mem.overlay_pages(), 0, "a writing manager has no overlay");
        let forked = mem.fork_cow();
        let mem2 = mem.clone();
        [
            Overlaid {
                dm: extent,
                base_byte: Box::new(move |pid| {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    file.read_page(PageId(1 + pid), &mut buf);
                    buf[0]
                }),
                base_pages: Box::new(|| 3),
            },
            Overlaid {
                dm: forked,
                base_byte: Box::new(move |pid| first_byte(&mem, pid)),
                base_pages: Box::new(move || mem2.num_pages()),
            },
        ]
    }

    #[test]
    fn an_overlay_isolates_writes_from_its_sealed_base() {
        for Overlaid { dm, base_byte, base_pages } in overlaid("isolates") {
            assert_eq!(dm.num_pages(), 3);
            assert_eq!(dm.overlay_pages(), 0);
            // Extent page 0 is file page 1.
            assert_eq!((0..3).map(|p| first_byte(&dm, p)).collect::<Vec<_>>(), [1, 2, 3]);
            // Writes land in the overlay, which holds the image itself.
            let image = page(9);
            dm.write_page(PageId(0), &image);
            assert_eq!(Arc::strong_count(&image), 2, "an overlay shares the image");
            assert_eq!(dm.overlay_pages(), 1);
            assert_eq!(first_byte(&dm, 0), 9);
            assert_eq!(base_byte(0), 1, "the base is untouched by overlay writes");
            // Allocation extends past the sealed base, zero-filled until
            // written; the base never grows.
            assert_eq!(dm.allocate(), PageId(3));
            assert_eq!(dm.num_pages(), 4);
            assert_eq!(first_byte(&dm, 3), 0);
            assert_eq!(base_pages(), 3);
        }
    }

    #[test]
    fn overlay_forks_stay_flat_and_independent() {
        for Overlaid { dm, base_byte, .. } in overlaid("forks") {
            dm.write_page(PageId(1), &page(7));
            let fork = dm.fork_cow();
            assert_eq!(first_byte(&fork, 1), 7, "a fork sees pre-fork overlay writes");
            assert_eq!((first_byte(&dm, 2), first_byte(&fork, 2)), (3, 3), "from the shared base");
            // Diverge both sides: neither write is visible to the other.
            dm.write_page(PageId(1), &page(8));
            assert_eq!(first_byte(&fork, 1), 7, "a fork is frozen at fork time");
            fork.write_page(PageId(1), &page(4));
            assert_eq!(first_byte(&dm, 1), 8);
            assert_eq!(first_byte(&fork, 1), 4);
            assert_eq!((dm.allocate(), fork.allocate()), (PageId(3), PageId(3)));
            // A long fork chain stays flat: every generation reads its
            // own snapshot, and none moves an earlier one.
            let mut current = fork.fork_cow();
            for v in 10u8..20 {
                let next = current.fork_cow();
                next.write_page(PageId(1), &page(v));
                assert_eq!(first_byte(&next, 1), v);
                assert_eq!(first_byte(&current, 1), if v == 10 { 4 } else { v - 1 });
                current = next;
            }
            assert_eq!((first_byte(&dm, 1), first_byte(&fork, 1)), (8, 4));
            assert_eq!(base_byte(1), 2);
        }
    }

    #[test]
    #[should_panic(expected = "reaches past")]
    fn extent_backend_rejects_out_of_range_extent() {
        let path = page_file("extent-oob.db", &[vec![0u8; PAGE_SIZE]]);
        let file = Arc::new(FileBackend::open_read_only(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let _ = ExtentBackend::new(file, 0, 2);
    }

    #[test]
    fn disk_manager_accounting() {
        let dm = DiskManager::in_memory();
        dm.allocate();
        dm.allocate();
        dm.allocate();
        assert_eq!(dm.num_pages(), 3);
    }

    #[test]
    fn concurrent_allocation_is_unique() {
        let b = std::sync::Arc::new(MemBackend::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| b.allocate().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200);
    }
}
