//! Disk manager: page allocation and transfer against a backend.
//!
//! Four backends are provided. [`MemBackend`] keeps pages in a `Vec` —
//! used by tests and by benchmarks that want to count I/O without disk
//! noise (the paper similarly disabled the OS file cache to isolate
//! buffer-pool behaviour). [`FileBackend`] stores pages in a real file for
//! out-of-memory datasets, through positional reads and writes that take
//! no lock, so the extents of one index file read in parallel.
//! [`ExtentBackend`] serves one structure's extent of such a file with a
//! copy-on-write overlay, and [`CowBackend`] is the same overlay over any
//! other backend (how an engine fork snapshots a freshly built pool).

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Abstract page store.
pub trait StorageBackend: Send + Sync {
    /// Reads page `pid` into `buf`.
    fn read_page(&self, pid: PageId, buf: &mut [u8]);
    /// Writes `buf` to page `pid`.
    fn write_page(&self, pid: PageId, buf: &[u8]);
    /// Writes an `Arc`'d page image to page `pid`. Backends that keep
    /// written pages in memory override this to share the image with
    /// the caller instead of copying it.
    fn write_page_shared(&self, pid: PageId, page: &Arc<PageBuf>) {
        self.write_page(pid, page.bytes());
    }
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> PageId;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Flushes written pages to durable storage. A no-op for in-memory
    /// backends; `File::sync_all` for file-backed ones. Called once at
    /// the end of an index persist so a crash right after `xtwig build`
    /// cannot leave a torn index file.
    fn sync(&self) -> std::io::Result<()>;
    /// Pages living in a copy-on-write overlay rather than the sealed
    /// base image. Plain backends have no overlay and report 0.
    fn overlay_pages(&self) -> usize {
        0
    }
    /// Forks this backend into an independent copy-on-write sibling:
    /// both sides see the current page image, and writes on either side
    /// are invisible to the other. Backends that are already COW views
    /// return a *flat* sibling over the same sealed base (chains never
    /// deepen); plain backends return `None` and are wrapped in a
    /// [`CowBackend`] by [`DiskManager::fork_cow`] instead.
    fn cow_fork(&self) -> Option<Arc<dyn StorageBackend>> {
        None
    }
}

/// Copies a full page image into an owned [`PageBuf`].
fn page_from(buf: &[u8]) -> PageBuf {
    let mut page = PageBuf::zeroed();
    page.bytes_mut().copy_from_slice(buf);
    page
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

impl StorageBackend for MemBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let pages = self.pages.lock();
        buf.copy_from_slice(pages[pid.0 as usize].bytes());
    }

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

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// File-backed backend. Pages are stored contiguously at
/// `pid * PAGE_SIZE`, and every transfer is one positional `pread` /
/// `pwrite` at that offset: there is no shared file cursor, so no lock,
/// and concurrent readers of one file never wait on each other.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    next: AtomicU32,
}

/// Byte offset of page `pid` in a backend file.
fn page_offset(pid: PageId) -> u64 {
    u64::from(pid.0) * PAGE_SIZE as u64
}

impl FileBackend {
    /// Creates (truncating) a backend file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileBackend { file, next: AtomicU32::new(0) })
    }

    /// Opens an existing backend file at `path`.
    ///
    /// The file length must be an exact multiple of [`PAGE_SIZE`]: a
    /// misaligned length means the last page was torn (e.g. a crash mid
    /// write) and silently rounding it away would hide the corruption,
    /// so it is rejected as [`std::io::ErrorKind::InvalidData`]. A file
    /// too large for 32-bit page ids is rejected the same way instead
    /// of panicking.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Self::open_with(path, true)
    }

    /// Opens an existing backend file without requesting write access.
    ///
    /// A persisted index is a sealed artifact served read-only through
    /// [`ExtentBackend`] (writes go to its overlay, never the file), so
    /// the reopen path must work on `chmod 444` files and read-only
    /// mounts. Calling [`StorageBackend::write_page`] on a backend
    /// opened this way panics.
    pub fn open_read_only<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Self::open_with(path, false)
    }

    fn open_with<P: AsRef<Path>>(path: P, write: bool) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(write).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "backend file length {len} is not a multiple of the page size {PAGE_SIZE} \
                     (torn or truncated file)"
                ),
            ));
        }
        let pages = u32::try_from(len / PAGE_SIZE as u64).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("backend file of {len} bytes exceeds the 32-bit page-id space"),
            )
        })?;
        Ok(FileBackend { file, next: AtomicU32::new(pages) })
    }
}

impl StorageBackend for FileBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let offset = page_offset(pid);
        // A fresh page may not have been written yet; treat short reads as
        // zero fill. An interrupted read is retried, as `read_exact_at`
        // does.
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

    fn write_page(&self, pid: PageId, buf: &[u8]) {
        self.file.write_all_at(buf, page_offset(pid)).expect("page write failed");
    }

    fn allocate(&self) -> PageId {
        PageId(self.next.fetch_add(1, Ordering::SeqCst))
    }

    fn num_pages(&self) -> u32 {
        self.next.load(Ordering::SeqCst)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// A copy-on-write view of `extent_pages` pages of a shared
/// [`FileBackend`], starting at file page `base`.
///
/// This is how a persisted index file is served: every structure's
/// buffer pool reopens over its own extent, so pool-local page ids
/// (what B+-tree nodes store) keep working unchanged — the extent
/// translates pool page `p` to file page `base + p`. The underlying
/// file is **never written through this backend**: evicted dirty pages
/// and post-open allocations land in an in-memory overlay, so index
/// maintenance on a reopened engine cannot corrupt the file on disk
/// (re-persist to a new file to make such changes durable).
pub struct ExtentBackend {
    file: Arc<FileBackend>,
    base: u32,
    extent_pages: u32,
    /// Pages written (or allocated) after open, keyed by pool-local id.
    /// Pages are `Arc`'d so [`StorageBackend::cow_fork`] and the buffer
    /// pool that wrote them can share them: a write always *replaces*
    /// the map entry, never mutates a shared page (the pool copies a
    /// shared image before writing it), so a fork's view is frozen at
    /// fork time.
    overlay: Mutex<HashMap<u32, Arc<PageBuf>>>,
    /// Pages allocated past the extent (pool-local id space only).
    overflow: AtomicU32,
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
        ExtentBackend {
            file,
            base,
            extent_pages,
            overlay: Mutex::new(HashMap::new()),
            overflow: AtomicU32::new(0),
        }
    }
}

impl StorageBackend for ExtentBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        if let Some(page) = self.overlay.lock().get(&pid.0) {
            buf.copy_from_slice(page.bytes());
            return;
        }
        if pid.0 < self.extent_pages {
            self.file.read_page(PageId(self.base + pid.0), buf);
        } else {
            // Allocated after open but never written: zero fill.
            buf.fill(0);
        }
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) {
        // Replace, never mutate: a fork sharing the old `Arc` page keeps
        // seeing the pre-write content.
        self.overlay.lock().insert(pid.0, Arc::new(page_from(buf)));
    }

    fn write_page_shared(&self, pid: PageId, page: &Arc<PageBuf>) {
        self.overlay.lock().insert(pid.0, page.clone());
    }

    fn allocate(&self) -> PageId {
        PageId(self.extent_pages + self.overflow.fetch_add(1, Ordering::SeqCst))
    }

    fn num_pages(&self) -> u32 {
        self.extent_pages + self.overflow.load(Ordering::SeqCst)
    }

    /// No-op: writes never reach the file (copy-on-write overlay).
    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// Number of pages modified or allocated since open (0 for a
    /// read-only workload — the file alone still backs every page).
    fn overlay_pages(&self) -> usize {
        self.overlay.lock().len()
    }

    /// A flat sibling: same sealed file extent, a snapshot of the
    /// current overlay (cheap `Arc` clones per page), and an
    /// independent overflow cursor. Forking a fork yields another
    /// sibling of the *file*, so chains never deepen.
    fn cow_fork(&self) -> Option<Arc<dyn StorageBackend>> {
        let overlay = self.overlay.lock().clone();
        Some(Arc::new(ExtentBackend {
            file: self.file.clone(),
            base: self.base,
            extent_pages: self.extent_pages,
            overflow: AtomicU32::new(self.overflow.load(Ordering::SeqCst)),
            overlay: Mutex::new(overlay),
        }))
    }
}

/// A copy-on-write view over any sealed [`StorageBackend`].
///
/// This is how an engine fork snapshots a structure whose pool sits on
/// a plain backend ([`MemBackend`] from a fresh build, typically): the
/// base is frozen at fork time (`base_pages` captures its size), reads
/// fall through overlay → base → zero fill, and every write or
/// allocation lands in the overlay. Forking a `CowBackend` produces a
/// *flat* sibling over the same base — overlay pages are shared by
/// `Arc` and replaced (never mutated) on write — so generations of
/// forks cost O(overlay) each, not O(chain depth) per read.
pub struct CowBackend {
    base: Arc<dyn StorageBackend>,
    /// Base size at fork time; the base is sealed by contract (the
    /// forking pool flushed and stopped writing), so this never drifts.
    base_pages: u32,
    overlay: Mutex<HashMap<u32, Arc<PageBuf>>>,
    overflow: AtomicU32,
}

impl CowBackend {
    /// A COW view over `base`, frozen at its current size.
    pub fn over(base: Arc<dyn StorageBackend>) -> Self {
        let base_pages = base.num_pages();
        CowBackend {
            base,
            base_pages,
            overlay: Mutex::new(HashMap::new()),
            overflow: AtomicU32::new(0),
        }
    }
}

impl StorageBackend for CowBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        if let Some(page) = self.overlay.lock().get(&pid.0) {
            buf.copy_from_slice(page.bytes());
            return;
        }
        if pid.0 < self.base_pages {
            self.base.read_page(pid, buf);
        } else {
            buf.fill(0);
        }
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) {
        self.overlay.lock().insert(pid.0, Arc::new(page_from(buf)));
    }

    fn write_page_shared(&self, pid: PageId, page: &Arc<PageBuf>) {
        self.overlay.lock().insert(pid.0, page.clone());
    }

    fn allocate(&self) -> PageId {
        PageId(self.base_pages + self.overflow.fetch_add(1, Ordering::SeqCst))
    }

    fn num_pages(&self) -> u32 {
        self.base_pages + self.overflow.load(Ordering::SeqCst)
    }

    /// No-op: writes never reach the base (copy-on-write overlay).
    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }

    fn overlay_pages(&self) -> usize {
        self.overlay.lock().len()
    }

    fn cow_fork(&self) -> Option<Arc<dyn StorageBackend>> {
        let overlay = self.overlay.lock().clone();
        Some(Arc::new(CowBackend {
            base: self.base.clone(),
            base_pages: self.base_pages,
            overflow: AtomicU32::new(self.overflow.load(Ordering::SeqCst)),
            overlay: Mutex::new(overlay),
        }))
    }
}

/// Disk manager wrapping a backend; a thin layer that owns allocation
/// accounting (physical transfer counting lives in the buffer pool).
/// The backend is held by `Arc` so [`DiskManager::fork_cow`] can share
/// a sealed base image across copy-on-write forks.
pub struct DiskManager {
    backend: Arc<dyn StorageBackend>,
}

impl DiskManager {
    /// Creates a manager over an in-memory backend.
    pub fn in_memory() -> Self {
        DiskManager { backend: Arc::new(MemBackend::new()) }
    }

    /// Creates a manager over a fresh file backend.
    pub fn in_file<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(DiskManager { backend: Arc::new(FileBackend::create(path)?) })
    }

    /// Wraps a custom backend.
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        DiskManager { backend: Arc::from(backend) }
    }

    /// Forks into an independent copy-on-write manager: the fork sees
    /// the current page image, and writes on the fork never reach this
    /// manager's backend (nor vice versa). COW-aware backends
    /// ([`ExtentBackend`], [`CowBackend`]) produce flat siblings over
    /// their sealed base; plain backends are wrapped in a fresh
    /// [`CowBackend`] over the shared `Arc`. **Contract:** the caller
    /// must have flushed this manager's dirty state down to the backend
    /// first and must not write through `self` afterwards (the buffer
    /// pool's `cow_fork` enforces both).
    pub fn fork_cow(&self) -> DiskManager {
        let backend = self
            .backend
            .cow_fork()
            .unwrap_or_else(|| Arc::new(CowBackend::over(self.backend.clone())));
        DiskManager { backend }
    }

    /// Pages in the backend's copy-on-write overlay (0 for plain
    /// backends).
    pub fn overlay_pages(&self) -> usize {
        self.backend.overlay_pages()
    }

    /// Reads page `pid` into `buf`.
    pub fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        self.backend.read_page(pid, buf);
    }

    /// Writes `buf` to page `pid`.
    pub fn write_page(&self, pid: PageId, buf: &[u8]) {
        self.backend.write_page(pid, buf);
    }

    /// Writes a shareable page image to page `pid` (see
    /// [`StorageBackend::write_page_shared`]).
    pub fn write_page_shared(&self, pid: PageId, page: &Arc<PageBuf>) {
        self.backend.write_page_shared(pid, page);
    }

    /// Allocates a fresh page.
    pub fn allocate(&self) -> PageId {
        self.backend.allocate()
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.backend.num_pages()
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        u64::from(self.num_pages()) * PAGE_SIZE as u64
    }

    /// Flushes the backend to durable storage (see
    /// [`StorageBackend::sync`]).
    pub fn sync(&self) -> std::io::Result<()> {
        self.backend.sync()
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

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        roundtrip(&FileBackend::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.db");
        {
            let b = FileBackend::create(&path).unwrap();
            let p = b.allocate();
            let mut w = vec![7u8; PAGE_SIZE];
            w[3] = 9;
            b.write_page(p, &w);
        }
        {
            let b = FileBackend::open(&path).unwrap();
            assert_eq!(b.num_pages(), 1);
            let mut r = vec![0u8; PAGE_SIZE];
            b.read_page(PageId(0), &mut r);
            assert_eq!(r[3], 9);
            assert_eq!(r[0], 7);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_reads_in_parallel_at_their_own_offsets() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parallel.db");
        let b = Arc::new(FileBackend::create(&path).unwrap());
        for i in 0..8u8 {
            let p = b.allocate();
            b.write_page(p, &vec![i + 1; PAGE_SIZE]);
        }
        // Allocated past the end of the file: a short read, zero-filled.
        let tail = b.allocate();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_misaligned_length() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misaligned.db");
        {
            let b = FileBackend::create(&path).unwrap();
            let p = b.allocate();
            b.write_page(p, &vec![1u8; PAGE_SIZE]);
        }
        // Chop half a page off: a torn last page must be rejected, not
        // silently truncated away.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(PAGE_SIZE as u64 / 2).unwrap();
        drop(f);
        let err = FileBackend::open(&path).expect_err("misaligned file must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a multiple"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_smoke() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sync.db");
        let b = FileBackend::create(&path).unwrap();
        let p = b.allocate();
        b.write_page(p, &vec![3u8; PAGE_SIZE]);
        b.sync().unwrap();
        assert!(MemBackend::new().sync().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn extent_backend_views_slice_and_copy_on_writes() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extent.db");
        {
            let b = FileBackend::create(&path).unwrap();
            for i in 0..4u8 {
                let p = b.allocate();
                b.write_page(p, &vec![i; PAGE_SIZE]);
            }
        }
        let file = Arc::new(FileBackend::open(&path).unwrap());
        let ext = ExtentBackend::new(file.clone(), 1, 2); // file pages 1..3
        assert_eq!(ext.num_pages(), 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        ext.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 1), "extent page 0 = file page 1");
        ext.read_page(PageId(1), &mut buf);
        assert!(buf.iter().all(|&b| b == 2));
        // Writes land in the overlay, never in the file.
        ext.write_page(PageId(0), &vec![9u8; PAGE_SIZE]);
        ext.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 9));
        assert_eq!(ext.overlay_pages(), 1);
        let mut raw = vec![0u8; PAGE_SIZE];
        file.read_page(PageId(1), &mut raw);
        assert!(raw.iter().all(|&b| b == 1), "file untouched by extent writes");
        // Allocation extends past the extent, zero-filled until written.
        let p = ext.allocate();
        assert_eq!(p, PageId(2));
        assert_eq!(ext.num_pages(), 3);
        ext.read_page(p, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "reaches past")]
    fn extent_backend_rejects_out_of_range_extent() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extent-oob.db");
        {
            let b = FileBackend::create(&path).unwrap();
            b.allocate();
            b.write_page(PageId(0), &vec![0u8; PAGE_SIZE]);
        }
        let file = Arc::new(FileBackend::open(&path).unwrap());
        let _ = ExtentBackend::new(file, 0, 2);
    }

    #[test]
    fn cow_backend_isolates_writes_from_its_base() {
        let base: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        base.allocate();
        base.write_page(PageId(0), &vec![5u8; PAGE_SIZE]);
        let cow = CowBackend::over(base.clone());
        assert_eq!(cow.num_pages(), 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        cow.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 5), "fork sees the base image");
        // Writes land in the overlay only.
        cow.write_page(PageId(0), &vec![9u8; PAGE_SIZE]);
        assert_eq!(cow.overlay_pages(), 1);
        cow.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 9));
        base.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 5), "base untouched by COW writes");
        // Allocation extends past the frozen base, zero-filled.
        let p = cow.allocate();
        assert_eq!(p, PageId(1));
        cow.read_page(p, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(base.num_pages(), 1, "base never grows through the fork");
    }

    #[test]
    fn write_page_shared_shares_with_overlays_and_copies_into_plain_backends() {
        let page = Arc::new(page_from(&vec![4u8; PAGE_SIZE]));
        let mem = MemBackend::new();
        mem.allocate();
        mem.write_page_shared(PageId(0), &page);
        assert_eq!(Arc::strong_count(&page), 1, "a plain backend copies the bytes");
        let cow = CowBackend::over(Arc::new(mem));
        cow.write_page_shared(PageId(0), &page);
        assert_eq!(Arc::strong_count(&page), 2, "an overlay holds the image itself");
        assert_eq!(cow.overlay_pages(), 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        cow.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 4));
    }

    #[test]
    fn cow_fork_chains_stay_flat_and_independent() {
        let base: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        base.allocate();
        base.write_page(PageId(0), &vec![1u8; PAGE_SIZE]);
        let gen1 = CowBackend::over(base);
        gen1.write_page(PageId(0), &vec![2u8; PAGE_SIZE]);
        // Fork gen1 → gen2 sees gen1's overlay snapshot.
        let gen2 = gen1.cow_fork().expect("CowBackend forks");
        let mut buf = vec![0u8; PAGE_SIZE];
        gen2.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 2));
        // Diverge both sides: neither write is visible to the other.
        gen2.write_page(PageId(0), &vec![3u8; PAGE_SIZE]);
        gen1.write_page(PageId(0), &vec![4u8; PAGE_SIZE]);
        gen1.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 4));
        gen2.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 3));
        // A long fork chain stays O(overlay): every generation reads
        // its own snapshot correctly.
        let mut current = gen2;
        for v in 10u8..20 {
            let next = current.cow_fork().expect("flat fork");
            next.write_page(PageId(0), &vec![v; PAGE_SIZE]);
            next.read_page(PageId(0), &mut buf);
            assert!(buf.iter().all(|&b| b == v));
            current = next;
        }
        // gen2's view (held via `current`'s ancestor) never moved.
        gen1.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 4));
    }

    #[test]
    fn extent_backend_cow_fork_snapshots_the_overlay() {
        let dir = std::env::temp_dir().join(format!("xtwig-disk7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extent-fork.db");
        {
            let b = FileBackend::create(&path).unwrap();
            for i in 0..3u8 {
                let p = b.allocate();
                b.write_page(p, &vec![i; PAGE_SIZE]);
            }
        }
        let file = Arc::new(FileBackend::open(&path).unwrap());
        let ext = ExtentBackend::new(file, 0, 3);
        ext.write_page(PageId(1), &vec![7u8; PAGE_SIZE]);
        let fork = ext.cow_fork().expect("ExtentBackend forks");
        let mut buf = vec![0u8; PAGE_SIZE];
        fork.read_page(PageId(1), &mut buf);
        assert!(buf.iter().all(|&b| b == 7), "fork sees pre-fork overlay writes");
        // Post-fork writes diverge.
        ext.write_page(PageId(1), &vec![8u8; PAGE_SIZE]);
        fork.read_page(PageId(1), &mut buf);
        assert!(buf.iter().all(|&b| b == 7), "fork frozen at fork time");
        ext.read_page(PageId(1), &mut buf);
        assert!(buf.iter().all(|&b| b == 8));
        // Unwritten pages still come from the shared file on both sides.
        fork.read_page(PageId(2), &mut buf);
        assert!(buf.iter().all(|&b| b == 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_manager_fork_cow_wraps_plain_backends() {
        let dm = DiskManager::in_memory();
        dm.allocate();
        dm.write_page(PageId(0), &vec![6u8; PAGE_SIZE]);
        assert_eq!(dm.overlay_pages(), 0, "plain backend has no overlay");
        let fork = dm.fork_cow();
        let mut buf = vec![0u8; PAGE_SIZE];
        fork.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 6));
        fork.write_page(PageId(0), &vec![1u8; PAGE_SIZE]);
        assert_eq!(fork.overlay_pages(), 1);
        dm.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 6), "original unaffected");
        // Forking the fork uses the COW backend's flat fork.
        let fork2 = fork.fork_cow();
        fork2.read_page(PageId(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn disk_manager_accounting() {
        let dm = DiskManager::in_memory();
        dm.allocate();
        dm.allocate();
        dm.allocate();
        assert_eq!(dm.num_pages(), 3);
        assert_eq!(dm.allocated_bytes(), 3 * PAGE_SIZE as u64);
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
