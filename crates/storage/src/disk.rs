//! Disk manager: page allocation and transfer against a backend.
//!
//! Three backends are provided. [`MemBackend`] keeps pages in a `Vec` —
//! used by tests and by benchmarks that want to count I/O without disk
//! noise (the paper similarly disabled the OS file cache to isolate
//! buffer-pool behaviour). [`FileBackend`] stores pages in a real file for
//! out-of-memory datasets, through positional reads and writes that take
//! no lock, so the extents of one index file read in parallel.
//! [`ExtentBackend`] is a read-only view of one structure's extent of
//! such a file.
//!
//! A [`DiskManager`] either writes through to its backend or keeps a
//! copy-on-write overlay over it, which then is never written: that is
//! how a reopened index file stays sealed
//! ([`DiskManager::copy_on_write`]) and how an engine fork snapshots a
//! pool, reopened or freshly built ([`DiskManager::fork_cow`]).

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
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> PageId;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Flushes written pages to durable storage. A no-op for in-memory
    /// backends; `File::sync_all` for file-backed ones. Called once at
    /// the end of an index persist so a crash right after `xtwig build`
    /// cannot leave a torn index file.
    fn sync(&self) -> std::io::Result<()>;
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
    /// [`ExtentBackend`] (writes go to the manager's overlay, never the file), so
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

/// A read-only view of `extent_pages` pages of a shared [`FileBackend`],
/// starting at file page `base`.
///
/// This is how a persisted index file is served: every structure's
/// buffer pool reopens over its own extent, so pool-local page ids
/// (what B+-tree nodes store) keep working unchanged — the extent
/// translates pool page `p` to file page `base + p`. Nothing writes
/// through it: a reopened pool's [`DiskManager::copy_on_write`] keeps
/// evicted dirty pages and post-open allocations in its overlay, so
/// index maintenance on a reopened engine cannot corrupt the file on
/// disk (re-persist to a new file to make such changes durable).
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

impl StorageBackend for ExtentBackend {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        if pid.0 < self.extent_pages {
            self.file.read_page(PageId(self.base + pid.0), buf);
        } else {
            buf.fill(0);
        }
    }

    fn write_page(&self, pid: PageId, _buf: &[u8]) {
        panic!("page {pid} written through a read-only file extent");
    }

    fn allocate(&self) -> PageId {
        panic!("page allocated in a read-only file extent");
    }

    fn num_pages(&self) -> u32 {
        self.extent_pages
    }

    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The copy-on-write layer of a [`DiskManager`]: every page written or
/// allocated since its backend was sealed. Pages are `Arc`'d so a fork
/// and the buffer pool that wrote them share them: a write always
/// *replaces* an entry, never mutates a shared page (the pool copies a
/// shared image before writing it), so a fork's view is frozen at fork
/// time.
struct Overlay {
    /// The backend's size when sealed; nothing writes the backend
    /// again, so this never drifts.
    base_pages: u32,
    pages: Mutex<HashMap<u32, Arc<PageBuf>>>,
    /// Pages allocated past `base_pages`.
    overflow: AtomicU32,
}

impl Overlay {
    fn over(backend: &dyn StorageBackend) -> Self {
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

/// Disk manager wrapping a backend; a thin layer that owns allocation
/// accounting (physical transfer counting lives in the buffer pool).
/// The backend is held by `Arc` so [`DiskManager::fork_cow`] can share
/// a sealed base image across copy-on-write forks.
pub struct DiskManager {
    backend: Arc<dyn StorageBackend>,
    /// Present on a copy-on-write manager, which reads through it to
    /// `backend` and writes and allocates only in it.
    overlay: Option<Overlay>,
}

impl DiskManager {
    /// Creates a manager over an in-memory backend.
    pub fn in_memory() -> Self {
        Self::with_backend(Box::new(MemBackend::new()))
    }

    /// Wraps a custom backend, writing through to it.
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        DiskManager { backend: Arc::from(backend), overlay: None }
    }

    /// A copy-on-write manager over `backend`, sealed at its current
    /// size: reads fall through overlay → backend → zero fill, and
    /// every write and allocation lands in the overlay, so `backend` is
    /// never written (how a persisted index's [`ExtentBackend`]s are
    /// served).
    pub fn copy_on_write(backend: Box<dyn StorageBackend>) -> Self {
        let backend: Arc<dyn StorageBackend> = Arc::from(backend);
        DiskManager { overlay: Some(Overlay::over(&*backend)), backend }
    }

    /// Forks into an independent copy-on-write manager: the fork sees
    /// the current page image, and writes on the fork never reach this
    /// manager's backend (nor vice versa). A copy-on-write manager forks
    /// into a flat sibling over its sealed backend; a writing one seals
    /// its backend under an empty overlay. **Contract:** the caller
    /// must have flushed this manager's dirty state down to the backend
    /// first and must not write through `self` afterwards (the buffer
    /// pool's `cow_fork` enforces both).
    pub fn fork_cow(&self) -> DiskManager {
        let overlay = match &self.overlay {
            Some(overlay) => overlay.fork(),
            None => Overlay::over(&*self.backend),
        };
        DiskManager { backend: self.backend.clone(), overlay: Some(overlay) }
    }

    /// Pages in the copy-on-write overlay (0 for a writing manager).
    pub fn overlay_pages(&self) -> usize {
        self.overlay.as_ref().map_or(0, |o| o.pages.lock().len())
    }

    /// Reads page `pid` into `buf`.
    pub fn read_page(&self, pid: PageId, buf: &mut [u8]) {
        let Some(overlay) = &self.overlay else {
            return self.backend.read_page(pid, buf);
        };
        if let Some(page) = overlay.pages.lock().get(&pid.0) {
            buf.copy_from_slice(page.bytes());
            return;
        }
        // The overlay's lock is released: backend reads run in parallel.
        if pid.0 < overlay.base_pages {
            self.backend.read_page(pid, buf);
        } else {
            // Allocated in the overlay but never written: zero fill.
            buf.fill(0);
        }
    }

    /// Writes the page image `page` to page `pid`. An overlay keeps the
    /// image itself, shared with the caller; a backend copies its bytes.
    pub fn write_page(&self, pid: PageId, page: &Arc<PageBuf>) {
        match &self.overlay {
            Some(overlay) => {
                overlay.pages.lock().insert(pid.0, page.clone());
            }
            None => self.backend.write_page(pid, page.bytes()),
        }
    }

    /// Allocates a fresh page.
    pub fn allocate(&self) -> PageId {
        match &self.overlay {
            Some(o) => PageId(o.base_pages + o.overflow.fetch_add(1, Ordering::SeqCst)),
            None => self.backend.allocate(),
        }
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        match &self.overlay {
            Some(o) => o.base_pages + o.overflow.load(Ordering::SeqCst),
            None => self.backend.num_pages(),
        }
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        u64::from(self.num_pages()) * PAGE_SIZE as u64
    }

    /// Flushes the backend to durable storage (see
    /// [`StorageBackend::sync`]); a no-op under an overlay, whose
    /// writes never reach the backend.
    pub fn sync(&self) -> std::io::Result<()> {
        match &self.overlay {
            Some(_) => Ok(()),
            None => self.backend.sync(),
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
        let dir = std::env::temp_dir().join(format!("xtwig-overlay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.db"));
        {
            let b = FileBackend::create(&path).unwrap();
            for i in 0..5u8 {
                let p = b.allocate();
                b.write_page(p, &vec![i; PAGE_SIZE]);
            }
        }
        let file = Arc::new(FileBackend::open(&path).unwrap());
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
            dm.sync().unwrap();
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
