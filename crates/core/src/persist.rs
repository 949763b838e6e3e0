//! Index persistence: build once, reopen without rebuild.
//!
//! [`QueryEngine::persist`] flushes a built engine into a single
//! `.xtwig` file over a [`FileBackend`]; [`QueryEngine::open`] (and
//! `TwigService::open` in `xtwig-service`) reattach it with **zero
//! index-construction work** — no path enumeration, no sorting, no bulk
//! loads, no page allocation. Opening reads the catalog, reconstructs
//! each structure's Rust shell from stored metadata, and serves index
//! pages straight from the file through per-structure buffer pools, so
//! the paper's cold-cache setting finally runs against a real backend
//! instead of a simulated one.
//!
//! ## File layout
//!
//! ```text
//! page 0            superblock: magic "XTWIGIDX", format version,
//!                   total pages, metadata extent (start page, byte
//!                   length, FNV-1a checksum)
//! pages 1..         one contiguous extent per built structure's buffer
//!                   pool, in catalog order (RP, DP, Edge, DG, IF, ASR,
//!                   JI) — a verbatim copy of the pool's page image, so
//!                   pool-local page ids (B+-tree roots, sibling links,
//!                   heap page lists) remain valid unchanged
//! trailing pages    the metadata blob: forest snapshot, path
//!                   statistics, engine options, per-structure catalog
//!                   (extent location, pool capacity, B+-tree roots and
//!                   shape, heap extents, codec metadata), and the
//!                   per-strategy `structure_digest` values
//! ```
//!
//! On open, each extent is wrapped in an [`ExtentBackend`] — a
//! copy-on-write view of the shared file — so pool-local page ids keep
//! working and post-open index maintenance can never corrupt the file.
//! The stored digests are verified against
//! [`BufferPool::content_hash`] through the reopened pools, which
//! proves the on-disk page images are byte-identical to the pools that
//! were persisted.

use crate::asr::AccessSupportRelations;
use crate::dataguide::DataGuide;
use crate::datapaths::DataPaths;
use crate::edge::EdgeTable;
use crate::engine::{QueryEngine, Strategy};
use crate::fabric::IndexFabric;
use crate::joinindex::JoinIndices;
use crate::paths::PathStats;
use crate::rootpaths::RootPaths;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use xtwig_btree::{BTree, BTreeOptions};
use xtwig_opt::CalibrationLog;
use xtwig_rel::codec::IdListCodec;
use xtwig_storage::{
    BufferPool, DiskManager, ExtentBackend, FileBackend, PageId, StorageBackend, PAGE_SIZE,
};
use xtwig_xml::{TagId, XmlForest};

/// On-disk format version; bumped on any layout change so stale files
/// fail fast with [`OpenError::VersionMismatch`] instead of misparsing.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"XTWIGIDX";

/// FNV-1a over a byte slice (the same hash family as
/// [`BufferPool::content_hash`]); guards the metadata blob.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Metadata codec
// ---------------------------------------------------------------------------

/// A malformed or truncated catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "index catalog: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

pub(crate) fn format_err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError(msg.into()))
}

/// Little-endian append-only writer for the metadata blob.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn push_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn push_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn push_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn push_bytes(&mut self, v: &[u8]) {
        self.push_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, v: &str) {
        self.push_bytes(v.as_bytes());
    }

    /// The written bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader mirroring [`ByteWriter`].
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return format_err(format!("truncated at byte {} (wanted {n} more)", self.pos));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, FormatError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => format_err(format!("invalid bool byte {b}")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], FormatError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| FormatError(format!("blob of {n} bytes")))?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FormatError> {
        match std::str::from_utf8(self.bytes()?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => format_err("non-UTF-8 string"),
        }
    }
}

// Shared encoders for pieces several structures persist.

pub(crate) fn write_codec(w: &mut ByteWriter, codec: IdListCodec) {
    w.push_u8(match codec {
        IdListCodec::Delta => 0,
        IdListCodec::Plain => 1,
    });
}

pub(crate) fn read_codec(r: &mut ByteReader<'_>) -> Result<IdListCodec, FormatError> {
    match r.u8()? {
        0 => Ok(IdListCodec::Delta),
        1 => Ok(IdListCodec::Plain),
        b => format_err(format!("unknown IdList codec {b}")),
    }
}

/// Persists a B+-tree's shape: root page (pool-local), height, entry and
/// page counters, and build options.
pub(crate) fn write_tree_meta(w: &mut ByteWriter, tree: &BTree) {
    let stats = tree.stats();
    let options = tree.options();
    w.push_u32(tree.root().0);
    w.push_u32(stats.height);
    w.push_u64(stats.entries);
    w.push_u64(stats.pages);
    w.push_bool(options.prefix_truncation);
    w.push_f64(options.fill_factor);
}

/// Reattaches a B+-tree persisted by [`write_tree_meta`] over `pool`.
pub(crate) fn read_tree_meta(
    r: &mut ByteReader<'_>,
    pool: Arc<BufferPool>,
) -> Result<BTree, FormatError> {
    let root = PageId(r.u32()?);
    let height = r.u32()?;
    let entries = r.u64()?;
    let pages = r.u64()?;
    let prefix_truncation = r.bool()?;
    let fill_factor = r.f64()?;
    if !root.is_valid() || u64::from(root.0) >= u64::from(pool.num_pages()) {
        return format_err(format!("tree root {root} outside its pool"));
    }
    if height == 0 {
        return format_err("tree height 0");
    }
    if !(0.0..=1.0).contains(&fill_factor) {
        return format_err(format!("fill factor {fill_factor} out of range"));
    }
    Ok(BTree::from_parts(
        pool,
        BTreeOptions { prefix_truncation, fill_factor },
        root,
        height,
        entries,
        pages,
    ))
}

/// Persists a tag-id path (ASR/JI table keys).
pub(crate) fn write_tag_path(w: &mut ByteWriter, path: &[TagId]) {
    w.push_u32(path.len() as u32);
    for t in path {
        w.push_u32(t.0);
    }
}

/// Reads a tag-id path written by [`write_tag_path`].
pub(crate) fn read_tag_path(r: &mut ByteReader<'_>) -> Result<Vec<TagId>, FormatError> {
    let n = r.u32()? as usize;
    let mut path = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        path.push(TagId(r.u32()?));
    }
    Ok(path)
}

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// Why a persist failed.
#[derive(Debug)]
pub enum PersistError {
    /// The backend file could not be created, written, or synced.
    Io(std::io::Error),
    /// A structure's pool held dirty pages pinned by an outstanding
    /// write guard — a concurrent writer owns part of the image, so a
    /// copy taken now could be torn. (`BufferPool::flush_all` skips
    /// pinned frames by design; persistence must not.)
    PinnedPages {
        /// The structure whose pool was mid-write.
        structure: &'static str,
        /// Dirty pages `flush_all` had to skip.
        skipped: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O: {e}"),
            PersistError::PinnedPages { structure, skipped } => write!(
                f,
                "cannot persist while {structure} has {skipped} pinned dirty page(s) \
                 (concurrent writer?)"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Why an open failed.
#[derive(Debug)]
pub enum OpenError {
    /// The file could not be read (including misaligned/oversize files
    /// rejected by [`FileBackend::open`]).
    Io(std::io::Error),
    /// The file is not an xtwig index, or its catalog is corrupt or
    /// truncated.
    Format(String),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version recorded in the superblock.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A strategy's reopened page image does not hash to the digest
    /// recorded at persist time (bit rot or out-of-band modification).
    DigestMismatch {
        /// The failing strategy.
        strategy: Strategy,
        /// Digest recorded in the catalog.
        stored: u64,
        /// Digest computed from the reopened pools.
        computed: u64,
    },
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "open I/O: {e}"),
            OpenError::Format(msg) => write!(f, "not a valid xtwig index: {msg}"),
            OpenError::VersionMismatch { found, expected } => {
                write!(f, "index format version {found} (this build reads {expected})")
            }
            OpenError::DigestMismatch { strategy, stored, computed } => write!(
                f,
                "stored digest {stored:#018x} for {strategy} does not match reopened pages \
                 ({computed:#018x}) — corrupt index file"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<FormatError> for OpenError {
    fn from(e: FormatError) -> Self {
        OpenError::Format(e.to_string())
    }
}

/// What [`QueryEngine::persist`] wrote.
#[derive(Debug, Clone)]
pub struct PersistReport {
    /// Total pages in the index file (superblock + extents + catalog).
    pub file_pages: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Strategies whose structures were persisted.
    pub strategies: Vec<Strategy>,
}

/// What [`QueryEngine::open`] did — the build-phase accounting behind
/// the "zero rebuild" claim.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// Total pages in the index file.
    pub file_pages: u32,
    /// Strategies available in the reopened engine.
    pub strategies: Vec<Strategy>,
    /// Pages allocated in any structure pool during open. Reattaching
    /// metadata allocates nothing, so this is always 0 — a fresh build
    /// of the same engine allocates every index page. The CLI asserts
    /// on it.
    pub open_allocations: u64,
    /// Strategy digests verified against the stored catalog.
    pub digests_verified: usize,
}

// ---------------------------------------------------------------------------
// Structure kinds (catalog order)
// ---------------------------------------------------------------------------

const KIND_RP: u8 = 0;
const KIND_DP: u8 = 1;
const KIND_EDGE: u8 = 2;
const KIND_DG: u8 = 3;
const KIND_IF: u8 = 4;
const KIND_ASR: u8 = 5;
const KIND_JI: u8 = 6;

/// Stable on-disk strategy ids — deliberately NOT derived from
/// `Strategy::ALL`'s position (that is a *reporting* order a future PR
/// may reorder or extend, which would silently change the file format
/// without a [`FORMAT_VERSION`] bump).
fn strategy_to_u8(s: Strategy) -> u8 {
    match s {
        Strategy::RootPaths => 0,
        Strategy::DataPaths => 1,
        Strategy::Edge => 2,
        Strategy::DataGuideEdge => 3,
        Strategy::IndexFabricEdge => 4,
        Strategy::Asr => 5,
        Strategy::JoinIndex => 6,
        // Auto is a selection directive over *built* strategies — the
        // catalog only ever records concrete configurations.
        Strategy::Auto => unreachable!("Auto is never persisted"),
    }
}

fn strategy_from_u8(b: u8) -> Result<Strategy, FormatError> {
    Ok(match b {
        0 => Strategy::RootPaths,
        1 => Strategy::DataPaths,
        2 => Strategy::Edge,
        3 => Strategy::DataGuideEdge,
        4 => Strategy::IndexFabricEdge,
        5 => Strategy::Asr,
        6 => Strategy::JoinIndex,
        _ => return format_err(format!("unknown strategy id {b}")),
    })
}

// ---------------------------------------------------------------------------
// Persist
// ---------------------------------------------------------------------------

/// Copies one structure pool into the file as a contiguous extent,
/// returning `(base_page, extent_pages)`.
fn copy_pool(
    file: &FileBackend,
    pool: &BufferPool,
    structure: &'static str,
) -> Result<(u32, u32), PersistError> {
    let skipped = pool.flush_all();
    if skipped > 0 {
        return Err(PersistError::PinnedPages { structure, skipped });
    }
    let base = file.num_pages();
    let pages = pool.num_pages();
    for pid in 0..pages {
        let fp = file.allocate();
        debug_assert_eq!(fp.0, base + pid, "extents must be contiguous");
        // Fetching through the pool reflects the latest content even if
        // a page is dirty-resident (flush above already wrote those
        // back, but fetch would be correct regardless).
        let page = pool.fetch(PageId(pid));
        file.write_page(fp, &page);
    }
    Ok((base, pages))
}

impl<F: Borrow<XmlForest>> QueryEngine<F> {
    /// Strategies whose structures this engine has built, in the
    /// paper's reporting order.
    pub fn built_strategies(&self) -> Vec<Strategy> {
        Strategy::ALL.iter().copied().filter(|&s| self.has_strategy(s)).collect()
    }

    /// Writes the engine — forest snapshot, path statistics, every
    /// built structure's pages and catalog metadata, per-strategy
    /// digests — into a single index file at `path`, then syncs it
    /// durably.
    ///
    /// The file is written to a `<path>.tmp` sibling and atomically
    /// renamed over `path` only after the final sync, so a persist that
    /// fails midway (disk full, kill) never destroys a valid index
    /// already at `path` — and a reopened engine can safely re-persist
    /// to **its own** path (its extents keep reading the old inode
    /// while the replacement is assembled), which is how overlay
    /// maintenance is made durable.
    ///
    /// [`QueryEngine::open`] reattaches the result with zero rebuild
    /// work; the stored digests guarantee the reopened page images are
    /// byte-identical.
    pub fn persist<P: AsRef<Path>>(&self, path: P) -> Result<PersistReport, PersistError> {
        let path = path.as_ref();
        let tmp = {
            let mut name =
                path.file_name().map(|n| n.to_os_string()).unwrap_or_else(|| "index".into());
            name.push(".tmp");
            path.with_file_name(name)
        };
        match self.persist_into(&tmp) {
            Ok(report) => {
                std::fs::rename(&tmp, path)?;
                Ok(report)
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }

    fn persist_into(&self, path: &Path) -> Result<PersistReport, PersistError> {
        let file = FileBackend::create(path)?;
        let superblock = file.allocate();
        debug_assert_eq!(superblock, PageId(0));

        let mut catalog = ByteWriter::new();
        catalog.push_bytes(&self.forest().to_snapshot());
        self.stats.write_meta(&mut catalog);
        match &self.pruned_tags {
            None => catalog.push_bool(false),
            Some(tags) => {
                catalog.push_bool(true);
                let mut sorted: Vec<u32> = tags.iter().map(|t| t.0).collect();
                sorted.sort_unstable();
                catalog.push_u32(sorted.len() as u32);
                for t in sorted {
                    catalog.push_u32(t);
                }
            }
        }
        catalog.push_bool(self.structural_ad_joins);

        // One catalog entry per built structure: kind, extent, pool
        // capacity, then the structure's own metadata.
        type Entry<'e> = (u8, &'static str, &'e Arc<BufferPool>, Box<dyn Fn(&mut ByteWriter) + 'e>);
        let mut entries: Vec<Entry<'_>> = Vec::new();
        if let Some((i, p)) = &self.rp {
            entries.push((KIND_RP, "ROOTPATHS", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.dp {
            entries.push((KIND_DP, "DATAPATHS", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.edge {
            entries.push((KIND_EDGE, "Edge", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.dg {
            entries.push((KIND_DG, "DataGuide", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.fab {
            entries.push((KIND_IF, "IndexFabric", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.asr {
            entries.push((KIND_ASR, "ASR", p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.ji {
            entries.push((KIND_JI, "JoinIndices", p, Box::new(move |w| i.write_meta(w))));
        }

        catalog.push_u32(entries.len() as u32);
        for (kind, name, pool, write_meta) in entries {
            let (base, pages) = copy_pool(&file, pool, name)?;
            catalog.push_u8(kind);
            catalog.push_u32(base);
            catalog.push_u32(pages);
            catalog.push_u32(pool.capacity() as u32);
            write_meta(&mut catalog);
        }

        // Per-strategy digests, computed from the live pools (the file
        // copy is verbatim, so the reopened pools must reproduce them).
        let strategies = self.built_strategies();
        catalog.push_u32(strategies.len() as u32);
        for &s in &strategies {
            catalog.push_u8(strategy_to_u8(s));
            catalog.push_u64(self.structure_digest(s));
        }

        // Append the catalog blob page by page, then the superblock.
        let catalog = catalog.finish();
        let catalog_start = file.num_pages();
        let mut page = vec![0u8; PAGE_SIZE];
        for chunk in catalog.chunks(PAGE_SIZE) {
            let fp = file.allocate();
            page[..chunk.len()].copy_from_slice(chunk);
            page[chunk.len()..].fill(0);
            file.write_page(fp, &page);
        }
        let total_pages = file.num_pages();
        let mut sb = vec![0u8; PAGE_SIZE];
        sb[0..8].copy_from_slice(MAGIC);
        sb[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        sb[12..16].copy_from_slice(&total_pages.to_le_bytes());
        sb[16..20].copy_from_slice(&catalog_start.to_le_bytes());
        sb[20..28].copy_from_slice(&(catalog.len() as u64).to_le_bytes());
        sb[28..36].copy_from_slice(&fnv1a(&catalog).to_le_bytes());
        file.write_page(PageId(0), &sb);
        // One durable sync at the very end: a kill at any earlier point
        // leaves a file the superblock checks reject, never a torn one
        // that opens.
        file.sync()?;
        Ok(PersistReport {
            file_pages: total_pages,
            file_bytes: u64::from(total_pages) * PAGE_SIZE as u64,
            strategies,
        })
    }
}

// ---------------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------------

impl QueryEngine<Arc<XmlForest>> {
    /// Reopens a persisted index file with zero rebuild work; see
    /// [`QueryEngine::open_with_report`] for the accounting.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, OpenError> {
        Ok(Self::open_with_report(path)?.0)
    }

    /// Reopens a persisted index file, returning the engine plus an
    /// [`OpenReport`].
    ///
    /// Every stored strategy digest is verified against the reopened
    /// pools ([`BufferPool::content_hash`] over the extent-backed page
    /// images); the pools are then dropped back to a cold cache so the
    /// first query after open performs real physical reads.
    pub fn open_with_report<P: AsRef<Path>>(path: P) -> Result<(Self, OpenReport), OpenError> {
        // Read-only: the file is a sealed artifact (every write on the
        // reopen path goes to the ExtentBackend overlay), so a chmod
        // 444 index or a read-only mount must still open.
        let file = Arc::new(FileBackend::open_read_only(path)?);
        let file_pages = file.num_pages();
        if file_pages == 0 {
            return Err(OpenError::Format("empty file".into()));
        }
        let mut sb = vec![0u8; PAGE_SIZE];
        file.read_page(PageId(0), &mut sb);
        if &sb[0..8] != MAGIC {
            return Err(OpenError::Format("bad magic (not an xtwig index)".into()));
        }
        let version = u32::from_le_bytes(sb[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(OpenError::VersionMismatch { found: version, expected: FORMAT_VERSION });
        }
        let recorded_pages = u32::from_le_bytes(sb[12..16].try_into().unwrap());
        if recorded_pages != file_pages {
            return Err(OpenError::Format(format!(
                "superblock records {recorded_pages} pages but the file has {file_pages} \
                 (truncated or appended-to)"
            )));
        }
        let catalog_start = u32::from_le_bytes(sb[16..20].try_into().unwrap());
        let catalog_len = u64::from_le_bytes(sb[20..28].try_into().unwrap());
        let catalog_checksum = u64::from_le_bytes(sb[28..36].try_into().unwrap());
        let catalog_len = usize::try_from(catalog_len)
            .map_err(|_| OpenError::Format("catalog length overflow".into()))?;
        let catalog_pages = catalog_len.div_ceil(PAGE_SIZE) as u64;
        if catalog_start == 0 || u64::from(catalog_start) + catalog_pages > u64::from(file_pages) {
            return Err(OpenError::Format(format!(
                "catalog extent (page {catalog_start}, {catalog_len} bytes) outside the file"
            )));
        }
        let mut catalog = vec![0u8; catalog_pages as usize * PAGE_SIZE];
        for (i, chunk) in catalog.chunks_mut(PAGE_SIZE).enumerate() {
            file.read_page(PageId(catalog_start + i as u32), chunk);
        }
        catalog.truncate(catalog_len);
        if fnv1a(&catalog) != catalog_checksum {
            return Err(OpenError::Format("catalog checksum mismatch (corrupt file)".into()));
        }

        let mut r = ByteReader::new(&catalog);
        let forest = Arc::new(
            XmlForest::from_snapshot(r.bytes()?)
                .map_err(|e| OpenError::Format(format!("forest snapshot: {e}")))?,
        );
        let stats = Arc::new(PathStats::open_meta(&mut r)?);
        let pruned_tags: Option<HashSet<TagId>> = if r.bool()? {
            let n = r.u32()? as usize;
            let mut tags = HashSet::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                tags.insert(TagId(r.u32()?));
            }
            Some(tags)
        } else {
            None
        };
        let structural_ad_joins = r.bool()?;

        let mut rp = None;
        let mut dp = None;
        let mut edge = None;
        let mut dg = None;
        let mut fab = None;
        let mut asr = None;
        let mut ji = None;
        let entry_count = r.u32()?;
        for _ in 0..entry_count {
            let kind = r.u8()?;
            let base = r.u32()?;
            let extent = r.u32()?;
            let capacity = r.u32()? as usize;
            if u64::from(base) + u64::from(extent) > u64::from(file_pages) {
                return Err(OpenError::Format(format!(
                    "structure extent [{base}, {}) outside the file",
                    u64::from(base) + u64::from(extent)
                )));
            }
            if capacity < 2 {
                return Err(OpenError::Format(format!("pool capacity {capacity} below minimum")));
            }
            // The builder's pool was sized for construction (the CLI
            // uses 40 MB per structure); a reopened pool never needs
            // more frames than its extent has pages, so cap it — a
            // tiny index must not eagerly allocate hundreds of MB of
            // zeroed frames just to be queried.
            let capacity = capacity.min(extent.max(2) as usize);
            let backend = ExtentBackend::new(file.clone(), base, extent);
            let pool =
                Arc::new(BufferPool::new(DiskManager::with_backend(Box::new(backend)), capacity));
            match kind {
                KIND_RP => rp = Some((RootPaths::open_meta(&mut r, pool.clone())?, pool)),
                KIND_DP => dp = Some((DataPaths::open_meta(&mut r, pool.clone())?, pool)),
                KIND_EDGE => edge = Some((EdgeTable::open_meta(&mut r, pool.clone())?, pool)),
                KIND_DG => dg = Some((DataGuide::open_meta(&mut r, pool.clone())?, pool)),
                KIND_IF => fab = Some((IndexFabric::open_meta(&mut r, pool.clone())?, pool)),
                KIND_ASR => {
                    asr = Some((AccessSupportRelations::open_meta(&mut r, pool.clone())?, pool))
                }
                KIND_JI => ji = Some((JoinIndices::open_meta(&mut r, pool.clone())?, pool)),
                other => return Err(OpenError::Format(format!("unknown structure kind {other}"))),
            }
        }

        let digest_count = r.u32()? as usize;
        let mut digests = Vec::with_capacity(digest_count.min(64));
        for _ in 0..digest_count {
            let s = strategy_from_u8(r.u8()?)?;
            digests.push((s, r.u64()?));
        }
        if r.remaining() != 0 {
            return Err(OpenError::Format(format!("{} trailing catalog byte(s)", r.remaining())));
        }

        let engine = QueryEngine {
            forest,
            stats,
            rp,
            dp,
            pruned_tags,
            edge,
            dg,
            fab,
            asr,
            ji,
            structural_ad_joins,
            calibration: Arc::new(CalibrationLog::new(CalibrationLog::DEFAULT_CAPACITY)),
        };

        // Reattachment must not have built anything: no pool allocated
        // a single page (a fresh build allocates them all).
        let open_allocations: u64 = Strategy::ALL
            .iter()
            .flat_map(|&s| engine.pools_for(s))
            .map(|p| p.stats().snapshot().allocations)
            .sum();

        for &(s, stored) in &digests {
            if !engine.has_strategy(s) {
                return Err(OpenError::Format(format!(
                    "catalog records a digest for {s} but its structures are missing"
                )));
            }
            let computed = engine.structure_digest(s);
            if computed != stored {
                return Err(OpenError::DigestMismatch { strategy: s, stored, computed });
            }
        }
        // Digest verification touched every page; drop back to a cold
        // cache so the first query after open measures real physical
        // reads (stats reset with it).
        for &s in &Strategy::ALL {
            for pool in engine.pools_for(s) {
                pool.clear_cache();
                pool.stats().reset();
            }
        }

        let strategies = engine.built_strategies();
        let report = OpenReport {
            file_pages,
            strategies,
            open_allocations,
            digests_verified: digests.len(),
        };
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.push_u8(7);
        w.push_bool(true);
        w.push_u32(0xDEAD_BEEF);
        w.push_u64(u64::MAX - 1);
        w.push_f64(0.9);
        w.push_str("héllo");
        w.push_bytes(b"\x00\x01\x02");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.9);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"\x00\x01\x02");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "reading past the end errors");
    }

    #[test]
    fn reader_rejects_bad_bool_and_truncation() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.u32().is_err());
        // A length prefix pointing past the end must error, not panic.
        let mut w = ByteWriter::new();
        w.push_u64(1 << 40);
        let bytes = w.finish();
        assert!(ByteReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn strategy_ids_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(strategy_from_u8(strategy_to_u8(s)).unwrap(), s);
        }
        assert!(strategy_from_u8(7).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
