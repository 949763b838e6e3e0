//! Index persistence: build once, reopen without rebuild.
//!
//! [`QueryEngine::persist`] flushes a built engine into a single
//! `.xtwig` file through a plain [`File`]; [`QueryEngine::open`] (and
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
//!                   length, checksum by [`xtwig_storage::hash`])
//! pages 1..         one contiguous extent per built structure's buffer
//!                   pool, in catalog order (RP, DP, Edge, DG, IF, ASR,
//!                   JI), then the long-value relation's (empty, zero
//!                   pages, when no value outgrows the key prefix) — a
//!                   verbatim copy of the pool's page image, so
//!                   pool-local page ids (B+-tree roots, sibling links,
//!                   heap page lists) remain valid unchanged
//! trailing pages    the metadata blob: the tag dictionary (names in
//!                   `TagId` order), path statistics, engine options,
//!                   per-structure catalog (extent location, pool
//!                   capacity, B+-tree roots and shape, heap extents,
//!                   codec metadata), and the per-strategy
//!                   `structure_digest` values
//! ```
//!
//! No byte of the file holds a node of the document: answering reads
//! the dictionary and the indexes alone, and opening parses no node.
//!
//! On open, each extent is served by an [`ExtentBackend`] — a read-only
//! view of the shared file — under a copy-on-write
//! [`DiskManager::copy_on_write`], so pool-local page ids keep working
//! and post-open index maintenance can never corrupt the file.
//! The stored digests are verified against
//! [`BufferPool::content_hash`] through the reopened pools — every page
//! of every pool hashed once, however many strategies share the pool —
//! which proves the on-disk page images are byte-identical to the pools
//! that were persisted.

use crate::asr::AccessSupportRelations;
use crate::dataguide::DataGuide;
use crate::datapaths::DataPaths;
use crate::edge::EdgeTable;
use crate::engine::{QueryEngine, Sealed, Strategy};
use crate::fabric::IndexFabric;
use crate::joinindex::JoinIndices;
use crate::longvalues::LongValues;
use crate::paths::PathStats;
use crate::rootpaths::RootPaths;
use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use xtwig_btree::{BTree, BTreeOptions};
use xtwig_rel::codec::IdListCodec;
use xtwig_storage::{
    hash, BufferPool, DiskManager, ExtentBackend, FileBackend, PageId, ReadBackend, PAGE_SIZE,
};
use xtwig_xml::{TagDict, TagId};

/// On-disk format version; bumped on any layout change so stale files
/// fail fast with [`OpenError::VersionMismatch`] instead of misparsing.
/// Version 2 added the document-order bit to the ROOTPATHS and DATAPATHS
/// catalog entries; version 3 replaced byte-wise FNV-1a with
/// [`xtwig_storage::hash`] for the catalog checksum and the structure
/// digests; version 4 stores each B+-tree leaf's common key prefix once
/// per page (`xtwig_btree::node`); version 5 drops the structural-join
/// flag from the engine options; version 6 drops the ROOTPATHS
/// IdList-sublist byte; version 7 drops each tree's fill factor (a
/// constant of the bulk loader); version 8 stores the tag dictionary
/// and the long-value relation instead of a snapshot of the forest;
/// version 9 drops the per-value counts from the path statistics (the
/// indexes count a literal themselves).
pub const FORMAT_VERSION: u32 = 9;

const MAGIC: &[u8; 8] = b"XTWIGIDX";

/// The metadata blob's checksum: the hash that digests page images.
fn checksum(bytes: &[u8]) -> u64 {
    hash::hash_bytes(hash::SEED, bytes)
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
    if !root.is_valid() || u64::from(root.0) >= u64::from(pool.num_pages()) {
        return format_err(format!("tree root {root} outside its pool"));
    }
    if height == 0 {
        return format_err("tree height 0");
    }
    Ok(BTree::from_parts(pool, BTreeOptions { prefix_truncation }, root, height, entries, pages))
}

/// Persists the tag dictionary: its names after the reserved
/// virtual-root tag, in `TagId` order, so that [`read_dict`] gives every
/// name the id the index keys hold.
fn write_dict(w: &mut ByteWriter, dict: &TagDict) {
    w.push_u32(dict.len() as u32 - 1);
    for (_, name) in dict.iter().skip(1) {
        w.push_str(name);
    }
}

/// Reads a dictionary written by [`write_dict`].
fn read_dict(r: &mut ByteReader<'_>) -> Result<TagDict, FormatError> {
    let names = r.u32()?;
    let mut dict = TagDict::new();
    for id in 1..=names {
        let name = r.str()?;
        if dict.intern(&name) != TagId(id) {
            return format_err(format!("tag name {name:?} stored twice"));
        }
    }
    Ok(dict)
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
    /// The index file could not be created, written, synced or renamed
    /// into place.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O: {e}"),
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
    /// rejected by [`FileBackend::open_read_only`]).
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
const KIND_LONG_VALUES: u8 = 7;

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

/// The index file being written: pages are appended after page 0, the
/// superblock, which is written last.
struct IndexWriter {
    file: File,
    /// Pages in the file, page 0 included.
    pages: u32,
}

impl IndexWriter {
    /// Writes `page` as the next page of the file: one positional write.
    fn append(&mut self, page: &[u8]) -> std::io::Result<()> {
        let next = self
            .pages
            .checked_add(1)
            .ok_or_else(|| std::io::Error::other("index file exceeds the 32-bit page-id space"))?;
        self.file.write_all_at(page, u64::from(self.pages) * PAGE_SIZE as u64)?;
        self.pages = next;
        Ok(())
    }
}

/// Copies one structure pool into the file as a contiguous extent,
/// returning `(base_page, extent_pages)`. Every page is read through the
/// pool, so a dirty resident page is copied as it stands, without being
/// written back first. Nothing writes the pool meanwhile: maintenance
/// takes the engine `&mut`, and persist borrows it shared, so a page
/// another thread pins is pinned by a reader.
fn copy_pool(file: &mut IndexWriter, pool: &BufferPool) -> Result<(u32, u32), PersistError> {
    let base = file.pages;
    let pages = pool.num_pages();
    for pid in 0..pages {
        file.append(&pool.fetch(PageId(pid)))?;
    }
    Ok((base, pages))
}

impl QueryEngine {
    /// Strategies whose structures this engine has built, in the
    /// paper's reporting order.
    pub fn built_strategies(&self) -> Vec<Strategy> {
        Strategy::ALL.iter().copied().filter(|&s| self.has_strategy(s)).collect()
    }

    /// Writes the engine — tag dictionary, path statistics, every
    /// built structure's pages and catalog metadata, the long-value
    /// relation, per-strategy digests — into a single index file at
    /// `path`, then syncs it durably.
    ///
    /// The file is written to a `<path>.tmp` sibling and atomically
    /// renamed over `path` only after the final sync, then the directory
    /// is synced so that the rename, and the `Ok`, survive a crash. A
    /// write error (disk full) is returned, not raised; a persist that
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
                let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
                Ok(report)
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }

    fn persist_into(&self, path: &Path) -> Result<PersistReport, PersistError> {
        let mut file = IndexWriter { file: File::create(path)?, pages: 1 };

        let mut catalog = ByteWriter::new();
        write_dict(&mut catalog, &self.dict);
        self.sealed.stats.write_meta(&mut catalog);
        match &self.sealed.pruned_tags {
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

        // One catalog entry per built structure: kind, extent, pool
        // capacity, then the structure's own metadata.
        type Entry<'e> = (u8, &'e Arc<BufferPool>, Box<dyn Fn(&mut ByteWriter) + 'e>);
        let mut entries: Vec<Entry<'_>> = Vec::new();
        if let Some((i, p)) = &self.rp {
            entries.push((KIND_RP, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.dp {
            entries.push((KIND_DP, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.sealed.edge {
            entries.push((KIND_EDGE, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.sealed.dg {
            entries.push((KIND_DG, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.sealed.fab {
            entries.push((KIND_IF, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.sealed.asr {
            entries.push((KIND_ASR, p, Box::new(move |w| i.write_meta(w))));
        }
        if let Some((i, p)) = &self.sealed.ji {
            entries.push((KIND_JI, p, Box::new(move |w| i.write_meta(w))));
        }
        let lv = &self.long_values;
        entries.push((KIND_LONG_VALUES, lv.pool(), Box::new(|w| lv.write_meta(w))));

        catalog.push_u32(entries.len() as u32);
        for (kind, pool, write_meta) in entries {
            let (base, pages) = copy_pool(&mut file, pool)?;
            catalog.push_u8(kind);
            catalog.push_u32(base);
            catalog.push_u32(pages);
            catalog.push_u32(pool.capacity() as u32);
            write_meta(&mut catalog);
        }

        // Per-strategy digests, computed from the live pools (the file
        // copy is verbatim, so the reopened pools must reproduce them).
        let digests = self.structure_digests();
        catalog.push_u32(digests.len() as u32);
        for &(s, digest) in &digests {
            catalog.push_u8(strategy_to_u8(s));
            catalog.push_u64(digest);
        }
        let strategies = digests.into_iter().map(|(s, _)| s).collect();

        // Append the catalog blob page by page, then the superblock.
        let catalog = catalog.finish();
        let catalog_start = file.pages;
        let mut page = vec![0u8; PAGE_SIZE];
        for chunk in catalog.chunks(PAGE_SIZE) {
            page[..chunk.len()].copy_from_slice(chunk);
            page[chunk.len()..].fill(0);
            file.append(&page)?;
        }
        let total_pages = file.pages;
        let mut sb = vec![0u8; PAGE_SIZE];
        sb[0..8].copy_from_slice(MAGIC);
        sb[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        sb[12..16].copy_from_slice(&total_pages.to_le_bytes());
        sb[16..20].copy_from_slice(&catalog_start.to_le_bytes());
        sb[20..28].copy_from_slice(&(catalog.len() as u64).to_le_bytes());
        sb[28..36].copy_from_slice(&checksum(&catalog).to_le_bytes());
        file.file.write_all_at(&sb, 0)?;
        // One durable sync at the very end: a kill at any earlier point
        // leaves a file the superblock checks reject, never a torn one
        // that opens.
        file.file.sync_all()?;
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

impl QueryEngine {
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
        // reopen path goes to a pool's copy-on-write overlay), so a chmod
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
        if checksum(&catalog) != catalog_checksum {
            return Err(OpenError::Format("catalog checksum mismatch (corrupt file)".into()));
        }

        let mut r = ByteReader::new(&catalog);
        let dict = Arc::new(read_dict(&mut r)?);
        let stats = PathStats::open_meta(&mut r)?;
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

        let mut rp = None;
        let mut dp = None;
        let mut edge = None;
        let mut dg = None;
        let mut fab = None;
        let mut asr = None;
        let mut ji = None;
        let mut long_values = None;
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
            let backend = Box::new(ExtentBackend::new(file.clone(), base, extent));
            let pool = Arc::new(BufferPool::new(DiskManager::copy_on_write(backend), capacity));
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
                KIND_LONG_VALUES => long_values = Some(LongValues::open_meta(&mut r, pool)?),
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

        let Some(long_values) = long_values else {
            return Err(OpenError::Format("no long-value relation".into()));
        };
        let sealed = Sealed { stats, pruned_tags, edge, dg, fab, asr, ji };
        let engine = QueryEngine { dict, rp, dp, long_values, sealed: Arc::new(sealed) };

        // Reattachment must not have built anything: no pool allocated
        // a single page (a fresh build allocates them all).
        let open_allocations: u64 = Strategy::ALL
            .iter()
            .flat_map(|&s| engine.pools_for(s))
            .map(|p| p.stats().snapshot().allocations)
            .sum();

        // Every page of every pool is hashed once, before anything serves.
        let computed = engine.structure_digests();
        for &(s, stored) in &digests {
            let Some(&(_, computed)) = computed.iter().find(|&&(c, _)| c == s) else {
                return Err(OpenError::Format(format!(
                    "catalog records a digest for {s} but its structures are missing"
                )));
            };
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
        w.push_str("héllo");
        w.push_bytes(b"\x00\x01\x02");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
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

    /// A fold copies each page through the pool as it stands. A reader
    /// pinning a page the last `apply` left dirty does not fail it: the
    /// pin is a read guard, and the copy reads beside it. (A fold used
    /// to write dirty pages back first, skip the pinned ones, and refuse
    /// to persist while any was left.)
    #[test]
    fn a_fork_persists_while_readers_pin_its_dirty_pages() {
        use crate::update::UpdateOp;
        let forest = Arc::new(xtwig_xml::tree::fig1_book_document());
        let options = crate::engine::EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 256,
            ..Default::default()
        };
        let mut fork = QueryEngine::build(forest, options).fork();
        let tags = ["book", "title"].map(|t| fork.dict().lookup(t).unwrap()).to_vec();
        fork.apply(&UpdateOp::InsertPath { tags, ids: vec![1, 900], value: Some("new".into()) })
            .unwrap();
        let pool = &fork.rp.as_ref().unwrap().1;
        let pinned: Vec<_> = (0..pool.num_pages()).map(|pid| pool.fetch(PageId(pid))).collect();
        let path = std::env::temp_dir().join(format!("xtwig-pinned-{}.xtwig", std::process::id()));
        let persisted = fork.persist(&path);
        drop(pinned);
        let reopened = persisted.map(|_| QueryEngine::open(&path));
        std::fs::remove_file(&path).ok();
        let reopened = reopened.expect("a reader's pin does not fail the fold").unwrap();
        assert_eq!(reopened.structure_digests(), fork.structure_digests());
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(checksum(b""), hash::mix(hash::SEED, 0));
        assert_ne!(checksum(b"a"), checksum(b"b"));
    }
}
