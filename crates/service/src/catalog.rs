//! Multi-index catalog: many persisted `.xtwig` indexes served by
//! name, attached on demand, bounded by an LRU of live engines.
//!
//! One process, many corpora: a deployment keeps a directory of
//! persisted index files (one per tenant, document collection, or
//! shard) and the catalog maps each *name* to its file. Nothing is
//! loaded up front — [`Catalog::get`] attaches an index the first time
//! it is asked for (a [`TwigService::open`], i.e. zero rebuild,
//! digest-verified) and hands out `Arc<TwigService>` clones after that.
//! At most [`CatalogOptions::max_attached`] services stay attached;
//! asking for a cold index past the bound detaches the least recently
//! used one. Detaching drops the catalog's `Arc` only — connections
//! still executing against the evicted service keep their clone, and
//! the service is dropped when the last clone goes away, so eviction
//! can never cut an in-flight query short.

use crate::events::{Event, EventJournal, EVENT_CAPACITY};
use crate::service::{ServiceOptions, TwigService};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xtwig_core::persist::OpenError;

/// Catalog construction options.
#[derive(Debug, Clone)]
pub struct CatalogOptions {
    /// Attached-engine LRU capacity (minimum 1; default 8).
    pub max_attached: usize,
    /// Options every attached [`TwigService`] is opened with.
    pub service: ServiceOptions,
}

impl Default for CatalogOptions {
    fn default() -> Self {
        CatalogOptions { max_attached: 8, service: ServiceOptions::default() }
    }
}

/// Why a catalog lookup failed.
#[derive(Debug)]
pub enum CatalogError {
    /// No index of that name is registered.
    UnknownIndex(String),
    /// The registered file failed to open (missing, corrupt, version
    /// mismatch — the wrapped [`OpenError`] says which).
    Open {
        /// The index name whose file failed to open.
        name: String,
        /// The underlying open failure.
        error: OpenError,
    },
    /// A registry directory scan failed (see [`Catalog::scan_dir`]).
    Scan {
        /// The directory being scanned.
        dir: PathBuf,
        /// The underlying I/O failure.
        error: std::io::Error,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownIndex(name) => write!(f, "unknown index {name:?}"),
            CatalogError::Open { name, error } => write!(f, "cannot open index {name:?}: {error}"),
            CatalogError::Scan { dir, error } => {
                write!(f, "cannot scan index directory {}: {error}", dir.display())
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// One registered index, as reported by [`Catalog::entries`].
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The serving name.
    pub name: String,
    /// The `.xtwig` file behind it.
    pub path: PathBuf,
    /// Whether an engine is currently attached.
    pub attached: bool,
}

/// Catalog counters (monotonic).
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogStats {
    /// `get` calls answered by an already-attached service.
    pub hits: u64,
    /// `get` calls that opened the index file (cold attach).
    pub opens: u64,
    /// Attached services displaced by the LRU bound.
    pub evictions: u64,
}

/// The attached-service LRU: most recently used last.
#[derive(Default)]
struct Attached {
    entries: Vec<(String, Arc<TwigService>)>,
}

impl Attached {
    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(n, _)| n == name)
    }

    /// Moves `name` to the most-recently-used slot and returns it.
    fn touch(&mut self, name: &str) -> Option<Arc<TwigService>> {
        let pos = self.position(name)?;
        let entry = self.entries.remove(pos);
        let service = entry.1.clone();
        self.entries.push(entry);
        Some(service)
    }
}

/// A named collection of persisted indexes with open-on-demand
/// attachment. See the module docs for the serving model.
pub struct Catalog {
    registry: Mutex<BTreeMap<String, PathBuf>>,
    attached: Mutex<Attached>,
    options: CatalogOptions,
    /// One journal for the whole catalog: every attached service emits
    /// into it (injected via [`ServiceOptions::events`]), so the wire
    /// `Events` opcode serves a single cross-index stream.
    events: Arc<EventJournal>,
    hits: AtomicU64,
    opens: AtomicU64,
    evictions: AtomicU64,
}

impl Catalog {
    /// An empty catalog; register indexes with [`Catalog::register`].
    /// Adopts [`ServiceOptions::events`] when the caller supplies a
    /// journal, otherwise creates one of 256 entries shared by every
    /// service this catalog attaches.
    pub fn new(mut options: CatalogOptions) -> Catalog {
        let events = options
            .service
            .events
            .clone()
            .unwrap_or_else(|| Arc::new(EventJournal::new(EVENT_CAPACITY)));
        options.service.events = Some(events.clone());
        Catalog {
            registry: Mutex::new(BTreeMap::new()),
            attached: Mutex::new(Attached::default()),
            options,
            events,
            hits: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The catalog-wide event journal (shared with every attached
    /// service and the network server).
    pub fn events(&self) -> Arc<EventJournal> {
        self.events.clone()
    }

    /// A catalog pre-registered with every `*.xtwig` file directly
    /// under `dir`, each served under its file stem (`books.xtwig` →
    /// `books`). Files are not opened — registration is free; the first
    /// `get` pays the attach.
    pub fn scan_dir<P: AsRef<Path>>(
        dir: P,
        options: CatalogOptions,
    ) -> Result<Catalog, CatalogError> {
        let dir = dir.as_ref();
        let scan_err = |error: std::io::Error| CatalogError::Scan { dir: dir.to_path_buf(), error };
        let catalog = Catalog::new(options);
        for entry in std::fs::read_dir(dir).map_err(scan_err)? {
            let path = entry.map_err(scan_err)?.path();
            if path.extension().is_some_and(|e| e == "xtwig") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    catalog.register(stem, &path);
                }
            }
        }
        Ok(catalog)
    }

    /// Registers (or re-points) `name` at `path`. A service already
    /// attached under that name keeps serving the old file until it is
    /// evicted or detached — re-registration changes what the *next*
    /// attach opens.
    pub fn register<P: AsRef<Path>>(&self, name: &str, path: P) {
        self.registry.lock().insert(name.to_owned(), path.as_ref().to_path_buf());
    }

    /// Resolves `name` to a serving [`TwigService`], attaching it from
    /// its file on first use and evicting the least recently used
    /// attachment beyond the capacity bound.
    pub fn get(&self, name: &str) -> Result<Arc<TwigService>, CatalogError> {
        let path = self
            .registry
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownIndex(name.to_owned()))?;
        // The attach lock is held across the open: concurrent gets of
        // one cold index must not both pay the file open (and the
        // second would clobber the first's caches).
        let mut attached = self.attached.lock();
        if let Some(service) = attached.touch(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(service);
        }
        let service = Arc::new(
            TwigService::open(&path, self.options.service.clone())
                .map_err(|error| CatalogError::Open { name: name.to_owned(), error })?,
        );
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.events.emit(Event::CatalogAttached { name: name.to_owned() });
        attached.entries.push((name.to_owned(), service.clone()));
        let capacity = self.options.max_attached.max(1);
        while attached.entries.len() > capacity {
            let (evicted_name, evicted) = attached.entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.events.emit(Event::CatalogEvicted { name: evicted_name });
            // Dropped outside the registry: in-flight holders keep
            // their clone; the service drains when the last one drops.
            drop(evicted);
        }
        Ok(service)
    }

    /// Every registered index, attached or not, in name order.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        let registry = self.registry.lock();
        let attached = self.attached.lock();
        registry
            .iter()
            .map(|(name, path)| CatalogEntry {
                name: name.clone(),
                path: path.clone(),
                attached: attached.position(name).is_some(),
            })
            .collect()
    }

    /// Registered index count.
    pub fn len(&self) -> usize {
        self.registry.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registry.lock().is_empty()
    }

    /// Monotonic hit/open/eviction counters.
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            hits: self.hits.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn persist_fig1(dir: &Path, name: &str) -> PathBuf {
        let engine = QueryEngine::build(
            fig1_book_document(),
            EngineOptions {
                strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
                pool_pages: 256,
                ..Default::default()
            },
        );
        let path = dir.join(format!("{name}.xtwig"));
        engine.persist(&path).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtwig-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_on_demand_then_lru_hit() {
        let dir = tmpdir("hit");
        persist_fig1(&dir, "books");
        let catalog = Catalog::scan_dir(&dir, CatalogOptions::default()).unwrap();
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.entries()[0].attached, "registration does not attach");
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let svc = catalog.get("books").unwrap();
        assert_eq!(svc.execute(&twig, Strategy::RootPaths).unwrap().ids.len(), 2);
        let again = catalog.get("books").unwrap();
        assert!(Arc::ptr_eq(&svc, &again), "second get reuses the attached service");
        let stats = catalog.stats();
        assert_eq!((stats.opens, stats.hits, stats.evictions), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_unopenable_indexes_fail_typed() {
        let dir = tmpdir("err");
        let catalog = Catalog::new(CatalogOptions::default());
        assert!(matches!(catalog.get("nope"), Err(CatalogError::UnknownIndex(_))));
        let bogus = dir.join("bogus.xtwig");
        std::fs::write(&bogus, b"not an index").unwrap();
        catalog.register("bogus", &bogus);
        match catalog.get("bogus") {
            Err(CatalogError::Open { name, .. }) => assert_eq!(name, "bogus"),
            Err(other) => panic!("expected Open error, got {other}"),
            Ok(_) => panic!("expected Open error, got a service"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_the_coldest_attachment_without_cutting_holders() {
        let dir = tmpdir("lru");
        for name in ["a", "b", "c"] {
            persist_fig1(&dir, name);
        }
        let catalog = Catalog::scan_dir(
            &dir,
            CatalogOptions { max_attached: 2, ..CatalogOptions::default() },
        )
        .unwrap();
        let a = catalog.get("a").unwrap();
        let _b = catalog.get("b").unwrap();
        // Touch `a` so `b` is now the LRU candidate.
        let _ = catalog.get("a").unwrap();
        let _c = catalog.get("c").unwrap(); // evicts b
        let entries = catalog.entries();
        let attached: Vec<&str> =
            entries.iter().filter(|e| e.attached).map(|e| e.name.as_str()).collect();
        assert_eq!(attached, vec!["a", "c"]);
        assert_eq!(catalog.stats().evictions, 1);
        // The evicted-and-reattached path pays a second open.
        let b2 = catalog.get("b").unwrap();
        assert_eq!(catalog.stats().opens, 4);
        // A holder of the pre-eviction Arc keeps serving meanwhile.
        let twig = parse_xpath("//author").unwrap();
        assert_eq!(a.execute(&twig, Strategy::RootPaths).unwrap().ids.len(), 3);
        assert_eq!(b2.execute(&twig, Strategy::RootPaths).unwrap().ids.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
