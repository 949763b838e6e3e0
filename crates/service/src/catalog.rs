//! Multi-index catalog: many persisted `.xtwig` indexes served by
//! name, each attached on first use and kept attached.
//!
//! One process, many corpora: a deployment keeps a directory of
//! persisted index files (one per tenant, document collection, or
//! shard) and the catalog maps each *name* to its file. Nothing is
//! loaded up front — [`Catalog::get`] attaches an index the first time
//! it is asked for (a [`TwigService::open`], i.e. zero rebuild,
//! digest-verified) and hands out `Arc<TwigService>` clones after that.
//! An attached service stays attached until the catalog is dropped: it
//! holds every update committed through it since the attach, which its
//! file holds only after a [`TwigService::persist`] fold, so detaching
//! it would lose acknowledged updates. Each of its buffer pools bounds
//! the pages it keeps in memory.

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
#[derive(Debug, Clone, Default)]
pub struct CatalogOptions {
    /// Options every attached [`TwigService`] is opened with.
    pub service: ServiceOptions,
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
}

/// One registered name: its file, and the service once attached.
struct Slot {
    path: PathBuf,
    service: Option<Arc<TwigService>>,
}

/// A named collection of persisted indexes with open-on-demand
/// attachment. See the module docs for the serving model.
pub struct Catalog {
    slots: Mutex<BTreeMap<String, Slot>>,
    options: CatalogOptions,
    /// One journal for the whole catalog: every attached service emits
    /// into it (injected via [`ServiceOptions::events`]), so the wire
    /// `Events` opcode serves a single cross-index stream.
    events: Arc<EventJournal>,
    hits: AtomicU64,
    opens: AtomicU64,
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
            slots: Mutex::new(BTreeMap::new()),
            options,
            events,
            hits: AtomicU64::new(0),
            opens: AtomicU64::new(0),
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

    /// Registers `name` at `path`, or re-points a name not yet
    /// attached. Re-registering an attached name changes nothing: its
    /// service keeps serving, with the updates committed through it.
    pub fn register<P: AsRef<Path>>(&self, name: &str, path: P) {
        let mut slots = self.slots.lock();
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot { path: PathBuf::new(), service: None });
        if slot.service.is_none() {
            slot.path = path.as_ref().to_path_buf();
        }
    }

    /// Resolves `name` to its serving [`TwigService`], attaching it
    /// from its file on first use.
    pub fn get(&self, name: &str) -> Result<Arc<TwigService>, CatalogError> {
        // The lock is held across the open: concurrent gets of one cold
        // index must not both pay the file open (and the second would
        // displace the first's service, with any update committed
        // through it).
        let mut slots = self.slots.lock();
        let slot =
            slots.get_mut(name).ok_or_else(|| CatalogError::UnknownIndex(name.to_owned()))?;
        if let Some(service) = &slot.service {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(service.clone());
        }
        let service = Arc::new(
            TwigService::open(&slot.path, self.options.service.clone())
                .map_err(|error| CatalogError::Open { name: name.to_owned(), error })?,
        );
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.events.emit(Event::CatalogAttached { name: name.to_owned() });
        slot.service = Some(service.clone());
        Ok(service)
    }

    /// Every registered index, attached or not, in name order.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        let slots = self.slots.lock();
        slots
            .iter()
            .map(|(name, slot)| CatalogEntry {
                name: name.clone(),
                path: slot.path.clone(),
                attached: slot.service.is_some(),
            })
            .collect()
    }

    /// Registered index count.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Monotonic hit/open counters.
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            hits: self.hits.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateOp;
    use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
    use xtwig_core::parse_xpath;
    use xtwig_xml::tree::fig1_book_document;

    fn persist_fig1(dir: &Path, name: &str) -> PathBuf {
        let engine = QueryEngine::build(
            Arc::new(fig1_book_document()),
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
    fn registration_does_not_attach_and_the_first_get_does() {
        let dir = tmpdir("attach");
        persist_fig1(&dir, "books");
        let catalog = Catalog::scan_dir(&dir, CatalogOptions::default()).unwrap();
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.entries()[0].attached, "registration does not attach");
        let twig = parse_xpath("//author[fn='jane']").unwrap();
        let svc = catalog.get("books").unwrap();
        assert_eq!(svc.execute(&twig, Strategy::RootPaths).unwrap().ids.len(), 2);
        assert!(catalog.entries()[0].attached);
        let stats = catalog.stats();
        assert_eq!((stats.opens, stats.hits), (1, 0));
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
    fn a_second_get_is_a_hit_and_pays_no_second_open() {
        let dir = tmpdir("hit");
        for name in ["a", "b", "c"] {
            persist_fig1(&dir, name);
        }
        let catalog = Catalog::scan_dir(&dir, CatalogOptions::default()).unwrap();
        let first: Vec<_> = ["a", "b", "c"].map(|n| catalog.get(n).unwrap()).into();
        for (name, svc) in ["a", "b", "c"].iter().zip(&first) {
            let again = catalog.get(name).unwrap();
            assert!(Arc::ptr_eq(svc, &again), "{name}: second get reuses the attached service");
        }
        let stats = catalog.stats();
        assert_eq!((stats.opens, stats.hits), (3, 3));
        assert!(catalog.entries().iter().all(|e| e.attached));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_update_committed_through_an_index_outlives_gets_of_ten_others() {
        let dir = tmpdir("keep");
        let others: Vec<String> = (0..10).map(|i| format!("other{i}")).collect();
        for name in others.iter().map(String::as_str).chain(["books"]) {
            persist_fig1(&dir, name);
        }
        let catalog = Catalog::scan_dir(&dir, CatalogOptions::default()).unwrap();
        let twig = parse_xpath("//author[fn='ada']").unwrap();
        let ada = |svc: &TwigService| {
            svc.execute(&twig, Strategy::RootPaths).unwrap().ids.iter().copied().collect::<Vec<_>>()
        };
        let svc = catalog.get("books").unwrap();
        let tags: Vec<_> = svc.with_engine(|e| {
            let dict = e.dict();
            ["book", "allauthors", "author", "fn"].map(|t| dict.lookup(t).unwrap()).to_vec()
        });
        let acked = svc.apply_update(vec![
            UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 5, 900], value: None },
            UpdateOp::InsertPath { tags, ids: vec![1, 5, 900, 901], value: Some("ada".into()) },
        ]);
        let acked = acked.unwrap();
        drop(svc);
        assert_eq!(ada(&catalog.get("books").unwrap()), vec![900]);
        for name in &others {
            catalog.get(name).unwrap();
        }
        let svc = catalog.get("books").unwrap();
        assert_eq!(ada(&svc), vec![900], "the committed update is still served");
        assert_eq!(svc.generation(), acked);
        // Re-pointing an attached name changes nothing either.
        catalog.register("books", dir.join("other0.xtwig"));
        assert_eq!(ada(&catalog.get("books").unwrap()), vec![900]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
