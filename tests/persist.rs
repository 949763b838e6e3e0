//! Index persistence round-trips: build → persist → reopen with zero
//! rebuild, across all seven strategies and the suite corpora, plus the
//! failure paths (corrupt, truncated, version-mismatched files) and the
//! copy-on-write guarantee for maintenance on reopened engines.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::persist::{OpenError, FORMAT_VERSION};
use xtwig::parse_xpath;
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::{naive, XmlForest};

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "xtwig-persist-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn multi_book_forest() -> XmlForest {
    let mut f = XmlForest::new();
    for i in 0..6 {
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
        b.open("allauthors");
        b.open("author");
        b.leaf("fn", "jane");
        b.leaf("ln", if i == 3 { "doe" } else { "poe" });
        b.close();
        b.close();
        b.close();
        b.finish();
    }
    f
}

fn xmark_forest() -> XmlForest {
    let mut f = XmlForest::new();
    xtwig::datagen::generate_xmark(&mut f, xtwig::datagen::XmarkConfig { scale: 0.002, seed: 7 });
    f
}

fn dblp_forest() -> XmlForest {
    let mut f = XmlForest::new();
    xtwig::datagen::generate_dblp(&mut f, xtwig::datagen::DblpConfig { scale: 0.002, seed: 7 });
    f
}

fn expected(forest: &XmlForest, xpath: &str) -> BTreeSet<u64> {
    let twig = parse_xpath(xpath).unwrap();
    naive::select(forest, &twig).into_iter().map(|n| n.0).collect()
}

/// Builds all seven strategies, persists, reopens, and checks that (a)
/// the reopen allocated zero pages (no rebuild), (b) every strategy's
/// digest survives byte-identically, and (c) every query answers the
/// same before and after, matching the naive oracle.
fn roundtrip(label: &str, forest: XmlForest, queries: &[&str]) {
    let dir = TempDir::new(label);
    let path = dir.path("idx.xtwig");
    let built = QueryEngine::build(
        Arc::new(forest),
        EngineOptions { pool_pages: 1024, ..Default::default() },
    );
    let report = built.persist(&path).unwrap();
    assert_eq!(report.strategies.len(), Strategy::ALL.len());
    assert!(report.file_pages > 1);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        report.file_bytes,
        "report matches the file on disk"
    );

    let (opened, open_report) = QueryEngine::open_with_report(&path).unwrap();
    assert_eq!(open_report.open_allocations, 0, "reopen must not build anything");
    assert_eq!(open_report.digests_verified, Strategy::ALL.len());
    assert_eq!(open_report.strategies, report.strategies);

    for s in Strategy::ALL {
        assert!(opened.has_strategy(s), "{s} missing after reopen");
        assert_eq!(
            opened.structure_digest(s),
            built.structure_digest(s),
            "{label}: {s} pages differ after reopen"
        );
        assert_eq!(opened.space_bytes(s), built.space_bytes(s), "{label}: {s} space differs");
    }
    for q in queries {
        let twig = parse_xpath(q).unwrap();
        let oracle = expected(opened.forest(), q);
        for s in Strategy::ALL {
            let from_disk = opened.answer(&twig, s);
            let from_memory = built.answer(&twig, s);
            assert_eq!(from_disk.ids, from_memory.ids, "{label}: {s} on {q}");
            assert_eq!(from_disk.ids, oracle, "{label}: {s} on {q} vs oracle");
            assert_eq!(from_disk.plan, from_memory.plan, "{label}: {s} plan on {q}");
        }
    }
}

#[test]
fn fig1_roundtrips_all_strategies() {
    roundtrip(
        "fig1",
        fig1_book_document(),
        &[
            "/book[title='XML']//author[fn='jane'][ln='doe']",
            "/book/title[. = 'XML']",
            "//author[fn = 'jane']/ln",
            "//section/head",
            "/book//contact/detail",
            "//unknown_tag_never_seen",
        ],
    );
}

#[test]
fn multi_document_forest_roundtrips() {
    roundtrip(
        "multidoc",
        multi_book_forest(),
        &["/book[title='XML']//author[fn='jane'][ln='doe']", "//author[ln = 'poe']", "/book/title"],
    );
}

#[test]
fn xmark_corpus_roundtrips() {
    roundtrip(
        "xmark",
        xmark_forest(),
        &["/site//item[quantity = '2']/location", "//person/name", "/site/regions"],
    );
}

#[test]
fn dblp_corpus_roundtrips() {
    roundtrip(
        "dblp",
        dblp_forest(),
        &["//article/author", "/dblp/article[year = '1995']/title", "//inproceedings/booktitle"],
    );
}

#[test]
fn subset_of_strategies_roundtrips() {
    let dir = TempDir::new("subset");
    let path = dir.path("idx.xtwig");
    let built = QueryEngine::build(
        Arc::new(fig1_book_document()),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataGuideEdge],
            pool_pages: 256,
            ..Default::default()
        },
    );
    let report = built.persist(&path).unwrap();
    // DG+Edge materializes the Edge structures too, so Edge itself is
    // also available (exactly as in the in-memory engine).
    assert_eq!(
        report.strategies,
        vec![Strategy::RootPaths, Strategy::Edge, Strategy::DataGuideEdge]
    );
    let opened = QueryEngine::open(&path).unwrap();
    assert!(opened.has_strategy(Strategy::RootPaths));
    assert!(opened.has_strategy(Strategy::DataGuideEdge));
    assert!(!opened.has_strategy(Strategy::DataPaths));
    assert!(!opened.has_strategy(Strategy::Asr));
    let twig = parse_xpath("//author[fn = 'jane']").unwrap();
    let oracle = expected(opened.forest(), "//author[fn = 'jane']");
    assert_eq!(opened.answer(&twig, Strategy::RootPaths).ids, oracle);
    assert_eq!(opened.answer(&twig, Strategy::DataGuideEdge).ids, oracle);
}

#[test]
fn first_query_after_open_reads_pages_physically() {
    // The cold-cache behaviour the paper simulated: after open, index
    // pages live only in the file, so the first probe performs physical
    // reads; re-running it is served from the buffer pool. Strategies
    // share pools (the Edge family), so each starts from dropped caches.
    let dir = TempDir::new("cold");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&path)
        .unwrap();
    let opened = QueryEngine::open(&path).unwrap();
    let twig = parse_xpath("//author[fn = 'jane']").unwrap();
    for s in Strategy::ALL {
        opened.clear_caches(s);
        let cold = opened.answer(&twig, s);
        assert!(cold.metrics.physical_reads > 0, "{s}: first query must hit the file");
        let warm = opened.answer(&twig, s);
        assert_eq!(warm.metrics.physical_reads, 0, "{s}: second query must be cached");
        assert_eq!(cold.ids, warm.ids, "{s}");
    }
}

#[test]
fn inlj_physical_reads_repeat_across_reopened_engines() {
    // Under a pool far smaller than the index, which pages are still
    // resident when a probe asks for them depends on the order of the
    // probes before it. The INLJ probes its heads in ascending id order
    // (it used to follow a `HashMap`'s per-process iteration order), so
    // two cold engines over the same file read exactly the same pages.
    let dir = TempDir::new("inlj-repeat");
    let path = dir.path("idx.xtwig");
    let mut forest = XmlForest::new();
    xtwig::datagen::generate_dblp(&mut forest, xtwig::datagen::DblpConfig { scale: 0.06, seed: 7 });
    QueryEngine::build(
        Arc::new(forest),
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: 64,
            ..Default::default()
        },
    )
    .persist(&path)
    .unwrap();
    // The seventy-odd papers of one conference against every title (or
    // year) in the corpus: one descent per paper is cheaper than reading
    // them all, the papers are scattered over the document, and their
    // descents land on more leaves than the pool has frames. (XMark's
    // Q14x/Q15x used to stand here; priced on the 313 items their probes
    // start from, they run as merge plans.)
    for xpath in [
        "/dblp/inproceedings[booktitle='Conference 7']/title",
        "//inproceedings[booktitle='Conference 11']/year",
    ] {
        let twig = parse_xpath(xpath).unwrap();
        let runs: Vec<_> = (0..2)
            .map(|_| QueryEngine::open(&path).unwrap().answer(&twig, Strategy::DataPaths))
            .collect();
        assert_eq!(runs[0].plan, xtwig::core::plan::PlanKind::IndexNestedLoop, "{xpath}");
        assert_eq!(
            runs[0].metrics.probes,
            runs[0].ids.len() as u64 + 1,
            "{xpath}: one probe per paper, after the one that found them"
        );
        assert!(
            runs[0].metrics.physical_reads > 64,
            "{xpath} must outgrow the 64-frame pool: {:?}",
            runs[0].metrics
        );
        for run in &runs[1..] {
            assert_eq!(run.ids, runs[0].ids, "{xpath}");
            assert_eq!(run.metrics.probes, runs[0].metrics.probes, "{xpath}");
            assert_eq!(
                run.metrics.physical_reads, runs[0].metrics.physical_reads,
                "{xpath}: physical reads must not depend on the process's hash seed"
            );
        }
    }
}

#[test]
fn maintenance_on_reopened_engine_is_copy_on_write() {
    let dir = TempDir::new("cow");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&path)
        .unwrap();
    let before = std::fs::read(&path).unwrap();

    let mut opened = QueryEngine::open(&path).unwrap();
    let tags: Vec<_> = {
        let dict = opened.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    };
    let rp = opened.rootpaths_mut().unwrap();
    rp.insert_path(&tags[..3], &[1, 5, 900], None);
    rp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
    let twig = parse_xpath("//author[fn = 'ada']").unwrap();
    assert_eq!(
        opened.answer(&twig, Strategy::RootPaths).ids.into_iter().collect::<Vec<_>>(),
        vec![900]
    );
    drop(opened);

    // The file is a sealed artifact: maintenance went to the in-memory
    // overlay, so the bytes on disk — and a fresh open — are unchanged.
    assert_eq!(std::fs::read(&path).unwrap(), before, "index file mutated in place");
    let fresh = QueryEngine::open(&path).unwrap();
    assert!(fresh.answer(&twig, Strategy::RootPaths).ids.is_empty());
}

#[test]
fn read_only_index_file_still_opens() {
    // The file is a sealed artifact: the reopen path never writes it
    // (maintenance goes to the in-memory overlay), so a chmod-444
    // index — e.g. a read-only deployment artifact — must open and
    // serve, including maintenance on the reopened engine.
    use std::os::unix::fs::PermissionsExt;
    let dir = TempDir::new("readonly");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(
        Arc::new(fig1_book_document()),
        EngineOptions { strategies: vec![Strategy::RootPaths], ..Default::default() },
    )
    .persist(&path)
    .unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o444)).unwrap();
    let mut opened = QueryEngine::open(&path).expect("read-only file must open");
    let twig = parse_xpath("//author[fn = 'jane']").unwrap();
    assert_eq!(opened.answer(&twig, Strategy::RootPaths).ids.len(), 2);
    let tags: Vec<_> = {
        let dict = opened.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    };
    opened.rootpaths_mut().unwrap().insert_path(&tags[..3], &[1, 5, 900], None);
    // Restore write permission so TempDir cleanup can delete it.
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o644)).unwrap();
}

#[test]
fn repersist_to_own_path_makes_overlay_maintenance_durable() {
    // persist writes to a temp sibling and renames, so a reopened
    // engine — whose extents keep reading the old inode — can persist
    // its in-memory overlay mutations over its own index file.
    let dir = TempDir::new("repersist");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&path)
        .unwrap();
    let mut opened = QueryEngine::open(&path).unwrap();
    let tags: Vec<_> = {
        let dict = opened.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    };
    let rp = opened.rootpaths_mut().unwrap();
    rp.insert_path(&tags[..3], &[1, 5, 900], None);
    rp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
    opened.persist(&path).unwrap();
    // The still-open engine keeps serving (old inode)…
    let twig = parse_xpath("//author[fn = 'ada']").unwrap();
    assert_eq!(opened.answer(&twig, Strategy::RootPaths).ids.len(), 1);
    drop(opened);
    // …and a fresh open sees the mutation, digest-verified.
    let fresh = QueryEngine::open(&path).unwrap();
    assert_eq!(
        fresh.answer(&twig, Strategy::RootPaths).ids.into_iter().collect::<Vec<_>>(),
        vec![900]
    );
    // No temp file left behind.
    assert!(!dir.path("idx.xtwig.tmp").exists());
}

#[test]
fn overlay_folds_through_repeated_mutate_reopen_persist_cycles() {
    // Regression for the reopened-engine fold path: an engine reopened
    // from a file accumulates maintenance in its in-memory overlay;
    // persisting to a NEW file must fold those overlay pages into the
    // fresh base image (the old file stays byte-identical), and the
    // cycle must compose — each generation carries every earlier
    // update plus its own.
    let dir = TempDir::new("fold-chain");
    let gen0 = dir.path("gen0.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&gen0)
        .unwrap();
    let mut prev = gen0.clone();
    for i in 0..3u64 {
        let mut opened = QueryEngine::open(&prev).unwrap();
        let tags: Vec<_> = {
            let dict = opened.forest().dict();
            ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
        };
        let before = std::fs::read(&prev).unwrap();
        let author = 900 + 2 * i;
        let rp = opened.rootpaths_mut().unwrap();
        rp.insert_path(&tags[..3], &[1, 5, author], None);
        rp.insert_path(&tags, &[1, 5, author, author + 1], Some(&format!("v{i}")));
        let dp = opened.datapaths_mut().unwrap();
        dp.insert_path(&tags[..3], &[1, 5, author], None);
        dp.insert_path(&tags, &[1, 5, author, author + 1], Some(&format!("v{i}")));
        let next = dir.path(&format!("gen{}.xtwig", i + 1));
        opened.persist(&next).unwrap();
        assert_eq!(std::fs::read(&prev).unwrap(), before, "gen {i} input file mutated");
        prev = next;
    }
    // The final file carries all three updates, digest-verified, with
    // an empty overlay (everything folded into base extents).
    let fresh = QueryEngine::open(&prev).unwrap();
    for i in 0..3u64 {
        let twig = parse_xpath(&format!("//author[fn = 'v{i}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert_eq!(
                fresh.answer(&twig, s).ids.into_iter().collect::<Vec<_>>(),
                vec![900 + 2 * i],
                "{s}: update {i} lost in the fold chain"
            );
        }
    }
    // The pre-existing data survived every fold too.
    let jane = parse_xpath("//author[fn = 'jane']").unwrap();
    assert_eq!(fresh.answer(&jane, Strategy::RootPaths).ids.len(), 2);
}

#[test]
fn fold_roundtrips_digests_with_images_shared_between_pool_and_overlay() {
    // The MVCC fork path over a reopened file: each fork flushes the
    // pages the last generation dirtied into the extent overlay *by
    // reference* — pool frame and overlay then hold one image — and the
    // next write to such a page must copy it, not edit the overlay's
    // copy in place. A fold of that state has to reproduce the live
    // engine's page images exactly.
    let dir = TempDir::new("shared-fold");
    let base = dir.path("base.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&base)
        .unwrap();
    let opened = QueryEngine::open(&base).unwrap();
    let tags: Vec<_> = {
        let dict = opened.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    };
    // Warm the parent so the first fork shares resident images too.
    let jane = parse_xpath("//author[fn = 'jane']").unwrap();
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        assert_eq!(opened.answer(&jane, s).ids.len(), 2);
    }
    let mut current = opened.fork().unwrap();
    for i in 0..4u64 {
        let author = 900 + 2 * i;
        let rp = current.rootpaths_mut().unwrap();
        rp.insert_path(&tags[..3], &[1, 5, author], None);
        rp.insert_path(&tags, &[1, 5, author, author + 1], Some(&format!("v{i}")));
        let dp = current.datapaths_mut().unwrap();
        dp.insert_path(&tags[..3], &[1, 5, author], None);
        dp.insert_path(&tags, &[1, 5, author, author + 1], Some(&format!("v{i}")));
        current = current.fork().unwrap();
    }
    let pools = current.pool_counters();
    for name in ["rootpaths", "datapaths"] {
        let (_, c) = pools.iter().find(|(n, _)| *n == name).unwrap();
        assert!(c.cow_copies() >= 4, "{name}: every generation rewrote a shared page");
    }
    let rp_pool = current.rootpaths().unwrap().tree().pool();
    assert!(rp_pool.overlay_pages() > 0, "the forks' writes live in the overlay");

    let folded = dir.path("folded.xtwig");
    current.persist(&folded).unwrap();
    let (fresh, report) = QueryEngine::open_with_report(&folded).unwrap();
    assert_eq!(report.digests_verified, Strategy::ALL.len());
    for s in Strategy::ALL {
        assert_eq!(
            fresh.structure_digest(s),
            current.structure_digest(s),
            "{s} differs after fold"
        );
    }
    assert_eq!(fresh.rootpaths().unwrap().tree().pool().overlay_pages(), 0);
    for i in 0..4u64 {
        let twig = parse_xpath(&format!("//author[fn = 'v{i}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            assert_eq!(fresh.answer(&twig, s).ids.into_iter().collect::<Vec<_>>(), [900 + 2 * i]);
        }
    }
    // The engine the chain started from never saw any of it.
    let v0 = parse_xpath("//author[fn = 'v0']").unwrap();
    assert!(opened.answer(&v0, Strategy::RootPaths).ids.is_empty());
}

#[test]
fn corrupt_page_fails_the_digest_check() {
    let dir = TempDir::new("corrupt");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(
        Arc::new(fig1_book_document()),
        EngineOptions { strategies: vec![Strategy::RootPaths], ..Default::default() },
    )
    .persist(&path)
    .unwrap();
    // Flip one byte inside the first structure extent (page 1).
    let mut bytes = std::fs::read(&path).unwrap();
    let off = 8192 + 100;
    bytes[off] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::DigestMismatch { strategy, stored, computed }) => {
            assert_eq!(strategy, Strategy::RootPaths);
            assert_ne!(stored, computed);
        }
        Ok(_) => panic!("expected DigestMismatch, but the open succeeded"),
        Err(e) => panic!("expected DigestMismatch, got {e:?}"),
    }
}

#[test]
fn truncated_files_are_rejected() {
    let dir = TempDir::new("trunc");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(
        Arc::new(fig1_book_document()),
        EngineOptions { strategies: vec![Strategy::RootPaths], ..Default::default() },
    )
    .persist(&path)
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Misaligned truncation: rejected by FileBackend::open itself.
    std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        Ok(_) => panic!("expected Io(InvalidData), but the open succeeded"),
        Err(e) => panic!("expected Io(InvalidData), got {e:?}"),
    }

    // Page-aligned truncation: the superblock's page count catches it.
    std::fs::write(&path, &bytes[..bytes.len() - 8192]).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::Format(msg)) => assert!(msg.contains("pages"), "{msg}"),
        Ok(_) => panic!("expected Format, but the open succeeded"),
        Err(e) => panic!("expected Format, got {e:?}"),
    }

    // Empty file.
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(QueryEngine::open(&path), Err(OpenError::Format(_))));
}

#[test]
fn version_and_magic_mismatches_are_rejected() {
    let dir = TempDir::new("version");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(
        Arc::new(fig1_book_document()),
        EngineOptions { strategies: vec![Strategy::RootPaths], ..Default::default() },
    )
    .persist(&path)
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Future format version.
    let mut v = bytes.clone();
    v[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &v).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::VersionMismatch { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        Ok(_) => panic!("expected VersionMismatch, but the open succeeded"),
        Err(e) => panic!("expected VersionMismatch, got {e:?}"),
    }

    // Bad magic.
    let mut m = bytes.clone();
    m[0] = b'Z';
    std::fs::write(&path, &m).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::Format(msg)) => assert!(msg.contains("magic"), "{msg}"),
        Ok(_) => panic!("expected Format(magic), but the open succeeded"),
        Err(e) => panic!("expected Format(magic), got {e:?}"),
    }

    // Corrupt catalog (flip a byte in the last page): checksum.
    let mut c = bytes.clone();
    let n = c.len();
    c[n - 8192 + 50] ^= 0xFF;
    std::fs::write(&path, &c).unwrap();
    match QueryEngine::open(&path) {
        Err(OpenError::Format(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        Ok(_) => panic!("expected Format(checksum), but the open succeeded"),
        Err(e) => panic!("expected Format(checksum), got {e:?}"),
    }
}

#[test]
fn pruned_head_filter_engine_roundtrips() {
    let dir = TempDir::new("pruned");
    let path = dir.path("idx.xtwig");
    let forest = fig1_book_document();
    let workload = vec![parse_xpath("/book[title='XML']//author[fn='jane']").unwrap()];
    let filter = xtwig::core::compress::workload_head_filter(&workload);
    let built = QueryEngine::build(
        Arc::new(forest),
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: 1024,
            head_filter_tags: Some(filter),
            ..Default::default()
        },
    );
    built.persist(&path).unwrap();
    let opened = QueryEngine::open(&path).unwrap();
    assert!(opened.datapaths().unwrap().is_pruned(), "pruned flag survives");
    assert_eq!(
        opened.structure_digest(Strategy::DataPaths),
        built.structure_digest(Strategy::DataPaths)
    );
    // Off-workload query still answered via retained FreeIndex rows.
    let twig = parse_xpath("//chapter[title = 'XML']/section").unwrap();
    let oracle = expected(opened.forest(), "//chapter[title = 'XML']/section");
    assert_eq!(opened.answer(&twig, Strategy::DataPaths).ids, oracle);
}

#[test]
fn service_opens_and_serves_from_disk() {
    use xtwig::service::{ServiceOptions, TwigService};
    let dir = TempDir::new("service");
    let path = dir.path("idx.xtwig");
    QueryEngine::build(Arc::new(fig1_book_document()), EngineOptions::default())
        .persist(&path)
        .unwrap();
    let svc = TwigService::open(&path, ServiceOptions::default())
        .expect("service opens a persisted index");
    let forest = fig1_book_document();
    for q in ["/book[title='XML']//author[fn='jane'][ln='doe']", "//section/head", "//title"] {
        let twig = parse_xpath(q).unwrap();
        let oracle = expected(&forest, q);
        for s in Strategy::ALL {
            let a = svc.execute(&twig, s).unwrap();
            assert_eq!(*a.ids, oracle, "{s} on {q}");
        }
    }
}

#[test]
fn persisted_file_is_deterministic() {
    // Persisting the same engine twice — and persisting a parallel
    // (sharded) build of the same forest — produces byte-identical
    // files, extending PR 3's determinism guarantee to disk.
    let dir = TempDir::new("determinism");
    let a = dir.path("a.xtwig");
    let b = dir.path("b.xtwig");
    let c = dir.path("c.xtwig");
    let opts = || EngineOptions { pool_pages: 512, ..Default::default() };
    let seq = QueryEngine::build(Arc::new(multi_book_forest()), opts());
    seq.persist(&a).unwrap();
    seq.persist(&b).unwrap();
    QueryEngine::build_parallel(Arc::new(multi_book_forest()), opts(), 3).persist(&c).unwrap();
    let a = std::fs::read(&a).unwrap();
    assert_eq!(a, std::fs::read(&b).unwrap(), "same engine, same bytes");
    assert_eq!(a, std::fs::read(&c).unwrap(), "sharded build, same bytes");
}
