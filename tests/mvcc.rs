//! Integration: snapshot-isolated MVCC maintenance (`xtwig-service`).
//!
//! Guards the concurrency contract this layer exists for: readers pin
//! an engine epoch and never block on writers; every committed
//! `apply_update` survives any interleaving of concurrent persist folds,
//! live and in the folded file; and answers under load are
//! byte-identical to a sequential oracle across all seven strategies.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use xtwig::prelude::*;
use xtwig::xml::TagId;

fn library_forest() -> XmlForest {
    let mut f = XmlForest::new();
    for i in 0..6 {
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
        b.leaf("year", if i < 3 { "2000" } else { "2005" });
        b.open("allauthors");
        for j in 0..3 {
            b.open("author");
            b.leaf("fn", ["jane", "john", "mary"][(i + j) % 3]);
            b.leaf("ln", ["doe", "poe"][(i * j) % 2]);
            b.close();
        }
        b.close();
        b.close();
        b.finish();
    }
    f
}

fn service() -> TwigService {
    TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        ServiceOptions::default(),
    )
}

fn author_tags(svc: &TwigService) -> Vec<TagId> {
    svc.with_engine(|e| {
        let dict = e.dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    })
}

/// The ops inserting one author node (id `10_000 + 2k`) whose fn leaf
/// holds the unique value `w{k}` — each committed round is a distinct,
/// individually checkable update.
fn round_ops(tags: &[TagId], k: u64) -> Vec<UpdateOp> {
    let author = 10_000 + 2 * k;
    vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 3, author], value: None },
        UpdateOp::InsertPath {
            tags: tags.to_vec(),
            ids: vec![1, 3, author, author + 1],
            value: Some(format!("w{k}")),
        },
    ]
}

/// Canonical byte encoding of an answer (sorted ids, fixed-width LE).
fn serialize(ids: &BTreeSet<u64>) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

/// A scratch directory unique to this process and test thread.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xtwig-mvcc-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn concurrent_updates_folds_and_readers_lose_nothing() {
    // A writer committing updates, a fold storm (persist in a loop) and
    // reader threads all interleave freely. Zero committed updates may
    // be lost, live or in the file a fold after the last commit wrote,
    // and every in-flight answer must be a consistent snapshot: either
    // empty (epoch predates the commit) or exactly the committed id —
    // never a torn in-between.
    const ROUNDS: u64 = 24;
    const READERS: usize = 3;
    let dir = scratch_dir("storm");
    let svc = Arc::new(service());
    let tags = author_tags(&svc);
    let committed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // Readers that have checked an answer: `stop` waits for all of them,
    // so a reader scheduled after the last commit still checks one.
    let started = Arc::new(AtomicUsize::new(0));

    let writer = {
        let (svc, tags, committed) = (svc.clone(), tags.clone(), committed.clone());
        std::thread::spawn(move || {
            for k in 0..ROUNDS {
                svc.apply_update(round_ops(&tags, k)).unwrap();
                committed.store(k + 1, Ordering::SeqCst);
            }
        })
    };
    let folder = {
        let (svc, stop, path) = (svc.clone(), stop.clone(), dir.join("storm.xtwig"));
        std::thread::spawn(move || {
            let mut folds = 0u32;
            while !stop.load(Ordering::SeqCst) {
                svc.persist(&path).unwrap();
                folds += 1;
            }
            folds
        })
    };
    let readers: Vec<_> = (0..READERS as u64)
        .map(|r| {
            let (svc, stop, committed, started) =
                (svc.clone(), stop.clone(), committed.clone(), started.clone());
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let horizon = committed.load(Ordering::SeqCst);
                    if horizon == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let k = (checked + r) % horizon;
                    let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
                    let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
                    let got: Vec<u64> = a.ids.iter().copied().collect();
                    assert!(
                        got.is_empty() || got == vec![10_000 + 2 * k],
                        "reader {r}: torn snapshot for w{k}: {got:?}"
                    );
                    checked += 1;
                    if checked == 1 {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                }
                checked
            })
        })
        .collect();

    writer.join().unwrap();
    // One more fold *after* the last commit: the file it writes must
    // hold every update.
    let path = dir.join("final.xtwig");
    svc.persist(&path).unwrap();
    // A reader that ended early panicked: its join below reports it.
    while started.load(Ordering::SeqCst) < READERS && !readers.iter().any(|r| r.is_finished()) {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    let folds = folder.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader did useful work");
    }

    // Zero lost updates, on every maintainable structure, live and reopened.
    let reopened = TwigService::open(&path, ServiceOptions::default()).unwrap();
    for k in 0..ROUNDS {
        let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            for (which, svc) in [("live", &*svc), ("reopened", &reopened)] {
                let a = svc.execute(&twig, s).unwrap();
                assert_eq!(
                    a.ids.iter().copied().collect::<Vec<_>>(),
                    vec![10_000 + 2 * k],
                    "{s}: update w{k} lost ({which})"
                );
            }
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.updates, ROUNDS);
    assert_eq!(stats.journal_ops, 2 * ROUNDS);
    assert_eq!(stats.folds, u64::from(folds) + 1);
    eprintln!("stress: {} folds raced {} updates", folds + 1, stats.updates);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn answers_under_concurrent_writes_match_the_sequential_oracle() {
    // Queries whose answers the writer's inserts do NOT touch must be
    // byte-identical to a pre-computed sequential oracle across all
    // seven strategies, no matter how many epochs publish mid-flight.
    const QUERIES: [&str; 5] = [
        "/book[title='XML']//author[fn='jane'][ln='doe']",
        "/book[title='XML']/year",
        "//author[fn='john']/ln",
        "/book[year='2000']/chapter/title",
        "/book[title='SQL']//ln[. = 'poe']",
    ];
    const CALLERS: usize = 6;
    let svc = TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        // Result cache off: every answer is a real execution against
        // whatever epoch its caller pinned.
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let tags = author_tags(&svc);
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    let oracle: Vec<Vec<u8>> = svc.with_engine(|engine| {
        twigs
            .iter()
            .flat_map(|t| Strategy::ALL.iter().map(|s| serialize(&engine.answer(t, *s).ids)))
            .collect()
    });
    let work: Vec<(&TwigPattern, Strategy)> =
        twigs.iter().flat_map(|t| Strategy::ALL.iter().map(move |s| (t, *s))).collect();
    let stop = AtomicBool::new(false);
    let commits = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut k = 0;
            while !stop.load(Ordering::SeqCst) {
                svc.apply_update(round_ops(&tags, k)).unwrap();
                k += 1;
            }
            k
        });
        // Six callers released together pull from one work list, so six
        // executions are in flight while epochs publish under them.
        for round in 0..4 {
            let next = AtomicUsize::new(0);
            let start = Barrier::new(CALLERS);
            std::thread::scope(|callers| {
                for _ in 0..CALLERS {
                    callers.spawn(|| {
                        start.wait();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((t, s)) = work.get(i) else { break };
                            let a = svc.execute(t, *s).unwrap();
                            assert_eq!(
                                serialize(&a.ids),
                                oracle[i],
                                "round {round}: answer {i} diverged from the sequential oracle"
                            );
                        }
                    });
                }
            });
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap()
    });
    assert!(commits > 0, "the writer must actually have raced the readers");
}

#[test]
fn a_commit_publishes_a_warm_epoch_and_leaves_the_pinned_one_intact() {
    // By exact counts, not timings: after a commit the new epoch's
    // pools already hold what the old epoch's held, so re-running a
    // warmed query set may read physically only what the commit itself
    // replaced (pages it copied on first write, pages it allocated).
    const QUERIES: [&str; 4] = [
        "/book[title='XML']//author[fn='jane'][ln='doe']",
        "//author[fn='john']/ln",
        "/book[title='SQL']//ln[. = 'poe']",
        "/book[year='2005']/title",
    ];
    const MAINTAINED: [Strategy; 2] = [Strategy::RootPaths, Strategy::DataPaths];
    let svc = TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let tags = author_tags(&svc);
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    // One pass over the set: the answers, and the physical reads they cost.
    let pass = |svc: &TwigService| -> (Vec<Vec<u8>>, u64) {
        let mut reads = 0;
        let answers = twigs
            .iter()
            .flat_map(|t| MAINTAINED.iter().map(move |s| (t, *s)))
            .map(|(t, s)| {
                let a = svc.execute(t, s).unwrap();
                reads += a.metrics.physical_reads;
                serialize(&a.ids)
            })
            .collect();
        (answers, reads)
    };
    // Pages copied on first write and pages allocated, over both pools.
    let replaced = |svc: &TwigService| -> u64 {
        svc.with_engine(|e| {
            e.pool_counters()
                .iter()
                .filter(|(name, _)| ["rootpaths", "datapaths"].contains(name))
                .map(|(_, c)| c.cow_copies() + c.snapshot().allocations)
                .sum()
        })
    };

    let (oracle, _) = pass(&svc);
    let (again, warm_reads) = pass(&svc);
    assert_eq!(again, oracle);
    assert_eq!(warm_reads, 0, "the set fits the pools: a second pass is all hits");

    let before = replaced(&svc);
    // Pin the pre-commit epoch across the commit, as an in-flight
    // reader would, and query it once the new epoch is live.
    let pinned = svc.with_engine(|old| {
        svc.apply_update(round_ops(&tags, 0)).unwrap();
        twigs
            .iter()
            .flat_map(|t| MAINTAINED.iter().map(move |s| serialize(&old.answer(t, *s).ids)))
            .collect::<Vec<_>>()
    });
    assert_eq!(pinned, oracle, "the pinned epoch answers byte-identically after the commit");
    let commit_replaced = replaced(&svc) - before;
    assert!(commit_replaced > 0, "the commit rewrote shared pages");

    let (after, reads) = pass(&svc);
    assert_eq!(after, oracle, "the insert touches none of these answers");
    assert!(
        reads <= commit_replaced,
        "new epoch read {reads} pages physically; the commit replaced only {commit_replaced}"
    );
    let w0 = parse_xpath("//author[fn='w0']").unwrap();
    for s in MAINTAINED {
        let a = svc.execute(&w0, s).unwrap();
        assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![10_000], "{s}");
    }
}

#[test]
fn service_persist_folds_updates_and_reopens_for_serving() {
    // update → persist (fold) → TwigService::open: the reopened service
    // serves the folded updates on every strategy that can see them,
    // and the untouched corpus on all seven.
    let dir = scratch_dir("fold");
    let path = dir.join("svc.xtwig");
    let svc = service();
    let tags = author_tags(&svc);
    svc.apply_update(round_ops(&tags, 0)).unwrap();
    svc.apply_update(round_ops(&tags, 1)).unwrap();
    svc.persist(&path).unwrap();
    assert_eq!(svc.stats().folds, 1);

    let reopened = TwigService::open(&path, ServiceOptions::default()).unwrap();
    for k in 0..2u64 {
        let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = reopened.execute(&twig, s).unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![10_000 + 2 * k],
                "{s}: folded update w{k} missing after reopen"
            );
        }
    }
    let jane = parse_xpath("//author[fn='jane']").unwrap();
    let expected = reopened.with_engine(|e| e.answer(&jane, Strategy::RootPaths).ids);
    for s in Strategy::ALL {
        let a = reopened.execute(&jane, s).unwrap();
        assert_eq!(*a.ids, expected, "{s}: corpus answer diverged after fold+reopen");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
