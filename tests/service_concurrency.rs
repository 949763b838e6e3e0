//! Integration: the concurrent query service (`xtwig-service`).
//!
//! Guards the serving-layer contract: many caller threads over one
//! shared engine answer exactly like the naive matcher and like
//! sequential execution, across all seven §5.1.2 strategies; admission
//! accounting balances under overload; and the §7 updates path
//! invalidates cached results via the generation counter.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use xtwig::prelude::*;
use xtwig::xml::naive;

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
        b.open("chapter");
        b.leaf("title", "Intro");
        b.open("section");
        b.leaf("head", if i == 0 { "Origins" } else { "Basics" });
        b.close();
        b.close();
        b.close();
        b.finish();
    }
    f
}

const QUERIES: [&str; 8] = [
    "/book[title='XML']//author[fn='jane'][ln='doe']",
    "/book[title='XML']/year",
    "//author[fn='john']/ln",
    "//author[fn='mary']",
    "/book[year='2000']/chapter/title",
    "/book//section[head='Origins']",
    "//section/head",
    "/book[title='SQL']//ln[. = 'poe']",
];

#[test]
fn concurrent_submissions_agree_with_naive_across_all_strategies() {
    let forest = library_forest();
    let expected: Vec<BTreeSet<u64>> = QUERIES
        .iter()
        .map(|q| {
            let twig = parse_xpath(q).unwrap();
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect()
        })
        .collect();
    let service = TwigService::build(
        forest,
        EngineOptions { pool_pages: 512, ..Default::default() },
        ServiceOptions::default(),
    );
    let work: Vec<(usize, TwigPattern, Strategy)> = QUERIES
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| Strategy::ALL.iter().map(move |s| (qi, parse_xpath(q).unwrap(), *s)))
        .collect();
    // Two passes so the second round exercises the result cache; the
    // answers must be identical either way. Eight callers released
    // together pull from one work list, so eight queries are in flight
    // over the one engine.
    for round in 0..2 {
        let next = AtomicUsize::new(0);
        let start = Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    start.wait();
                    while let Some((qi, twig, s)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let answer = service.execute(twig, *s).unwrap();
                        assert_eq!(
                            *answer.ids, expected[*qi],
                            "round {round}: {s} disagrees with naive on {}",
                            QUERIES[*qi]
                        );
                    }
                });
            }
        });
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 2 * work.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert!(stats.result_cache.hits >= work.len() as u64);
}

/// Caller threads the concurrent tests put behind one service.
const CALLERS: usize = 8;

#[test]
fn overload_is_shed_at_the_door_and_the_accounting_balances() {
    let service = TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        // Result cache off so every admitted call holds its permit for
        // a real execution.
        ServiceOptions { max_in_flight: 2, result_cache_capacity: 0, ..Default::default() },
    );
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    let (answered, shed) = (AtomicU64::new(0), AtomicU64::new(0));
    // Bursts of eight callers against a budget of two, repeated until a
    // rejection has been seen (bounded; one burst is normally enough).
    for _burst in 0..200 {
        let start = Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for c in 0..CALLERS {
                let (service, twigs, start, answered, shed) =
                    (&service, &twigs, &start, &answered, &shed);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        let s = Strategy::ALL[(c + i) % Strategy::ALL.len()];
                        match service.execute(&twigs[i % twigs.len()], s) {
                            Ok(_) => answered.fetch_add(1, Ordering::Relaxed),
                            Err(ServiceError::Overloaded { limit: 2, .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        };
                    }
                });
            }
        });
        if shed.load(Ordering::Relaxed) > 0 {
            break;
        }
    }
    let (answered, shed) = (answered.into_inner(), shed.into_inner());
    assert!(answered > 0 && shed > 0, "answered {answered}, shed {shed}");
    let stats = service.stats();
    assert_eq!(stats.overloaded, shed, "every refusal the callers saw, and no other");
    assert_eq!(stats.submitted, answered, "a refused call is never counted as admitted");
    assert_eq!(stats.submitted, stats.completed + stats.failed);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn eight_callers_match_sequential_execution_byte_for_byte() {
    let forest = library_forest();
    let service = TwigService::build(
        forest,
        EngineOptions { pool_pages: 512, ..Default::default() },
        // Result cache off: every concurrent answer is a real execution.
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    // Sequential baseline through the same engine.
    let sequential: Vec<Vec<u8>> = service.with_engine(|engine| {
        twigs
            .iter()
            .flat_map(|t| Strategy::ALL.iter().map(|s| serialize(&engine.answer(t, *s).ids)))
            .collect()
    });
    // One caller thread per query (eight), released together.
    assert_eq!(twigs.len(), CALLERS);
    let start = Barrier::new(CALLERS);
    let mut all: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (qi, twig) in twigs.iter().enumerate() {
            let (service, start) = (&service, &start);
            handles.push(scope.spawn(move || {
                start.wait();
                let mut out = Vec::new();
                for (si, s) in Strategy::ALL.iter().enumerate() {
                    let a = service.execute(twig, *s).unwrap();
                    out.push((qi * Strategy::ALL.len() + si, serialize(&a.ids)));
                }
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    all.sort_by_key(|(i, _)| *i);
    for (i, bytes) in all {
        assert_eq!(bytes, sequential[i], "answer {i} not byte-identical");
    }
}

/// Canonical byte encoding of an answer (sorted ids, fixed-width LE).
fn serialize(ids: &BTreeSet<u64>) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

#[test]
fn update_invalidates_cached_results_after_generation_bump() {
    let service = TwigService::build(
        library_forest(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 512,
            ..Default::default()
        },
        ServiceOptions::default(),
    );
    let twig = parse_xpath("//author[fn='ada']").unwrap();
    // Prime the cache with the (empty) answer, twice to confirm a hit.
    assert!(service.execute(&twig, Strategy::RootPaths).unwrap().ids.is_empty());
    assert!(service.execute(&twig, Strategy::RootPaths).unwrap().from_cache);
    assert_eq!(service.generation(), 0);
    // §7: insert /book/allauthors/author[fn='ada'].
    let tags: Vec<_> = service.with_engine(|engine| {
        let dict = engine.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    });
    service.apply_update(vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 3, 7_000], value: None },
        UpdateOp::InsertPath { tags, ids: vec![1, 3, 7_000, 7_001], value: Some("ada".into()) },
    ]);
    assert_eq!(service.generation(), 1);
    let after = service.execute(&twig, Strategy::RootPaths).unwrap();
    assert!(!after.from_cache, "generation bump must stale the cached empty result");
    assert_eq!(after.ids.iter().copied().collect::<Vec<_>>(), vec![7_000]);
    let stats = service.stats();
    assert_eq!(stats.updates, 1);
    assert!(stats.result_cache.invalidated >= 1);
}
