//! End-to-end wire-protocol suite: a real TCP server over a persisted
//! multi-index catalog, exercised by real clients. The core assertion
//! is that answers over the wire are byte-identical to in-process
//! [`TwigService`] execution — for every built strategy, under
//! concurrent clients, and while maintenance transactions commit —
//! plus the failure paths: typed errors for malformed frames, unknown
//! indexes/tags, unbuilt strategies, and a graceful shutdown that
//! leaves nothing running.

use std::path::PathBuf;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::net::frame::{read_frame, write_frame};
use xtwig::net::{Client, ClientError, ErrorCode, Response, Server, ServerHandle, WireOp};
use xtwig::parse_xpath;
use xtwig::service::{Catalog, CatalogOptions, ServiceOptions, TwigService};
use xtwig::xml::tree::fig1_book_document;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "xtwig-network-{label}-{}-{:?}",
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

/// Persists a fig1 index under `name` with the given strategies.
fn persist_fig1(dir: &TempDir, name: &str, strategies: Vec<Strategy>) -> PathBuf {
    let engine = QueryEngine::build(
        fig1_book_document(),
        EngineOptions { strategies, pool_pages: 256, ..Default::default() },
    );
    let path = dir.path(&format!("{name}.xtwig"));
    engine.persist(&path).unwrap();
    path
}

/// Starts a server on an ephemeral port; returns its handle and the
/// thread running the accept loop.
fn start_server(catalog: Catalog) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", Arc::new(catalog)).unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join)
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect_with_timeout(handle.addr(), Some(std::time::Duration::from_secs(30))).unwrap()
}

const QUERIES: [&str; 4] = [
    "/book[title='XML']//author[fn='jane'][ln='doe']",
    "//author[fn='jane']",
    "/book/title",
    "//allauthors/author[ln='doe']",
];

#[test]
fn wire_answers_are_byte_identical_to_in_process_for_every_strategy() {
    let dir = TempDir::new("identical");
    let path = persist_fig1(&dir, "fig1", Strategy::ALL.to_vec());

    // Independent in-process service over the same index file: the
    // reference the wire must match exactly.
    let reference = TwigService::open(&path, ServiceOptions::default()).unwrap();

    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);
    let mut client = connect(&handle);

    for xpath in QUERIES {
        let twig = parse_xpath(xpath).unwrap();
        for strategy in Strategy::ALL {
            let expected: Vec<u64> =
                reference.execute(&twig, strategy).unwrap().ids.iter().copied().collect();
            let wire = client.query("fig1", xpath, strategy.label()).unwrap();
            assert_eq!(wire.ids, expected, "{xpath} under {}", strategy.label());
            assert_eq!(wire.strategy, strategy.label());
        }
        // `auto` resolves to a concrete strategy server-side and must
        // agree with the in-process optimizer's pick.
        let auto_expected = reference.execute(&twig, Strategy::Auto).unwrap();
        let wire = client.query("fig1", xpath, "auto").unwrap();
        assert_eq!(
            wire.ids,
            auto_expected.ids.iter().copied().collect::<Vec<u64>>(),
            "{xpath} under auto"
        );
        assert_ne!(wire.strategy, "auto", "answer reports the concrete pick");
    }

    handle.stop();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_all_see_identical_answers() {
    let dir = TempDir::new("concurrent");
    let path = persist_fig1(&dir, "fig1", Strategy::ALL.to_vec());
    let reference = TwigService::open(&path, ServiceOptions::default()).unwrap();

    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);

    let expected: Vec<Vec<u64>> = QUERIES
        .iter()
        .map(|q| {
            let twig = parse_xpath(q).unwrap();
            reference.execute(&twig, Strategy::RootPaths).unwrap().ids.iter().copied().collect()
        })
        .collect();
    let expected = Arc::new(expected);

    let clients: Vec<_> = (0..8)
        .map(|worker| {
            let handle = handle.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = connect(&handle);
                for round in 0..20 {
                    let qi = (worker + round) % QUERIES.len();
                    // Alternate labels so cache hits and misses mix.
                    let label = if round % 2 == 0 { "RP" } else { "auto" };
                    let wire = client.query("fig1", QUERIES[qi], label).unwrap();
                    assert_eq!(wire.ids, expected[qi], "{} under {label}", QUERIES[qi]);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    handle.stop();
    join.join().unwrap();
}

/// Inserts `/book/allauthors/author[fn='ada']` (author id 900). Wire
/// ops carry tag *names*; the server resolves them through the index's
/// dictionary.
fn ada_ops() -> Vec<WireOp> {
    let books = |tags: &[&str]| tags.iter().map(|t| t.to_string()).collect::<Vec<_>>();
    vec![
        WireOp {
            insert: true,
            tags: books(&["book", "allauthors", "author"]),
            ids: vec![1, 5, 900],
            value: None,
        },
        WireOp {
            insert: true,
            tags: books(&["book", "allauthors", "author", "fn"]),
            ids: vec![1, 5, 900, 901],
            value: Some("ada".into()),
        },
    ]
}

#[test]
fn wire_updates_commit_while_concurrent_clients_read() {
    let dir = TempDir::new("update");
    // RP + DP only: the maintainable strategies, so the update applies
    // everywhere the query can run.
    let path = persist_fig1(&dir, "fig1", vec![Strategy::RootPaths, Strategy::DataPaths]);
    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);

    // Readers hammer the index across the update; snapshot isolation
    // means every answer is either entirely-before or entirely-after.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = handle.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = connect(&handle);
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let wire = client.query("fig1", "//author[fn='ada']", "RP").unwrap();
                    assert!(
                        wire.ids.is_empty() || wire.ids == vec![900],
                        "torn answer: {:?}",
                        wire.ids
                    );
                }
            })
        })
        .collect();

    let mut client = connect(&handle);
    let before = client.query("fig1", "//author[fn='ada']", "RP").unwrap();
    assert!(before.ids.is_empty());

    let generation = client.update("fig1", ada_ops()).unwrap();
    assert_eq!(generation, 1);

    // Post-commit, the stale cached empty answer must not be served
    // (a cache hit is fine — but only of the post-update answer, which
    // a concurrent reader may already have repopulated).
    let after = client.query("fig1", "//author[fn='ada']", "RP").unwrap();
    assert_eq!(after.ids, vec![900]);

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }
    handle.stop();
    join.join().unwrap();
}

#[test]
fn every_failure_path_is_a_typed_error() {
    let dir = TempDir::new("errors");
    // RP-only index: lets us hit StrategyNotBuilt with a real request.
    let path = persist_fig1(&dir, "fig1", vec![Strategy::RootPaths]);
    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);
    let mut client = connect(&handle);

    let code_of = |r: Result<xtwig::net::WireAnswer, ClientError>| match r {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a typed server error, got {other:?}"),
    };
    assert_eq!(code_of(client.query("nope", "/book", "RP")), ErrorCode::UnknownIndex);
    assert_eq!(code_of(client.query("fig1", "/book[", "RP")), ErrorCode::BadQuery);
    assert_eq!(code_of(client.query("fig1", "/book", "JI")), ErrorCode::StrategyNotBuilt);
    assert_eq!(code_of(client.query("fig1", "/book", "warp-drive")), ErrorCode::Malformed);
    match client.update(
        "fig1",
        vec![WireOp { insert: true, tags: vec!["martian".into()], ids: vec![7], value: None }],
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTag),
        other => panic!("expected UnknownTag, got {other:?}"),
    }
    // Ops naming no root path of a document the parser accepts — no
    // step, a path deeper than the parser allows, ids that descend —
    // or ids spaced so far apart that their IdList outgrows an index
    // value are refused before they reach an index.
    let path = |steps: usize, ids: Vec<u64>| WireOp {
        insert: true,
        tags: vec!["book".into(); steps],
        ids,
        value: None,
    };
    for op in [
        path(0, Vec::new()),
        path(5_000, (1..=5_000).collect()),
        path(205, (1..=205).rev().collect()),
        path(205, (1..=205).map(|i| i << 56).collect()),
    ] {
        match client.update("fig1", vec![op]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // The connection survived every well-framed error above.
    client.ping().unwrap();

    handle.stop();
    join.join().unwrap();
}

#[test]
fn garbage_bytes_get_a_typed_error_then_disconnect_but_bad_payloads_do_not() {
    let dir = TempDir::new("malformed");
    let path = persist_fig1(&dir, "fig1", vec![Strategy::RootPaths]);
    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);

    // Raw garbage: typed Malformed error, then the server drops the
    // connection (framing is unrecoverable).
    let mut client = connect(&handle);
    match client.send_raw(b"once upon a time").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(client.ping().is_err(), "desynchronized connection must be dropped");

    // A well-framed payload with an unknown opcode: typed error, and
    // the connection keeps serving.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    write_frame(&mut stream, 0x7f, b"").unwrap();
    let frame = read_frame(&mut stream).unwrap();
    match Response::decode(&frame).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    let (op, payload) = xtwig::net::Request::Ping.encode();
    write_frame(&mut stream, op, &payload).unwrap();
    let frame = read_frame(&mut stream).unwrap();
    assert_eq!(Response::decode(&frame).unwrap(), Response::Pong);

    handle.stop();
    join.join().unwrap();
}

#[test]
fn client_shutdown_request_stops_the_server_gracefully() {
    let dir = TempDir::new("shutdown");
    let path = persist_fig1(&dir, "fig1", vec![Strategy::RootPaths]);
    let catalog = Catalog::new(CatalogOptions::default());
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);

    let mut client = connect(&handle);
    client.query("fig1", "/book", "RP").unwrap();
    client.shutdown().unwrap();
    join.join().unwrap(); // accept loop exits; nothing leaks

    // The listener is gone: new connections are refused (allow the OS
    // a moment to tear the socket down).
    let refused = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::net::TcpStream::connect(handle.addr()).is_err()
    });
    assert!(refused, "listener still accepting after shutdown");
}

#[test]
fn a_slow_wire_query_is_attributable_end_to_end() {
    let dir = TempDir::new("attribution");
    let path = persist_fig1(&dir, "fig1", vec![Strategy::RootPaths]);
    // Zero slow threshold: every query crosses it, so ordinary wire
    // traffic lands in both the journal and the trace ring.
    let catalog = Catalog::new(CatalogOptions {
        service: ServiceOptions { slow_query_micros: Some(0), ..Default::default() },
    });
    catalog.register("fig1", &path);
    let (handle, join) = start_server(catalog);
    let mut client = connect(&handle);

    // The client stamps every request; the server echoes the id back
    // on the answer's envelope.
    let wire = client.query("fig1", "//author[fn='jane']", "RP").unwrap();
    assert!(wire.request_id > 0, "client must stamp a nonzero request id");
    assert_eq!(wire.request_id, client.last_request_id());

    // The journal attributes the slow query to that id and to a
    // concrete peer address (alongside the connection's open event).
    let events = client.events(0, 256).unwrap();
    assert!(events.iter().any(|e| e.kind == "conn-open"), "journal missing conn-open");
    let slow = events
        .iter()
        .find(|e| {
            e.kind == "slow-query" && e.detail.contains(&format!("request_id={}", wire.request_id))
        })
        .unwrap_or_else(|| panic!("no slow-query for request {}: {events:?}", wire.request_id));
    assert!(slow.detail.contains("peer=127.0.0.1:"), "{}", slow.detail);
    assert!(slow.detail.contains("author"), "{}", slow.detail);

    // The captured span tree is retrievable by the same id...
    let trace = client.trace("fig1", wire.request_id).unwrap();
    assert!(trace.contains(&format!("request {}", wire.request_id)), "{trace}");
    assert!(trace.contains("strategy RP"), "{trace}");

    // ...and an id nobody captured is a typed error, not a hang.
    match client.trace("fig1", u64::MAX) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTrace),
        other => panic!("expected UnknownTrace, got {other:?}"),
    }

    // Explicit sampling works even when nothing is slow: a second
    // catalog entry would be overkill, so just verify the sampled path
    // on this one — the trace ring keeps the newest record per id.
    client.set_sampling(true);
    let sampled = client.query("fig1", "/book/title", "RP").unwrap();
    client.set_sampling(false);
    let trace = client.trace("fig1", sampled.request_id).unwrap();
    assert!(trace.contains(&format!("request {}", sampled.request_id)), "{trace}");

    handle.stop();
    join.join().unwrap();
}

#[test]
fn catalog_serves_many_indexes_by_name_over_one_connection() {
    let dir = TempDir::new("multi");
    persist_fig1(&dir, "alpha", vec![Strategy::RootPaths]);
    persist_fig1(&dir, "beta", Strategy::ALL.to_vec());
    // Open-on-demand via directory scan.
    let catalog = Catalog::scan_dir(&dir.0, CatalogOptions::default()).unwrap();
    let (handle, join) = start_server(catalog);
    let mut client = connect(&handle);

    let listing = client.catalog().unwrap();
    assert!(listing.contains("alpha") && listing.contains("beta"), "{listing}");

    for round in 0..3 {
        for index in ["alpha", "beta"] {
            let wire = client.query(index, "//author[fn='jane']", "RP").unwrap();
            assert!(!wire.ids.is_empty(), "round {round}, index {index}");
        }
    }
    // Both indexes also expose their own metrics and stats.
    assert!(client.metrics("alpha").unwrap().contains("xtwig_queries_submitted_total"));
    assert!(client.stats("beta").unwrap().contains("\"admission_limit\""));

    handle.stop();
    join.join().unwrap();
}

#[test]
fn an_update_acked_over_the_wire_outlives_queries_to_ten_other_indexes() {
    let dir = TempDir::new("keep");
    persist_fig1(&dir, "books", vec![Strategy::RootPaths, Strategy::DataPaths]);
    let others: Vec<String> = (0..10).map(|i| format!("other{i}")).collect();
    for name in &others {
        persist_fig1(&dir, name, vec![Strategy::RootPaths]);
    }
    let catalog = Catalog::scan_dir(&dir.0, CatalogOptions::default()).unwrap();
    let (handle, join) = start_server(catalog);
    let mut client = connect(&handle);

    let acked = client.update("books", ada_ops()).unwrap();
    assert_eq!(client.query("books", "//author[fn='ada']", "RP").unwrap().ids, vec![900]);
    for name in &others {
        assert!(!client.query(name, "/book/title", "RP").unwrap().ids.is_empty(), "{name}");
    }
    let after = client.query("books", "//author[fn='ada']", "RP").unwrap();
    assert_eq!(after.ids, vec![900], "the acked update is still served");
    let stats = client.stats("books").unwrap();
    assert!(stats.contains(&format!("\"generation\": {acked},")), "acked {acked}: {stats}");

    handle.stop();
    join.join().unwrap();
}
