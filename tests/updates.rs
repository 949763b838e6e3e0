//! Integration: index maintenance (paper §7).
//!
//! "Updating the ROOTPATHS and DATAPATHS indices requires updating
//! multiple index entries … however, ROOTPATHS and DATAPATHS themselves
//! could be used to speed up the lookup of the entries to update."

use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::core::datapaths::{DataPaths, DataPathsOptions};
use xtwig::core::family::PcSubpathQuery;
use xtwig::core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig::parse_xpath;
use xtwig::storage::BufferPool;
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::{TagId, XmlForest};
use xtwig::{EngineOptions, ServiceOptions, Strategy, TwigService, UpdateOp};

/// Collects the IdLists a streaming scan lends.
fn collect(scan: impl FnOnce(&mut dyn FnMut(&[u8], &[u64]) -> ControlFlow<()>)) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    scan(&mut |_, ids| {
        out.push(ids.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// The IdList of every ROOTPATHS match of `q`.
fn rp_free(rp: &RootPaths, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
    collect(|sink| {
        rp.for_each_free(q, &mut Vec::new(), None, false, sink);
    })
}

/// The IdList of every DATAPATHS match of `q` from the document root.
fn dp_free(dp: &DataPaths, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
    collect(|sink| {
        dp.for_each_free(q, &mut Vec::new(), None, false, sink);
    })
}

/// The IdList of every DATAPATHS match of `q` under `head`, the head
/// first.
fn dp_bound(dp: &DataPaths, head: u64, head_tag: TagId, q: &PcSubpathQuery) -> Vec<Vec<u64>> {
    let mut probe = dp.bound_probe(head_tag, &q.tags, q.anchored, q.value.as_deref());
    collect(|sink| dp.for_each_bound(&mut probe, head, &mut Vec::new(), sink))
}

#[test]
fn inserting_an_author_adds_all_prefix_entries() {
    // §7's example: "inserting an author with a certain name to an
    // existing book requires inserting all prefixes of the
    // /book/author/name path".
    let mut forest = fig1_book_document();
    let mut rp = RootPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(2048)),
        RootPathsOptions::default(),
    );
    let rows_before = rp.rows();
    let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
        .iter()
        .map(|t| forest.dict_mut().intern(t))
        .collect();
    // New author under allauthors (book=1, allauthors=5), with fresh ids.
    rp.insert_path(&tags[..3], &[1, 5, 900], None); // the author node
    rp.insert_path(&tags, &[1, 5, 900, 901], Some("ada")); // its fn

    // 3 entries: author structural, fn structural, fn valued.
    assert_eq!(rp.rows(), rows_before + 3);
    let q = PcSubpathQuery::resolve(forest.dict(), &["author", "fn"], false, Some("ada")).unwrap();
    assert_eq!(rp_free(&rp, &q), vec![vec![1, 5, 900, 901]]);
}

#[test]
fn deletes_are_self_locating() {
    // §7: "we could use the author name and the schema path to locate the
    // authors with the given name, and extract the book IDs from the
    // matching entries" — no joins needed.
    let forest = fig1_book_document();
    let mut rp = RootPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(2048)),
        RootPathsOptions::default(),
    );
    let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
        .iter()
        .map(|t| forest.dict().lookup(t).unwrap())
        .collect();
    // Locate jane entries via one lookup, then delete the one under
    // book 1 / author 41.
    let q = PcSubpathQuery::resolve(forest.dict(), &["author", "fn"], false, Some("jane")).unwrap();
    let before = rp_free(&rp, &q);
    assert_eq!(before.len(), 2);
    let victim = before.into_iter().find(|ids| ids[2] == 41).unwrap();
    assert!(rp.delete_path(&tags, &victim, Some("jane")));
    let after = rp_free(&rp, &q);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0][2], 6, "the other jane remains");
    // Deleting again is a no-op.
    assert!(!rp.delete_path(&tags, &victim, Some("jane")));
}

#[test]
fn update_cost_scales_with_path_depth() {
    // Each inserted node costs one entry per value + structural row —
    // but a node insertion into ROOTPATHS touches only its own path
    // prefixes, independent of document size.
    let forest = fig1_book_document();
    let mut rp = RootPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(2048)),
        RootPathsOptions::default(),
    );
    let mut dict = forest.dict().clone();
    let deep_tags: Vec<TagId> =
        ["book", "chapter", "section", "p"].iter().map(|t| dict.intern(t)).collect();
    let rows0 = rp.rows();
    // Insert a subtree of 3 nodes (chapter-2/section/p): 3 insert_path
    // calls, one per node, exactly like §7 describes.
    rp.insert_path(&deep_tags[..2], &[1, 800], None);
    rp.insert_path(&deep_tags[..3], &[1, 800, 801], None);
    rp.insert_path(&deep_tags, &[1, 800, 801, 802], Some("text"));
    assert_eq!(rp.rows(), rows0 + 4); // 3 structural + 1 valued
    rp.tree().check_invariants();
}

// ---------------------------------------------------------------------------
// DATAPATHS maintenance (§7) — the ROADMAP flagged this path as untested
// relative to ROOTPATHS. A DATAPATHS insertion touches one FreeIndex row
// plus one BoundIndex row per ancestor position, and both probe shapes
// must observe the change.
// ---------------------------------------------------------------------------

#[test]
fn datapaths_insertion_adds_free_and_bound_rows() {
    let mut forest = fig1_book_document();
    let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
        .iter()
        .map(|t| forest.dict_mut().intern(t))
        .collect();
    let mut dp = DataPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(4096)),
        DataPathsOptions::default(),
    );
    let rows0 = dp.rows();
    // New author (id 900) with fn "ada" (id 901) under allauthors (5).
    dp.insert_path(&tags[..3], &[1, 5, 900], None);
    dp.insert_path(&tags, &[1, 5, 900, 901], Some("ada"));
    // author: 1 free + 3 bound; fn: (1 free + 4 bound) x2 value variants.
    assert_eq!(dp.rows(), rows0 + 4 + 10);
    dp.tree().check_invariants();

    let q = PcSubpathQuery::resolve(forest.dict(), &["author", "fn"], false, Some("ada")).unwrap();
    // FreeIndex probe sees the new path with its full root IdList.
    assert_eq!(dp_free(&dp, &q), vec![vec![1, 5, 900, 901]]);
    // BoundIndex probes see it from every ancestor position.
    let allauthors = forest.dict().lookup("allauthors").unwrap();
    assert_eq!(dp_bound(&dp, 5, allauthors, &q), vec![vec![5, 900, 901]]);
    let book = forest.dict().lookup("book").unwrap();
    // The stored row is the full path from the head, so the match
    // carries every step book/allauthors/author/fn.
    assert_eq!(dp_bound(&dp, 1, book, &q), vec![vec![1, 5, 900, 901]]);
}

#[test]
fn datapaths_deletes_are_self_locating() {
    // §7's argument applies to DATAPATHS too: the value plus schema path
    // locate every row of the victim without any join.
    let forest = fig1_book_document();
    let tags: Vec<TagId> = ["book", "allauthors", "author", "fn"]
        .iter()
        .map(|t| forest.dict().lookup(t).unwrap())
        .collect();
    let mut dp = DataPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(4096)),
        DataPathsOptions::default(),
    );
    let rows0 = dp.rows();
    let q = PcSubpathQuery::resolve(forest.dict(), &["author", "fn"], false, Some("jane")).unwrap();
    let before = dp_free(&dp, &q);
    assert_eq!(before.len(), 2);
    let victim = before.into_iter().find(|ids| ids[2] == 41).unwrap();
    assert!(dp.delete_path(&tags, &victim, Some("jane")));
    // fn at depth 4: (1 free + 4 bound) x2 value variants removed.
    assert_eq!(dp.rows(), rows0 - 10);
    let after = dp_free(&dp, &q);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0][2], 6, "the other jane remains");
    // The bound view agrees.
    let allauthors = forest.dict().lookup("allauthors").unwrap();
    assert_eq!(dp_bound(&dp, 5, allauthors, &q).len(), 1);
    assert!(dp_bound(&dp, 41, tags[2], &q).is_empty());
    // Deleting again is a no-op.
    assert!(!dp.delete_path(&tags, &victim, Some("jane")));
    dp.tree().check_invariants();
}

#[test]
fn datapaths_maintenance_under_service_apply_update() {
    // The serving-layer path: apply_update commits UpdateOps against a
    // copy-on-write fork, publishes it as the next epoch, and both
    // strategies must answer consistently afterwards.
    let svc = TwigService::build(
        fig1_book_document(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 512,
            ..Default::default()
        },
        ServiceOptions::default(),
    );
    let twig = parse_xpath("//author[fn='ada']").unwrap();
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        assert!(svc.execute(&twig, s).unwrap().ids.is_empty());
    }
    let tags: Vec<TagId> = svc.with_engine(|e| {
        ["book", "allauthors", "author", "fn"]
            .iter()
            .map(|t| e.forest().dict().lookup(t).unwrap())
            .collect()
    });
    svc.apply_update(vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 5, 900], value: None },
        UpdateOp::InsertPath {
            tags: tags.clone(),
            ids: vec![1, 5, 900, 901],
            value: Some("ada".into()),
        },
    ]);
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        let a = svc.execute(&twig, s).unwrap();
        assert!(!a.from_cache, "{s}: stale cached empty answer served");
        assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![900], "{s}");
    }
    // Branching query exercising the join paths over the updated index.
    let branching = parse_xpath("/book[title='XML']//author[fn='ada']").unwrap();
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        let a = svc.execute(&branching, s).unwrap();
        assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![900], "{s}");
    }
    // Delete through the same path; both strategies converge to empty.
    svc.apply_update(vec![UpdateOp::DeletePath {
        tags,
        ids: vec![1, 5, 900, 901],
        value: Some("ada".into()),
    }]);
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        assert!(svc.execute(&twig, s).unwrap().ids.is_empty(), "{s}");
    }
    assert_eq!(svc.generation(), 2);
}

/// `lib` over two shelves. Pre-order ids: `lib` 1; shelf 2 holding book
/// B = 3 (title `T`, no author) and two authored books; shelf A = 11
/// holding one more. The largest id at each depth: 1, 11, 12, 14.
fn shelves() -> XmlForest {
    let mut forest = XmlForest::new();
    let mut b = forest.builder();
    b.open("lib");
    b.open("shelf");
    b.open("book");
    b.leaf("title", "T");
    b.close();
    for name in ["a", "b"] {
        b.open("book");
        b.leaf("title", "U");
        b.leaf("author", name);
        b.close();
    }
    b.close();
    b.open("shelf");
    b.open("book");
    b.leaf("title", "U");
    b.leaf("author", "c");
    b.close();
    b.close();
    b.close();
    b.finish();
    let select = |xpath: &str| -> Vec<u64> {
        let twig = parse_xpath(xpath).unwrap();
        xtwig::xml::naive::select(&forest, &twig).into_iter().map(|n| n.0).collect()
    };
    assert_eq!(select("/lib/shelf"), [2, 11]);
    assert_eq!(select("//book[title = 'T']"), [3]);
    assert_eq!(select("//book/author"), [7, 10, 14]);
    forest
}

/// A service over [`shelves`] with ROOTPATHS and DATAPATHS, and the tags
/// `lib`, `shelf`, `book`, `title`, `author`.
fn shelf_service() -> (TwigService, [TagId; 5]) {
    let options = EngineOptions {
        strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
        pool_pages: 256,
        ..Default::default()
    };
    let svc = TwigService::build(
        shelves(),
        options,
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let tags = ["lib", "shelf", "book", "title", "author"]
        .map(|t| svc.with_engine(|e| e.forest().dict().lookup(t).unwrap()));
    (svc, tags)
}

/// A merge join may seek past the index entries below its next left key
/// only while each run of entries is in document order, and inserted ids
/// are the client's. Here an author with a fresh id goes under the early
/// book B, and a book K with a fresh, higher id and title `T` goes under
/// the later shelf A. The `author` entries then run A's neighbours first
/// and B's author last, and the left keys of `title = 'T'` are B and K:
/// a merge that sought past every entry below K after its first miss
/// would never reach B's author.
#[test]
fn a_join_through_an_ancestor_updated_out_of_document_order_finds_its_match() {
    let (svc, [lib, shelf, book, title, author]) = shelf_service();
    svc.apply_update(vec![
        // B's author: a fresh id past every id the forest has.
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, author],
            ids: vec![1, 2, 3, 20],
            value: Some("d".into()),
        },
        // K under A, titled `T`, with ids above that author's.
        UpdateOp::InsertPath { tags: vec![lib, shelf, book], ids: vec![1, 11, 30], value: None },
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, title],
            ids: vec![1, 11, 30, 31],
            value: Some("T".into()),
        },
    ]);
    // Books titled `T`: B, whose author is 20, and K, which has none.
    let twig = parse_xpath("//book[title = 'T']/author").unwrap();
    // The cleared bit travels with the index through the next commit's
    // fork (and through persist → open: the `persist` suite).
    for stage in ["insert", "fork"] {
        if stage == "fork" {
            svc.apply_update(Vec::new());
        }
        svc.with_engine(|e| {
            assert!(!e.rootpaths().unwrap().document_ordered(), "{stage}");
            assert!(!e.datapaths().unwrap().document_ordered(), "{stage}");
        });
        for s in [Strategy::RootPaths, Strategy::DataPaths, Strategy::Auto] {
            let answer = svc.execute(&twig, s).unwrap();
            assert_eq!(answer.ids.iter().copied().collect::<Vec<_>>(), [20], "{stage}: {s}");
        }
    }
}

/// A path appended to the document order — every id at or past the
/// largest at its depth — keeps each run ordered, so the joins go on
/// seeking, and still find what was appended.
#[test]
fn an_appended_path_keeps_the_join_seeking() {
    let (svc, [lib, shelf, book, title, author]) = shelf_service();
    // K under the last shelf A, titled `T`, with an author.
    svc.apply_update(vec![
        UpdateOp::InsertPath { tags: vec![lib, shelf, book], ids: vec![1, 11, 30], value: None },
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, title],
            ids: vec![1, 11, 30, 31],
            value: Some("T".into()),
        },
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, author],
            ids: vec![1, 11, 30, 32],
            value: Some("e".into()),
        },
    ]);
    svc.with_engine(|e| {
        assert!(e.rootpaths().unwrap().document_ordered());
        assert!(e.datapaths().unwrap().document_ordered());
    });
    let twig = parse_xpath("//book[title = 'T']/author").unwrap();
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        let answer = svc.execute(&twig, s).unwrap();
        assert_eq!(answer.ids.iter().copied().collect::<Vec<_>>(), [32], "{s}");
        // Both `T` titles, then of the four authors only the first and
        // K's: the two between sort below K and are sought past.
        assert_eq!(answer.metrics.rows_fetched, 4, "{s}");
    }
}

/// An engine without Edge joins a `//` edge on the ancestors the index
/// lists in front of each match, also for ids the forest has never seen.
/// Book K goes under shelf A with a fresh title `V` and a fresh author
/// `z`, every id past the forest. In `//book[title = 'V']//author` the
/// rare title drives and each author match brings its ancestors
/// (`AncestorOf`); in `//shelf//author[. = 'z']` the rare author drives
/// and each row brings the ancestors it captured (`DescendantBound`).
#[test]
fn descendant_joins_over_inserted_ids_read_ancestors_from_the_index() {
    use xtwig::core::plan::JoinHow;
    let (svc, [lib, shelf, book, title, author]) = shelf_service();
    svc.apply_update(vec![
        UpdateOp::InsertPath { tags: vec![lib, shelf, book], ids: vec![1, 11, 30], value: None },
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, title],
            ids: vec![1, 11, 30, 31],
            value: Some("V".into()),
        },
        UpdateOp::InsertPath {
            tags: vec![lib, shelf, book, author],
            ids: vec![1, 11, 30, 32],
            value: Some("z".into()),
        },
    ]);
    let mut kinds = Vec::new();
    for (xpath, want) in [("//book[title = 'V']//author", [32]), ("//shelf//author[. = 'z']", [32])]
    {
        let twig = parse_xpath(xpath).unwrap();
        let plan = svc.with_engine(|e| e.plan(&twig)).unwrap();
        kinds.extend(plan.steps.iter().filter_map(|step| match step.join {
            Some(JoinHow::AncestorOf { .. }) => Some("AncestorOf"),
            Some(JoinHow::DescendantBound { .. }) => Some("DescendantBound"),
            _ => None,
        }));
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let answer = svc.execute(&twig, s).unwrap();
            assert_eq!(answer.ids.iter().copied().collect::<Vec<_>>(), want, "{xpath}: {s}");
        }
    }
    assert_eq!(kinds, ["AncestorOf", "DescendantBound"]);
}
