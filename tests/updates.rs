//! Integration: index maintenance (paper §7).
//!
//! "Updating the ROOTPATHS and DATAPATHS indices requires updating
//! multiple index entries … however, ROOTPATHS and DATAPATHS themselves
//! could be used to speed up the lookup of the entries to update."

use std::sync::Arc;
use xtwig::core::datapaths::{DataPaths, DataPathsOptions};
use xtwig::core::family::{BoundIndex, FreeIndex, PcSubpathQuery};
use xtwig::core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig::parse_xpath;
use xtwig::storage::BufferPool;
use xtwig::xml::tree::fig1_book_document;
use xtwig::xml::TagId;
use xtwig::{EngineOptions, ServiceOptions, Strategy, TwigService, UpdateOp};

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
    let ms = rp.lookup_free(&q);
    assert_eq!(ms.len(), 1);
    assert_eq!(ms[0].ids, vec![1, 5, 900, 901]);
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
    let before = rp.lookup_free(&q);
    assert_eq!(before.len(), 2);
    let victim = before.iter().find(|m| m.ids[2] == 41).unwrap().ids.clone();
    assert!(rp.delete_path(&tags, &victim, Some("jane")));
    let after = rp.lookup_free(&q);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].ids[2], 6, "the other jane remains");
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
    let free = dp.lookup_free(&q);
    assert_eq!(free.len(), 1);
    assert_eq!(free[0].ids, vec![1, 5, 900, 901]);
    // BoundIndex probes see it from every ancestor position.
    let allauthors = forest.dict().lookup("allauthors").unwrap();
    let bound = dp.lookup_bound(5, allauthors, &q);
    assert_eq!(bound.len(), 1);
    assert_eq!(bound[0].ids, vec![5, 900, 901]);
    let book = forest.dict().lookup("book").unwrap();
    let bound = dp.lookup_bound(1, book, &q);
    assert_eq!(bound.len(), 1);
    // The stored row is the full path from the head, so the match
    // carries every step book/allauthors/author/fn.
    assert_eq!(bound[0].ids, vec![1, 5, 900, 901]);
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
    let before = dp.lookup_free(&q);
    assert_eq!(before.len(), 2);
    let victim = before.iter().find(|m| m.ids[2] == 41).unwrap().ids.clone();
    assert!(dp.delete_path(&tags, &victim, Some("jane")));
    // fn at depth 4: (1 free + 4 bound) x2 value variants removed.
    assert_eq!(dp.rows(), rows0 - 10);
    let after = dp.lookup_free(&q);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].ids[2], 6, "the other jane remains");
    // The bound view agrees.
    let allauthors = forest.dict().lookup("allauthors").unwrap();
    assert_eq!(dp.lookup_bound(5, allauthors, &q).len(), 1);
    assert!(dp.lookup_bound(41, tags[2], &q).is_empty());
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
