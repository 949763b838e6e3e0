//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure 1 book document, prints fragments of the 4-ary
//! relation and its ROOTPATHS/DATAPATHS adaptations (Figures 2, 4, 5),
//! shows the paper's two problems each answered by one index lookup —
//! FreeIndex by a ROOTPATHS scan, BoundIndex by a DATAPATHS probe under
//! a known head, the same streaming scans the executor runs — and then
//! answers the introduction's twig query
//! `/book[title='XML']//author[fn='jane' and ln='doe']` with both novel
//! indexes.
//!
//! Run with: `cargo run --example quickstart`

use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::core::paths::{for_each_root_path, for_each_subpath};
use xtwig::prelude::*;
use xtwig::xml::tree::fig1_book_document;

fn main() {
    let forest = Arc::new(fig1_book_document());
    let dict = forest.dict();

    println!("== Figure 2: the 4-ary relation (fragment) ==");
    println!("{:<7} {:<28} {:<10} IdList", "HeadId", "SchemaPath", "LeafValue");
    let mut shown = 0;
    for_each_subpath(&forest, |head, tags, ids, value| {
        if head != 1 && head != 5 || shown >= 14 {
            return;
        }
        let path: Vec<&str> = tags.iter().map(|&t| dict.name(t)).collect();
        println!(
            "{:<7} {:<28} {:<10} {:?}",
            head,
            path.join("/"),
            value.unwrap_or("null"),
            &ids[1..]
        );
        shown += 1;
    });

    println!("\n== Figure 4: ROOTPATHS rows (fragment) ==");
    println!("{:<28} {:<10} IdList", "ReverseSchemaPath", "LeafValue");
    let mut shown = 0;
    for_each_root_path(&forest, |tags, ids, value| {
        if shown >= 8 {
            return;
        }
        let mut rev: Vec<&str> = tags.iter().map(|&t| dict.name(t)).collect();
        rev.reverse();
        println!("{:<28} {:<10} {:?}", rev.join("<-"), value.unwrap_or("null"), ids);
        shown += 1;
    });

    // Build the engine with the two novel indexes.
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 512,
            ..Default::default()
        },
    );

    println!("\n== FreeIndex in one lookup (paper §3.2) ==");
    // Each match's IdList is the full root path: the author (second
    // to last) and book (first) ids come out of the lookup, no join.
    let q = PcSubpathQuery::resolve(dict, &["author", "fn"], false, Some("jane")).unwrap();
    let rp = engine.rootpaths().expect("built");
    rp.for_each_free(&q, &mut Vec::new(), None, false, |_key, ids| {
        let path: Vec<&str> = ids.iter().map(|&id| dict.name(forest.tag(NodeId(id)))).collect();
        println!(
            "  //author[fn='jane'] -> path {} ids {:?} (author id = {}, book id = {})",
            path.join("/"),
            ids,
            ids[ids.len() - 2],
            ids[0]
        );
        ControlFlow::Continue(())
    });

    println!("\n== BoundIndex in one lookup (paper §3.3) ==");
    let dp = engine.datapaths().expect("built");
    let book_tag = dict.lookup("book").unwrap();
    let q = PcSubpathQuery::resolve(dict, &["author", "ln"], false, Some("doe")).unwrap();
    let mut probe = dp.bound_probe(book_tag, &q.tags, q.anchored, q.value.as_deref());
    dp.for_each_bound(&mut probe, 1, &mut Vec::new(), |_key, ids| {
        println!("  book(1)//author[ln='doe'] -> ids {ids:?} (author id = {})", ids[ids.len() - 2]);
        ControlFlow::Continue(())
    });

    println!("\n== The introduction's twig query ==");
    let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
    println!("twig: {twig}");
    for s in [Strategy::RootPaths, Strategy::DataPaths] {
        let a = engine.answer(&twig, s);
        println!(
            "  {:<3} -> author ids {:?} | plan {:?} | {} probes, {} rows, {} logical reads",
            s.label(),
            a.ids,
            a.plan,
            a.metrics.probes,
            a.metrics.rows_fetched,
            a.metrics.logical_reads
        );
        assert_eq!(a.ids.iter().copied().collect::<Vec<_>>(), vec![41]);
    }
    println!("\nauthor 41 is the one with fn='jane' AND ln='doe' — matching the paper.");
}
