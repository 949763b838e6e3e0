//! Ablation: B+-tree prefix truncation (the DB2-style key compression
//! the paper leans on in §3.1) — build size and probe cost.
//! `BTreeOptions::prefix_truncation` governs both halves of it: shortest
//! separators in interior nodes, and each leaf's common key prefix
//! stored once per leaf. Off, every separator is a whole key and every
//! leaf prefix empty. Fails unless truncation saves pages.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin ablation_prefix [-- --quick]`

use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_bench::{time_per_call, xmark_forest};
use xtwig_btree::BTreeOptions;
use xtwig_core::family::{PathIndex, PcSubpathQuery};
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_storage::BufferPool;

fn main() {
    let (forest, _) = xmark_forest(0.01);
    let build = |trunc: bool| {
        RootPaths::build(
            &forest,
            Arc::new(BufferPool::in_memory(16_384)),
            RootPathsOptions {
                btree: BTreeOptions { prefix_truncation: trunc },
                ..Default::default()
            },
        )
    };
    let with = build(true);
    let without = build(false);
    println!(
        "index pages: with truncation {} vs without {}",
        with.tree().stats().pages,
        without.tree().stats().pages
    );
    assert!(with.space_bytes() < without.space_bytes(), "prefix truncation saved no page");
    let q = PcSubpathQuery::resolve(forest.dict(), &["person", "name"], false, None).unwrap();
    println!("## ablation_prefix_truncation: one FreeIndex probe of //person/name");
    let mut ids = Vec::new();
    for (name, index) in [("truncated", &with), ("full-keys", &without)] {
        time_per_call(&format!("{name}/probe"), 30, || {
            let mut n = 0;
            index.for_each_free(&q, &mut ids, None, false, |_, _| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        });
    }
}
