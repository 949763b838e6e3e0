//! Ablation: B+-tree prefix truncation (the DB2-style key compression
//! the paper leans on in §3.1) — build size and probe cost.
//! `BTreeOptions::prefix_truncation` governs both halves of it: shortest
//! separators in interior nodes, and each leaf's common key prefix
//! stored once per leaf. Off, every separator is a whole key and every
//! leaf prefix empty.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;
use xtwig_bench::xmark_forest;
use xtwig_btree::BTreeOptions;
use xtwig_core::family::{PathIndex, PcSubpathQuery};
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_storage::BufferPool;

fn bench_prefix_truncation(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("ablation_prefix_truncation");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    let mut ids = Vec::new();
    for (name, index) in [("truncated", &with), ("full-keys", &without)] {
        group.bench_with_input(BenchmarkId::new(name, "probe"), &q, |b, q| {
            b.iter(|| {
                let mut n = 0;
                index.for_each_free(q, &mut ids, None, false, |_, _| {
                    n += 1;
                    ControlFlow::Continue(())
                });
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prefix_truncation);
criterion_main!(benches);
