//! Ablation: delta vs. plain IdList payloads (§4.1) — lookup cost.
//!
//! Delta encoding shrinks the index (fewer leaf pages to scan) at the
//! price of per-entry decode work. This bench shows the net effect on an
//! unselective FreeIndex probe: the streaming scan the executor runs,
//! decoding every matched IdList.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;
use xtwig_bench::xmark_forest;
use xtwig_core::family::PcSubpathQuery;
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_rel::codec::IdListCodec;
use xtwig_storage::BufferPool;

fn bench_idlist_codec(c: &mut Criterion) {
    let (forest, _) = xmark_forest(0.01);
    let delta = RootPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(16_384)),
        RootPathsOptions { idlist: IdListCodec::Delta, ..Default::default() },
    );
    let plain = RootPaths::build(
        &forest,
        Arc::new(BufferPool::in_memory(16_384)),
        RootPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    let q =
        PcSubpathQuery::resolve(forest.dict(), &["item", "quantity"], false, Some("1")).unwrap();
    let structural =
        PcSubpathQuery::resolve(forest.dict(), &["bidder", "personref"], false, None).unwrap();

    let mut group = c.benchmark_group("ablation_idlist");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    let mut ids = Vec::new();
    for (name, index) in [("delta", &delta), ("plain", &plain)] {
        group.bench_with_input(BenchmarkId::new(name, "valued"), &q, |b, q| {
            b.iter(|| matches(index, q, &mut ids))
        });
        group.bench_with_input(BenchmarkId::new(name, "structural"), &structural, |b, q| {
            b.iter(|| matches(index, q, &mut ids))
        });
    }
    group.finish();
}

/// The matches of `q`, each IdList decoded into `ids`.
fn matches(index: &RootPaths, q: &PcSubpathQuery, ids: &mut Vec<u64>) -> usize {
    let mut n = 0;
    index.for_each_free(q, ids, None, false, |_, _| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

criterion_group!(benches, bench_idlist_codec);
criterion_main!(benches);
