//! Index construction cost per configuration (context for Fig. 9: the
//! space/time tradeoff has a build-time dimension too), plus the
//! shard-parallel build variants (`*_sharded4`): identical output
//! (byte-for-byte, see `QueryEngine::build_parallel`), row enumeration
//! and sorting spread over a worker pool. On a single-core host the
//! sharded rows mostly measure the sharding overhead; the ledger's
//! `core.build_s` (`benchmark/`) is the build time at scale 0.1 on
//! every core.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;
use xtwig_bench::xmark_forest;
use xtwig_core::asr::AccessSupportRelations;
use xtwig_core::datapaths::{DataPaths, DataPathsOptions};
use xtwig_core::edge::EdgeTable;
use xtwig_core::joinindex::JoinIndices;
use xtwig_core::parallel::ShardPlan;
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_storage::BufferPool;

const SHARDS: usize = 4;

fn bench_builds(c: &mut Criterion) {
    let (forest, profile) = xmark_forest(0.005);
    println!("build bench over {} nodes", profile.nodes);
    let pool = || Arc::new(BufferPool::in_memory(16_384));
    let plan = ShardPlan::new(&forest, SHARDS);
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(400));
    group.bench_function("rootpaths", |b| {
        b.iter(|| RootPaths::build(&forest, pool(), RootPathsOptions::default()).rows())
    });
    group.bench_function("rootpaths_sharded4", |b| {
        b.iter(|| {
            RootPaths::build_sharded(&forest, pool(), RootPathsOptions::default(), &plan).rows()
        })
    });
    group.bench_function("datapaths", |b| {
        b.iter(|| DataPaths::build(&forest, pool(), DataPathsOptions::default()).rows())
    });
    group.bench_function("datapaths_sharded4", |b| {
        b.iter(|| {
            DataPaths::build_sharded(&forest, pool(), DataPathsOptions::default(), &plan).rows()
        })
    });
    group.bench_function("edge", |b| b.iter(|| EdgeTable::build(&forest, pool()).rows()));
    group.bench_function("edge_sharded4", |b| {
        b.iter(|| EdgeTable::build_sharded(&forest, pool(), &plan).rows())
    });
    group.bench_function("asr", |b| {
        b.iter(|| AccessSupportRelations::build(&forest, pool()).table_count())
    });
    group.bench_function("asr_sharded4", |b| {
        b.iter(|| AccessSupportRelations::build_sharded(&forest, pool(), &plan).table_count())
    });
    group.bench_function("join_indices", |b| {
        b.iter(|| JoinIndices::build(&forest, pool()).table_count())
    });
    group.bench_function("join_indices_sharded4", |b| {
        b.iter(|| JoinIndices::build_sharded(&forest, pool(), &plan).table_count())
    });
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
