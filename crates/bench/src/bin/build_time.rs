//! Index construction cost per configuration (context for Fig. 9: the
//! space/time tradeoff has a build-time dimension too), plus the
//! shard-parallel build variants (`*_sharded4`): identical output
//! (byte-for-byte, see `QueryEngine::build_parallel`), row enumeration
//! and sorting spread over a worker pool. On a single-core host the
//! sharded rows mostly measure the sharding overhead; the ledger's
//! `core.build_s` (`benchmark/`) is the build time at scale 0.1 on
//! every core. Wall time only; nothing gates it.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin build_time [-- --quick]`

use std::sync::Arc;
use xtwig_bench::{time_per_call, xmark_forest};
use xtwig_core::asr::AccessSupportRelations;
use xtwig_core::datapaths::{DataPaths, DataPathsOptions};
use xtwig_core::edge::EdgeTable;
use xtwig_core::joinindex::JoinIndices;
use xtwig_core::parallel::ShardPlan;
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_storage::BufferPool;

const SHARDS: usize = 4;
const SAMPLES: usize = 10;

fn main() {
    let (forest, profile) = xmark_forest(0.005);
    println!("## index_build over {} nodes", profile.nodes);
    let f = &forest;
    let pool = || Arc::new(BufferPool::in_memory(16_384));
    let plan = ShardPlan::new(f, SHARDS);
    let time = |label: &str, build: &dyn Fn() -> u64| time_per_call(label, SAMPLES, build);
    time("rootpaths", &|| RootPaths::build(f, pool(), RootPathsOptions::default()).rows());
    time("rootpaths_sharded4", &|| {
        RootPaths::build_sharded(f, pool(), RootPathsOptions::default(), &plan).rows()
    });
    time("datapaths", &|| DataPaths::build(f, pool(), DataPathsOptions::default()).rows());
    time("datapaths_sharded4", &|| {
        DataPaths::build_sharded(f, pool(), DataPathsOptions::default(), &plan).rows()
    });
    time("edge", &|| EdgeTable::build(f, pool()).rows());
    time("edge_sharded4", &|| EdgeTable::build_sharded(f, pool(), &plan).rows());
    time("asr", &|| AccessSupportRelations::build(f, pool()).table_count() as u64);
    time("asr_sharded4", &|| {
        AccessSupportRelations::build_sharded(f, pool(), &plan).table_count() as u64
    });
    time("join_indices", &|| JoinIndices::build(f, pool()).table_count() as u64);
    time("join_indices_sharded4", &|| {
        JoinIndices::build_sharded(f, pool(), &plan).table_count() as u64
    });
}
