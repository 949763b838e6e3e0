//! §5.2.5: space optimizations.
//!
//! Paper numbers at full scale: lossless compression ≈ 30% (already
//! included in Fig. 9's RP/DP sizes); SchemaPath dictionary compression
//! saves ~10 MB on XMark and nothing on DBLP while losing `//` support;
//! HeadId pruning shrinks DATAPATHS to 141 MB (1.4x data) on XMark and
//! 38.4 MB (77% of data) on DBLP while disabling INLJ off-workload.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin sec525_compression [--scale f]`

use std::sync::Arc;
use xtwig_bench::{dblp_forest, mb, scale_from_args, xmark_forest, POOL_PAGES};
use xtwig_core::compress::{measure_idlist_bytes, workload_head_filter, DictDataPaths};
use xtwig_core::datapaths::{DataPaths, DataPathsOptions};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_core::family::PathIndex;
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_datagen::xmark_queries;
use xtwig_rel::codec::IdListCodec;
use xtwig_storage::BufferPool;
use xtwig_xml::XmlForest;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::in_memory(POOL_PAGES * 4))
}

fn report(name: &str, forest: &XmlForest, workload: &[xtwig_xml::TwigPattern]) {
    let data_mb = mb(forest.approx_text_bytes());
    println!("\n== {name} (~{data_mb:.2} MB as text) ==");

    // Lossless: delta vs plain IdLists.
    let rp_delta = RootPaths::build(forest, pool(), RootPathsOptions::default());
    let rp_plain = RootPaths::build(
        forest,
        pool(),
        RootPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    let dp_delta = DataPaths::build(forest, pool(), DataPathsOptions::default());
    let dp_plain = DataPaths::build(
        forest,
        pool(),
        DataPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    let ib = measure_idlist_bytes(forest);
    println!(
        "lossless (delta IdLists): RP {:.2} -> {:.2} MB, DP {:.2} -> {:.2} MB (payload saving {:.0}%)",
        mb(rp_plain.space_bytes()),
        mb(rp_delta.space_bytes()),
        mb(dp_plain.space_bytes()),
        mb(dp_delta.space_bytes()),
        ib.datapaths_saving() * 100.0
    );
    assert!(dp_delta.space_bytes() <= dp_plain.space_bytes());

    // Lossy 1: SchemaPath dictionary.
    let dict = DictDataPaths::build(forest, pool());
    let saving = dp_delta.space_bytes().saturating_sub(dict.space_bytes());
    println!(
        "SchemaPathId dictionary:  DP {:.2} -> {:.2} MB (saves {:.2} MB; '//' probes lost)",
        mb(dp_delta.space_bytes()),
        mb(dict.space_bytes()),
        mb(saving)
    );

    // Lossy 2: HeadId pruning on the workload.
    let filter = workload_head_filter(workload);
    let pruned = QueryEngine::build(
        forest,
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: POOL_PAGES * 4,
            head_filter_tags: Some(filter),
            ..Default::default()
        },
    );
    let pruned_mb = mb(pruned.space_bytes(Strategy::DataPaths));
    println!(
        "HeadId pruning:           DP {:.2} -> {:.2} MB ({:.2}x data size; INLJ only on workload branch points)",
        mb(dp_delta.space_bytes()),
        pruned_mb,
        pruned_mb / data_mb
    );
    assert!(pruned_mb <= mb(dp_delta.space_bytes()));
}

fn main() {
    let scale = scale_from_args();
    println!("# §5.2.5: space optimizations (scale {scale})");
    let workload: Vec<_> = xmark_queries().iter().map(|q| q.twig()).collect();
    let (xforest, _) = xmark_forest(scale);
    report("XMark", &xforest, &workload);
    let (dforest, _) = dblp_forest(scale);
    report("DBLP", &dforest, &workload);
    println!("\npaper: lossless ~30%; dictionary ~10MB on XMark, 0 on DBLP; pruning -> 1.4x / 0.77x data size");
}
