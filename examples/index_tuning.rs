//! Space/time tuning: the §4 compression knobs, hands on.
//!
//! Builds ROOTPATHS/DATAPATHS variants (delta vs. plain IdLists,
//! dictionary-compressed schema paths, workload-driven HeadId pruning)
//! over the same dataset and prints a Fig.-9-style space table plus the
//! functionality each lossy variant gives up. The `//` probe the
//! dictionary variant loses is counted with the streaming DATAPATHS scan
//! the executor runs.
//!
//! Run with: `cargo run --release --example index_tuning [scale]`

use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig::core::compress::{measure_idlist_bytes, workload_head_filter, DictDataPaths};
use xtwig::core::datapaths::{DataPaths, DataPathsOptions};
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::family::{PathIndex, PcSubpathQuery};
use xtwig::core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig::datagen::{generate_xmark, xmark_queries, XmarkConfig};
use xtwig::rel::codec::IdListCodec;
use xtwig::storage::BufferPool;
use xtwig::xml::XmlForest;

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0.01);
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 1 });
    let forest = Arc::new(forest);
    let data_mb = mb(forest.approx_text_bytes());
    println!("dataset: {} nodes (~{data_mb:.1} MB as text)\n", profile.nodes);

    let pool = || Arc::new(BufferPool::in_memory(65_536));

    // --- §4.1 lossless: delta vs plain IdLists --------------------------
    let rp_delta = RootPaths::build(
        &forest,
        pool(),
        RootPathsOptions { idlist: IdListCodec::Delta, ..Default::default() },
    );
    let rp_plain = RootPaths::build(
        &forest,
        pool(),
        RootPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    let dp_delta = DataPaths::build(
        &forest,
        pool(),
        DataPathsOptions { idlist: IdListCodec::Delta, ..Default::default() },
    );
    let dp_plain = DataPaths::build(
        &forest,
        pool(),
        DataPathsOptions { idlist: IdListCodec::Plain, ..Default::default() },
    );
    println!("== §4.1 differential IdList encoding (lossless) ==");
    println!(
        "ROOTPATHS: plain {:.2} MB -> delta {:.2} MB",
        mb(rp_plain.space_bytes()),
        mb(rp_delta.space_bytes())
    );
    println!(
        "DATAPATHS: plain {:.2} MB -> delta {:.2} MB",
        mb(dp_plain.space_bytes()),
        mb(dp_delta.space_bytes())
    );
    let ib = measure_idlist_bytes(&forest);
    println!(
        "IdList payload alone shrinks {:.0}% (paper reports ~30% total lossless saving)",
        ib.datapaths_saving() * 100.0
    );

    // --- §4.2 lossy: SchemaPath dictionary ------------------------------
    let dict_dp = DictDataPaths::build(&forest, pool());
    println!("\n== §4.2 SchemaPath dictionary compression (lossy) ==");
    println!(
        "DATAPATHS {:.2} MB -> dict variant {:.2} MB ({} distinct paths)",
        mb(dp_delta.space_bytes()),
        mb(dict_dp.space_bytes()),
        dict_dp.dict_len()
    );
    let suffix =
        PcSubpathQuery::resolve(forest.dict(), &["item", "quantity"], false, Some("2")).unwrap();
    let mut matches = 0;
    dp_delta.for_each_free(&suffix, &mut Vec::new(), None, true, |_, _| {
        matches += 1;
        ControlFlow::Continue(())
    });
    println!("  full DP answers //item/quantity=2 with {matches} matches in one probe;");
    println!("  the dict variant cannot express that probe at all (path ids are indivisible).");

    // --- §4.3 lossy: HeadId pruning --------------------------------------
    let workload: Vec<_> = xmark_queries().iter().map(|q| q.twig()).collect();
    let filter = workload_head_filter(&workload);
    println!("\n== §4.3 HeadId pruning (lossy, workload-driven) ==");
    println!("workload branch-point tags: {:?}", {
        let mut v: Vec<_> = filter.iter().cloned().collect();
        v.sort();
        v
    });
    let pruned_engine = QueryEngine::build(
        forest.clone(),
        EngineOptions {
            strategies: vec![Strategy::DataPaths],
            pool_pages: 5120,
            head_filter_tags: Some(filter),
            ..Default::default()
        },
    );
    println!(
        "DATAPATHS {:.2} MB -> pruned {:.2} MB",
        mb(dp_delta.space_bytes()),
        mb(pruned_engine.space_bytes(Strategy::DataPaths))
    );
    let q10 = xmark_queries().into_iter().find(|q| q.id == "Q10x").unwrap();
    let a = pruned_engine.answer(&q10.twig(), Strategy::DataPaths);
    println!("  Q10x (in workload) still answers with {} results, plan {:?}", a.ids.len(), a.plan);
    let off = xtwig::parse_xpath("//person[name = 'Hagen Artosi']/emailaddress").unwrap();
    let a = pruned_engine.answer(&off, Strategy::DataPaths);
    println!(
        "  off-workload query still answers with {} results, but only via plan {:?}",
        a.ids.len(),
        a.plan
    );
}
