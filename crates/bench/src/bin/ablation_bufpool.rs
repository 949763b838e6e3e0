//! Extension bench: buffer-pool size sweep.
//!
//! The paper fixes a 40 MB pool and disables the OS cache to study
//! non-memory-resident behaviour (§5.1.1). This ablation sweeps the pool
//! size and reports cold-run physical reads and warm-run hit rates for
//! ROOTPATHS on an unselective query, showing when the working set stops
//! fitting.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin ablation_bufpool [--scale f]`

use std::sync::Arc;
use xtwig_bench::{scale_from_args, xmark_forest};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_datagen::xmark_queries;

fn main() {
    let scale = scale_from_args();
    println!("# ablation: buffer-pool size sweep (scale {scale})");
    let forest = Arc::new(xmark_forest(scale).0);
    let q3 = xmark_queries().into_iter().find(|q| q.id == "Q3x").unwrap();
    let twig = q3.twig();

    println!(
        "\n{:>12} {:>12} {:>14} {:>14} {:>12}",
        "pool pages", "pool MB", "cold physical", "warm physical", "warm logical"
    );
    for pool_pages in [64usize, 128, 256, 512, 1024, 2048, 5120] {
        let engine = QueryEngine::build(
            forest.clone(),
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages,
                ..Default::default()
            },
        );
        engine.clear_caches(Strategy::RootPaths);
        let cold = engine.answer(&twig, Strategy::RootPaths);
        let warm = engine.answer(&twig, Strategy::RootPaths);
        println!(
            "{:>12} {:>12.1} {:>14} {:>14} {:>12}",
            pool_pages,
            pool_pages as f64 * 8192.0 / (1024.0 * 1024.0),
            cold.metrics.physical_reads,
            warm.metrics.physical_reads,
            warm.metrics.logical_reads
        );
        assert_eq!(cold.ids, warm.ids);
    }
    println!("\nexpected shape: cold physical reads are flat (the scan touches the same");
    println!("leaves regardless of pool size); warm physical reads drop to 0 once the");
    println!("query's working set fits the pool.");
}
