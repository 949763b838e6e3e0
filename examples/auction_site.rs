//! Auction-site twig queries across all seven index configurations.
//!
//! Generates an XMark-like dataset and runs a slice of the paper's
//! workload (one query per experiment group), printing a per-strategy
//! comparison of probes, rows, logical I/O, and wall time — a miniature
//! of Figures 11–13.
//!
//! Run with: `cargo run --release --example auction_site [scale]`

use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::datagen::{generate_xmark, xmark_queries, XmarkConfig};
use xtwig::xml::XmlForest;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0.01);
    let mut forest = XmlForest::new();
    println!("generating XMark-like data at scale {scale} …");
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 0xA0C });
    println!(
        "  {} nodes | {} items | {} persons | {} auctions | depth {}",
        profile.nodes,
        profile.items,
        profile.persons,
        profile.auctions,
        forest.max_depth()
    );

    println!("building all seven index configurations …");
    let forest = Arc::new(forest);
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions { pool_pages: 5120, ..Default::default() },
    );

    let picks = ["Q3x", "Q5x", "Q6x", "Q9x", "Q10x", "Q13x"];
    let queries = xmark_queries();
    for id in picks {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        let twig = q.twig();
        println!("\n=== {} ({:?}) ===\n    {}", q.id, q.group, q.xpath);
        println!(
            "{:<8} {:>8} {:>9} {:>9} {:>12} {:>10}  plan",
            "strategy", "results", "probes", "rows", "logical I/O", "time"
        );
        for s in Strategy::ALL {
            let a = engine.answer(&twig, s);
            println!(
                "{:<8} {:>8} {:>9} {:>9} {:>12} {:>9.2?}  {:?}",
                s.label(),
                a.ids.len(),
                a.metrics.probes,
                a.metrics.rows_fetched,
                a.metrics.logical_reads,
                a.metrics.elapsed,
                a.plan
            );
        }
    }

    println!("\nNote the shape: RP/DP answer each branch in one probe and join on");
    println!("IdList-extracted branch ids; Edge/DG+Edge/IF+Edge pay one backward-link");
    println!("probe per candidate per step; ASR/JI open one table per matching schema");
    println!("path under `//` (six region paths for Q13x).");
}
