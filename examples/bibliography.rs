//! Shallow-document behaviour: the DBLP selectivity sweep.
//!
//! Generates the DBLP-like bibliography and sweeps the Q1d–Q3d year
//! constants from one match to ~10k matches (paper Fig. 11(b)), printing
//! how each strategy's cost scales with result cardinality.
//!
//! Run with: `cargo run --release --example bibliography [scale]`

use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::datagen::{generate_dblp, DblpConfig};
use xtwig::xml::XmlForest;

fn main() {
    let scale = xtwig::bench::scale_from_first_arg("bibliography", 0.02);
    let mut forest = XmlForest::new();
    println!("generating DBLP-like data at scale {scale} …");
    let profile = generate_dblp(&mut forest, DblpConfig { scale, seed: 0xD0B5 });
    println!(
        "  {} nodes | {} inproceedings | {} articles | depth {} (shallow)",
        profile.nodes,
        profile.inproceedings,
        profile.articles,
        forest.max_depth()
    );

    let strategies = [
        Strategy::RootPaths,
        Strategy::DataPaths,
        Strategy::Edge,
        Strategy::DataGuideEdge,
        Strategy::IndexFabricEdge,
    ];
    let forest = Arc::new(forest);
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions { strategies: strategies.to_vec(), pool_pages: 5120, ..Default::default() },
    );

    println!("\nFig. 11(b) shape: single-path query cost vs. result cardinality");
    for year in ["1950", "1979", "1998"] {
        let twig = xtwig::parse_xpath(&format!("/dblp/inproceedings/year[. = '{year}']")).unwrap();
        println!("\n--- year = {year} ---");
        println!(
            "{:<8} {:>8} {:>9} {:>12} {:>10}",
            "strategy", "results", "probes", "logical I/O", "time"
        );
        for s in strategies {
            let a = engine.answer(&twig, s);
            println!(
                "{:<8} {:>8} {:>9} {:>12} {:>9.2?}",
                s.label(),
                a.ids.len(),
                a.metrics.probes,
                a.metrics.logical_reads,
                a.metrics.elapsed
            );
        }
    }

    println!("\nExpected shape (paper §5.2.1): RP/DP/IF stay flat-ish in probes while");
    println!("Edge and DG+Edge degrade as the year becomes unselective, because they");
    println!("join the path step by step or join structure against values.");

    // A branching query on the bibliography.
    println!("\nBonus twig: //inproceedings[year = '1998'][crossref]/title");
    let twig = xtwig::parse_xpath("//inproceedings[year = '1998'][crossref]/title").unwrap();
    for s in strategies {
        let a = engine.answer(&twig, s);
        println!(
            "{:<8} {:>8} results {:>9} probes {:>12} logical reads",
            s.label(),
            a.ids.len(),
            a.metrics.probes,
            a.metrics.logical_reads
        );
    }
}
