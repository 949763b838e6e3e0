//! Figure 11: single-path query time vs. result cardinality, on XMark
//! (panel a) and DBLP (panel b).
//!
//! The paper's shape: Index Fabric and ROOTPATHS are the best and stay
//! nearly flat; DATAPATHS is slightly worse (bigger index); Edge and
//! DG+Edge degrade sharply as selectivity drops because they join per
//! step / join structure against values.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin fig11_single_path [--scale f]`

use xtwig_bench::{
    dblp_forest, dump_json, engine, measure, print_table, scale_from_args, xmark_forest,
    Measurement,
};
use xtwig_core::engine::Strategy;
use xtwig_datagen::{dblp_queries, xmark_queries};

const STRATEGIES: [Strategy; 5] = [
    Strategy::RootPaths,
    Strategy::DataPaths,
    Strategy::Edge,
    Strategy::DataGuideEdge,
    Strategy::IndexFabricEdge,
];

fn main() {
    let scale = scale_from_args();
    println!("# Figure 11: increasing selectivity for single path queries (scale {scale})");
    let mut all = Vec::new();

    let (xforest, _) = xmark_forest(scale);
    let xengine = engine(xforest, &STRATEGIES);
    let mut rows: Vec<Measurement> = Vec::new();
    for q in xmark_queries().iter().filter(|q| ["Q1x", "Q2x", "Q3x"].contains(&q.id)) {
        let twig = q.twig();
        for s in STRATEGIES {
            rows.push(measure(&xengine, &twig, s, q.id));
        }
    }
    print_table("(a) XMark: Q1x (selective) -> Q3x (unselective)", &rows);
    shape_check(&rows, "XMark");
    all.extend(rows);

    let (dforest, _) = dblp_forest(scale);
    let dengine = engine(dforest, &STRATEGIES);
    let mut rows: Vec<Measurement> = Vec::new();
    for q in dblp_queries() {
        let twig = q.twig();
        for s in STRATEGIES {
            rows.push(measure(&dengine, &twig, s, q.id));
        }
    }
    print_table("(b) DBLP: Q1d (selective) -> Q3d (unselective)", &rows);
    shape_check(&rows, "DBLP");
    all.extend(rows);

    dump_json("fig11_single_path", &all);
}

/// Paper-shape assertion: at the unselective end, Edge and DG+Edge must
/// probe far more than RP (which stays at one probe per query).
fn shape_check(rows: &[Measurement], dataset: &str) {
    let unselective_label = rows.iter().map(|m| m.label.clone()).max().unwrap();
    let probe = |strategy: Strategy| {
        rows.iter()
            .find(|m| m.strategy == strategy.to_string() && m.label == unselective_label)
            .map(|m| m.probes)
            .unwrap_or(0)
    };
    let rp = probe(Strategy::RootPaths).max(1);
    assert!(
        probe(Strategy::Edge) > 10 * rp,
        "{dataset}: Edge should degrade vs RP ({} vs {rp})",
        probe(Strategy::Edge)
    );
    assert!(probe(Strategy::DataGuideEdge) > rp, "{dataset}: DG+Edge should degrade vs RP");
    println!(
        "[shape ok on {dataset}: at {unselective_label}, probes RP={} DP={} Edge={} DG+Edge={} IF+Edge={}]",
        probe(Strategy::RootPaths),
        probe(Strategy::DataPaths),
        probe(Strategy::Edge),
        probe(Strategy::DataGuideEdge),
        probe(Strategy::IndexFabricEdge)
    );
}
