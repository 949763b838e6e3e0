//! Figure 13: XMark twigs with a `//` branch point, vs. ASR and Join
//! Indices.
//!
//! `/site//item…` expands to six distinct schema paths (one per region),
//! so ASR and JI must open one relation (pair) per path per branch, while
//! DATAPATHS answers each branch with a single unified-index probe —
//! "the cost of accessing the index is logarithmic to the data size, but
//! the cost of accessing many small indices is linear to the number of
//! indices" (§5.2.6). DP beats ASR/JI by up to ~5x in the paper;
//! ROOTPATHS loses when INLJ is the right plan (it has no BoundIndex).
//!
//! Run with: `cargo run --release -p xtwig-bench --bin fig13_recursive_twigs [--scale f]`

use xtwig_bench::{
    dump_json, engine, measure, print_table, scale_from_args, xmark_forest, Measurement,
};
use xtwig_core::engine::Strategy;
use xtwig_datagen::xmark_queries;

const STRATEGIES: [Strategy; 4] =
    [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr, Strategy::JoinIndex];

fn main() {
    let scale = scale_from_args();
    println!("# Figure 13: queries with a '//' branch point (scale {scale})");
    let (forest, _) = xmark_forest(scale);
    let e = engine(forest, &STRATEGIES);
    let queries = xmark_queries();
    let mut all: Vec<Measurement> = Vec::new();

    let panels = [
        ("(a) selective and unselective branches", ["Q12x", "Q13x"]),
        ("(b) unselective branches", ["Q14x", "Q15x"]),
    ];
    for (title, ids) in panels {
        let mut rows = Vec::new();
        for id in ids {
            let q = queries.iter().find(|q| q.id == id).unwrap();
            let twig = q.twig();
            for s in STRATEGIES {
                rows.push(measure(&e, &twig, s, q.id));
            }
        }
        print_table(title, &rows);
        shape_check(&rows);
        all.extend(rows);
    }
    dump_json("fig13_recursive_twigs", &all);
}

fn shape_check(rows: &[Measurement]) {
    let last = rows.last().unwrap().label.clone();
    let get =
        |s: Strategy| rows.iter().find(|m| m.strategy == s.to_string() && m.label == last).unwrap();
    let rp = get(Strategy::RootPaths);
    let dp = get(Strategy::DataPaths);
    let asr = get(Strategy::Asr);
    let ji = get(Strategy::JoinIndex);
    // The §5.2.6 effect: ASR/JI pay per matching schema path (and JI per
    // interior position too), while the unified indexes answer each
    // subpath in one probe (RP merge) or per-head probes (DP INLJ).
    assert!(
        asr.probes > rp.probes,
        "ASR probes {} should exceed RP's one-per-subpath {}",
        asr.probes,
        rp.probes
    );
    assert!(ji.probes > asr.probes, "JI probes {} should exceed ASR {}", ji.probes, asr.probes);
    assert!(
        dp.total_micros < ji.total_micros,
        "DP ({}µs) should beat JI ({}µs)",
        dp.total_micros,
        ji.total_micros
    );
    println!(
        "[shape ok on {last}: probes RP={} DP={} ASR={} JI={} | time DP={}µs ASR={}µs JI={}µs]",
        rp.probes,
        dp.probes,
        asr.probes,
        ji.probes,
        dp.total_micros,
        asr.total_micros,
        ji.total_micros
    );
}
