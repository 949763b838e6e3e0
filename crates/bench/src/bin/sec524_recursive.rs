//! §5.2.4: recursive-query overhead for ROOTPATHS and DATAPATHS.
//!
//! "The recursive queries are exactly the same as queries used in Section
//! 5.2.2 except that each query now starts with a `//`. … ROOTPATHS and
//! DATAPATHS have less than 5% overhead for processing queries with a
//! `//` because such queries can be converted into B+-tree prefix match
//! queries on ReverseSchemaPaths."
//!
//! Run with: `cargo run --release -p xtwig-bench --bin sec524_recursive [--scale f]`

use xtwig_bench::{dump_json, engine, measure, scale_from_args, xmark_forest, Measurement};
use xtwig_core::engine::Strategy;
use xtwig_datagen::xmark_queries;

fn main() {
    let scale = scale_from_args();
    println!("# §5.2.4: leading-'//' overhead for RP and DP (scale {scale})");
    let (forest, _) = xmark_forest(scale);
    let e = engine(forest, &[Strategy::RootPaths, Strategy::DataPaths]);
    let queries = xmark_queries();
    let mut all: Vec<Measurement> = Vec::new();

    println!(
        "\n{:<6} {:<4} {:>12} {:>14} {:>10} {:>9}",
        "query", "idx", "t(10 runs)", "t(10, //-form)", "overhead", "results"
    );
    let mut overheads = Vec::new();
    for id in ["Q4x", "Q5x", "Q6x", "Q7x", "Q8x", "Q9x"] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        // Rewrite the leading "/site" as "//site" — same results, but the
        // root subpath becomes a suffix probe.
        let recursive_xpath = format!("/{}", q.xpath);
        assert!(recursive_xpath.starts_with("//site"));
        let anchored = q.twig();
        let recursive = xtwig_core::parse_xpath(&recursive_xpath).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let base = measure(&e, &anchored, s, id);
            let rec = measure(&e, &recursive, s, &format!("{id}-rec"));
            assert_eq!(base.results, rec.results, "{id}: '//' form changed the answer");
            let overhead =
                (rec.total_micros as f64 - base.total_micros as f64) / base.total_micros as f64;
            println!(
                "{:<6} {:<4} {:>10}µs {:>12}µs {:>9.1}% {:>9}",
                id,
                s.label(),
                base.total_micros,
                rec.total_micros,
                overhead * 100.0,
                base.results
            );
            overheads.push(overhead);
            all.push(base);
            all.push(rec);
        }
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("\nmean overhead: {:.1}% (paper: < 5%)", mean * 100.0);
    // Wall-clock at micro scale is noisy; the structural guarantee is
    // that probe counts are unchanged, which `measure` captured:
    for pair in all.chunks(2) {
        assert_eq!(pair[0].probes, pair[1].probes, "probe counts must not grow for the '//' form");
    }
    println!(
        "probe counts identical for all 12 query pairs — the '//' form is the same prefix scan."
    );
    dump_json("sec524_recursive", &all);
}
