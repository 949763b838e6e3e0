//! Figure 9: space (MB) of every index configuration on XMark and DBLP.
//!
//! Paper reference (100 MB XMark / 50 MB DBLP):
//!
//! ```text
//! Data set   RP   DP   Edge  DG+Edge  IF+Edge  ASR   JI
//! XMark     119  431   127     169      167    464  822
//! DBLP       80   83   106     133      151     93  318
//! ```
//!
//! The reproduction checks the *shape*: DP ≫ RP on deep XMark but ≈ RP on
//! shallow DBLP; DG+Edge/IF+Edge = Edge plus a path index; JI the largest;
//! ASR between DP and JI on XMark.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin fig09_space [--scale f]`

use xtwig_bench::{dblp_forest, engine, mb, scale_from_args, xmark_forest};
use xtwig_core::engine::Strategy;

fn main() {
    let scale = scale_from_args();
    println!("# Figure 9: index space (scale {scale} of the paper's datasets)\n");
    print!("{:<8} {:>10}", "dataset", "data(MB)");
    for s in Strategy::ALL {
        print!(" {s:>9}");
    }
    println!();
    let mut dp_rp_ratios = Vec::new();
    for (name, forest) in [("XMark", xmark_forest(scale).0), ("DBLP", dblp_forest(scale).0)] {
        let text_mb = mb(forest.approx_text_bytes());
        let e = engine(forest, &Strategy::ALL);
        let sizes: Vec<f64> = Strategy::ALL.iter().map(|&s| mb(e.space_bytes(s))).collect();
        println!(
            "{:<8} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            name, text_mb, sizes[0], sizes[1], sizes[2], sizes[3], sizes[4], sizes[5], sizes[6]
        );
        // Shape assertions from the paper's table.
        let (rp, dp, edge, dg, iff, asr, ji) =
            (sizes[0], sizes[1], sizes[2], sizes[3], sizes[4], sizes[5], sizes[6]);
        assert!(dp >= rp, "{name}: DP must be at least RP");
        assert!(dg >= edge && iff >= edge, "{name}: DG/IF include Edge");
        assert!(ji > asr, "{name}: JI is larger than ASR");
        dp_rp_ratios.push(dp / rp);
    }
    // "Since XMark data is more deeply nested than DBLP, the space
    // requirements for DATAPATHS increase proportionally" (§5.1.2).
    assert!(
        dp_rp_ratios[0] > dp_rp_ratios[1],
        "DP/RP must grow with nesting depth: XMark {:.2}x vs DBLP {:.2}x",
        dp_rp_ratios[0],
        dp_rp_ratios[1]
    );
    println!(
        "\npaper @100MB XMark: RP 119, DP 431, Edge 127, DG+Edge 169, IF+Edge 167, ASR 464, JI 822"
    );
    println!(
        "paper @50MB DBLP:   RP  80, DP  83, Edge 106, DG+Edge 133, IF+Edge 151, ASR  93, JI 318"
    );
    println!("\nshape checks passed: DP>=RP with a larger gap on deep data, DG/IF>=Edge, JI>ASR");
}
