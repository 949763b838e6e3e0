//! Figure 12: XMark twig queries without recursion, four panels.
//!
//! * (a) all branches selective, high branch point — Q4x, Q5x
//! * (b) selective + unselective branches — Q6x, Q7x
//! * (c) all branches unselective — Q8x, Q9x
//! * (d) low branch points (the index-nested-loop case) — Q10x, Q11x
//!
//! Paper shape: RP and DP stay well under the baselines at every branch
//! count (orders of magnitude on (b)/(c), where the baselines' per-branch
//! join chains explode); on (d) DP additionally beats RP by exploiting
//! BoundIndex probes (INLJ), which ROOTPATHS cannot do.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin fig12_twigs [--scale f] [--panel a|b|c|d]`

use xtwig_bench::{
    dump_json, engine, measure, print_table, scale_from_args, xmark_forest, Measurement,
};
use xtwig_core::engine::Strategy;
use xtwig_datagen::xmark_queries;

const STRATEGIES: [Strategy; 5] = [
    Strategy::RootPaths,
    Strategy::DataPaths,
    Strategy::Edge,
    Strategy::DataGuideEdge,
    Strategy::IndexFabricEdge,
];

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let only_panel = args
        .iter()
        .position(|a| a == "--panel")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_owned());
    println!("# Figure 12: twig queries without recursion (scale {scale})");

    // The single-branch baseline the paper adds to each panel: the first
    // branch common to Q4x/Q5x.
    let single_selective = "/site/people/person/profile/@income[. = '46814.17']";
    let single_unselective = "/site/people/person/profile/@income[. = '9876.00']";

    let (forest, _) = xmark_forest(scale);
    let e = engine(forest, &STRATEGIES);
    let mut all = Vec::new();

    #[allow(clippy::type_complexity)]
    let panels: [(&str, &str, Vec<(&str, String)>); 4] = [
        (
            "a",
            "(a) selective branches (1 -> 3 branches)",
            vec![("1-branch", single_selective.to_owned())],
        ),
        (
            "b",
            "(b) selective and unselective branches",
            vec![("1-branch", single_unselective.to_owned())],
        ),
        ("c", "(c) unselective branches", vec![("1-branch", single_unselective.to_owned())]),
        ("d", "(d) low branch points", Vec::new()),
    ];
    let panel_queries: [(&str, [&str; 2]); 4] = [
        ("a", ["Q4x", "Q5x"]),
        ("b", ["Q6x", "Q7x"]),
        ("c", ["Q8x", "Q9x"]),
        ("d", ["Q10x", "Q11x"]),
    ];

    let queries = xmark_queries();
    for ((panel, title, extra), (_, ids)) in panels.into_iter().zip(panel_queries) {
        if let Some(p) = &only_panel {
            if p != panel {
                continue;
            }
        }
        let mut rows: Vec<Measurement> = Vec::new();
        for (label, xpath) in &extra {
            let twig = xtwig_core::parse_xpath(xpath).unwrap();
            for s in STRATEGIES {
                rows.push(measure(&e, &twig, s, label));
            }
        }
        for id in ids {
            let q = queries.iter().find(|q| q.id == id).unwrap();
            let twig = q.twig();
            for s in STRATEGIES {
                rows.push(measure(&e, &twig, s, q.id));
            }
        }
        print_table(title, &rows);
        shape_check(panel, &rows);
        all.extend(rows);
    }
    dump_json("fig12_twigs", &all);
}

fn shape_check(panel: &str, rows: &[Measurement]) {
    let last_label = rows.last().unwrap().label.clone();
    let get = |strategy: Strategy| {
        rows.iter().find(|m| m.strategy == strategy.to_string() && m.label == last_label).unwrap()
    };
    let rp = get(Strategy::RootPaths);
    let dp = get(Strategy::DataPaths);
    let edge = get(Strategy::Edge);
    assert!(
        edge.probes > 5 * rp.probes.max(1),
        "panel {panel}: Edge probes {} should dwarf RP {}",
        edge.probes,
        rp.probes
    );
    if panel == "d" {
        assert_eq!(dp.plan, "IndexNestedLoop", "panel d is the INLJ case");
        assert!(
            dp.rows <= rp.rows,
            "panel d: DP INLJ should fetch no more rows than RP merge ({} vs {})",
            dp.rows,
            rp.rows
        );
        println!(
            "[shape ok: Q11x DP={}µs ({} rows via INLJ) vs RP={}µs ({} rows via merge), Edge {} probes]",
            dp.total_micros, dp.rows, rp.total_micros, rp.rows, edge.probes
        );
    } else {
        println!(
            "[shape ok on panel {panel}: probes RP={} DP={} Edge={} | plans RP={} DP={}]",
            rp.probes, dp.probes, edge.probes, rp.plan, dp.plan
        );
    }
}
