//! Figure 10 (plus Figures 7–8): the query workload with estimated
//! per-branch result sizes on the generated datasets.
//!
//! For each query this prints the paper's grouping metadata and, for
//! every PCsubpath of the twig's cover, the planner's estimate of its
//! matches — the analogue of Fig. 7/8's "Result Size Per Branch" column.
//! A branch's estimate is its schema-path count, capped by the instances
//! of its literal, which a ROOTPATHS engine counts in its index.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin fig10_workload [--scale f]`

use xtwig_bench::{dblp_forest, engine, scale_from_args, xmark_forest};
use xtwig_core::engine::{QueryEngine, Strategy};
use xtwig_datagen::{dblp_queries, xmark_queries, BenchQuery};

fn report(engine: &QueryEngine, queries: &[BenchQuery]) {
    for q in queries {
        println!(
            "\n{:<5} ({:?}, {} branches, {} recursion(s))",
            q.id, q.group, q.branches, q.recursions
        );
        println!("      {}", q.xpath);
        match engine.compile(&q.twig()) {
            Err(e) => println!("      [empty result: {e}]"),
            Ok((compiled, plan)) => {
                // The plan lists its steps in evaluation order; the
                // branches print in cover order.
                let mut estimates = vec![0; compiled.subpaths.len()];
                for step in &plan.steps {
                    estimates[step.subpath] = step.estimate;
                }
                for (sp, card) in compiled.subpaths.iter().zip(estimates) {
                    let names: Vec<&str> =
                        sp.q.tags.iter().map(|&t| engine.dict().name(t)).collect();
                    println!(
                        "      branch {}{}{} -> {} matches",
                        if sp.q.anchored { "/" } else { "//" },
                        names.join("/"),
                        sp.q.value.as_deref().map(|v| format!(" = '{v}'")).unwrap_or_default(),
                        card
                    );
                }
            }
        }
    }
}

fn main() {
    let scale = scale_from_args();
    println!("# Figure 10 workload summary (scale {scale})");
    println!("\n== XMark queries (Figs. 7-8) ==");
    let (xforest, xprofile) = xmark_forest(scale);
    let xengine = engine(xforest, &[Strategy::RootPaths]);
    println!(
        "dataset: {} nodes, {} distinct schema paths (paper: 902 root paths at 100MB)",
        xprofile.nodes,
        xengine.stats().distinct_schema_paths()
    );
    report(&xengine, &xmark_queries());

    println!("\n== DBLP queries (Fig. 7) ==");
    let (dforest, dprofile) = dblp_forest(scale);
    let dengine = engine(dforest, &[Strategy::RootPaths]);
    println!(
        "dataset: {} nodes, {} distinct schema paths (paper: 235 at 50MB)",
        dprofile.nodes,
        dengine.stats().distinct_schema_paths()
    );
    report(&dengine, &dblp_queries());
}
