//! Ablation: delta vs. plain IdList payloads (§4.1) — lookup cost.
//!
//! Delta encoding shrinks the index (fewer leaf pages to scan) at the
//! price of per-entry decode work. This binary shows the net effect on
//! an unselective FreeIndex probe: the streaming scan the executor runs,
//! decoding every matched IdList. Wall time only; nothing gates it.
//!
//! Run with: `cargo run --release -p xtwig-bench --bin ablation_idlist [-- --quick]`

use std::ops::ControlFlow;
use std::sync::Arc;
use xtwig_bench::{time_per_call, xmark_forest};
use xtwig_core::family::PcSubpathQuery;
use xtwig_core::rootpaths::{RootPaths, RootPathsOptions};
use xtwig_rel::codec::IdListCodec;
use xtwig_storage::BufferPool;

fn main() {
    let (forest, _) = xmark_forest(0.01);
    let build = |idlist| {
        RootPaths::build(
            &forest,
            Arc::new(BufferPool::in_memory(16_384)),
            RootPathsOptions { idlist, ..Default::default() },
        )
    };
    let (delta, plain) = (build(IdListCodec::Delta), build(IdListCodec::Plain));
    let q =
        PcSubpathQuery::resolve(forest.dict(), &["item", "quantity"], false, Some("1")).unwrap();
    let structural =
        PcSubpathQuery::resolve(forest.dict(), &["bidder", "personref"], false, None).unwrap();
    println!("## ablation_idlist: one FreeIndex probe, every IdList decoded");
    let mut ids = Vec::new();
    for (name, index) in [("delta", &delta), ("plain", &plain)] {
        time_per_call(&format!("{name}/valued"), 30, || matches(index, &q, &mut ids));
        time_per_call(&format!("{name}/structural"), 30, || matches(index, &structural, &mut ids));
    }
}

/// The matches of `q`, each IdList decoded into `ids`.
fn matches(index: &RootPaths, q: &PcSubpathQuery, ids: &mut Vec<u64>) -> usize {
    let mut n = 0;
    index.for_each_free(q, ids, None, false, |_, _| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}
