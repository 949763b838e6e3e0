//! The work record: for each ledger request, the strategy `auto` picks
//! with the plan it runs, and for each of the seven strategies the exact
//! work a cold execution does under 64-frame pools: probes, logical and
//! physical page reads, rows fetched, every step's trace detail, and
//! the answer's size and checksum.
//!
//! `workload_xmark` and `workload_dblp` compare it byte for byte with
//! `tests/golden/work_<corpus>.txt`, so any change to the work a query
//! does shows as a diff of that file. Every answer is also checked
//! against `naive::select`. Nothing here rewrites `tests/`: on a
//! mismatch the test writes the new record under `target/golden/` and
//! prints the `cp` that accepts it.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::xml::{naive, XmlForest};

/// Frames per structure pool, the ledger's `cold_scan` setting: the
/// larger scans evict, so physical reads count more than first touches.
const POOL_FRAMES: usize = 64;

/// One line per request (`auto`) and one per strategy, over an engine
/// holding all seven structures of `forest`.
pub fn record(corpus: &str, forest: &XmlForest, requests: &[(String, String)]) -> String {
    let engine =
        QueryEngine::build(forest, EngineOptions { pool_pages: POOL_FRAMES, ..Default::default() });
    let mut out = format!(
        "# {corpus}: {} nodes, all seven structures, {POOL_FRAMES}-frame pools, each \
         strategy run cold\n",
        forest.node_count()
    );
    for (id, xpath) in requests {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(forest, &twig).into_iter().map(|n| n.0).collect();
        let auto = engine.answer(&twig, Strategy::Auto);
        assert_eq!(auto.ids, expected, "{id} via auto disagrees with the oracle");
        let plan = engine.plan(&twig).map_or("unknown tag".to_owned(), |p| {
            p.to_string().lines().map(str::trim).collect::<Vec<_>>().join("; ")
        });
        let _ = writeln!(out, "{id} auto={} {xpath} | {plan}", auto.strategy.label());
        for s in Strategy::ALL {
            engine.clear_caches(s);
            let (a, trace) = engine.answer_traced(&twig, s);
            assert_eq!(a.ids, expected, "{id} via {} disagrees with the oracle", s.label());
            let m = a.metrics;
            let steps: Vec<String> = trace
                .spans()
                .into_iter()
                .filter(|sp| sp.name == "step")
                .map(|sp| sp.detail)
                .collect();
            let _ = writeln!(
                out,
                "{id} {} probes={} logical={} physical={} rows={} results={} sum={:016x} | {}",
                s.label(),
                m.probes,
                m.logical_reads,
                m.physical_reads,
                m.rows_fetched,
                a.ids.len(),
                checksum(&a.ids),
                steps.join("; ")
            );
        }
    }
    out
}

/// A sum of per-id hashes: the same for any order the ids arrive in.
fn checksum(ids: &BTreeSet<u64>) -> u64 {
    ids.iter().fold(0u64, |sum, &id| {
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        sum.wrapping_add(z ^ (z >> 31))
    })
}

/// Fails unless `actual` equals `tests/golden/<name>` byte for byte.
/// On a mismatch, or when the file is missing, it writes `actual` to
/// `target/golden/<name>` and panics with the first differing lines and
/// the command that accepts the new record.
pub fn check(name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(name);
    let expected = std::fs::read_to_string(&golden).ok();
    if expected.as_deref() == Some(actual) {
        return;
    }
    let written = root.join("target/golden").join(name);
    std::fs::create_dir_all(written.parent().unwrap()).unwrap();
    std::fs::write(&written, actual).unwrap();
    let Some(expected) = expected else {
        panic!(
            "{} is missing; the record of this run is in {}.\naccept it with: cp {} {}",
            golden.display(),
            written.display(),
            written.display(),
            golden.display()
        );
    };
    let (old, new): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    let differing =
        (0..old.len().max(new.len())).filter(|&i| old.get(i) != new.get(i)).collect::<Vec<_>>();
    for &i in differing.iter().take(12) {
        let _ = writeln!(diff, "line {}:", i + 1);
        if let Some(line) = old.get(i) {
            let _ = writeln!(diff, "- {line}");
        }
        if let Some(line) = new.get(i) {
            let _ = writeln!(diff, "+ {line}");
        }
    }
    panic!(
        "the work record differs from {} on {} line(s); the first:\n{diff}\
         the full record of this run is in {}.\n\
         If the change in work is intended, accept it with: cp {} {}",
        golden.display(),
        differing.len(),
        written.display(),
        written.display(),
        golden.display()
    );
}
