//! The work record: for each ledger request, the strategy `auto` picks
//! with the plan it runs, and for each of the seven strategies the exact
//! work a cold execution does under 64-frame pools: probes, logical and
//! physical page reads, the cost model's estimate of those physical
//! reads (`est=`, `explain`'s `est_page_reads`), rows fetched, every
//! step's trace detail, and the answer's size and checksum. Each corpus
//! ends with one summary line: how often `auto` picked the strategy
//! with the fewest physical reads, how often one within 2x of it, the
//! regret Σ physical(`auto`) ÷ Σ fewest physical, and by how much the
//! estimates miss the reads they price.
//!
//! `workload_xmark`, `workload_dblp` and `optimizer` compare it byte for
//! byte with `tests/golden/work_<corpus>.txt`, so any change to the work
//! a query does, or to what the cost model estimates and picks, shows as
//! a diff of that file. Every answer is also checked against
//! `naive::select`. Nothing here rewrites `tests/`: on a mismatch the
//! test writes the new record under `target/golden/` and prints the `cp`
//! that accepts it.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::core::Trace;
use xtwig::xml::{naive, XmlForest};

/// Frames per structure pool, the ledger's `cold_scan` setting: the
/// larger scans evict, so physical reads count more than first touches.
const POOL_FRAMES: usize = 64;

/// How each corpus's summary line starts.
const SUMMARY: &str = "# auto:";

/// `auto`'s picks and the `est=` cells against the `physical=` cells of
/// the same record.
#[derive(Default)]
pub struct Summary {
    /// Requests recorded.
    requests: usize,
    /// Requests whose pick read no more pages than any strategy.
    fewest: usize,
    /// Requests whose pick read at most twice the fewest pages.
    within_2x: usize,
    /// Σ physical reads under the pick.
    auto_reads: u64,
    /// Σ fewest physical reads per request.
    fewest_reads: u64,
    /// Σ over strategy lines of `|ln r|`, `r = (physical + 1) / (est + 1)`:
    /// `explain --analyze`'s smoothed ratio, direction-free.
    log_misses: f64,
}

impl Summary {
    /// The summary line. `misestimate` is the geometric mean of
    /// `max(r, 1/r)` over the corpus's strategy lines: 1 when every
    /// estimate equals its reads, so any change to an estimate shows here.
    fn line(&self) -> String {
        format!(
            "{SUMMARY} fewest physical reads {}/{}, within 2x {}/{}, regret {:.3} = {}/{}, \
             misestimate x{:.3}",
            self.fewest,
            self.requests,
            self.within_2x,
            self.requests,
            self.auto_reads as f64 / self.fewest_reads.max(1) as f64,
            self.auto_reads,
            self.fewest_reads,
            (self.log_misses / (self.requests * Strategy::ALL.len()).max(1) as f64).exp()
        )
    }

    /// Fails unless `auto` picked within 2x of the fewest physical reads
    /// on at least 80 % of the requests.
    pub fn assert_within_2x_on_80_pct(&self, corpus: &str) {
        assert!(
            self.within_2x * 5 >= self.requests * 4,
            "{corpus}: auto within 2x of the fewest physical reads on only {}/{} requests",
            self.within_2x,
            self.requests
        );
    }
}

/// One line per request (`auto`) and one per strategy, over an engine
/// holding all seven structures of `forest`, then the summary line.
pub fn record(
    corpus: &str,
    forest: Arc<XmlForest>,
    requests: &[(String, String)],
) -> (String, Summary) {
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions { pool_pages: POOL_FRAMES, ..Default::default() },
    );
    let forest = &*forest;
    let mut out = format!(
        "# {corpus}: {} nodes, all seven structures, {POOL_FRAMES}-frame pools, each \
         strategy run cold\n",
        forest.node_count()
    );
    let mut summary = Summary::default();
    for (id, xpath) in requests {
        let twig = xtwig::parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(forest, &twig).into_iter().map(|n| n.0).collect();
        let auto = engine.answer(&twig, Strategy::Auto);
        assert_eq!(auto.ids, expected, "{id} via auto disagrees with the oracle");
        let ex = engine.explain(&twig).unwrap_or_else(|e| panic!("{id}: {e}"));
        let plan = ex.plan.to_string().lines().map(str::trim).collect::<Vec<_>>().join("; ");
        let _ = writeln!(out, "{id} auto={} {xpath} | {plan}", auto.strategy.label());
        // Compiled once, before any pool is cleared: each cold run then
        // measures its execution alone, whatever planning reads.
        let (compiled, plan) = engine.compile(&twig).unwrap_or_else(|e| panic!("{id}: {e}"));
        let (mut auto_reads, mut fewest) = (0, u64::MAX);
        for s in Strategy::ALL {
            engine.clear_caches(s);
            let mut trace = Trace::new();
            let a = engine.answer_compiled_with(&compiled, &twig, &plan, s, Some(&mut trace));
            assert_eq!(a.ids, expected, "{id} via {} disagrees with the oracle", s.label());
            let m = a.metrics;
            // A cold run that answers something has read a page for it.
            assert!(
                a.ids.is_empty() || m.physical_reads > 0,
                "{id} via {} answered from cached pages",
                s.label()
            );
            if s == auto.strategy {
                auto_reads = m.physical_reads;
            }
            fewest = fewest.min(m.physical_reads);
            let est = ex.choices.iter().find(|c| c.strategy == s).unwrap().est_page_reads;
            summary.log_misses += ((m.physical_reads as f64 + 1.0) / (est + 1.0)).ln().abs();
            let steps: Vec<String> = trace
                .spans()
                .into_iter()
                .filter(|sp| sp.name == "step")
                .map(|sp| sp.detail)
                .collect();
            let _ = writeln!(
                out,
                "{id} {} probes={} logical={} physical={} est={est:.1} rows={} results={} \
                 sum={:016x} | {}",
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
        summary.requests += 1;
        summary.fewest += usize::from(auto_reads == fewest);
        summary.within_2x += usize::from(auto_reads <= 2 * fewest);
        summary.auto_reads += auto_reads;
        summary.fewest_reads += fewest;
    }
    let _ = writeln!(out, "{}", summary.line());
    (out, summary)
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
/// `target/golden/<name>` and panics with the summary lines that changed,
/// the first differing lines, and the command that accepts the new record.
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
    // An estimate change touches every line, so a changed pick or regret
    // would fall past the first lines: the summary lines go first.
    let mut diff = String::new();
    let old_sum: Vec<&str> = old.iter().copied().filter(|l| l.starts_with(SUMMARY)).collect();
    let new_sum: Vec<&str> = new.iter().copied().filter(|l| l.starts_with(SUMMARY)).collect();
    if old_sum != new_sum {
        let _ = writeln!(diff, "the summary lines differ from {}:", golden.display());
        for i in 0..old_sum.len().max(new_sum.len()) {
            if let Some(line) = old_sum.get(i).filter(|&l| Some(l) != new_sum.get(i)) {
                let _ = writeln!(diff, "- {line}");
            }
            if let Some(line) = new_sum.get(i).filter(|&l| Some(l) != old_sum.get(i)) {
                let _ = writeln!(diff, "+ {line}");
            }
        }
    }
    let differing =
        (0..old.len().max(new.len())).filter(|&i| old.get(i) != new.get(i)).collect::<Vec<_>>();
    let _ = writeln!(
        diff,
        "the work record differs from {} on {} line(s); the first:",
        golden.display(),
        differing.len()
    );
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
        "{diff}the full record of this run is in {}.\n\
         If the change in work is intended, accept it with: cp {} {}",
        written.display(),
        written.display(),
        golden.display()
    );
}
