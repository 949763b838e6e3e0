//! Integration: the executor's allocation budget. A twig answered from
//! ROOTPATHS, DATAPATHS or ASR decodes IdLists from the leaf page into
//! one flat binding table, so the number of heap allocations of one
//! `answer_compiled` call is a small constant plus vector doublings and
//! result-set nodes — not a multiple of the rows it fetched. A counting
//! global allocator pins that: before the binding table the slope was
//! about ten allocations per fetched row; the bound here is half of one.
//! The index builds are held to the same rule on their own axis: a bulk
//! load allocates by the page, and a DATAPATHS build by the page and the
//! shard, not by the row. A commit's engine fork allocates for the two
//! structures maintenance writes, not for the five it never does.
//!
//! Each thread keeps its executor's buffers between executions, so a
//! warm thread grows none of them again. The per-execution budgets are
//! therefore measured on a fresh thread ([`on_fresh_thread`]), where a
//! join that held its right side would still have to grow a buffer for
//! it. The warm budgets at the end pin what a request costs beyond its
//! execution: the service's bookkeeping, and the executor's own fixed
//! part once its buffers are warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::datagen::{generate_dblp, generate_xmark, xmark_queries, DblpConfig, XmarkConfig};
use xtwig::xml::XmlForest;

struct Counting;

thread_local! {
    // Const-initialised, so reading them from inside the allocator never
    // allocates; per thread, so parallel tests do not mix their counts.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` and is not touched by any allocation path.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`, `layout` is the one it was
        // allocated with, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread: how many allocations
/// (reallocations included) and how many bytes they asked for (a
/// reallocation asks for its whole new size).
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, Alloc) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let count = ALLOCATIONS.with(Cell::get) - before.0;
    (out, Alloc { count, bytes: BYTES.with(Cell::get) - before.1 })
}

struct Alloc {
    count: u64,
    bytes: u64,
}

/// [`allocations_of`] on a thread of its own, whose executor buffers
/// are cold: every buffer `f` grows is counted, however warm the
/// calling thread's are.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> (T, Alloc) {
    std::thread::scope(|s| s.spawn(|| allocations_of(f)).join().expect("the measured run"))
}

/// The constant part of the budget: step masks, probe keys and the
/// first allocation of each scratch vector. Measured over the 45 cells
/// below, `allocations - rows_fetched / 2` peaks at 25 (Q13x under
/// DATAPATHS: 27 allocations, 4 rows) and the most any cell allocates is
/// 86 (Q15x under ASR, 809 rows; 7 325 before the binding table). Over
/// the Edge family's 60 cells, `allocations - 2 × probes - rows_fetched /
/// 2` peaks at 20 (Q7x under DG+Edge: 55 allocations, 17 probes, 3 rows).
/// Run with `ALLOC_BUDGET_REPORT=1 -- --nocapture` for the tables.
const A: u64 = 40;

#[test]
fn answering_a_twig_allocates_by_the_step_not_by_the_row() {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.02, seed: 0xA0C });
    let forest = Arc::new(forest);
    let strategies = [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr];
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions { strategies: strategies.to_vec(), pool_pages: 8192, ..Default::default() },
    );
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for q in xmark_queries() {
        let (compiled, plan) = engine.compile(&q.twig()).expect("workload tags exist");
        for s in strategies {
            let answer = || engine.answer_compiled(&compiled, &plan, s);
            let (first, allocs) = on_fresh_thread(answer);
            let (second, again) = on_fresh_thread(answer);
            let (allocs, again) = (allocs.count, again.count);
            assert_eq!(first.ids, second.ids);
            let rows = first.metrics.rows_fetched;
            if report {
                println!(
                    "{:5} {:4} rows {rows:6} allocs {allocs:5} again {again:5}",
                    q.id,
                    s.label()
                );
            }
            assert!(
                allocs <= A + rows / 2,
                "{} under {}: {allocs} allocations for {rows} fetched rows (budget {})",
                q.id,
                s.label(),
                A + rows / 2
            );
            assert!(again <= allocs, "{} under {}: second call {again} > first {allocs}", q.id, s);
        }
    }
}

/// The Edge family lends its matches the way ROOTPATHS, DATAPATHS and
/// ASR do: each match is walked into one reused buffer and lent from
/// there, so an answer allocates what its B+-tree lookups allocate (a
/// probe key, and a point lookup's copied payload: two a probe at most)
/// and nothing per match. Before, the Edge chain and its DataGuide,
/// Index Fabric and Join Index variants built an owned match per
/// candidate — its id vector and a copy of the pattern's tags — and
/// copied every scanned index entry out of the leaf. The worst cell was
/// Q5x under DG+Edge: 1 373 allocations for 16 probes and 3 fetched rows
/// (budget 73; 41 now).
#[test]
fn the_edge_family_allocates_by_the_probe_not_by_the_match() {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.02, seed: 0xA0C });
    let forest = Arc::new(forest);
    let strategies =
        [Strategy::Edge, Strategy::DataGuideEdge, Strategy::IndexFabricEdge, Strategy::JoinIndex];
    let engine = QueryEngine::build(
        forest.clone(),
        EngineOptions { strategies: strategies.to_vec(), pool_pages: 8192, ..Default::default() },
    );
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for q in xmark_queries() {
        let (compiled, plan) = engine.compile(&q.twig()).expect("workload tags exist");
        for s in strategies {
            let answer = || engine.answer_compiled(&compiled, &plan, s);
            let (first, allocs) = on_fresh_thread(answer);
            let (second, again) = on_fresh_thread(answer);
            let (allocs, again) = (allocs.count, again.count);
            assert_eq!(first.ids, second.ids);
            let (probes, rows) = (first.metrics.probes, first.metrics.rows_fetched);
            let budget = A + 2 * probes + rows / 2;
            if report {
                println!(
                    "{:5} {:8} probes {probes:6} rows {rows:6} allocs {allocs:6} budget {budget:6}",
                    q.id,
                    s.label()
                );
            }
            assert!(
                allocs <= budget,
                "{} under {}: {allocs} allocations for {probes} probes and {rows} fetched rows \
                 (budget {budget})",
                q.id,
                s.label()
            );
            assert!(again <= allocs, "{} under {}: second call {again} > first {allocs}", q.id, s);
        }
    }
}

/// A join's right side is the rows its probe fetches, and it is never
/// held: each match the leaf scan lends is looked up in the left rows and
/// joined on the spot, so the bytes an answer asks for are bounded by a
/// few bytes per fetched row (`per_row`), not by the 24–56 bytes a match
/// written into the binding table takes.
///
/// The two joins measured cannot seek past an index entry: each joins
/// its rows to the matches below them by `//`, on the match's ancestors,
/// so every `title` (every `text`) entry is fetched and looked up.
/// Measured (bytes asked for / rows fetched): the DBLP join 7 657 /
/// 2 953, the XMark one 16 452 / 740. The XMark twig needs the wider
/// budget because it keeps its rows five twig nodes wide between its
/// joins, asked for twice over by the table's doubling, which no
/// streaming of the right side removes.
///
/// The DBLP join by `/` instead seeks past every `title` entry below the
/// next `Conference 7` paper, and fetches 72 rows. Before the join could
/// seek, it fetched 2 587, every `booktitle = 'Conference 7'` and every
/// `inproceedings/title` entry.
#[test]
fn a_join_never_holds_its_right_side() {
    let mut dblp = XmlForest::new();
    generate_dblp(&mut dblp, DblpConfig { scale: 0.02, seed: 7 });
    let mut xmark = XmlForest::new();
    generate_xmark(&mut xmark, XmarkConfig { scale: 0.02, seed: 0xA0C });
    let (dblp, xmark) = (Arc::new(dblp), Arc::new(xmark));
    let engine_of = |forest: &Arc<XmlForest>| {
        QueryEngine::build(
            forest.clone(),
            EngineOptions {
                strategies: vec![Strategy::RootPaths],
                pool_pages: 8192,
                ..Default::default()
            },
        )
    };
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for (forest, xpath, per_row) in [
        (&dblp, "/dblp/inproceedings[booktitle='Conference 7']//title", 8),
        (&xmark, "/site//item[quantity = '2'][location = 'united states']//text", 32),
    ] {
        let engine = engine_of(forest);
        let twig = xtwig::parse_xpath(xpath).expect("well-formed");
        let (compiled, plan) = engine.compile(&twig).expect("workload tags exist");
        let answer = || engine.answer_compiled(&compiled, &plan, Strategy::RootPaths);
        let warm = answer();
        let (again, alloc) = on_fresh_thread(answer);
        assert_eq!(warm.ids, again.ids);
        let rows = again.metrics.rows_fetched;
        if report {
            println!("{xpath}: rows {rows} allocs {} bytes {}", alloc.count, alloc.bytes);
        }
        assert!(rows >= 500, "{xpath}: {rows} fetched rows are too few to tell");
        assert!(
            alloc.bytes < per_row * rows,
            "{xpath}: {} bytes allocated for {rows} fetched rows (budget {})",
            alloc.bytes,
            per_row * rows
        );
        assert!(alloc.count <= A + rows / 2, "{xpath}: {} allocations", alloc.count);
    }
    let narrowed = "/dblp/inproceedings[booktitle='Conference 7']/title";
    let twig = xtwig::parse_xpath(narrowed).expect("well-formed");
    let answer = engine_of(&dblp).answer(&twig, Strategy::RootPaths);
    let want: std::collections::BTreeSet<u64> =
        xtwig::xml::naive::select(&dblp, &twig).into_iter().map(|n| n.0).collect();
    assert_eq!(answer.ids, want, "{narrowed}");
    let rows = answer.metrics.rows_fetched;
    if report {
        println!("{narrowed}: rows {rows}");
    }
    assert!(rows * 10 <= 2_587, "{narrowed}: {rows} fetched rows, not a tenth of 2 587");
}

/// A one-step plan writes no binding-table row: its scan lends each
/// entry's last id straight from the key, decoding no IdList, and pushes
/// it into the answer vector, which is sorted, deduplicated and collected
/// into the answer set.
///
/// Measured (bytes asked for / rows fetched): 487 625 / 5 175 = 94 per
/// row when each match was decoded into a binding-table row and read back
/// from the output column; 225 481 / 5 175 = 44 now. What is left is the
/// answer vector's doublings (131 040 bytes), the sort scratch inside
/// `BTreeSet::from_iter` (8 bytes an id) and the set's nodes (about 10).
/// The budget lies between the two.
#[test]
fn a_one_step_scan_writes_ids_not_rows() {
    let mut dblp = XmlForest::new();
    generate_dblp(&mut dblp, DblpConfig { scale: 0.02, seed: 7 });
    let engine = QueryEngine::build(
        Arc::new(dblp),
        EngineOptions {
            strategies: vec![Strategy::RootPaths],
            pool_pages: 8192,
            ..Default::default()
        },
    );
    let xpath = "//inproceedings/author";
    let twig = xtwig::parse_xpath(xpath).expect("well-formed");
    let (compiled, plan) = engine.compile(&twig).expect("workload tags exist");
    assert_eq!(plan.steps.len(), 1, "{xpath}: one step");
    let answer = || engine.answer_compiled(&compiled, &plan, Strategy::RootPaths);
    let warm = answer();
    let (again, alloc) = on_fresh_thread(answer);
    assert_eq!(warm.ids, again.ids);
    let rows = again.metrics.rows_fetched;
    if std::env::var_os("ALLOC_BUDGET_REPORT").is_some() {
        println!("{xpath}: rows {rows} allocs {} bytes {}", alloc.count, alloc.bytes);
    }
    assert!(rows >= 5_000, "{xpath}: {rows} fetched rows are too few to tell");
    let per_row = 64;
    assert!(
        alloc.bytes < per_row * rows,
        "{xpath}: {} bytes allocated for {rows} fetched rows (budget {})",
        alloc.bytes,
        per_row * rows
    );
    assert!(alloc.count <= A + rows / 2, "{xpath}: {} allocations", alloc.count);
}

/// The loader allocates by the page, not by the entry: one page image
/// and one separator a node, and the doublings of the level vectors.
/// It holds one write guard per node, links each leaf to its right
/// sibling when that sibling is allocated, and compares each key with
/// the previous one in place, so borrowed entries are copied once, into
/// their leaf: 840 allocations for these 60 000 entries on 264 pages.
/// Before, the loader took owned entries and cloned every key to track
/// the leaf's last one; the same entries, owned and moved in, cost
/// 61 619 allocations.
#[test]
fn a_bulk_load_allocates_by_the_page_not_by_the_entry() {
    use xtwig::btree::{bulk_build, BTreeOptions};
    use xtwig::storage::BufferPool;

    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..60_000u32)
        .map(|i| (format!("entry/{i:08}").into_bytes(), i.to_le_bytes().repeat(3)))
        .collect();
    let pool = Arc::new(BufferPool::in_memory(8192));
    let (tree, alloc) = allocations_of(|| {
        bulk_build(pool, BTreeOptions::default(), entries.iter().map(|(k, v)| (k, v)))
    });
    assert_eq!(tree.len(), 60_000);
    let pages = tree.stats().pages;
    if std::env::var_os("ALLOC_BUDGET_REPORT").is_some() {
        println!("bulk_build: entries 60000 pages {pages} allocs {}", alloc.count);
    }
    assert!(
        alloc.count <= 4 * pages + 32,
        "{} allocations for {pages} pages (budget {})",
        alloc.count,
        4 * pages + 32
    );
}

/// A DATAPATHS build encodes every row straight into its shard's arena
/// and bulk-loads from borrowed slices, so it allocates by the page and
/// the shard: arena doublings, the loader's per-page allocations, and
/// the enumeration stacks: 3 975 allocations for this forest's 236 459
/// rows on 1 282 pages (4 095 in four shards). Before, every row was a
/// key and an IdList of its own, and the sequential build made
/// 1 035 395.
#[test]
fn a_datapaths_build_allocates_by_the_page_and_the_shard_not_by_the_row() {
    use xtwig::core::datapaths::{DataPaths, DataPathsOptions};
    use xtwig::core::parallel::ShardPlan;
    use xtwig::storage::BufferPool;

    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.02, seed: 0xA0C });
    let forest = Arc::new(forest);
    for shards in [1, 4] {
        // One worker: the shard jobs run on this thread, where the
        // allocations are counted.
        let plan = ShardPlan::new(&forest, shards).with_workers(1);
        let pool = Arc::new(BufferPool::in_memory(8192));
        let (dp, alloc) = allocations_of(|| {
            DataPaths::build_sharded(&forest, pool, DataPathsOptions::default(), &plan)
        });
        let (rows, pages) = (dp.rows(), dp.tree().stats().pages);
        let budget = 4 * pages + 64 * shards as u64;
        if std::env::var_os("ALLOC_BUDGET_REPORT").is_some() {
            println!(
                "DataPaths, {shards} shard(s): rows {rows} pages {pages} allocs {}",
                alloc.count
            );
        }
        assert!(rows > 50 * pages, "{rows} rows over {pages} pages are too few to tell");
        assert!(alloc.count <= budget, "{} allocations (budget {budget})", alloc.count);
    }
}

/// A fork copies only what it writes: ROOTPATHS and DATAPATHS get
/// copy-on-write pools and reattached shells, and the five structures no
/// maintenance writes stay behind the one `Arc` the fork clones. So
/// forking an engine with all seven built allocates what forking the
/// same forest's RP+DP engine does, plus a small constant. Before, each
/// of the five got a new shell parsed back from its persisted metadata:
/// 1 035 allocations against 31 here.
#[test]
fn a_fork_allocates_for_what_it_writes() {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.004, seed: 0xA0C });
    let forest = Arc::new(forest);
    let fork_allocations = |strategies: Vec<Strategy>| {
        let options = EngineOptions { strategies, pool_pages: 2048, ..Default::default() };
        let engine = QueryEngine::build(forest.clone(), options);
        let (fork, alloc) = allocations_of(|| engine.fork().expect("no writer holds a page"));
        drop(fork);
        alloc.count
    };
    let all = fork_allocations(Strategy::ALL.to_vec());
    let maintained = fork_allocations(vec![Strategy::RootPaths, Strategy::DataPaths]);
    if std::env::var_os("ALLOC_BUDGET_REPORT").is_some() {
        println!("fork: all seven {all} allocations, RP+DP {maintained}");
    }
    assert!(all <= maintained + 4, "{all} allocations (RP+DP alone: {maintained})");
}

/// Pricing a step with a literal reads the literal's instances from the
/// path statistics, on every DATAPATHS execution of a probe-capable
/// step. The lookup borrows the literal: it allocates nothing. Before,
/// the statistics were keyed by an owned `(tag, value)` pair, and each
/// lookup copied the literal into a `String` to build its key.
#[test]
fn estimating_a_literal_allocates_nothing() {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.004, seed: 0xA0C });
    let options = EngineOptions { strategies: vec![Strategy::RootPaths], ..Default::default() };
    let engine = QueryEngine::build(Arc::new(forest), options);
    let quantity = engine.dict().lookup("quantity").expect("XMark has quantities");
    let ((hit, miss), alloc) = allocations_of(|| {
        let stats = engine.stats();
        (stats.tag_value_count(quantity, "2"), stats.tag_value_count(quantity, "no such value"))
    });
    assert!(hit > 0 && miss == 0, "quantity = '2': {hit}, an absent value: {miss}");
    assert_eq!(alloc.count, 0, "estimating two literals allocated {} times", alloc.count);
}

/// The XMark forest the warm budgets run on, and its queries.
fn xmark_002() -> XmlForest {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.02, seed: 0xA0C });
    forest
}

/// A served request pays for its query, not its bookkeeping: with the
/// result cache off and the plan cached, `TwigService::execute` makes
/// at most 6 allocations more than `answer_compiled_with` of the same
/// plan on the same warm thread — the shared answer set, and nothing per
/// node, literal or shape of the twig. Before the requests were keyed
/// by an allocation-free fingerprint and the cached cover was read in
/// place, the service made 32–68 more: two `String` keys rendered with
/// `Debug` formatting, and a copy of the cover and twig per request.
#[test]
fn a_served_request_allocates_little_beyond_its_execution() {
    use std::collections::HashMap;
    use xtwig::service::{Fingerprint, ServiceOptions, TwigService};
    let options = EngineOptions { pool_pages: 8192, ..Default::default() };
    let service = TwigService::build(
        xmark_002(),
        options,
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    // The plan cache keeps the plan of the first twig of each shape it
    // sees (Q6x runs Q4x's), and every later twig of the shape runs it.
    let mut first_of_shape = HashMap::new();
    for q in xmark_queries() {
        let twig = q.twig();
        let first = first_of_shape.entry(Fingerprint::of(&twig).shape).or_insert(q.twig());
        let (compiled, plan) =
            service.with_engine(|engine| engine.compile(first).expect("workload tags exist"));
        for s in Strategy::ALL {
            let serve = || service.execute(&twig, s).expect("served");
            serve();
            serve();
            let (served, request) = allocations_of(serve);
            let (direct, execution) = service.with_engine(|engine| {
                let answer = || engine.answer_compiled_with(&compiled, &twig, &plan, s, None);
                answer();
                allocations_of(answer)
            });
            assert!(!served.from_cache);
            assert_eq!(*served.ids, direct.ids, "{} under {s}", q.id);
            let (request, execution) = (request.count, execution.count);
            if report {
                println!("{:5} {:8} served {request:5} executed {execution:5}", q.id, s.label());
            }
            assert!(
                request <= execution + 6,
                "{} under {s}: a served request made {request} allocations, its execution \
                 {execution}",
                q.id
            );
        }
    }
}

/// A result-cache hit allocates at most twice, under `Strategy::Auto`
/// too, which resolves its pick through the plan cache first: the
/// lookup hashes nothing into a key of its own, and the recency list
/// moves no entry on a hit. Before, a hit made 33–69 allocations.
#[test]
fn a_result_cache_hit_allocates_at_most_twice() {
    use xtwig::service::{ServiceOptions, TwigService};
    let options = EngineOptions { pool_pages: 8192, ..Default::default() };
    let service = TwigService::build(xmark_002(), options, ServiceOptions::default());
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for q in xmark_queries() {
        let twig = q.twig();
        let serve = || service.execute(&twig, Strategy::Auto).expect("served");
        let miss = serve();
        assert!(!miss.from_cache, "{}", q.id);
        serve();
        let (hit, alloc) = allocations_of(serve);
        assert!(hit.from_cache, "{}", q.id);
        assert_eq!(hit.ids, miss.ids, "{}", q.id);
        if report {
            println!("{:5} auto hit {:3}", q.id, alloc.count);
        }
        assert!(alloc.count <= 2, "{}: a result-cache hit made {} allocations", q.id, alloc.count);
    }
}

/// A warm execution grows no buffer: the thread's executor scratch
/// already holds them, so a second `answer_compiled` on the same
/// thread allocates at most 8 times more than collecting its answer
/// into a `BTreeSet` does — the step masks, probe keys and the like.
/// Before the scratch lived with the thread, every execution grew its
/// buffers from empty: up to 28 more (Q13x).
#[test]
fn a_warm_execution_allocates_little_beyond_its_answer_set() {
    use std::collections::BTreeSet;
    let strategies = [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr];
    let engine = QueryEngine::build(
        Arc::new(xmark_002()),
        EngineOptions { strategies: strategies.to_vec(), pool_pages: 8192, ..Default::default() },
    );
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for q in xmark_queries() {
        let (compiled, plan) = engine.compile(&q.twig()).expect("workload tags exist");
        for s in strategies {
            let answer = || engine.answer_compiled(&compiled, &plan, s);
            answer();
            let (warm, alloc) = allocations_of(answer);
            let (_, set) = allocations_of(|| warm.ids.iter().copied().collect::<BTreeSet<u64>>());
            let (alloc, set) = (alloc.count, set.count);
            if report {
                println!("{:5} {:4} warm {alloc:5} answer set {set:5}", q.id, s.label());
            }
            assert!(
                alloc <= set + 8,
                "{} under {s}: a warm execution made {alloc} allocations, its answer set {set}",
                q.id
            );
        }
    }
}
