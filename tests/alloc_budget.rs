//! Integration: the executor's allocation budget. A twig answered from
//! ROOTPATHS, DATAPATHS or ASR decodes IdLists from the leaf page into
//! one flat binding table, so the number of heap allocations of one
//! `answer_compiled` call is a small constant plus vector doublings and
//! result-set nodes — not a multiple of the rows it fetched. A counting
//! global allocator pins that: before the binding table the slope was
//! about ten allocations per fetched row; the bound here is half of one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtwig::core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig::datagen::{generate_xmark, xmark_queries, XmarkConfig};
use xtwig::xml::XmlForest;

struct Counting;

thread_local! {
    // Const-initialised, so reading it from inside the allocator never
    // allocates; per thread, so parallel tests do not mix their counts.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` and is not touched by any allocation path.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System`, `layout` is the one it was
        // allocated with, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The constant part of the budget: step masks, probe keys and the
/// first allocation of each scratch vector. Measured over the 45 cells
/// below, `allocations - rows_fetched / 2` peaks at 25 (Q13x under
/// DATAPATHS: 27 allocations, 4 rows) and the most any cell allocates is
/// 86 (Q15x under ASR, 809 rows; 7 325 before the binding table). Run
/// with `ALLOC_BUDGET_REPORT=1 -- --nocapture` for the table.
const A: u64 = 40;

#[test]
fn answering_a_twig_allocates_by_the_step_not_by_the_row() {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: 0.02, seed: 0xA0C });
    let strategies = [Strategy::RootPaths, Strategy::DataPaths, Strategy::Asr];
    let engine = QueryEngine::build(
        &forest,
        EngineOptions { strategies: strategies.to_vec(), pool_pages: 8192, ..Default::default() },
    );
    let report = std::env::var_os("ALLOC_BUDGET_REPORT").is_some();
    for q in xmark_queries() {
        let (compiled, plan) = engine.compile(&q.twig()).expect("workload tags exist");
        for s in strategies {
            let (first, allocs) = allocations_of(|| engine.answer_compiled(&compiled, &plan, s));
            let (second, again) = allocations_of(|| engine.answer_compiled(&compiled, &plan, s));
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
