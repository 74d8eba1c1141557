//! Heap-allocation budget of a compile, counted by this binary's global
//! allocator.
//!
//! The unit is mvbench's `variant_grid` shape: 16 multiversed functions
//! over four switches of domain {0, 1, 2}, 16 × 3^4 = 1296 specialized
//! clones merged to 256 variants. A `-j 1` build runs every stage on
//! the calling thread, so the count covers lowering, every clone's specialization, the
//! optimizer's fixpoint, the canonical keys, the merge, codegen and
//! object assembly. The budget is per clone: the optimizer's scratch
//! tables are reused across clones, so what a clone costs is its own
//! retained body and key, not the passes that fold it.
//!
//! Counts are per thread, so the test harness's other threads never
//! land in a measurement.

use multiverse::mvc::{Options, Pipeline};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (a `realloc` is one) on
/// the calling thread.
struct Counting;

// SAFETY: every method passes its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees hold; the counter is a
// const-initialised thread-local without a destructor, which allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread tearing down its locals may still allocate.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per clone a grid compile may make: 29,658 over 1296
/// clones (22.9) when the budget was set, a compile-cache insert per
/// function included. The optimizer that rebuilt its hash maps per
/// block and per pass made 227,993 (175.9).
const BUDGET_PER_CLONE: u64 = 23;

/// `variant_grid`'s source: `funcs` functions, each adding a distinct
/// constant per switch it finds non-zero.
fn grid_src(funcs: usize) -> String {
    let mut src = String::new();
    for s in 0..4 {
        src += &format!("multiverse(0, 1, 2) i32 s{s};\n");
    }
    for f in 0..funcs {
        src += &format!("multiverse i64 f{f}(void) {{\n    i64 acc = {f};\n");
        for s in 0..4 {
            src += &format!("    if (s{s}) {{ acc = acc + {}; }}\n", (f + 1) << s);
        }
        src += "    return acc;\n}\n";
    }
    let calls: Vec<String> = (0..funcs).map(|f| format!("f{f}()")).collect();
    src + &format!("i64 main(void) {{ return {}; }}\n", calls.join(" + "))
}

#[test]
fn cold_grid_compile_allocations_stay_within_budget() {
    let src = grid_src(16);
    let opts = Options {
        variant_limit: 162,
        jobs: 1,
        ..Options::default()
    };
    let mut cold = Pipeline::new(opts);
    let before = ALLOCS.with(Cell::get);
    cold.compile_unit(&src, "grid.c").expect("grid compiles");
    let allocs = ALLOCS.with(Cell::get) - before;
    let stats = cold.stats();
    assert_eq!((stats.clones, stats.variants), (1296, 256));
    let per_clone = allocs as f64 / stats.clones as f64;
    println!(
        "cold 16 x 3^4 compile: {allocs} allocations, {per_clone:.1} per clone \
         (budget {BUDGET_PER_CLONE})"
    );
    assert!(
        allocs <= BUDGET_PER_CLONE * stats.clones,
        "{allocs} allocations over {} clones: {per_clone:.1} per clone, budget {BUDGET_PER_CLONE}",
        stats.clones
    );
}
