//! Heap-allocation budget of quiesced commits and block-tier
//! shootdowns, counted by this binary's global allocator.
//!
//! The kernel is the §6.1 shape mvbench's `kernel_flip` uses: four
//! switch-guarded hooks called from N recorded sites, run by two worker
//! vCPUs while single-switch flips commit under quiesce. After warm-up:
//!
//! * a flip commit through [`Runtime::run_quiesced`] makes the same
//!   number of allocations at N = 87 and N = 1161, under both quiesce
//!   protocols, tierless and at the superblock tier — nothing on the
//!   commit path allocates per site;
//! * a full shootdown followed by a worker run at the block tiers makes
//!   the same small number of allocations and frees at both N — the
//!   shootdown frees nothing per cached block, and re-recording appends
//!   to the arenas the caches kept.
//!
//! Counts are per thread, so the test harness's other threads never
//! land in a measurement.

use multiverse::mvrt::{CommitStrategy, Runtime, TxnOp};
use multiverse::mvvm::ExecTier;
use multiverse::{Program, SmpWorld};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::thread::LocalKey;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<u64>>) {
    // `try_with`: a thread tearing down its locals may still free.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations (a `realloc` is one) and
/// frees on the calling thread.
struct Counting;

// SAFETY: every method passes its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees hold; the counters are
// const-initialised thread-locals without destructors, which allocate
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, returning its result with the allocations and frees it
/// made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let r = f();
    (r, ALLOCS.with(Cell::get) - a0, FREES.with(Cell::get) - f0)
}

const HOOKS: usize = 4;
const VCPUS: usize = 2;
const MAX_ROUNDS: u64 = 10_000_000;
/// `(callers, sites per caller)`: 87 and 1161 (the paper's §6.1 count)
/// recorded sites. Every caller is too large for the inliner, so each
/// site stays where the source puts it.
const SHAPES: [(usize, usize); 2] = [(3, 29), (43, 27)];
const STRATEGIES: [CommitStrategy; 2] = [CommitStrategy::StopMachine, CommitStrategy::Breakpoint];

/// `hook<k>` counts a hit while switch `k<k>` is set and is a bare
/// `cli; sti` otherwise; `worker` sweeps every caller `iters` times.
fn kernel((callers, per_caller): (usize, usize)) -> Program {
    let mut s = String::new();
    for k in 0..HOOKS {
        let _ = writeln!(
            s,
            "multiverse bool k{k};\ni64 hits{k};\n\
             multiverse void hook{k}(void) {{\n    \
             if (k{k}) {{ hits{k} = hits{k} + 1; }} else {{ __cli(); __sti(); }}\n}}"
        );
    }
    for f in 0..callers {
        let _ = writeln!(s, "i64 caller{f}(void) {{");
        for i in 0..per_caller {
            let _ = writeln!(s, "    hook{}();", (f * per_caller + i) % HOOKS);
        }
        let _ = writeln!(s, "    return 1;\n}}");
    }
    s.push_str("i64 sweep(void) {\n    i64 n = 0;\n");
    for f in 0..callers {
        let _ = writeln!(s, "    n = n + caller{f}();");
    }
    s.push_str(
        "    return n;\n}\n\
         i64 worker(i64 iters) {\n    i64 acc = 0;\n    while (iters > 0) {\n        \
         acc = acc + sweep();\n        iters = iters - 1;\n    }\n    return acc;\n}\n\
         i64 main(void) { return worker(1); }\n",
    );
    let p = Program::build(&[("kernel.c", &s)]).expect("kernel compiles");
    let sites = p.boot_smp(1).rt.expect("multiversed").num_callsites();
    assert_eq!(
        sites,
        callers * per_caller,
        "every hook call is a recorded site"
    );
    p
}

/// A 2-vCPU world at `tier` with every hook's variant committed.
fn world(p: &Program, tier: ExecTier) -> SmpWorld {
    let mut w = p.boot_smp(VCPUS);
    w.smp.set_seed(1);
    w.set_tier(tier);
    w.commit_quiesced(CommitStrategy::StopMachine)
        .expect("initial commit");
    w
}

/// Allocations of every flip commit of the last of three passes over
/// each hook's switch (on, then off), with workers running mid-sweep.
/// The first two passes warm every cache and buffer up.
fn flip_commit_allocs(p: &Program, tier: ExecTier, strategy: CommitStrategy) -> Vec<u64> {
    let mut w = world(p, tier);
    let switches: Vec<u64> = (0..HOOKS)
        .map(|k| w.sym(&format!("k{k}")).unwrap())
        .collect();
    w.spawn_all("worker", &[1 << 40]).unwrap();
    // A few whole sweeps, so every block the workers run is recorded
    // once before any flip.
    for _ in 0..2_000 {
        w.smp.step_round();
    }
    let SmpWorld { smp, rt, .. } = &mut w;
    let rt: &mut Runtime = rt.as_mut().unwrap();
    let mut counts = Vec::new();
    for pass in 0..3 {
        counts.clear();
        for &addr in &switches {
            for value in [1, 0] {
                rt.write_switch(&mut smp.machine, addr, value).unwrap();
                for _ in 0..4 {
                    smp.step_round();
                }
                let (r, allocs, _) =
                    counted(|| rt.run_quiesced(smp, TxnOp::CommitRefs(addr), strategy));
                let q = r.unwrap_or_else(|e| panic!("{tier} {strategy} pass {pass}: {e}"));
                assert!(q.commit.sites_touched > 0, "the flip rewrote its sites");
                counts.push(allocs);
            }
        }
    }
    assert!(smp.any_live(), "workers still mid-run at the last flip");
    counts
}

/// Allocations and frees of a full shootdown plus one whole worker run
/// at `tier`, after two warm-up runs.
fn shootdown_run_allocs(p: &Program, callers: usize, tier: ExecTier) -> (u64, u64) {
    let mut w = world(p, tier);
    let mut last = (0, 0);
    for _ in 0..3 {
        w.spawn_all("worker", &[2]).unwrap();
        let (results, allocs, frees) = counted(|| {
            w.smp.flush_remote(None);
            w.run(MAX_ROUNDS)
        });
        assert_eq!(results.unwrap(), vec![2 * callers as u64; VCPUS]);
        last = (allocs, frees);
    }
    assert!(
        w.smp.block_stats().evictions > 0,
        "the shootdowns evicted blocks"
    );
    last
}

#[test]
fn flip_commit_allocations_do_not_grow_with_sites() {
    let programs = SHAPES.map(kernel);
    for tier in [ExecTier::Tierless, ExecTier::Superblock] {
        for strategy in STRATEGIES {
            let [small, large] = programs
                .each_ref()
                .map(|p| flip_commit_allocs(p, tier, strategy));
            println!("{tier} {strategy}: allocations per flip commit {small:?} at 87 sites, {large:?} at 1161");
            assert_eq!(
                small, large,
                "{tier} {strategy}: flip commits allocate per site"
            );
        }
    }
}

#[test]
fn block_tier_shootdown_and_rerecord_do_not_allocate_per_block() {
    let programs = SHAPES.map(kernel);
    for tier in [ExecTier::Block, ExecTier::Superblock] {
        let [small, large] = [0, 1].map(|i| shootdown_run_allocs(&programs[i], SHAPES[i].0, tier));
        println!("{tier}: (allocations, frees) of a shootdown and a worker run {small:?} at 87 sites, {large:?} at 1161");
        assert_eq!(
            small, large,
            "{tier}: a shootdown or re-record allocates or frees per block"
        );
        assert!(
            large.0 <= 4 && large.1 <= 4,
            "{tier}: {large:?} allocations and frees"
        );
    }
}
