//! §4's closing step — "flush the instruction cache for the respective
//! locations" — as failure injection: a patcher that forgets the flush
//! leaves stale decoded instructions executing; the real runtime never
//! does.

use multiverse::{mvobj::Prot, Program};

const SRC: &str = r#"
    multiverse bool fast;
    multiverse i64 pick(void) {
        if (fast) { return 1; }
        return 2;
    }
    i64 use_it(void) { return pick(); }
    i64 main(void) { return 0; }
"#;

#[test]
fn buggy_patcher_without_flush_runs_stale_code() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot();

    // Warm the decode cache through the call site.
    assert_eq!(w.call("use_it", &[]).unwrap(), 2);

    // A "buggy patcher": rewrite the call site to target the fast variant
    // with the correct mprotect dance but NO icache flush.
    let site = w.sym("use_it").unwrap(); // first insn of use_it is the call
    let variant = w.sym("pick.fast=1").unwrap();
    let rel = variant.wrapping_sub(site + 5) as i64 as i32;
    let patched = multiverse::mvasm::encode(&multiverse::mvasm::Insn::CallRel { rel });
    w.machine.mem.mprotect(site, 5, Prot::RW).unwrap();
    w.machine.mem.write(site, &patched).unwrap();
    w.machine.mem.mprotect(site, 5, Prot::RX).unwrap();

    // Stale: the machine still executes the cached decoded call to the
    // generic — the bug is observable.
    assert_eq!(w.call("use_it", &[]).unwrap(), 2, "stale icache");

    // The missing flush fixes it.
    w.machine.mem.flush_icache(site, 5);
    assert_eq!(w.call("use_it", &[]).unwrap(), 1, "fresh code after flush");
}

/// The buggy-patcher staleness window is part of the observable
/// machine semantics, so the tiered engines must reproduce it exactly:
/// a cached block over the call site stays stale precisely as long as
/// the cached per-instruction decode would, and the missing flush
/// evicts both in lockstep. On the native tier the multiversed body
/// runs as a lowered region on the patched page.
#[test]
fn stale_window_is_identical_at_every_tier() {
    use multiverse::mvvm::ExecTier;
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let run = |tier: ExecTier| {
        let mut w = program.boot();
        w.set_tier(tier);
        // Warm caches hard enough to trigger superblock promotion.
        let warm: Vec<u64> = (0..12).map(|_| w.call("use_it", &[]).unwrap()).collect();

        let site = w.sym("use_it").unwrap();
        let variant = w.sym("pick.fast=1").unwrap();
        let rel = variant.wrapping_sub(site + 5) as i64 as i32;
        let patched = multiverse::mvasm::encode(&multiverse::mvasm::Insn::CallRel { rel });
        w.machine.mem.mprotect(site, 5, Prot::RW).unwrap();
        w.machine.mem.write(site, &patched).unwrap();
        w.machine.mem.mprotect(site, 5, Prot::RX).unwrap();

        let stale = w.call("use_it", &[]).unwrap();
        w.machine.mem.flush_icache(site, 5);
        let fresh = w.call("use_it", &[]).unwrap();
        (warm, stale, fresh, w.cycles(), w.machine.stats)
    };
    let base = run(ExecTier::Tierless);
    assert_eq!(base.0, vec![2; 12]);
    assert_eq!(base.1, 2, "stale until the flush");
    assert_eq!(base.2, 1, "fresh after the flush");
    for tier in [ExecTier::Block, ExecTier::Superblock, ExecTier::Native] {
        assert_eq!(run(tier), base, "{tier}: staleness window diverged");
    }
}

#[test]
fn real_runtime_always_flushes() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot();
    assert_eq!(w.call("use_it", &[]).unwrap(), 2);

    // The library's commit takes effect immediately — every *touched
    // page* is flushed exactly once, which is what makes the new code
    // visible.
    w.set("fast", 1).unwrap();
    w.commit().unwrap();
    assert_eq!(w.call("use_it", &[]).unwrap(), 1);
    let stats = w.rt.as_ref().unwrap().stats;
    assert!(stats.pages_touched >= 1);
    assert!(stats.icache_flushes >= stats.pages_touched);

    // And every mprotect unlock has a matching relock (W^X window).
    assert_eq!(stats.mprotects % 2, 0);
}
