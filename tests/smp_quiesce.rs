//! Atomicity of quiesced concurrent commits (the E15 safety property):
//! for **every** fault index of every injectable op, at several
//! scheduler interleavings, on both [`CommitStrategy`] protocols, a
//! failed quiesced commit must leave the text segment byte-identical to
//! its pre-commit state — no torn call site, no stranded trap byte —
//! and the worker vCPUs must run to completion unharmed. A successful
//! quiesced commit must produce an image byte-identical to the same
//! plan committed on an idle single-vCPU world.

use multiverse::mvrt::{CommitStrategy, TxnOp};
use multiverse::mvvm::{FaultOp, FaultPlan};
use multiverse::{Program, SmpWorld};
use mv_workloads::smp_contention;

const VCPUS: usize = 4;
const ITERS: u64 = 96;
const SEEDS: [u64; 3] = [1, 7, 42];
/// Rounds run before the quiesce, so every commit happens mid-flight.
const WARM_ROUNDS: u64 = 6;
const MAX_ROUNDS: u64 = 10_000_000;
const STRATEGIES: [CommitStrategy; 2] = [CommitStrategy::StopMachine, CommitStrategy::Breakpoint];

/// Boots the contention workload with live workers mid-loop.
fn boot_workers(p: &Program, seed: u64) -> SmpWorld {
    let mut w = p.boot_smp(VCPUS);
    w.smp.set_seed(seed);
    w.set("config_smp", 1).unwrap();
    w.spawn_all("worker", &[ITERS]).unwrap();
    for _ in 0..WARM_ROUNDS {
        w.smp.step_round();
    }
    w
}

fn text_of(p: &Program, w: &SmpWorld) -> Vec<u8> {
    let (taddr, tsize) = p.exe().section(multiverse::mvobj::SEC_TEXT);
    w.smp.machine.mem.read_vec(taddr, tsize as usize).unwrap()
}

/// The reference image: the identical plan committed on an idle
/// single-vCPU world, where no concurrency question exists.
fn single_vcpu_committed_text(p: &Program) -> Vec<u8> {
    let mut w = p.boot();
    w.set("config_smp", 1).unwrap();
    w.commit().unwrap();
    let (taddr, tsize) = p.exe().section(multiverse::mvobj::SEC_TEXT);
    w.machine.mem.read_vec(taddr, tsize as usize).unwrap()
}

/// A quiesced commit against running workers must yield the same bytes
/// as a single-vCPU commit of the same plan, at every interleaving, and
/// a quiesced revert must restore the pristine image — while the
/// workers lose not a single locked increment.
#[test]
fn quiesced_image_matches_single_vcpu_commit() {
    let p = smp_contention::build().unwrap();
    let reference = single_vcpu_committed_text(&p);
    for strategy in STRATEGIES {
        for seed in SEEDS {
            let mut w = boot_workers(&p, seed);
            let pristine = text_of(&p, &w);
            assert_ne!(pristine, reference, "commit must change text");

            let q = w.commit_quiesced(strategy).unwrap();
            assert!(q.commit.variants_committed >= 1);
            assert_eq!(
                text_of(&p, &w),
                reference,
                "{strategy} seed {seed}: committed image diverged from single-vCPU commit"
            );

            let r = w.revert_quiesced(strategy).unwrap();
            assert!(r.commit.variants_committed >= 1 || r.commit.sites_touched >= 1);
            assert_eq!(
                text_of(&p, &w),
                pristine,
                "{strategy} seed {seed}: revert did not restore the pristine image"
            );

            w.run(MAX_ROUNDS).unwrap();
            assert_eq!(
                w.get("counter").unwrap(),
                (VCPUS as i64) * (ITERS as i64),
                "{strategy} seed {seed}: an increment was lost"
            );
        }
    }
}

/// Every Table 1 operation, run through `run_quiesced` against live
/// workers under both protocols, must leave the same text as the same
/// operation on an idle single-vCPU twin, and the workers must stay
/// exact.
#[test]
fn every_quiesced_op_matches_its_single_vcpu_twin() {
    let p = smp_contention::build().unwrap();
    let lock = p.exe().symbol("lock").unwrap();
    let switch = p.exe().symbol("config_smp").unwrap();
    let ops = [
        TxnOp::CommitFunc(lock),
        TxnOp::CommitRefs(switch),
        TxnOp::RevertFunc(lock),
        TxnOp::RevertRefs(switch),
        TxnOp::CommitAll,
        TxnOp::RevertAll,
    ];
    let (taddr, tsize) = p.exe().section(multiverse::mvobj::SEC_TEXT);
    for strategy in STRATEGIES {
        let mut w = boot_workers(&p, SEEDS[1]);
        let mut twin = p.boot();
        twin.set("config_smp", 1).unwrap();
        for op in ops {
            assert!(w.smp.any_live(), "{strategy} {op:?}: workers already done");
            let before = text_of(&p, &w);
            let rt = w.rt.as_mut().unwrap();
            rt.run_quiesced(&mut w.smp, op, strategy)
                .unwrap_or_else(|e| panic!("{strategy} {op:?}: {e}"));

            let (trt, m) = (twin.rt.as_mut().unwrap(), &mut twin.machine);
            match op {
                TxnOp::CommitAll => trt.commit(m),
                TxnOp::RevertAll => trt.revert(m),
                TxnOp::CommitRefs(a) => trt.commit_refs(m, a),
                TxnOp::RevertRefs(a) => trt.revert_refs(m, a),
                TxnOp::CommitFunc(a) => trt.commit_func(m, a),
                TxnOp::RevertFunc(a) => trt.revert_func(m, a),
            }
            .unwrap();
            let expected = m.mem.read_vec(taddr, tsize as usize).unwrap();
            assert_ne!(before, expected, "{strategy} {op:?} must rewrite text");
            assert_eq!(
                text_of(&p, &w),
                expected,
                "{strategy} {op:?}: quiesced image diverged from the single-vCPU twin"
            );
            w.smp.step_round();
        }
        w.run(MAX_ROUNDS).unwrap();
        assert_eq!(
            w.get("counter").unwrap(),
            (VCPUS as i64) * (ITERS as i64),
            "{strategy}: an increment was lost"
        );
    }
}

/// The exhaustive sweep: fail every position of every injectable op of
/// the quiesced commit, at several interleavings, on both protocols.
/// Every failure must surface as `Err` with pristine text; the workers
/// must then finish with an exact counter; the healed retry must
/// converge on the single-vCPU reference image.
#[test]
fn fault_sweep_never_tears_text_or_workers() {
    let p = smp_contention::build().unwrap();
    let reference = single_vcpu_committed_text(&p);
    for strategy in STRATEGIES {
        // Probe: count the ops one clean quiesced commit performs (for
        // breakpoint-first this includes every trap plant and restore).
        let mut probe = boot_workers(&p, SEEDS[0]);
        probe.commit_quiesced(strategy).unwrap();
        let d = probe.rt.as_ref().unwrap().stats;
        let schedule = [
            (FaultOp::TextWrite, d.journal_entries),
            (FaultOp::Mprotect, d.mprotects),
            (FaultOp::IcacheFlush, d.icache_flushes),
        ];
        assert!(
            d.journal_entries >= 2 && d.mprotects >= 2,
            "{strategy}: commit too small to sweep ({d:?})"
        );

        for (op, count) in schedule {
            for n in 1..=count {
                for seed in SEEDS {
                    let mut w = boot_workers(&p, seed);
                    let pristine = text_of(&p, &w);

                    w.smp.machine.inject_fault(FaultPlan::new(op, n));
                    match w.commit_quiesced(strategy) {
                        Err(_) => {
                            // The commit failed: the rollback (and, for
                            // breakpoint-first, the trap unwind) must
                            // leave the text byte-identical.
                            assert_eq!(
                                text_of(&p, &w),
                                pristine,
                                "{strategy} {op:?}@{n} seed {seed} tore the text segment"
                            );
                        }
                        Ok(_) => {
                            // A lost icache flush is the one fault the
                            // protocol absorbs: its own IPI shootdown
                            // re-syncs every vCPU, so the commit lands
                            // safely. Everything else must surface.
                            assert_eq!(
                                op,
                                FaultOp::IcacheFlush,
                                "{strategy} {op:?}@{n} seed {seed} was swallowed"
                            );
                            assert_eq!(
                                text_of(&p, &w),
                                reference,
                                "{strategy} {op:?}@{n} seed {seed}: shootdown-repaired \
                                 commit diverged"
                            );
                        }
                    }

                    // The machine was released: every worker finishes and
                    // not one locked increment is lost to a torn fetch or
                    // stale decode.
                    w.run(MAX_ROUNDS).unwrap();
                    assert_eq!(
                        w.get("counter").unwrap(),
                        (VCPUS as i64) * (ITERS as i64),
                        "{strategy} {op:?}@{n} seed {seed}: worker damaged"
                    );

                    // One-shot fault has fired; the identical commit heals
                    // (or re-lands) exactly on the reference image.
                    w.commit_quiesced(strategy)
                        .unwrap_or_else(|e| panic!("{strategy} {op:?}@{n} heal failed: {e}"));
                    assert_eq!(
                        text_of(&p, &w),
                        reference,
                        "{strategy} {op:?}@{n} seed {seed}: healed image diverged"
                    );
                }
            }
        }
    }
}

/// A partial (per-switch) quiesced commit under contention also sweeps
/// clean: `commit_refs(config_smp)` is what the paper's case studies
/// call while the kernel runs.
#[test]
fn commit_refs_fault_sweep_is_atomic() {
    let p = smp_contention::build().unwrap();
    for strategy in STRATEGIES {
        let mut probe = boot_workers(&p, SEEDS[0]);
        smp_contention::commit_refs_once(&mut probe, strategy).unwrap();
        let d = probe.rt.as_ref().unwrap().stats;
        for n in 1..=d.journal_entries {
            let mut w = boot_workers(&p, SEEDS[1]);
            let pristine = text_of(&p, &w);
            w.smp
                .machine
                .inject_fault(FaultPlan::new(FaultOp::TextWrite, n));
            smp_contention::commit_refs_once(&mut w, strategy)
                .expect_err(&format!("{strategy} TextWrite@{n} must surface"));
            assert_eq!(text_of(&p, &w), pristine, "{strategy} TextWrite@{n}");
            w.run(MAX_ROUNDS).unwrap();
            assert_eq!(w.get("counter").unwrap(), (VCPUS as i64) * (ITERS as i64));
        }
    }
}
