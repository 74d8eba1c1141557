//! Chaos proof obligations for the `mvd` commit control plane.
//!
//! The daemon's contract under fault injection, proven deterministically
//! with [`FaultPlan`] schedules on the commit-storm workload:
//!
//! * **liveness** — the queue always drains: every submitted request is
//!   completed exactly once, no matter which op faults;
//! * **atomicity by replay** — the final text image is byte-identical
//!   to an *unfaulted serial replay* of exactly the requests that
//!   committed, in commit order, on a fresh world;
//! * **worker integrity** — every worker vCPU finishes with its exact
//!   iteration count;
//! * **robustness features** — one-shot faults heal inside the retry
//!   ladder, persistent faulters are quarantined with their full
//!   `source()` chains while unrelated commits land, and persistent
//!   breakpoint-quiesce failures degrade to stop-machine (and heal
//!   back) with a byte-identical image.

use multiverse::mvrt::{
    CommitDaemon, CommitPhase, CommitStrategy, Lane, MvdConfig, MvdOp, MvdOutcome, RetryPolicy,
    RtError, TxnOp,
};
use multiverse::mvvm::{FaultOp, FaultPlan, MemError};
use multiverse::{Program, SmpWorld};
use mv_workloads::commit_storm;
use std::time::Duration;

const ITERS: u64 = 600;
const WARM_ROUNDS: u64 = 4;
const MAX_ROUNDS: u64 = 10_000_000;
const STRATEGIES: [CommitStrategy; 2] = [CommitStrategy::StopMachine, CommitStrategy::Breakpoint];

fn boot_workers(p: &Program, vcpus: usize, seed: u64) -> SmpWorld {
    let mut w = p.boot_smp(vcpus);
    w.smp.set_seed(seed);
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

/// A daemon whose attempt ladder is a single try and whose quarantine
/// is effectively off — the sweep observes raw fault outcomes.
fn sweep_daemon(strategy: CommitStrategy) -> CommitDaemon {
    CommitDaemon::new(MvdConfig {
        max_attempts: 1,
        quarantine_after: u32::MAX,
        strategy,
        ..MvdConfig::default()
    })
}

fn flip(switch: u64, value: i64) -> MvdOp {
    MvdOp::Flip { switch, value }
}

/// The fixed request script: coalescible flips across all three
/// switches, priority requests preempting, and one whole-image revert.
fn script(w: &SmpWorld) -> Vec<Vec<(MvdOp, Lane)>> {
    let a = w.sym("opt_a").unwrap();
    let b = w.sym("opt_b").unwrap();
    let c = w.sym("opt_c").unwrap();
    vec![
        vec![
            (flip(a, 1), Lane::Normal),
            (flip(b, 1), Lane::Normal),
            (flip(a, 0), Lane::Normal),
        ],
        vec![
            (flip(c, 1), Lane::Priority),
            (flip(b, 0), Lane::Normal),
            (flip(c, 1), Lane::Normal),
        ],
        vec![
            (flip(a, 1), Lane::Normal),
            (flip(c, 0), Lane::Priority),
            (flip(b, 1), Lane::Normal),
        ],
        vec![
            (MvdOp::RevertAll, Lane::Priority),
            (flip(a, 1), Lane::Normal),
        ],
    ]
}

/// Drives the script phase by phase, stepping the daemon one entry at a
/// time. Returns (ops committed in commit order, ids submitted, ids
/// completed).
fn drive(w: &mut SmpWorld, daemon: &mut CommitDaemon) -> (Vec<MvdOp>, Vec<u64>, Vec<u64>) {
    let phases = script(w);
    let mut submitted = Vec::new();
    let mut completed = Vec::new();
    let mut committed = Vec::new();
    for phase in phases {
        for (op, lane) in phase {
            let rt = w.rt.as_mut().unwrap();
            submitted.push(daemon.submit(rt, op, lane));
        }
        // Submit-time completions: fast-fails and rejections.
        completed.extend(daemon.take_completions().into_iter().map(|c| c.id));
        for _ in 0..3 {
            if w.smp.any_live() {
                w.smp.step_round();
            }
        }
        while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {
            // One step processes one entry; its waiters complete
            // together with one shared outcome.
            let batch = daemon.take_completions();
            if let Some(first) = batch.first() {
                if first.outcome.is_committed() {
                    committed.push(first.op);
                }
            }
            completed.extend(batch.into_iter().map(|c| c.id));
        }
    }
    (committed, submitted, completed)
}

/// The oracle image: exactly the committed ops, replayed serially in
/// commit order on a fresh, idle, unfaulted world.
fn replay(p: &Program, committed: &[MvdOp], strategy: CommitStrategy) -> Vec<u8> {
    let mut w = p.boot_smp(1);
    for &op in committed {
        let rt = w.rt.as_mut().unwrap();
        match op {
            MvdOp::Flip { switch, value } => {
                rt.write_switch(&mut w.smp.machine, switch, value).unwrap();
                rt.run_quiesced(&mut w.smp, TxnOp::CommitRefs(switch), strategy)
                    .unwrap();
            }
            MvdOp::CommitAll => {
                rt.run_quiesced(&mut w.smp, TxnOp::CommitAll, strategy)
                    .unwrap();
            }
            MvdOp::RevertAll => {
                rt.run_quiesced(&mut w.smp, TxnOp::RevertAll, strategy)
                    .unwrap();
            }
        }
    }
    text_of(p, &w)
}

/// Counts the ops a clean daemon run performs per fault class:
/// the three memory-level classes from [`multiverse::mvrt`]'s
/// `PatchStats`, the two quiesce-phase classes via never-firing probe
/// plans.
fn probe_counts(p: &Program, vcpus: usize, strategy: CommitStrategy) -> Vec<(FaultOp, u64)> {
    let mut w = boot_workers(p, vcpus, 1);
    w.smp
        .machine
        .inject_fault(FaultPlan::fail_nth_trap_plant(1_000_000));
    let mut d = sweep_daemon(strategy);
    drive(&mut w, &mut d);
    let stats = w.rt.as_ref().unwrap().stats;
    let trap_plants = w.smp.machine.clear_fault().unwrap().seen();

    let mut w = boot_workers(p, vcpus, 1);
    w.smp
        .machine
        .inject_fault(FaultPlan::drop_nth_shootdown(1_000_000));
    let mut d = sweep_daemon(strategy);
    drive(&mut w, &mut d);
    let shootdowns = w.smp.machine.clear_fault().unwrap().seen();

    vec![
        (FaultOp::TextWrite, stats.journal_entries),
        (FaultOp::Mprotect, stats.mprotects),
        (FaultOp::IcacheFlush, stats.icache_flushes),
        (FaultOp::TrapPlant, trap_plants),
        (FaultOp::Shootdown, shootdowns),
    ]
}

/// The exhaustive sweep: every fault index of every injectable op
/// class, both protocols, 4 and 8 vCPUs. Oracles: the queue drains with
/// every request completed exactly once, the final image byte-matches
/// the serial replay of the surviving requests, and every worker
/// finishes with its exact count.
#[test]
fn fault_sweep_drains_and_matches_serial_replay() {
    let p = commit_storm::build().unwrap();
    for vcpus in [4usize, 8] {
        for strategy in STRATEGIES {
            let schedule = probe_counts(&p, vcpus, strategy);
            assert!(
                schedule.iter().any(|&(_, n)| n >= 4),
                "{strategy}: run too small to sweep ({schedule:?})"
            );
            for (op, count) in schedule {
                for n in 1..=count {
                    let seed = 13 * vcpus as u64 + n;
                    let mut w = boot_workers(&p, vcpus, seed);
                    let mut daemon = sweep_daemon(strategy);
                    w.smp.machine.inject_fault(FaultPlan::new(op, n));
                    let (committed, mut submitted, mut completed) = drive(&mut w, &mut daemon);

                    let ctx = format!("{strategy} {op:?}@{n} vcpus {vcpus}");
                    assert_eq!(daemon.pending(), 0, "{ctx}: queue did not drain");
                    submitted.sort_unstable();
                    completed.sort_unstable();
                    assert_eq!(
                        submitted, completed,
                        "{ctx}: a request was lost or double-completed"
                    );

                    let rets = w.run(MAX_ROUNDS).unwrap();
                    assert!(
                        rets.iter().all(|&r| r == ITERS),
                        "{ctx}: a worker lost iterations ({rets:?})"
                    );
                    assert_eq!(
                        text_of(&p, &w),
                        replay(&p, &committed, CommitStrategy::StopMachine),
                        "{ctx}: image diverged from the serial replay of \
                         the {} surviving requests",
                        committed.len()
                    );
                }
            }
        }
    }
}

/// With the default three-attempt ladder, any one-shot fault heals
/// inside the daemon: every request commits and the image equals the
/// clean run's image.
#[test]
fn retry_ladder_heals_every_one_shot_fault() {
    let p = commit_storm::build().unwrap();
    for strategy in STRATEGIES {
        // The clean reference run.
        let mut w = boot_workers(&p, 4, 2);
        let mut daemon = CommitDaemon::new(MvdConfig {
            strategy,
            ..MvdConfig::default()
        });
        let (clean_committed, submitted, _) = drive(&mut w, &mut daemon);
        let clean_text = text_of(&p, &w);
        assert_eq!(
            clean_committed.len(),
            daemon.stats().committed as usize,
            "{strategy}: clean run must commit every entry"
        );
        assert_eq!(
            daemon.stats().admitted + daemon.stats().coalesced,
            submitted.len() as u64
        );

        for (op, count) in probe_counts(&p, 4, strategy) {
            if count == 0 {
                continue;
            }
            let mut w = boot_workers(&p, 4, 2);
            let mut daemon = CommitDaemon::new(MvdConfig {
                strategy,
                ..MvdConfig::default()
            });
            w.smp.machine.inject_fault(FaultPlan::new(op, 1));
            let (committed, ..) = drive(&mut w, &mut daemon);
            let ctx = format!("{strategy} {op:?}@1");
            assert_eq!(
                committed, clean_committed,
                "{ctx}: a one-shot fault leaked through the retry ladder"
            );
            assert_eq!(text_of(&p, &w), clean_text, "{ctx}: image diverged");
            let rets = w.run(MAX_ROUNDS).unwrap();
            assert!(rets.iter().all(|&r| r == ITERS), "{ctx}: worker damaged");
        }
    }
}

/// Transaction-level retries inside a daemon attempt are charged to the
/// timing's backoff/retry counters when the policy sleeps.
#[test]
fn txn_backoff_is_charged_to_patch_timing() {
    let p = commit_storm::build().unwrap();
    let mut w = boot_workers(&p, 4, 3);
    let a = w.sym("opt_a").unwrap();
    let mut daemon = CommitDaemon::new(MvdConfig {
        max_attempts: 1,
        retry: RetryPolicy::exponential(3, Duration::from_micros(1), 0xC0FFEE),
        ..MvdConfig::default()
    });
    // One-shot mprotect fault: the txn-level retry (not the daemon
    // ladder — max_attempts is 1) must heal it and record the backoff.
    w.smp
        .machine
        .inject_fault(FaultPlan::new(FaultOp::Mprotect, 1));
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    let completions = daemon.take_completions();
    assert!(completions[0].outcome.is_committed(), "txn retry healed it");
    let timing = w.rt.as_ref().unwrap().last_timing;
    assert!(timing.retries >= 1, "retry count charged");
    assert!(timing.backoff > Duration::ZERO, "backoff charged");
}

/// Persistent breakpoint-quiesce failure (sticky trap-plant fault)
/// degrades to stop-machine with a byte-identical image, marks the
/// daemon degraded, and a later successful breakpoint probe heals it.
#[test]
fn sticky_trap_plant_degrades_then_heals() {
    let p = commit_storm::build().unwrap();
    let mut w = boot_workers(&p, 4, 5);
    let a = w.sym("opt_a").unwrap();
    let b = w.sym("opt_b").unwrap();
    w.rt.as_mut().unwrap().enable_tracing(8192);
    let mut daemon = CommitDaemon::new(MvdConfig {
        strategy: CommitStrategy::Breakpoint,
        ..MvdConfig::default()
    });

    w.smp
        .machine
        .inject_fault(FaultPlan::fail_nth_trap_plant(1).sticky());
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    let c = daemon.take_completions();
    assert!(
        c[0].outcome.is_committed(),
        "the stop-machine fallback lands the commit: {:?}",
        c[0].outcome
    );
    assert!(daemon.degraded(), "daemon noted the broken protocol");
    assert_eq!(daemon.stats().degraded, 1);

    // The fallback image is byte-identical to a clean *breakpoint*
    // commit of the same flip on a fresh world.
    assert_eq!(
        text_of(&p, &w),
        replay(&p, &[flip(a, 1)], CommitStrategy::Breakpoint),
        "fallback image diverged from a clean breakpoint commit"
    );

    // Still degraded: the next request's probe fails, and the entry
    // falls back immediately (one bp failure, not degrade_after).
    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    assert!(daemon.take_completions()[0].outcome.is_committed());
    assert!(daemon.degraded());

    // Fault cleared: the heal probe succeeds and the daemon returns to
    // its configured protocol.
    w.smp.machine.clear_fault();
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 0), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    assert!(daemon.take_completions()[0].outcome.is_committed());
    assert!(!daemon.degraded(), "breakpoint probe healed the daemon");
    assert_eq!(daemon.stats().healed, 1);

    let events = w.rt.as_mut().unwrap().take_trace();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"strategy_degraded"), "{names:?}");

    let rets = w.run(MAX_ROUNDS).unwrap();
    assert!(rets.iter().all(|&r| r == ITERS));
}

/// A sticky fault scoped to one function's entry bytes poisons exactly
/// one switch's commits: after `quarantine_after` consecutive failures
/// the assignment is parked with its error chain, later requests fail
/// fast, and unrelated switches keep landing. The vector is a
/// range-filtered trap-plant fault — plant failures happen before any
/// text write, so the unwind is clean and the damage is perfectly
/// isolated to the one switch.
#[test]
fn sticky_range_fault_quarantines_one_switch_only() {
    let p = commit_storm::build().unwrap();
    let mut w = boot_workers(&p, 4, 6);
    let a = w.sym("opt_a").unwrap();
    let b = w.sym("opt_b").unwrap();
    let c = w.sym("opt_c").unwrap();
    let fa = w.sym("fa").unwrap();
    w.rt.as_mut().unwrap().enable_tracing(8192);
    let mut daemon = CommitDaemon::new(MvdConfig {
        max_attempts: 2,
        quarantine_after: 2,
        // Keep the bp→stop-machine fallback out of the way: this test
        // is about quarantine, not degradation.
        degrade_after: 10,
        strategy: CommitStrategy::Breakpoint,
        ..MvdConfig::default()
    });

    // Every breakpoint trap plant landing in fa's entry bytes faults,
    // forever. Only opt_a commits plant there.
    w.smp.machine.inject_fault(
        FaultPlan::fail_nth_trap_plant(1)
            .sticky()
            .in_range(fa, fa + 5),
    );

    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    let c1 = daemon.take_completions();
    assert!(
        matches!(c1[0].outcome, MvdOutcome::Failed(_)),
        "{:?}",
        c1[0].outcome
    );
    assert!(daemon.is_quarantined(flip(a, 1)));
    assert!(
        daemon.is_quarantined(flip(a, 0)),
        "quarantine keys the assignment, not the value"
    );
    assert_eq!(daemon.stats().quarantined, 1);

    // The parked entry carries the error, walkable to its root cause.
    let parked = daemon.quarantined().next().expect("one parked entry");
    assert_eq!(parked.failures, 2);
    assert!(
        matches!(
            parked.error.root_cause(),
            RtError::Mem(MemError { mapped: true, addr, .. }) if *addr == fa
        ),
        "root cause: {:?}",
        parked.error.root_cause()
    );
    assert!(
        std::error::Error::source(&parked.error).is_some(),
        "source() chain reaches the memory fault"
    );

    // Later requests for the poisoned switch fail fast...
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 0), Lane::Normal);
    let fast = daemon.take_completions();
    assert!(matches!(fast[0].outcome, MvdOutcome::Quarantined));
    assert_eq!(daemon.stats().fast_failed, 1);

    // ...while unrelated switches commit normally.
    for (sw, v) in [(b, 1), (c, 1)] {
        daemon.submit(w.rt.as_mut().unwrap(), flip(sw, v), Lane::Normal);
    }
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    let landed = daemon.take_completions();
    assert_eq!(landed.len(), 2);
    assert!(landed.iter().all(|cp| cp.outcome.is_committed()));

    // Release + fault cleared: the switch commits again.
    assert!(daemon.release(flip(a, 0)).is_some());
    w.smp.machine.clear_fault();
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    assert!(daemon.take_completions()[0].outcome.is_committed());

    assert_eq!(
        text_of(&p, &w),
        replay(
            &p,
            &[flip(b, 1), flip(c, 1), flip(a, 1)],
            CommitStrategy::StopMachine
        ),
    );

    let events = w.rt.as_mut().unwrap().take_trace();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"quarantined"), "{names:?}");

    let rets = w.run(MAX_ROUNDS).unwrap();
    assert!(rets.iter().all(|&r| r == ITERS));
}

/// When a commit dies in *rollback* (the restore write faults too), the
/// quarantine evidence preserves the deepest chain the runtime can
/// produce: commit → rollback-failed → memory fault, all reachable
/// through `source()`.
#[test]
fn quarantine_preserves_deep_error_chains() {
    let p = commit_storm::build().unwrap();
    let mut w = boot_workers(&p, 4, 8);
    let a = w.sym("opt_a").unwrap();
    let mut daemon = CommitDaemon::new(MvdConfig {
        max_attempts: 1,
        quarantine_after: 1,
        ..MvdConfig::default()
    });

    // Unranged sticky text-write fault: the apply write faults, and so
    // does the journal's restore of the same bytes — a rollback
    // failure, the worst evidence a commit can leave.
    w.smp
        .machine
        .inject_fault(FaultPlan::new(FaultOp::TextWrite, 1).sticky());
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    assert!(matches!(
        daemon.take_completions()[0].outcome,
        MvdOutcome::Failed(_)
    ));

    let parked = daemon.quarantined().next().expect("parked after K=1");
    assert_eq!(parked.error.commit_phase(), Some(CommitPhase::Rollback));
    assert!(matches!(
        parked.error.root_cause(),
        RtError::Mem(MemError { mapped: true, .. })
    ));
    let mut depth = 0;
    let mut e: &dyn std::error::Error = &parked.error;
    while let Some(next) = e.source() {
        depth += 1;
        e = next;
    }
    assert!(depth >= 2, "source() chain too shallow ({depth})");
}

/// Queue mechanics on an idle world: coalescing with last-writer-wins,
/// priority preemption and escalation, shed-oldest-normal backpressure,
/// rejection when only priority work is queued, and deadline expiry.
#[test]
fn queue_mechanics_coalesce_shed_reject_expire() {
    let p = commit_storm::build().unwrap();
    let mut w = p.boot_smp(2);
    let a = w.sym("opt_a").unwrap();
    let b = w.sym("opt_b").unwrap();
    let c = w.sym("opt_c").unwrap();
    w.rt.as_mut().unwrap().enable_tracing(8192);
    let mut daemon = CommitDaemon::new(MvdConfig {
        capacity: 2,
        ..MvdConfig::default()
    });

    // Coalescing: two values for one switch become one commit with the
    // last value; both waiters share the outcome.
    let id1 = daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    let id2 = daemon.submit(w.rt.as_mut().unwrap(), flip(a, 0), Lane::Normal);
    assert_eq!(daemon.pending(), 1);
    assert_eq!(daemon.stats().coalesced, 1);
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    let batch = daemon.take_completions();
    assert_eq!(batch.len(), 2);
    assert!(batch.iter().any(|cp| cp.id == id1) && batch.iter().any(|cp| cp.id == id2));
    assert!(batch.iter().all(|cp| cp.outcome.is_committed()));
    assert!(batch
        .iter()
        .all(|cp| matches!(cp.op, MvdOp::Flip { value: 0, .. })));
    assert_eq!(w.get("opt_a").unwrap(), 0, "last writer won");

    // Priority preemption: the priority entry runs first even though it
    // was submitted second; a priority coalesce escalates a normal
    // entry.
    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 1), Lane::Normal);
    daemon.submit(w.rt.as_mut().unwrap(), flip(c, 1), Lane::Priority);
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    let first = &daemon.take_completions()[0];
    assert!(matches!(first.op, MvdOp::Flip { switch, .. } if switch == c));
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    daemon.take_completions();

    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 0), Lane::Normal);
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Normal);
    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 1), Lane::Priority); // escalates b
    assert!(daemon.step(w.rt.as_mut().unwrap(), &mut w.smp));
    let first = &daemon.take_completions()[0];
    assert!(
        matches!(first.op, MvdOp::Flip { switch, value: 1 } if switch == b),
        "escalated entry ran first with the priority value: {:?}",
        first.op
    );
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    daemon.take_completions();

    // Backpressure: capacity 2, third normal request sheds the oldest
    // normal entry.
    let old = daemon.submit(w.rt.as_mut().unwrap(), flip(a, 0), Lane::Normal);
    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 0), Lane::Normal);
    daemon.submit(w.rt.as_mut().unwrap(), flip(c, 0), Lane::Normal);
    let sheds = daemon.take_completions();
    assert_eq!(sheds.len(), 1);
    assert_eq!(sheds[0].id, old);
    assert!(matches!(sheds[0].outcome, MvdOutcome::Shed));
    assert_eq!(daemon.stats().shed, 1);
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    daemon.take_completions();

    // Rejection: a full queue of priority work sheds nothing; the
    // newcomer is refused instead.
    daemon.submit(w.rt.as_mut().unwrap(), flip(a, 1), Lane::Priority);
    daemon.submit(w.rt.as_mut().unwrap(), flip(b, 1), Lane::Priority);
    let refused = daemon.submit(w.rt.as_mut().unwrap(), flip(c, 1), Lane::Normal);
    let batch = daemon.take_completions();
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].id, refused);
    assert!(matches!(batch[0].outcome, MvdOutcome::Rejected));
    assert_eq!(daemon.stats().rejected, 1);
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    daemon.take_completions();

    // Deadlines: with a 1-epoch ttl, the first entry runs in time and
    // the second expires before it is popped.
    daemon.submit_with_ttl(w.rt.as_mut().unwrap(), flip(a, 0), Lane::Normal, Some(1));
    daemon.submit_with_ttl(w.rt.as_mut().unwrap(), flip(b, 0), Lane::Normal, Some(1));
    while daemon.step(w.rt.as_mut().unwrap(), &mut w.smp) {}
    let batch = daemon.take_completions();
    assert_eq!(batch.len(), 2);
    assert!(batch[0].outcome.is_committed());
    assert!(matches!(batch[1].outcome, MvdOutcome::Expired));
    assert_eq!(daemon.stats().expired, 1);

    let events = w.rt.as_mut().unwrap().take_trace();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    for required in ["queue_admit", "coalesced", "shed"] {
        assert!(names.contains(&required), "missing {required}: {names:?}");
    }
}
