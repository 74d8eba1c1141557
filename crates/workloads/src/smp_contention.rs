//! SMP spinlock contention under concurrent commits — the E15 workload.
//!
//! N worker vCPUs hammer one `config_smp`-guarded spinlock protecting a
//! shared counter while the host repeatedly rewrites the lock functions
//! with quiesced commits ([`CommitStrategy::StopMachine`] vs.
//! [`CommitStrategy::Breakpoint`]). The switch stays `1` throughout, so
//! the *semantics* never change — generic and committed bodies both
//! take the lock — but each flip alternates the binding
//! (generic ↔ variant) and therefore really rewrites the call sites and
//! entry prologues mid-flight. Two quantities fall out:
//!
//! * **correctness** — the counter must end at exactly
//!   `vcpus × iters`: a torn fetch, a stale decode or a lock acquired
//!   through half-patched code would lose increments or fault;
//! * **cost** — the commit latency (guest cycles of the quiesce
//!   window) and the worker stall cycles, per strategy and core count,
//!   reported in EXPERIMENTS.md E15.

use multiverse::mvrt::{CommitStrategy, TxnOp};
use multiverse::{BuildError, Program, SmpWorld};

/// The contention kernel: a spinlock pair guarded by `config_smp` and a
/// worker loop incrementing a shared counter under the lock.
pub const SRC: &str = r#"
    multiverse bool config_smp;
    i64 lock_word;
    i64 counter;

    multiverse void lock(void) {
        if (config_smp) {
            while (__xchg(&lock_word, 1) != 0) { __pause(); }
        }
    }

    multiverse void unlock(void) {
        if (config_smp) {
            lock_word = 0;
        }
    }

    i64 worker(i64 iters) {
        i64 i = 0;
        while (i < iters) {
            lock();
            counter = counter + 1;
            unlock();
            i = i + 1;
        }
        return counter;
    }

    i64 main(void) { return worker(8); }
"#;

/// Compiles the contention kernel with multiverse enabled.
pub fn build() -> Result<Program, BuildError> {
    Program::build(&[("smp_contention.c", SRC)])
}

/// Boots `n` worker vCPUs with `config_smp = 1` (nothing spawned yet).
pub fn boot(n: usize, seed: u64) -> Result<SmpWorld, BuildError> {
    let p = build()?;
    let mut w = p.boot_smp(n);
    w.smp.set_seed(seed);
    w.set("config_smp", 1)?;
    Ok(w)
}

/// Aggregated outcome of one contention run with mid-flight commits.
#[derive(Clone, Copy, Debug)]
pub struct ContentionReport {
    /// Worker vCPUs.
    pub vcpus: usize,
    /// Lock/increment iterations per worker.
    pub iters: u64,
    /// Protocol used for every flip.
    pub strategy: CommitStrategy,
    /// Commits + reverts performed while the workers ran.
    pub flips: u32,
    /// Guest cycles (wall-clock under the cost model) spent inside
    /// quiesce windows, summed over all flips.
    pub commit_latency: u64,
    /// Worker stall cycles charged inside the windows, summed.
    pub stall_cycles: u64,
    /// Scheduler rounds spent in rendezvous/drain, summed.
    pub rounds: u64,
    /// Breakpoint hits absorbed (0 under stop-machine).
    pub trap_hits: u64,
    /// Final value of the shared counter.
    pub counter: i64,
    /// `true` iff `counter == vcpus * iters` — no increment was lost to
    /// a torn fetch, stale decode or broken lock.
    pub lock_consistent: bool,
}

/// Scheduler rounds run between consecutive flips, so the workers make
/// real progress (and hold the lock across preemptions) while the text
/// changes under them.
const BURST_ROUNDS: u64 = 8;

/// Round budget for draining the workers after the last flip.
const MAX_ROUNDS: u64 = 10_000_000;

/// Runs `vcpus` workers for `iters` lock/increment iterations each,
/// interleaving `flips` quiesced binding changes (commit ↔ revert of
/// the lock functions) under `strategy`.
pub fn measure(
    vcpus: usize,
    iters: u64,
    strategy: CommitStrategy,
    flips: u32,
    seed: u64,
) -> Result<ContentionReport, BuildError> {
    let mut w = boot(vcpus, seed)?;
    w.spawn_all("worker", &[iters])?;
    let mut report = ContentionReport {
        vcpus,
        iters,
        strategy,
        flips,
        commit_latency: 0,
        stall_cycles: 0,
        rounds: 0,
        trap_hits: 0,
        counter: 0,
        lock_consistent: false,
    };
    let mut committed = false;
    for _ in 0..flips {
        for _ in 0..BURST_ROUNDS {
            if !w.smp.any_live() {
                break;
            }
            w.smp.step_round();
        }
        let t0 = w.smp.max_cycles();
        let q = if committed {
            w.revert_quiesced(strategy)?
        } else {
            w.commit_quiesced(strategy)?
        };
        committed = !committed;
        report.commit_latency += w.smp.max_cycles() - t0;
        report.stall_cycles += q.stall_cycles;
        report.rounds += q.rounds;
        report.trap_hits += q.trap_hits;
    }
    w.run(MAX_ROUNDS)?;
    report.counter = w.get("counter")?;
    report.lock_consistent = report.counter == (vcpus as i64) * (iters as i64);
    Ok(report)
}

/// Steady-state cycles per lock/increment iteration on the *worst*
/// vCPU, with the variant bodies committed before any worker starts —
/// the E15 re-derivation of the Fig. 1 SMP spinlock cost on real
/// multi-vCPU contention instead of the `MachineMode` cost-model flag.
pub fn steady_state_cycles(vcpus: usize, iters: u64, seed: u64) -> Result<f64, BuildError> {
    let mut w = boot(vcpus, seed)?;
    // No vCPU is live yet, so the quiesce converges immediately; the
    // workers then run specialized lock/unlock bodies end to end.
    w.commit_quiesced(CommitStrategy::StopMachine)?;
    w.spawn_all("worker", &[iters])?;
    w.run(MAX_ROUNDS)?;
    Ok(w.smp.max_cycles() as f64 / iters as f64)
}

/// Commits `config_smp`'s referencing functions (rather than the whole
/// image) once, quiesced, while workers run — the paper's
/// `multiverse_commit_refs(&config_smp)` usage from the case study.
pub fn commit_refs_once(
    w: &mut SmpWorld,
    strategy: CommitStrategy,
) -> Result<multiverse::mvrt::QuiesceReport, BuildError> {
    let addr = w.sym("config_smp")?;
    let rt = w.rt.as_mut().expect("multiverse build has a runtime");
    Ok(rt.run_quiesced(&mut w.smp, TxnOp::CommitRefs(addr), strategy)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_exact_without_flips() {
        let mut w = boot(4, 11).unwrap();
        w.spawn_all("worker", &[64]).unwrap();
        w.run(MAX_ROUNDS).unwrap();
        assert_eq!(w.get("counter").unwrap(), 4 * 64);
        assert_eq!(w.get("lock_word").unwrap(), 0, "lock released");
    }

    #[test]
    fn flips_never_lose_an_increment() {
        for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
            let r = measure(4, 64, strategy, 6, 1234).unwrap();
            assert!(
                r.lock_consistent,
                "{strategy}: counter {} != {}",
                r.counter,
                4 * 64
            );
        }
    }

    #[test]
    fn commit_refs_works_under_contention() {
        let mut w = boot(3, 5).unwrap();
        w.spawn_all("worker", &[32]).unwrap();
        for _ in 0..4 {
            w.smp.step_round();
        }
        let q = commit_refs_once(&mut w, CommitStrategy::Breakpoint).unwrap();
        assert!(q.commit.variants_committed >= 1);
        w.run(MAX_ROUNDS).unwrap();
        assert_eq!(w.get("counter").unwrap(), 3 * 32);
    }

    #[test]
    fn stop_machine_stalls_every_worker() {
        // With enough vCPUs mid-loop, the rendezvous parks workers that
        // then burn pause cycles while stragglers drain.
        let r = measure(6, 64, CommitStrategy::StopMachine, 4, 7).unwrap();
        assert!(r.lock_consistent);
    }
}
