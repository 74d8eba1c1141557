//! Commit-storm: flips arriving faster than commits can land — the
//! control-plane workload behind `BENCH_commit_storm.json`.
//!
//! N worker vCPUs run a loop calling three multiversed functions, each
//! guarded by its own switch, while the host submits a randomized storm
//! of flip requests for those switches. Two drivers are compared:
//!
//! * [`run_storm`] — requests go through the [`CommitDaemon`] control
//!   plane, where a burst of flips for the same switch coalesces into
//!   one queued commit (last writer wins);
//! * [`naive_serial`] — the baseline every system starts with: one
//!   quiesced commit per request, submitted synchronously.
//!
//! The figure of merit is request throughput per guest cycle spent in
//! the control plane. On a coalescible stream the daemon does
//! `switches` commits per burst where the baseline does `burst`, so the
//! speedup is roughly `burst / switches` — the PR's acceptance gate
//! demands ≥ 10×.
//!
//! Correctness oracle: every worker's return value equals its iteration
//! count, no matter how many text rewrites happened mid-flight.

use multiverse::mvrt::{CommitDaemon, CommitStrategy, Lane, MvdConfig, MvdOp, MvdStats, TxnOp};
use multiverse::{BuildError, Program, SmpWorld};

/// Three independently-switched functions plus a worker loop that calls
/// all of them every iteration. The worker's return value is its own
/// loop count — exact regardless of racy `sink` writes.
pub const SRC: &str = r#"
    multiverse bool opt_a;
    multiverse bool opt_b;
    multiverse bool opt_c;
    i64 sink;

    multiverse i64 fa(void) {
        if (opt_a) { return 1; }
        return 2;
    }

    multiverse i64 fb(void) {
        if (opt_b) { return 4; }
        return 8;
    }

    multiverse i64 fc(void) {
        if (opt_c) { return 16; }
        return 32;
    }

    i64 worker(i64 iters) {
        i64 i = 0;
        while (i < iters) {
            sink = fa() + fb() + fc();
            i = i + 1;
        }
        return i;
    }

    i64 main(void) { return worker(4); }
"#;

/// The storm's switch names, in submission-stream order.
pub const SWITCHES: [&str; 3] = ["opt_a", "opt_b", "opt_c"];

/// Round budget for draining the workers after the storm.
const MAX_ROUNDS: u64 = 10_000_000;

/// Scheduler rounds stepped between bursts so flips land mid-flight.
const ROUNDS_PER_BURST: u64 = 4;

/// Compiles the storm kernel with multiverse enabled.
pub fn build() -> Result<Program, BuildError> {
    Program::build(&[("commit_storm.c", SRC)])
}

/// Boots `vcpus` workers (spawned, not yet run) for `iters` iterations.
pub fn boot(vcpus: usize, iters: u64, seed: u64) -> Result<SmpWorld, BuildError> {
    let p = build()?;
    let mut w = p.boot_smp(vcpus);
    w.smp.set_seed(seed);
    w.spawn_all("worker", &[iters])?;
    Ok(w)
}

/// Outcome of one storm run (daemon-driven or naive-serial).
#[derive(Clone, Debug)]
pub struct StormReport {
    /// Worker vCPUs.
    pub vcpus: usize,
    /// Flip requests submitted.
    pub requests: u64,
    /// Quiesced commits actually run.
    pub commits: u64,
    /// Guest cycles spent inside control-plane processing (commit
    /// windows only — worker progress between bursts is excluded so
    /// both drivers are charged identically).
    pub commit_cycles: u64,
    /// Per-commit guest-cycle latencies, in commit order.
    pub latencies: Vec<u64>,
    /// `true` iff every worker returned exactly its iteration count.
    pub workers_exact: bool,
    /// Daemon counters (zeroed for the naive baseline).
    pub stats: MvdStats,
}

impl StormReport {
    /// Requests landed per 1000 guest cycles of control-plane work.
    pub fn requests_per_kcycle(&self) -> f64 {
        self.requests as f64 * 1000.0 / (self.commit_cycles.max(1)) as f64
    }
}

/// Cycle-throughput ratio of the daemon run over the naive baseline.
/// Meaningful under [`CommitStrategy::StopMachine`], whose rendezvous
/// charges real guest cycles; a breakpoint window over workers outside
/// the patched regions costs ~0 cycles, so compare
/// [`commit_ratio`] there instead.
pub fn speedup(daemon: &StormReport, naive: &StormReport) -> f64 {
    daemon.requests_per_kcycle() / naive.requests_per_kcycle()
}

/// Commits the baseline ran per commit the daemon ran — the coalescing
/// factor, strategy-independent.
pub fn commit_ratio(daemon: &StormReport, naive: &StormReport) -> f64 {
    naive.commits as f64 / daemon.commits.max(1) as f64
}

/// The deterministic request stream: xorshift64 over `seed`, yielding
/// (switch index, value) pairs. Both drivers replay the same stream.
fn stream(seed: u64, requests: u64) -> Vec<(usize, i64)> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((((x >> 8) as usize) % SWITCHES.len(), ((x >> 32) & 1) as i64));
    }
    out
}

/// Runs the storm through the commit daemon: submit a burst, let the
/// workers advance, drain the queue, repeat.
pub fn run_storm(
    vcpus: usize,
    iters: u64,
    requests: u64,
    burst: u64,
    strategy: CommitStrategy,
    seed: u64,
) -> Result<StormReport, BuildError> {
    let mut w = boot(vcpus, iters, seed)?;
    let addrs: Vec<u64> = SWITCHES
        .iter()
        .map(|s| w.sym(s))
        .collect::<Result<_, _>>()?;
    let mut daemon = CommitDaemon::new(MvdConfig {
        capacity: (2 * burst as usize).max(8),
        strategy,
        ..MvdConfig::default()
    });

    let mut commit_cycles = 0u64;
    let mut latencies = Vec::new();
    for chunk in stream(seed, requests).chunks(burst.max(1) as usize) {
        for &(si, value) in chunk {
            let rt = w.rt.as_mut().expect("multiverse build has a runtime");
            daemon.submit(
                rt,
                MvdOp::Flip {
                    switch: addrs[si],
                    value,
                },
                Lane::Normal,
            );
        }
        for _ in 0..ROUNDS_PER_BURST {
            if w.smp.any_live() {
                w.smp.step_round();
            }
        }
        loop {
            let before = daemon.stats().committed;
            let t0 = w.smp.max_cycles();
            let rt = w.rt.as_mut().expect("runtime");
            if !daemon.step(rt, &mut w.smp) {
                break;
            }
            let dt = w.smp.max_cycles() - t0;
            commit_cycles += dt;
            if daemon.stats().committed > before {
                latencies.push(dt);
            }
        }
    }

    let rets = w.run(MAX_ROUNDS)?;
    let stats = daemon.stats();
    Ok(StormReport {
        vcpus,
        requests,
        commits: stats.committed,
        commit_cycles,
        latencies,
        workers_exact: rets.iter().all(|&r| r == iters),
        stats,
    })
}

/// The baseline: the identical stream, one synchronous quiesced commit
/// per request, with the same worker interleave between bursts.
pub fn naive_serial(
    vcpus: usize,
    iters: u64,
    requests: u64,
    burst: u64,
    strategy: CommitStrategy,
    seed: u64,
) -> Result<StormReport, BuildError> {
    let mut w = boot(vcpus, iters, seed)?;
    let addrs: Vec<u64> = SWITCHES
        .iter()
        .map(|s| w.sym(s))
        .collect::<Result<_, _>>()?;

    let mut commit_cycles = 0u64;
    let mut latencies = Vec::new();
    let mut commits = 0u64;
    for chunk in stream(seed, requests).chunks(burst.max(1) as usize) {
        for _ in 0..ROUNDS_PER_BURST {
            if w.smp.any_live() {
                w.smp.step_round();
            }
        }
        for &(si, value) in chunk {
            let t0 = w.smp.max_cycles();
            let rt = w.rt.as_mut().expect("runtime");
            rt.write_switch(&mut w.smp.machine, addrs[si], value)?;
            rt.run_quiesced(&mut w.smp, TxnOp::CommitRefs(addrs[si]), strategy)?;
            let dt = w.smp.max_cycles() - t0;
            commit_cycles += dt;
            latencies.push(dt);
            commits += 1;
        }
    }

    let rets = w.run(MAX_ROUNDS)?;
    Ok(StormReport {
        vcpus,
        requests,
        commits,
        commit_cycles,
        latencies,
        workers_exact: rets.iter().all(|&r| r == iters),
        stats: MvdStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_covers_every_switch() {
        let a = stream(0xBEEF, 64);
        assert_eq!(a, stream(0xBEEF, 64));
        for si in 0..SWITCHES.len() {
            assert!(a.iter().any(|&(s, _)| s == si), "switch {si} never hit");
        }
        assert_ne!(a, stream(0xBEE5, 64), "seed changes the stream");
    }

    #[test]
    fn storm_coalesces_and_keeps_workers_exact() {
        let r = run_storm(4, 4000, 48, 24, CommitStrategy::StopMachine, 7).unwrap();
        assert!(r.workers_exact, "a worker lost iterations");
        assert!(
            r.commits < r.requests / 2,
            "coalescing collapsed {} requests into {} commits",
            r.requests,
            r.commits
        );
        assert_eq!(r.stats.submitted, r.requests);
        assert_eq!(r.stats.admitted + r.stats.coalesced, r.requests);
    }

    #[test]
    fn naive_baseline_commits_once_per_request() {
        let r = naive_serial(2, 2000, 12, 6, CommitStrategy::StopMachine, 7).unwrap();
        assert_eq!(r.commits, r.requests);
        assert!(r.workers_exact);
        assert_eq!(r.latencies.len() as u64, r.requests);
    }

    #[test]
    fn daemon_beats_naive_by_an_order_of_magnitude() {
        let daemon = run_storm(4, 6000, 96, 48, CommitStrategy::StopMachine, 42).unwrap();
        let naive = naive_serial(4, 6000, 96, 48, CommitStrategy::StopMachine, 42).unwrap();
        let s = speedup(&daemon, &naive);
        assert!(
            s >= 10.0,
            "coalescing speedup {s:.1}× below the 10× gate \
             ({} vs {} commits)",
            daemon.commits,
            naive.commits
        );
        assert!(commit_ratio(&daemon, &naive) >= 10.0);
    }

    #[test]
    fn breakpoint_storm_coalesces_just_as_hard() {
        let daemon = run_storm(4, 6000, 96, 48, CommitStrategy::Breakpoint, 42).unwrap();
        let naive = naive_serial(4, 6000, 96, 48, CommitStrategy::Breakpoint, 42).unwrap();
        assert!(daemon.workers_exact && naive.workers_exact);
        assert!(commit_ratio(&daemon, &naive) >= 10.0);
    }
}
