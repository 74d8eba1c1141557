//! `kernel_flip`: the §6.1 kernel scale — 1161 recorded call sites of
//! four switch-guarded hooks — with two simulated vCPUs running a worker
//! loop while a seeded flip stream goes through the `mvd` commit daemon,
//! alternating stop-machine and breakpoint quiesce. Every commit is
//! followed by the rest of the worker run, so post-commit invalidation
//! is paid. Workers return exact sweep counts.
//!
//! A switched-off hook is a bare `cli; sti`, which a commit inlines into
//! each site with NOP padding, as PV-Ops patching does. A vCPU can stop
//! inside such a site, in a region a commit rewrites, so a breakpoint
//! commit drains it while the other vCPU runs into the planted traps:
//! the reference pass checks that this path ran.
//!
//! Why: commit-dominated (`mvrt` transaction, quiesce, `mvd`,
//! `mvvm::smp`), with few functions and many sites each — the opposite
//! commit shape to `variant_grid`.

use crate::harness::{
    check_tiers, explore, guest_counters, patch_counters, quiesce_counters, setup, Boot, Cfg,
    EngineCounters, Obs, Rec, Workload, TIERS,
};
use multiverse::mvc::Options;
use multiverse::mvrt::{CommitDaemon, CommitStrategy, Lane, MvdConfig, MvdOp, MvdOutcome};
use multiverse::mvvm::ExecTier;
use multiverse::mvvx::ConfigSpace;
use multiverse::{Program, SmpWorld, World};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::fmt::Write as _;

const HOOKS: usize = 4;
const SITES: usize = 1161;
/// 43 callers × 27 sites: each caller is too large for the inliner, so
/// every site stays exactly where the source puts it.
const CALLERS: usize = 43;
const VCPUS: usize = 2;
const MAX_ROUNDS: u64 = 100_000_000;

/// The generated kernel: `hook<k>` counts a hit while switch `k<k>` is
/// set and is a bare `cli; sti` otherwise; `worker` sweeps every caller
/// `iters` times and returns the number of callers it ran, whatever the
/// switches say.
fn kernel_src() -> String {
    let mut s = String::new();
    for k in 0..HOOKS {
        let _ = writeln!(
            s,
            "multiverse bool k{k};\ni64 hits{k};\n\
             multiverse void hook{k}(void) {{\n    \
             if (k{k}) {{ hits{k} = hits{k} + 1; }} else {{ __cli(); __sti(); }}\n}}"
        );
    }
    let per_caller = SITES / CALLERS;
    for f in 0..CALLERS {
        let _ = writeln!(s, "i64 caller{f}(void) {{");
        for i in 0..per_caller {
            let _ = writeln!(s, "    hook{}();", (f * per_caller + i) % HOOKS);
        }
        let _ = writeln!(s, "    return 1;\n}}");
    }
    s.push_str("i64 sweep(void) {\n    i64 n = 0;\n");
    for f in 0..CALLERS {
        let _ = writeln!(s, "    n = n + caller{f}();");
    }
    s.push_str(
        "    return n;\n}\n\
         i64 worker(i64 iters) {\n    i64 acc = 0;\n    while (iters > 0) {\n        \
         acc = acc + sweep();\n        iters = iters - 1;\n    }\n    return acc;\n}\n\
         i64 main(void) { return worker(1); }\n",
    );
    s
}

/// Every hook's switch, off.
const OFF: [(&str, i64); HOOKS] = [("k0", 0), ("k1", 0), ("k2", 0), ("k3", 0)];

/// One tier's SMP world with a commit daemon per quiesce strategy.
struct TierWorld {
    tier: ExecTier,
    w: SmpWorld,
    daemons: [CommitDaemon; 2],
}

struct KernelFlip {
    reference: bool,
    quick: bool,
    src: String,
    image: u64,
    iters: u64,
    pre_rounds: u64,
    setup_every: u64,
    rng: StdRng,
    switches: [i64; HOOKS],
    worlds: Vec<TierWorld>,
    dynamic: Option<SmpWorld>,
    explore: World,
    space: ConfigSpace,
    program: Program,
}

fn smp_world(program: &Program, tier: ExecTier, seed: u64) -> SmpWorld {
    let mut w = program.boot_smp(VCPUS);
    w.smp.set_seed(seed);
    if tier == ExecTier::Native {
        w.set_backend("native").expect("the native backend exists");
    } else {
        w.smp.set_tier(tier);
    }
    if w.rt.is_some() {
        w.commit_quiesced(CommitStrategy::StopMachine)
            .expect("initial commit");
    }
    w
}

pub fn build(seed: u64, cfg: Cfg) -> Box<dyn Workload> {
    let (iters, pre_rounds, setup_every) = if cfg.quick { (1, 4, 1) } else { (2, 64, 4) };
    let src = kernel_src();
    let program = Program::build(&[("kernel.c", &src)]).expect("kernel compiles");
    let worlds = TIERS
        .iter()
        .map(|&tier| TierWorld {
            tier,
            w: smp_world(&program, tier, seed),
            daemons: [CommitStrategy::StopMachine, CommitStrategy::Breakpoint].map(|strategy| {
                CommitDaemon::new(MvdConfig {
                    strategy,
                    ..MvdConfig::default()
                })
            }),
        })
        .collect();
    let dynamic = cfg.reference.then(|| {
        let p = Program::build_with(&[("kernel.c", &src)], &Options::dynamic())
            .expect("dynamic kernel compiles");
        smp_world(&p, ExecTier::Tierless, seed)
    });
    let explore = program.boot();
    let space = explore.config_space().expect("switch domains recover");
    Box::new(KernelFlip {
        reference: cfg.reference,
        quick: cfg.quick,
        image: program.image_size(),
        src,
        iters,
        pre_rounds,
        setup_every,
        rng: StdRng::seed_from_u64(seed ^ 0xF11F),
        switches: [0; HOOKS],
        worlds,
        dynamic,
        explore,
        space,
        program,
    })
}

/// Submits `ops` to `daemon` and steps it until the queue drains,
/// timing every quiesced commit under `metric`.
fn reconfigure(
    rec: &mut Rec,
    w: &mut SmpWorld,
    daemon: &mut CommitDaemon,
    ops: &[MvdOp],
    metric: Option<&str>,
) {
    rec.phase("reconfigure", |rec| {
        let before = daemon.stats();
        for &op in ops {
            let (r, _) = rec.call("mvrt.daemon_submit", || {
                w.submit_op(daemon, op, Lane::Normal)
            });
            if let Err(e) = r {
                rec.fail("submit", e);
            }
        }
        loop {
            let rt_before = w.rt.as_ref().expect("runtime attached").stats;
            let (r, secs) = rec.call("mvrt.daemon_step", || w.step_daemon(daemon));
            match r {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return rec.fail("mvd step", e),
            }
            if let Some(metric) = metric {
                rec.sample(metric, secs);
            }
            patch_counters(rec, w.rt.as_ref().expect("runtime attached"), &rt_before);
        }
        let mut seen = Vec::new();
        for c in daemon.take_completions() {
            if seen.contains(&c.op) {
                continue; // a coalesced waiter shares its entry's report
            }
            seen.push(c.op);
            match c.outcome {
                MvdOutcome::Committed(q) => {
                    quiesce_counters(rec, &q);
                    rec.check(q.commit.generic_fallbacks == 0, || {
                        format!("{:?} fell back to generic", c.op)
                    });
                }
                other => rec.fail("daemon commit", format!("{:?}: {other:?}", c.op)),
            }
        }
        let after = daemon.stats();
        rec.exact("mvd.committed", (after.committed - before.committed) as f64);
        rec.exact("mvd.coalesced", (after.coalesced - before.coalesced) as f64);
    })
}

/// One worker run at `tier` with a reconfiguration landing mid-flight:
/// `pre_rounds` scheduler rounds, then `between` (the commits), then
/// the rest of the run. The two run parts form one rep.
fn rep(
    rec: &mut Rec,
    w: &mut SmpWorld,
    tier: ExecTier,
    first: bool,
    iters: u64,
    pre_rounds: u64,
    between: impl FnOnce(&mut Rec, &mut SmpWorld),
) -> Option<Obs> {
    let phase = format!("run.{tier}");
    if let Err(e) = w.spawn_all("worker", &[iters]) {
        rec.fail("spawn", e);
        return None;
    }
    let (s0, r0, e0) = (
        w.smp.total_stats(),
        w.smp.rounds(),
        EngineCounters::of_smp(&w.smp),
    );
    let (_, t_pre) = rec.phase(&phase, |rec| {
        rec.call("mvvm.smp_step_round", || {
            for _ in 0..pre_rounds {
                w.smp.step_round();
            }
        })
    });
    between(rec, w);
    let (r, t_rest) = rec.phase(&phase, |rec| rec.call("mvvm.smp_run", || w.run(MAX_ROUNDS)));
    let metric = if first {
        format!("mvvm.first_run_s.{tier}")
    } else {
        crate::harness::run_metric(tier)
    };
    rec.sample(&metric, t_pre + t_rest);
    EngineCounters::of_smp(&w.smp).record_since(&e0, tier, rec);
    rec.exact("mvvm.smp_rounds", (w.smp.rounds() - r0) as f64);
    match r {
        Ok(result) => Some(Obs {
            result,
            cycles: (0..VCPUS).map(|i| w.smp.cycles_of(i)).sum(),
            stats: w.smp.total_stats().since(&s0),
            out: w.smp.machine.take_output(),
        }),
        Err(e) => {
            rec.fail(&format!("worker run at {tier}"), e);
            None
        }
    }
}

impl Workload for KernelFlip {
    fn reference_rounds(&self) -> u64 {
        // Both strategies, two maintenance rounds at least, and enough
        // breakpoint commits that some land on a vCPU inside a site.
        if self.quick {
            8
        } else {
            32
        }
    }

    fn epoch_rounds(&self) -> u64 {
        8
    }

    fn round(&mut self, r: u64, rec: &mut Rec) {
        if r.is_multiple_of(self.setup_every) {
            let opts = Options::default();
            setup(rec, &self.src, &opts, Boot::Smp(VCPUS), &OFF, self.image);
        }

        // Two distinct hooks toggle; the first request is repeated, as a
        // storm would, and coalesces into the queued entry.
        let a = self.rng.gen_range(0..HOOKS);
        let b = (a + self.rng.gen_range(1..HOOKS)) % HOOKS;
        let mut flip = |k: usize| {
            self.switches[k] ^= 1;
            (k, self.switches[k])
        };
        let (fa, fb) = (flip(a), flip(b));
        let addr = |(k, value): (usize, i64)| MvdOp::Flip {
            switch: self.program.exe().symbol(OFF[k].0).expect("switch exists"),
            value,
        };
        let flips = [addr(fa), addr(fb), addr(fa)];
        let strategy = (r % 2) as usize;
        let maintain = r % 4 == 1;

        let (iters, pre) = (self.iters, self.pre_rounds);
        let obs: Vec<Option<Obs>> = self
            .worlds
            .iter_mut()
            .map(|tw| {
                let TierWorld { tier, w, daemons } = tw;
                let daemon = &mut daemons[strategy];
                rep(rec, w, *tier, r == 0, iters, pre, |rec, w| {
                    reconfigure(rec, w, daemon, &flips, Some("mvrt.commit_us"));
                    if maintain {
                        // An immediate re-commit plans no writes; the
                        // revert and the untimed commit undoing it
                        // rewrite every site.
                        let recommit = Some("mvrt.recommit_us");
                        reconfigure(rec, w, daemon, &[MvdOp::CommitAll], recommit);
                        reconfigure(rec, w, daemon, &[MvdOp::RevertAll], Some("mvrt.revert_us"));
                        reconfigure(rec, w, daemon, &[MvdOp::CommitAll], None);
                    }
                })
            })
            .collect();
        let sweeps = iters * CALLERS as u64;
        check_tiers(rec, &obs, |o| o.result == [sweeps; VCPUS]);
        if self.reference && r + 1 == self.reference_rounds() {
            for tw in &self.worlds {
                rec.check(tw.w.smp.trap_hits() > 0, || {
                    format!("no breakpoint commit at {} drained a vCPU", tw.tier)
                });
            }
        }
        if let Some(o) = &obs[0] {
            guest_counters(rec, "guest_cycles_per_op", o, iters * VCPUS as u64, true);
        }
        if let Some(w) = &mut self.dynamic {
            let switches = self.switches;
            let between = |rec: &mut Rec, w: &mut SmpWorld| {
                for (&(name, _), &v) in OFF.iter().zip(&switches) {
                    if let Err(e) = w.set(name, v) {
                        rec.fail("set", e);
                    }
                }
            };
            if let Some(o) = rep(rec, w, ExecTier::Tierless, true, iters, pre, between) {
                rec.check(o.result == [sweeps; VCPUS], || {
                    "dynamic build diverged".into()
                });
                guest_counters(
                    rec,
                    "guest_cycles_per_op.dynamic",
                    &o,
                    iters * VCPUS as u64,
                    false,
                );
            }
        }

        let program = &self.program;
        let replay = || Ok::<_, multiverse::BuildError>(program.boot());
        explore(
            rec,
            &self.explore,
            &self.space,
            "caller0",
            &[],
            |leaf| leaf.exit == 1,
            (self.reference && r == 0).then_some(&replay as _),
        );
    }
}
