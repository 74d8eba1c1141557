//! The recorder every workload reports into, the layer calls the
//! workloads share, and the reduction of one run into a `mv-bench/1`
//! document.
//!
//! A workload run has two passes. The *reference pass* replays a fixed
//! number of rounds on seed-independent inputs and yields the exact
//! metrics (guest cycles, retired-event counts, patch counters): they
//! repeat bit for bit on every run and every seed, so they are gated
//! with zero tolerance. The peak resident set is read when it ends. The
//! *timed pass* replays rounds on the seeded inputs until the time
//! budget is spent and yields the host-time medians, scaled by the
//! host-speed [`Probe`].
//!
//! A round runs every phase (set-up, reconfigure, a run rep at each
//! tier, explore), so the phases interleave round-robin across the whole
//! run and a slow period on the host spreads over all of them instead of
//! shifting one. The timed pass rebuilds the workload
//! every few rounds from a fresh seed, so its medians span several
//! inputs, heap layouts and hash seeds rather than the one a single
//! process happened to get.

use crate::probe::{Probe, REFERENCE_S};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{summarize, trimmed_mean, Summary};
use crate::trace::{self, Span};
use multiverse::mvc::{pipeline, Options, Pipeline};
use multiverse::mvmetrics::json::Obj;
use multiverse::mvobj::{self, Executable, Layout};
use multiverse::mvrt::{CommitReport, CommitStrategy, PatchStats, QuiesceReport, Runtime};
use multiverse::mvvm::{
    BlockCacheStats, CostModel, ExecTier, Machine, MachineConfig, NativeStats, SmpMachine, Stats,
};
use multiverse::mvvx::{ConfigSpace, VexecLeaf};
use multiverse::{Program, World};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The execution tiers every workload runs at, tierless first: it is
/// the oracle the others must match exactly.
pub const TIERS: [ExecTier; 4] = [
    ExecTier::Tierless,
    ExecTier::Block,
    ExecTier::Superblock,
    ExecTier::Native,
];

/// Seed of the reference pass's inputs.
const REFERENCE_SEED: u64 = 0x4D56_4245_4E43_4821;

/// Rounds of a `--quick` timed pass: the first rep per tier is
/// discarded, and a traced quick run needs an untraced and a traced
/// round after it.
const QUICK_ROUNDS: u64 = 3;

/// Share of the slowest commits `commit_mean_us` leaves out. A tail
/// percentile of `kernel_flip`'s commits, a mix of cheap stop-machine
/// and costly breakpoint and cache-invalidating commits, moved 10–12 %
/// between runs on a shared host. Over ten quiet runs a p90 spread
/// 2.5 % and this mean 0.7 %.
const COMMIT_TRIM: f64 = 0.01;

/// Metric name of a steady run rep at `tier`. The three tiers with
/// end-to-end bounds are top-level; the block tier is per-layer.
pub fn run_metric(tier: ExecTier) -> String {
    match tier {
        ExecTier::Block => "mvvm.run_s.block".to_string(),
        t => format!("run_s.{t}"),
    }
}

/// Collects timings, exact values, checks and (when tracing) spans.
pub struct Rec {
    epoch: Instant,
    /// Host timings by metric name, as (seconds, probe seconds at the
    /// time); index 1 holds those taken in traced rounds.
    samples: [BTreeMap<String, Vec<(f64, f64)>>; 2],
    /// Deterministic per-event values by metric name; a metric reports
    /// their mean.
    exact: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    tracing: bool,
    traced_rounds: u64,
    phase: Option<usize>,
    rep: u64,
    /// The host-speed probe; `None` in the reference pass, whose timings
    /// are not reported.
    probe: Option<Probe>,
    /// The probe time of the latest phase, which scales timings taken
    /// outside any phase.
    speed: f64,
    probes: Vec<f64>,
    /// Timings of the open phase, scaled when it ends.
    open: Option<Vec<(String, f64)>>,
}

impl Rec {
    fn new(calibrate: bool) -> Rec {
        Rec {
            epoch: Instant::now(),
            samples: Default::default(),
            exact: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            tracing: false,
            traced_rounds: 0,
            phase: None,
            rep: 0,
            probe: calibrate.then(Probe::new),
            speed: REFERENCE_S,
            probes: Vec::new(),
            open: None,
        }
    }

    fn run_probe(&mut self) -> Option<f64> {
        let t = self.probe.as_mut()?.run();
        self.probes.push(t);
        Some(t)
    }

    fn begin_round(&mut self, rep: u64, tracing: bool) {
        self.rep = rep;
        self.tracing = tracing;
        self.traced_rounds += tracing as u64;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the phase `name`, the parent span of every layer call
    /// it makes. The phase is probed right before and right after, and
    /// its timings are scaled by the mean of the two probes: the host's
    /// speed changes within tens of milliseconds, so a probe taken any
    /// earlier misjudges it.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Rec) -> T) -> T {
        let before = self.run_probe();
        self.open = Some(Vec::new());
        let out = self.traced_phase(name, f);
        let open = self.open.take().unwrap_or_default();
        if let (Some(before), Some(after)) = (before, self.run_probe()) {
            self.speed = (before + after) / 2.0;
        }
        for (name, secs) in open {
            self.push_sample(&name, secs, self.speed);
        }
        out
    }

    fn traced_phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Rec) -> T) -> T {
        if !self.tracing {
            return f(self);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: None,
            rep: self.rep,
        });
        let idx = self.spans.len() - 1;
        self.phase = Some(idx);
        let out = f(self);
        self.phase = None;
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Times one call into a layer; returns its result and seconds.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = if self.tracing { self.now_ns() } else { 0 };
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        if self.tracing {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: self.now_ns(),
                parent: self.phase,
                rep: self.rep,
            });
        }
        (out, secs)
    }

    /// Records one host timing, in seconds.
    pub fn sample(&mut self, name: &str, secs: f64) {
        match &mut self.open {
            Some(open) => open.push((name.to_string(), secs)),
            None => self.push_sample(name, secs, self.speed),
        }
    }

    fn push_sample(&mut self, name: &str, secs: f64, speed: f64) {
        self.samples[self.tracing as usize]
            .entry(name.to_string())
            .or_default()
            .push((secs, speed));
    }

    /// Records one deterministic per-event value.
    pub fn exact(&mut self, name: &str, v: f64) {
        self.exact.entry(name.to_string()).or_default().push(v);
    }

    /// Counts one checked operation; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("mvbench: check failed: {}", what());
            }
        }
        ok
    }

    /// Counts a failed operation for an error a layer returned.
    pub fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.check(false, || format!("{what}: {e}"));
    }

    /// Timing samples of `name`, preferring untraced rounds.
    fn timings(&self, name: &str) -> Option<&[(f64, f64)]> {
        let s = self.samples[0]
            .get(name)
            .or_else(|| self.samples[1].get(name));
        s.map(Vec::as_slice)
    }
}

// ---------------------------------------------------------------------
// Layer calls shared by the workloads
// ---------------------------------------------------------------------

/// Sizes of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Small inputs for a debug-build smoke run.
    pub quick: bool,
    /// Build what only the reference pass needs: the dynamic-build
    /// baseline world and the enumeration oracle.
    pub reference: bool,
}

/// How a set-up boots the linked image.
pub enum Boot {
    /// `Machine::new` + `load`, committed with `Runtime::commit`.
    Uni,
    /// `SmpMachine::boot` with this many vCPUs, committed under
    /// stop-machine quiesce.
    Smp(usize),
}

/// One full set-up as a user of the system pays it: cold compile (the
/// process-wide compile cache cleared first), link, load, attach, and
/// the first commit with `switches` set. A warm compile of the same
/// source is timed alongside but is not part of `setup_s`. Records the
/// compile counters as exact values and checks the image matches
/// `expect_image` bytes.
pub fn setup(
    rec: &mut Rec,
    src: &str,
    opts: &Options,
    boot: Boot,
    switches: &[(&str, i64)],
    expect_image: u64,
) {
    rec.phase("setup", |rec| {
        let opts = Options {
            jobs: 1,
            ..opts.clone()
        };
        pipeline::clear_compile_cache();
        let mut cold = Pipeline::new(opts.clone());
        let (obj, t_compile) = rec.call("mvc.compile_unit", || cold.compile_unit(src, "unit.c"));
        let obj = match obj {
            Ok((obj, _)) => obj,
            Err(e) => return rec.fail("compile", e),
        };
        rec.sample("mvc.compile_s", t_compile);
        let stats = cold.stats();
        for st in &stats.stages {
            rec.sample(&format!("mvc.{}_s", st.name), st.wall_ns as f64 / 1e9);
        }
        rec.exact("mvc.clones", stats.clones as f64);
        rec.exact("mvc.variants", stats.variants as f64);
        rec.exact("mvc.merge_rate", stats.merge_rate());
        let (_, t_warm) = rec.call("mvc.compile_unit", || {
            Pipeline::new(opts.clone()).compile_unit(src, "unit.c")
        });
        rec.sample("mvc.compile_warm_s", t_warm);

        let (exe, t_link) = rec.call("mvobj.link", || mvobj::link(&[obj], &Layout::default()));
        let exe = match exe {
            Ok(exe) => exe,
            Err(e) => return rec.fail("link", e),
        };
        rec.sample("mvobj.link_s", t_link);
        let t_boot = match boot {
            Boot::Uni => {
                let (mut m, t_load) = rec.call("mvvm.load", || {
                    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
                    m.load(&exe);
                    m
                });
                rec.sample("mvvm.load_s", t_load);
                let Some((mut rt, t_attach)) = attach(rec, &m, &exe) else {
                    return;
                };
                write_switches(rec, &rt, &mut m, &exe, switches);
                let (r, t_commit) = rec.call("mvrt.commit", || rt.commit(&mut m));
                commit_ok(rec, r.as_ref().ok());
                t_load + t_attach + t_commit
            }
            Boot::Smp(n) => {
                let (mut smp, t_load) = rec.call("mvvm.load", || SmpMachine::boot(&exe, n));
                rec.sample("mvvm.load_s", t_load);
                let Some((mut rt, t_attach)) = attach(rec, &smp.machine, &exe) else {
                    return;
                };
                write_switches(rec, &rt, &mut smp.machine, &exe, switches);
                let (r, t_commit) = rec.call("mvrt.commit_quiesced", || {
                    rt.commit_quiesced(&mut smp, CommitStrategy::StopMachine)
                });
                commit_ok(rec, r.as_ref().ok().map(|q| &q.commit));
                t_load + t_attach + t_commit
            }
        };
        rec.sample("setup_s", t_compile + t_link + t_boot);
        let image = exe.image_size();
        rec.exact("image_bytes", image as f64);
        rec.check(image == expect_image, || {
            format!("set-up built {image} image bytes, the run worlds {expect_image}")
        });
    })
}

fn attach(rec: &mut Rec, m: &Machine, exe: &Executable) -> Option<(Runtime, f64)> {
    let (rt, t_attach) = rec.call("mvrt.attach", || Runtime::attach(m, exe));
    match rt {
        Ok(rt) => {
            rec.sample("mvrt.attach_s", t_attach);
            rec.exact("mvrt.callsites", rt.num_callsites() as f64);
            rec.exact("mvrt.functions", rt.num_functions() as f64);
            Some((rt, t_attach))
        }
        Err(e) => {
            rec.fail("attach", e);
            None
        }
    }
}

fn write_switches(
    rec: &mut Rec,
    rt: &Runtime,
    m: &mut Machine,
    exe: &Executable,
    switches: &[(&str, i64)],
) {
    for &(name, value) in switches {
        let r = exe
            .symbol(name)
            .ok_or_else(|| format!("no switch `{name}`"))
            .and_then(|addr| rt.write_switch(m, addr, value).map_err(|e| e.to_string()));
        if let Err(e) = r {
            rec.fail("write_switch", e);
        }
    }
}

/// A commit succeeded and every function found a variant for the
/// current switch values (no generic fallback).
fn commit_ok(rec: &mut Rec, report: Option<&CommitReport>) {
    rec.check(report.is_some_and(|r| r.generic_fallbacks == 0), || {
        format!("commit failed or fell back to generic: {report:?}")
    });
}

/// Sets `switches` on a booted world through the runtime.
pub fn set_all(rec: &mut Rec, w: &mut World, switches: &[(&str, i64)]) {
    for &(name, value) in switches {
        if let Err(e) = w.set(name, value) {
            rec.fail("set", e);
        }
    }
}

/// A patching operation of the reconfigure phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchOp {
    /// A commit that changes at least one binding.
    Commit,
    /// A commit right after a commit: the delta-planning fast path.
    Recommit,
    /// A full revert to the generic image.
    Revert,
    /// The commit that undoes a revert. Untimed: it rewrites every site,
    /// and mixed into `mvrt.commit_us` it would set the tail percentile
    /// by itself.
    Restore,
}

impl PatchOp {
    fn metric(self) -> Option<&'static str> {
        match self {
            PatchOp::Commit => Some("mvrt.commit_us"),
            PatchOp::Recommit => Some("mvrt.recommit_us"),
            PatchOp::Revert => Some("mvrt.revert_us"),
            PatchOp::Restore => None,
        }
    }
}

/// Runs one unicore patching operation on `w`, timing it and recording
/// its phase split (`Runtime::last_timing`) and counters
/// (`PatchStats::since`).
pub fn patch(rec: &mut Rec, w: &mut World, op: PatchOp) {
    let World { machine, rt, .. } = w;
    let Some(rt) = rt.as_mut() else {
        return rec.fail("patch", "no runtime attached");
    };
    let before = rt.stats;
    let name = if op == PatchOp::Revert {
        "mvrt.revert"
    } else {
        "mvrt.commit"
    };
    let (r, secs) = rec.call(name, || match op {
        PatchOp::Revert => rt.revert(machine),
        _ => rt.commit(machine),
    });
    if let Some(metric) = op.metric() {
        rec.sample(metric, secs);
    }
    patch_counters(rec, rt, &before);
    match r {
        Ok(report) if op != PatchOp::Revert => commit_ok(rec, Some(&report)),
        Ok(_) => {}
        Err(e) => rec.fail(name, e),
    }
}

/// The reconfigure phase of a steady-state workload, on its own world:
/// `flips` times commit `on` then `off`, then an immediate re-commit, a
/// revert and the commit restoring `off`.
pub fn flip_cycle(
    rec: &mut Rec,
    w: &mut World,
    on: &[(&str, i64)],
    off: &[(&str, i64)],
    flips: usize,
) {
    rec.phase("reconfigure", |rec| {
        for _ in 0..flips {
            set_all(rec, w, on);
            patch(rec, w, PatchOp::Commit);
            set_all(rec, w, off);
            patch(rec, w, PatchOp::Commit);
        }
        patch(rec, w, PatchOp::Recommit);
        patch(rec, w, PatchOp::Revert);
        patch(rec, w, PatchOp::Restore);
    })
}

/// Records the phase split of the runtime's last operation and the
/// patch counters it moved since `before`.
pub fn patch_counters(rec: &mut Rec, rt: &Runtime, before: &PatchStats) {
    let t = rt.last_timing;
    rec.sample("mvrt.plan_us", t.plan.as_secs_f64());
    rec.sample("mvrt.validate_us", t.validate.as_secs_f64());
    rec.sample("mvrt.apply_us", t.apply.as_secs_f64());
    let d = rt.stats.since(before);
    for (name, v) in [
        ("mvrt.bytes_written", d.bytes_written),
        ("mvrt.mprotects", d.mprotects),
        ("mvrt.icache_flushes", d.icache_flushes),
        ("mvrt.pages_touched", d.pages_touched),
        ("mvrt.sites_skipped", d.sites_skipped),
        ("mvrt.journal_entries", d.journal_entries),
    ] {
        rec.exact(name, v as f64);
    }
}

/// Records what one quiesced commit cost the other vCPUs.
pub fn quiesce_counters(rec: &mut Rec, q: &QuiesceReport) {
    let s = match q.strategy {
        CommitStrategy::StopMachine => "stop",
        CommitStrategy::Breakpoint => "bp",
    };
    rec.exact(&format!("mvrt.quiesce_rounds.{s}"), q.rounds as f64);
    rec.exact(&format!("mvrt.stall_cycles.{s}"), q.stall_cycles as f64);
    rec.exact("mvrt.trap_hits", q.trap_hits as f64);
    rec.exact("mvrt.shootdowns", q.shootdowns as f64);
}

/// Boots a committed run world for `tier`: `prepare` writes the inputs,
/// `switches` are committed, and on the native tier the `native`
/// backend is installed and every function in `roots` lowered too (the
/// backend itself lowers only multiversed functions).
pub fn tier_world(
    program: &Program,
    tier: ExecTier,
    prepare: impl FnOnce(&mut World),
    switches: &[(&str, i64)],
    roots: &[&str],
) -> World {
    let mut w = program.boot();
    prepare(&mut w);
    if tier == ExecTier::Native {
        w.set_backend("native").expect("the native backend exists");
    } else {
        w.machine.set_tier(tier);
    }
    for &(name, value) in switches {
        w.set(name, value).expect("switch exists");
    }
    if w.rt.is_some() {
        w.commit().expect("initial commit");
    }
    lower_roots(&mut w, tier, roots);
    w
}

/// Lowers `roots` into native-tier regions on a native-tier world. A
/// commit's backend sync drops regions that are not multiversed
/// bindings, so worlds that commit between runs call this again.
pub fn lower_roots(w: &mut World, tier: ExecTier, roots: &[&str]) {
    if tier != ExecTier::Native {
        return;
    }
    for root in roots {
        let addr = w.sym(root).expect("root symbol exists");
        w.machine.ensure_native(addr);
    }
}

/// What a run rep let the guest observe. Every tier must produce the
/// tierless rep's value exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obs {
    /// Return value(s): one per vCPU.
    pub result: Vec<u64>,
    /// Guest cycles the rep took.
    pub cycles: u64,
    /// Retired-event counters of the rep.
    pub stats: Stats,
    /// Bytes the rep wrote to the output port.
    pub out: Vec<u8>,
}

/// Machine-side counters of the tiered engines, read before and after a
/// rep.
#[derive(Clone, Copy, Default)]
pub struct EngineCounters {
    pub blocks: BlockCacheStats,
    pub native: NativeStats,
}

impl EngineCounters {
    pub fn of(m: &Machine) -> EngineCounters {
        EngineCounters {
            blocks: m.block_stats(),
            native: m.native_stats(),
        }
    }

    pub fn of_smp(smp: &SmpMachine) -> EngineCounters {
        EngineCounters {
            blocks: smp.block_stats(),
            native: smp.machine.native_stats(),
        }
    }

    /// Records the per-rep deltas of the counters `tier` uses.
    pub fn record_since(&self, before: &EngineCounters, tier: ExecTier, rec: &mut Rec) {
        let (b, a) = (&before.blocks, &self.blocks);
        if tier != ExecTier::Tierless {
            rec.exact(&format!("mvvm.block_hits.{tier}"), (a.hits - b.hits) as f64);
            rec.exact(
                &format!("mvvm.block_misses.{tier}"),
                (a.misses - b.misses) as f64,
            );
            rec.exact(
                &format!("mvvm.block_evictions.{tier}"),
                (a.evictions - b.evictions) as f64,
            );
        }
        if tier == ExecTier::Superblock {
            rec.exact("mvvm.promotions", (a.promotions - b.promotions) as f64);
        }
        if tier == ExecTier::Native {
            let (b, a) = (&before.native, &self.native);
            rec.exact("mvvm.native_regions", (a.regions - b.regions) as f64);
            rec.exact("mvvm.native_insns", (a.insns - b.insns) as f64);
            rec.exact(
                "mvvm.native_invalidations",
                (a.invalidations - b.invalidations) as f64,
            );
        }
    }
}

/// Runs `func(args)` on a unicore world as one rep at `tier`; the first
/// rep of each tier is reported apart as its warm-up.
pub fn run_rep(
    rec: &mut Rec,
    w: &mut World,
    tier: ExecTier,
    first: bool,
    func: &str,
    args: &[u64],
) -> Option<Obs> {
    let addr = w.sym(func).expect("entry symbol exists");
    let (s0, c0, e0) = (
        w.machine.stats,
        w.machine.cycles(),
        EngineCounters::of(&w.machine),
    );
    let (r, secs) = rec.call("mvvm.call", || w.machine.call(addr, args));
    rec.sample(
        &if first {
            format!("mvvm.first_run_s.{tier}")
        } else {
            run_metric(tier)
        },
        secs,
    );
    EngineCounters::of(&w.machine).record_since(&e0, tier, rec);
    match r {
        Ok(v) => Some(Obs {
            result: vec![v],
            cycles: w.machine.cycles() - c0,
            stats: w.machine.stats.since(&s0),
            out: w.machine.take_output(),
        }),
        Err(e) => {
            rec.fail(&format!("run at {tier}"), e);
            None
        }
    }
}

/// Checks every tier's observation against the tierless one and the
/// tierless result against the workload's oracle.
pub fn check_tiers(rec: &mut Rec, obs: &[Option<Obs>], oracle_ok: impl Fn(&Obs) -> bool) {
    let base = obs[0].as_ref();
    for (tier, o) in TIERS.iter().zip(obs) {
        let Some(o) = o else { continue };
        rec.check(base == Some(o) && oracle_ok(o), || {
            format!(
                "{tier} rep diverged: {:?} vs tierless {:?}",
                o.result,
                base.map(|b| &b.result)
            )
        });
    }
}

/// Records the guest-side cost of a rep of `ops` operations: cycles
/// under `metric`, and for the committed image the retired events too.
pub fn guest_counters(rec: &mut Rec, metric: &str, obs: &Obs, ops: u64, events: bool) {
    let per_op = |v: u64| v as f64 / ops as f64;
    rec.exact(metric, per_op(obs.cycles));
    if events {
        let s = &obs.stats;
        for (name, v) in [
            ("mvvm.insns", s.instructions),
            ("mvvm.loads", s.loads),
            ("mvvm.branches", s.branches),
            ("mvvm.mispredicts", s.mispredicts),
            ("mvvm.calls", s.calls),
        ] {
            rec.exact(name, per_op(v));
        }
    }
}

/// One variational pass of `func(args)` over `space` on the generic
/// (uncommitted) world `w`; every leaf must satisfy `leaf_ok`. With
/// `replay`, every leaf is also re-run through the enumeration oracle
/// on worlds from `boot`, pricing the enumeration baseline.
pub fn explore(
    rec: &mut Rec,
    w: &World,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    leaf_ok: impl Fn(&VexecLeaf) -> bool,
    replay: Option<&dyn Fn() -> Result<World, multiverse::BuildError>>,
) {
    rec.phase("explore", |rec| {
        let (r, secs) = rec.call("mvvx.vexec_in", || w.vexec_in(space, func, args));
        rec.sample("vexec_s", secs);
        let report = match r {
            Ok(report) => report,
            Err(e) => return rec.fail("vexec", e),
        };
        let s = &report.stats;
        for (name, v) in [
            ("mvvx.leaves", report.leaves.len() as u64),
            ("mvvx.steps", s.steps),
            ("mvvx.splits", s.splits),
            ("mvvx.joins", s.joins),
            ("mvvx.max_live", s.max_live),
        ] {
            rec.exact(name, v as f64);
        }
        rec.check(
            report.leaves.len() == space.leaf_count() && report.leaves.iter().all(&leaf_ok),
            || format!("vexec of {func} missed the oracle on some leaf"),
        );
        if let Some(boot) = replay {
            let (chk, _) = rec.call("mvvx.enumerate_check", || {
                multiverse::enumerate_check_with(boot, space, func, args, &report)
            });
            match chk {
                Ok(c) => {
                    rec.exact("mvvx.enum_insns", c.insns as f64);
                    rec.check(c.leaves_checked == space.leaf_count(), || {
                        format!("enumeration replayed {} leaves", c.leaves_checked)
                    });
                }
                Err(e) => rec.fail("enumerate_check", e),
            }
        }
    })
}

// ---------------------------------------------------------------------
// Driving a workload and reducing it to metrics
// ---------------------------------------------------------------------

/// One workload's rounds. Constructed from a seed (which generates every
/// input) and driven one round at a time.
pub trait Workload {
    /// Runs round `r` of this instance: reconfigure and a run rep at
    /// every tier, plus set-up and explore at the workload's cadence
    /// (always in round 0).
    fn round(&mut self, r: u64, rec: &mut Rec);

    /// Rounds of the reference pass.
    fn reference_rounds(&self) -> u64;

    /// Rounds the timed pass runs on one instance before building the
    /// next from a fresh seed.
    fn epoch_rounds(&self) -> u64;
}

/// How to run one workload.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub unit: String,
    pub value: f64,
    /// `true` for deterministic guest-side quantities.
    pub exact: bool,
    /// For timings: median, tail percentile and count of the
    /// probe-scaled samples, and the median of the raw ones (in `unit`).
    pub summary: Option<(Summary, f64)>,
}

/// Everything one workload run measured.
pub struct Outcome {
    pub workload: String,
    pub opts: RunOpts,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Median host-speed probe time, seconds.
    pub probe_s: f64,
    /// Self time per layer, seconds per traced round.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Self time per span name, seconds per traced round.
    pub span_self_s: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

/// Builds a workload by name.
pub type Factory = fn(seed: u64, cfg: Cfg) -> Box<dyn Workload>;

/// Seed of the `epoch`-th instance of a timed pass seeded with `seed`.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Runs the reference pass and the timed pass of one workload.
pub fn run(name: &str, build: Factory, opts: RunOpts, spec: &Spec) -> Result<Outcome, String> {
    let mut reference = Rec::new(false);
    let cfg = Cfg {
        quick: opts.quick,
        reference: true,
    };
    let mut w = build(REFERENCE_SEED, cfg);
    for r in 0..w.reference_rounds() {
        reference.begin_round(r, false);
        w.round(r, &mut reference);
    }
    drop(w);
    // Taken before the timed pass: the memory that pass holds grows with
    // the number of samples it records, so with how fast the host was.
    let peak_rss = peak_rss_mb();

    let mut timed = Rec::new(true);
    let cfg = Cfg {
        reference: false,
        ..cfg
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut rounds = 0;
    'epochs: for epoch in 0.. {
        let mut w = build(epoch_seed(opts.seed, epoch), cfg);
        let epoch_rounds = if opts.quick {
            QUICK_ROUNDS
        } else {
            w.epoch_rounds()
        };
        for r in 0..epoch_rounds {
            // Alternate traced and untraced rounds, shifted by one every
            // epoch so phases that run every k-th round land in both.
            timed.begin_round(rounds, opts.trace && (rounds + epoch) % 2 == 1);
            w.round(r, &mut timed);
            rounds += 1;
            let done = if opts.quick {
                rounds >= QUICK_ROUNDS
            } else {
                rounds >= QUICK_ROUNDS && start.elapsed() >= budget
            };
            if done {
                break 'epochs;
            }
        }
    }

    let mut metrics = BTreeMap::new();
    for m in spec.all() {
        if let Some(v) = metric(m, &timed, &reference, opts.trace, peak_rss) {
            metrics.insert(m.name.clone(), v);
        } else if opts.trace || !m.name.starts_with("trace.") {
            return Err(format!("{name}: no samples for `{}`", m.name));
        }
    }
    let per_round = |map: BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        map.into_iter()
            .map(|(k, v)| (k, v / timed.traced_rounds.max(1) as f64))
            .collect()
    };
    Ok(Outcome {
        workload: name.to_string(),
        opts,
        rounds,
        attempted: reference.attempted + timed.attempted,
        failed: reference.failed + timed.failed,
        metrics,
        probe_s: summarize(&timed.probes).median,
        layer_self_s: per_round(trace::layer_self_seconds(&timed.spans)),
        span_self_s: per_round(trace::span_self_seconds(&timed.spans)),
        spans: timed.spans,
    })
}

/// Seconds-to-unit factor of a time unit; `None` for other units.
fn time_scale(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1.0),
        "ms" => Some(1e3),
        "us" => Some(1e6),
        _ => None,
    }
}

/// A timing metric from (seconds, probe seconds) samples: each sample
/// scaled to the reference host, then `value` of their summary and of
/// the scaled samples in the order they were taken.
fn host(unit: &str, samples: &[(f64, f64)], value: impl Fn(&Summary, &[f64]) -> f64) -> Metric {
    let scale = time_scale(unit).unwrap_or(1.0);
    let scaled: Vec<f64> = samples
        .iter()
        .map(|&(secs, probe)| secs * REFERENCE_S / probe * scale)
        .collect();
    let raw: Vec<f64> = samples.iter().map(|&(secs, _)| secs * scale).collect();
    let summary = summarize(&scaled);
    Metric {
        unit: unit.to_string(),
        value: value(&summary, &scaled),
        exact: false,
        summary: Some((summary, summarize(&raw).median)),
    }
}

/// The value of one declared metric, or `None` when the run recorded
/// nothing for it.
fn metric(
    m: &MetricSpec,
    timed: &Rec,
    reference: &Rec,
    traced: bool,
    peak_rss: Option<f64>,
) -> Option<Metric> {
    let unit = m.unit.as_str();
    let single = |value: f64, exact: bool| Metric {
        unit: unit.to_string(),
        value,
        exact,
        summary: None,
    };
    match m.name.as_str() {
        "commit_p50_us" => {
            let s = timed.timings("mvrt.commit_us")?;
            Some(host(unit, s, |sum, _| sum.median))
        }
        "commit_mean_us" => {
            let s = timed.timings("mvrt.commit_us")?;
            Some(host(unit, s, |_, scaled| trimmed_mean(scaled, COMMIT_TRIM)))
        }
        "peak_rss_mb" => Some(single(peak_rss?, false)),
        "trace.overhead_pct" => traced.then(|| single(overhead_pct(timed), false)),
        name if name.starts_with("trace.") => {
            let layer = name.strip_prefix("trace.self_s.")?;
            let total = trace::layer_self_seconds(&timed.spans).get(layer).copied();
            let per_round = total.unwrap_or(0.0) / timed.traced_rounds.max(1) as f64;
            traced.then(|| single(per_round * time_scale(unit).unwrap_or(1.0), false))
        }
        name if time_scale(unit).is_some() => {
            let s = timed.timings(name)?;
            Some(host(unit, s, |sum, _| sum.median))
        }
        // A counter the workload never moved reads 0.
        name => Some(single(
            reference
                .exact
                .get(name)
                .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64),
            true,
        )),
    }
}

/// Extra host time traced rounds took over untraced ones, in percent:
/// the summed medians of every phase-level timing taken in both.
fn overhead_pct(timed: &Rec) -> f64 {
    let phase_level = |k: &str| {
        k.starts_with("run_s.")
            || ["setup_s", "vexec_s", "mvrt.commit_us", "mvvm.run_s.block"].contains(&k)
    };
    let median = |s: &[(f64, f64)]| {
        let scaled: Vec<f64> = s.iter().map(|&(secs, probe)| secs / probe).collect();
        summarize(&scaled).median
    };
    let (mut on, mut off) = (0.0, 0.0);
    for (k, traced) in &timed.samples[1] {
        if let Some(untraced) = timed.samples[0].get(k).filter(|_| phase_level(k)) {
            on += median(traced);
            off += median(untraced);
        }
    }
    if off > 0.0 {
        (on / off - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders an outcome as a `mv-bench/1` document.
pub fn document(o: &Outcome) -> String {
    let mut metrics = Obj::new();
    for (name, m) in &o.metrics {
        let mut e = Obj::new();
        e.str("unit", &m.unit)
            .str("kind", if m.exact { "exact" } else { "host" })
            .f64("value", m.value);
        if let Some((s, raw_median)) = &m.summary {
            e.f64("median", s.median)
                .f64("pct", s.pct)
                .f64("pct_value", s.pct_value)
                .u64("n", s.n as u64)
                .f64("raw_median", *raw_median);
        }
        metrics.raw(name, e.finish());
    }
    let map = |m: &BTreeMap<String, f64>| {
        let mut obj = Obj::new();
        for (k, v) in m {
            obj.f64(k, *v);
        }
        obj.finish()
    };
    let mut doc = Obj::new();
    doc.str("schema", "mv-bench/1")
        .str("workload", &o.workload)
        .u64("seed", o.opts.seed)
        .f64("seconds", o.opts.seconds)
        .bool("quick", o.opts.quick)
        .bool("traced", o.opts.trace)
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .u64("rounds", o.rounds)
        .f64("probe_s", o.probe_s)
        .f64("probe_reference_s", REFERENCE_S)
        .bool("correct", o.failed == 0)
        .u64("attempted", o.attempted)
        .u64("failed", o.failed)
        .f64("failed_frac", o.failed as f64 / o.attempted.max(1) as f64)
        .raw("metrics", metrics.finish());
    if o.opts.trace {
        doc.raw("self_s", map(&o.layer_self_s))
            .raw("span_self_s", map(&o.span_self_s));
    }
    doc.finish()
}
