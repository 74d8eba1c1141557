//! The end-to-end facade: compile → link → load → attach runtime.

use mvc::Options;
use mvobj::Executable;
use mvrt::{
    CommitDaemon, CommitReport, CommitStrategy, Lane, MvdOp, QuiesceReport, RequestId, RtError,
    Runtime, TxnOp,
};
use mvvm::{CostModel, ExecTier, Fault, Machine, MachineConfig, SmpMachine, Stats};
use std::fmt;

/// Errors from building or driving a program.
#[derive(Debug)]
pub enum BuildError {
    /// Compilation or linking failed.
    Compile(mvc::CompileError),
    /// Execution faulted.
    Fault(Fault),
    /// The runtime library reported an error.
    Rt(RtError),
    /// A symbol was not found in the image.
    NoSymbol(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "{e}"),
            BuildError::Fault(e) => write!(f, "{e}"),
            BuildError::Rt(e) => write!(f, "{e}"),
            BuildError::NoSymbol(s) => write!(f, "no symbol `{s}`"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<mvc::CompileError> for BuildError {
    fn from(e: mvc::CompileError) -> Self {
        BuildError::Compile(e)
    }
}
impl From<Fault> for BuildError {
    fn from(e: Fault) -> Self {
        BuildError::Fault(e)
    }
}
impl From<RtError> for BuildError {
    fn from(e: RtError) -> Self {
        BuildError::Rt(e)
    }
}
impl From<mvvm::MemError> for BuildError {
    fn from(e: mvvm::MemError) -> Self {
        BuildError::Fault(Fault::Mem(e))
    }
}

/// The tier a backend name selects: `native`/`host` the native tier,
/// `mv64` none.
fn backend_tier(name: &str) -> Result<Option<ExecTier>, BuildError> {
    match name {
        "native" | "host" => Ok(Some(ExecTier::Native)),
        "mv64" => Ok(None),
        _ => Err(BuildError::NoSymbol(format!("backend `{name}`"))),
    }
}

/// A compiled and linked MVC program.
#[derive(Clone)]
pub struct Program {
    exe: Executable,
    warnings: Vec<mvc::Warning>,
    multiversed: bool,
}

impl Program {
    /// Compiles `units` with default (multiverse) options.
    pub fn build(units: &[(&str, &str)]) -> Result<Program, BuildError> {
        Program::build_with(units, &Options::default())
    }

    /// Compiles `units` with explicit options (e.g. [`Options::dynamic`]
    /// for the binding-B baseline or [`Options::static_build`] for the
    /// `#ifdef` binding A).
    pub fn build_with(units: &[(&str, &str)], opts: &Options) -> Result<Program, BuildError> {
        let (exe, warnings) = mvc::compile_and_link(units, opts)?;
        Ok(Program {
            exe,
            warnings,
            multiversed: opts.multiverse,
        })
    }

    /// Compiles `units` through a caller-provided [`mvc::Pipeline`], so
    /// the caller keeps the per-stage timings, counters and (if enabled)
    /// the compile-stage trace — the backing of `mvcc build --timings`
    /// and `--stats`.
    pub fn build_with_pipeline(
        units: &[(&str, &str)],
        pipeline: &mut mvc::Pipeline,
        multiversed: bool,
    ) -> Result<Program, BuildError> {
        let (exe, warnings) = pipeline.build(units)?;
        Ok(Program {
            exe,
            warnings,
            multiversed,
        })
    }

    /// The linked executable.
    pub fn exe(&self) -> &Executable {
        &self.exe
    }

    /// Compiler warnings (switch writes inside multiversed functions, …).
    pub fn warnings(&self) -> &[mvc::Warning] {
        &self.warnings
    }

    /// Total image size in bytes (for the §6.1 size accounting).
    pub fn image_size(&self) -> u64 {
        self.exe.image_size()
    }

    /// Boots a default machine (native, unicore, default cost model).
    pub fn boot(&self) -> World {
        self.boot_with(CostModel::default(), MachineConfig::default())
    }

    /// Boots with explicit cost model and machine configuration
    /// (multicore, Xen guest, …).
    pub fn boot_with(&self, cost: CostModel, config: MachineConfig) -> World {
        let mut machine = Machine::new(cost, config);
        machine.load(&self.exe);
        let rt = if self.multiversed {
            Runtime::attach(&machine, &self.exe).ok()
        } else {
            None
        };
        World {
            machine,
            rt,
            exe: self.exe.clone(),
        }
    }

    /// Boots an [`SmpMachine`] with `n` vCPUs sharing one loaded image
    /// (multicore mode, private sticky instruction caches) and attaches
    /// the multiverse runtime to it. Commits against a running SMP
    /// world must quiesce — see [`SmpWorld::commit_quiesced`].
    pub fn boot_smp(&self, n: usize) -> SmpWorld {
        let smp = SmpMachine::boot(&self.exe, n);
        let rt = if self.multiversed {
            Runtime::attach(&smp.machine, &self.exe).ok()
        } else {
            None
        };
        SmpWorld {
            smp,
            rt,
            exe: self.exe.clone(),
        }
    }
}

/// A booted program: machine + attached multiverse runtime.
pub struct World {
    /// The virtual machine.
    pub machine: Machine,
    /// The multiverse runtime (absent in dynamic/static builds).
    pub rt: Option<Runtime>,
    exe: Executable,
}

/// Timing result from [`World::time_calls`].
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Average cycles per call.
    pub avg_cycles: f64,
    /// Total cycles for all calls.
    pub total_cycles: u64,
    /// Event-counter delta across the measurement.
    pub stats: Stats,
}

impl World {
    /// The loaded executable image.
    pub fn exe(&self) -> &Executable {
        &self.exe
    }

    /// Address of a symbol.
    pub fn sym(&self, name: &str) -> Result<u64, BuildError> {
        self.exe
            .symbol(name)
            .ok_or_else(|| BuildError::NoSymbol(name.to_string()))
    }

    /// Calls a function by name with register arguments; returns `r0`.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<u64, BuildError> {
        let addr = self.sym(name)?;
        Ok(self.machine.call(addr, args)?)
    }

    /// Selects the execution engine. On [`ExecTier::Native`] an attached
    /// runtime lowers the live function bodies right away, so the tier
    /// is live before the next call, not only after the next commit.
    pub fn set_tier(&mut self, tier: ExecTier) {
        self.machine.set_tier(tier);
        if let Some(rt) = &self.rt {
            rt.sync_native(&mut self.machine);
        }
    }

    /// Alias of [`World::set_tier`] by backend name, for callers that
    /// still select the engine that way: `native` (or `host`) selects
    /// [`ExecTier::Native`], `mv64` changes nothing, and any other name
    /// is an error.
    pub fn set_backend(&mut self, name: &str) -> Result<(), BuildError> {
        if let Some(tier) = backend_tier(name)? {
            self.set_tier(tier);
        }
        Ok(())
    }

    /// Reads a global (width/signedness per its type where described,
    /// else 8 bytes unsigned).
    pub fn get(&self, name: &str) -> Result<i64, BuildError> {
        let addr = self.sym(name)?;
        if let Some(rt) = &self.rt {
            if let Ok(v) = rt.read_switch(&self.machine, addr) {
                return Ok(v);
            }
        }
        Ok(self.machine.mem.read_int(addr, 8, false)?)
    }

    /// Writes a global configuration switch (or plain 8-byte global).
    pub fn set(&mut self, name: &str, value: i64) -> Result<(), BuildError> {
        let addr = self.sym(name)?;
        if let Some(rt) = &self.rt {
            if rt.write_switch(&mut self.machine, addr, value).is_ok() {
                return Ok(());
            }
        }
        self.machine.mem.write_int(addr, value as u64, 8)?;
        Ok(())
    }

    /// `multiverse_commit()`.
    pub fn commit(&mut self) -> Result<CommitReport, BuildError> {
        let rt = self.rt.as_mut().ok_or({
            BuildError::Rt(RtError::UnknownFunction(0)) // no runtime attached
        })?;
        Ok(rt.commit(&mut self.machine)?)
    }

    /// `multiverse_revert()`.
    pub fn revert(&mut self) -> Result<CommitReport, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(rt.revert(&mut self.machine)?)
    }

    /// `multiverse_commit_refs(&var)` by switch name.
    pub fn commit_refs(&mut self, var: &str) -> Result<CommitReport, BuildError> {
        let addr = self.sym(var)?;
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownVariable(addr)))?;
        Ok(rt.commit_refs(&mut self.machine, addr)?)
    }

    /// `multiverse_commit_func(&fn)` by function name.
    pub fn commit_func(&mut self, func: &str) -> Result<CommitReport, BuildError> {
        let addr = self.sym(func)?;
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(addr)))?;
        Ok(rt.commit_func(&mut self.machine, addr)?)
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Calls `name` `n` times and reports average cycles per call plus
    /// event deltas — the microbenchmark harness of §6 (tight loop, warm
    /// predictors; pass `cold_predictors` to flush between calls for the
    /// footnote-1 scenario).
    pub fn time_calls(
        &mut self,
        name: &str,
        args: &[u64],
        n: u64,
        cold_predictors: bool,
    ) -> Result<Timing, BuildError> {
        let addr = self.sym(name)?;
        // Warm-up round so one-time predictor training is excluded, as in
        // the paper's repeated-sample methodology.
        self.machine.call(addr, args)?;
        if cold_predictors {
            self.machine.flush_predictors();
        }
        let stats0 = self.machine.stats;
        let c0 = self.machine.cycles();
        for _ in 0..n {
            if cold_predictors {
                self.machine.flush_predictors();
            }
            self.machine.call(addr, args)?;
        }
        let total = self.machine.cycles() - c0;
        Ok(Timing {
            avg_cycles: total as f64 / n as f64,
            total_cycles: total,
            stats: self.machine.stats.since(&stats0),
        })
    }
}

/// A booted SMP program: N vCPUs over one shared image, plus the
/// attached multiverse runtime for quiesced commits.
pub struct SmpWorld {
    /// The SMP machine (vCPUs, scheduler, shared memory).
    pub smp: SmpMachine,
    /// The multiverse runtime (absent in dynamic/static builds).
    pub rt: Option<Runtime>,
    exe: Executable,
}

impl SmpWorld {
    /// The loaded executable image.
    pub fn exe(&self) -> &Executable {
        &self.exe
    }

    /// Address of a symbol.
    pub fn sym(&self, name: &str) -> Result<u64, BuildError> {
        self.exe
            .symbol(name)
            .ok_or_else(|| BuildError::NoSymbol(name.to_string()))
    }

    /// Number of vCPUs.
    pub fn vcpus(&self) -> usize {
        self.smp.vcpus()
    }

    /// Selects the execution engine for every vCPU, each starting cold
    /// (see [`SmpMachine::set_tier`]), then lowers the live function
    /// bodies like [`World::set_tier`]. Under SMP the native tier defers
    /// to the block engine whenever a vCPU's sticky instruction cache is
    /// active, so regions never change SMP semantics.
    pub fn set_tier(&mut self, tier: ExecTier) {
        self.smp.set_tier(tier);
        if let Some(rt) = &self.rt {
            rt.sync_native(&mut self.smp.machine);
        }
    }

    /// Alias of [`SmpWorld::set_tier`] by backend name, like
    /// [`World::set_backend`].
    pub fn set_backend(&mut self, name: &str) -> Result<(), BuildError> {
        if let Some(tier) = backend_tier(name)? {
            self.set_tier(tier);
        }
        Ok(())
    }

    /// Spawns function `name` on vCPU `i` with register arguments.
    pub fn spawn(&mut self, i: usize, name: &str, args: &[u64]) -> Result<(), BuildError> {
        let addr = self.sym(name)?;
        Ok(self.smp.spawn(i, addr, args)?)
    }

    /// Spawns function `name` on *every* vCPU with the same arguments.
    pub fn spawn_all(&mut self, name: &str, args: &[u64]) -> Result<(), BuildError> {
        for i in 0..self.smp.vcpus() {
            self.spawn(i, name, args)?;
        }
        Ok(())
    }

    /// Runs scheduler rounds until every spawned vCPU finishes; returns
    /// the per-vCPU results.
    pub fn run(&mut self, max_rounds: u64) -> Result<Vec<u64>, BuildError> {
        Ok(self.smp.run_until_done(max_rounds)?)
    }

    /// Reads a global (switch-aware, like [`World::get`]).
    pub fn get(&self, name: &str) -> Result<i64, BuildError> {
        let addr = self.sym(name)?;
        if let Some(rt) = &self.rt {
            if let Ok(v) = rt.read_switch(&self.smp.machine, addr) {
                return Ok(v);
            }
        }
        Ok(self.smp.machine.mem.read_int(addr, 8, false)?)
    }

    /// Writes a global configuration switch (or plain 8-byte global).
    /// Writing a switch is always safe concurrently — only *commits*
    /// rewrite text and need quiescing.
    pub fn set(&mut self, name: &str, value: i64) -> Result<(), BuildError> {
        let addr = self.sym(name)?;
        if let Some(rt) = &self.rt {
            if rt.write_switch(&mut self.smp.machine, addr, value).is_ok() {
                return Ok(());
            }
        }
        self.smp.machine.mem.write_int(addr, value as u64, 8)?;
        Ok(())
    }

    /// `multiverse_commit()` while the vCPUs are running, quiesced under
    /// `strategy`.
    pub fn commit_quiesced(
        &mut self,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(rt.commit_quiesced(&mut self.smp, strategy)?)
    }

    /// `multiverse_revert()` under quiesce.
    pub fn revert_quiesced(
        &mut self,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(rt.revert_quiesced(&mut self.smp, strategy)?)
    }

    /// `multiverse_commit_refs(&var)` by switch name, under quiesce.
    pub fn commit_refs_quiesced(
        &mut self,
        var: &str,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, BuildError> {
        let addr = self.sym(var)?;
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownVariable(addr)))?;
        Ok(rt.run_quiesced(&mut self.smp, TxnOp::CommitRefs(addr), strategy)?)
    }

    /// Machine-wide event-counter roll-up across every vCPU.
    pub fn total_stats(&self) -> Stats {
        self.smp.total_stats()
    }

    /// Submits a flip of the named switch to an [`mvrt::mvd`] commit
    /// daemon, resolving the symbol to its address.
    pub fn submit_flip(
        &mut self,
        daemon: &mut CommitDaemon,
        switch: &str,
        value: i64,
        lane: Lane,
    ) -> Result<RequestId, BuildError> {
        let addr = self.sym(switch)?;
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownVariable(addr)))?;
        Ok(daemon.submit(
            rt,
            MvdOp::Flip {
                switch: addr,
                value,
            },
            lane,
        ))
    }

    /// Submits a whole-image operation ([`MvdOp::CommitAll`] or
    /// [`MvdOp::RevertAll`]) to a commit daemon.
    pub fn submit_op(
        &mut self,
        daemon: &mut CommitDaemon,
        op: MvdOp,
        lane: Lane,
    ) -> Result<RequestId, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(daemon.submit(rt, op, lane))
    }

    /// Processes one queued daemon entry against this world. Returns
    /// `false` when the queue is empty.
    pub fn step_daemon(&mut self, daemon: &mut CommitDaemon) -> Result<bool, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(daemon.step(rt, &mut self.smp))
    }

    /// Drains the daemon's queue against this world; returns entries
    /// processed.
    pub fn drain_daemon(&mut self, daemon: &mut CommitDaemon) -> Result<usize, BuildError> {
        let rt = self
            .rt
            .as_mut()
            .ok_or(BuildError::Rt(RtError::UnknownFunction(0)))?;
        Ok(daemon.drain(rt, &mut self.smp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        multiverse bool feature;
        multiverse i64 work(void) {
            if (feature) { return 10; }
            return 20;
        }
        i64 main(void) { return work(); }
    "#;

    #[test]
    fn facade_quickstart_flow() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        assert_eq!(w.call("work", &[]).unwrap(), 20);
        w.set("feature", 1).unwrap();
        let report = w.commit().unwrap();
        assert_eq!(report.variants_committed, 1);
        assert_eq!(w.call("work", &[]).unwrap(), 10);
        w.revert().unwrap();
        assert_eq!(w.call("work", &[]).unwrap(), 10, "switch still 1");
    }

    #[test]
    fn committed_variant_is_faster_than_generic() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        w.set("feature", 0).unwrap();
        let generic = w.time_calls("work", &[], 1000, false).unwrap();
        w.commit().unwrap();
        let committed = w.time_calls("work", &[], 1000, false).unwrap();
        assert!(
            committed.avg_cycles < generic.avg_cycles,
            "committed {} !< generic {}",
            committed.avg_cycles,
            generic.avg_cycles
        );
        // The specialized variant performs no loads (the switch read is
        // gone) and fewer branches.
        assert_eq!(committed.stats.loads, 0);
        assert!(committed.stats.branches < generic.stats.branches);
    }

    #[test]
    fn dynamic_build_has_no_runtime() {
        let p = Program::build_with(&[("t", SRC)], &Options::dynamic()).unwrap();
        let mut w = p.boot();
        assert!(w.rt.is_none());
        assert!(w.commit().is_err());
        assert_eq!(w.call("work", &[]).unwrap(), 20);
    }

    #[test]
    fn image_size_grows_with_multiverse() {
        let mv = Program::build(&[("t", SRC)]).unwrap();
        let dy = Program::build_with(&[("t", SRC)], &Options::dynamic()).unwrap();
        assert!(
            mv.image_size() > dy.image_size(),
            "variants + descriptors must cost space ({} vs {})",
            mv.image_size(),
            dy.image_size()
        );
    }

    const SMP_SRC: &str = r#"
        multiverse bool feature;
        multiverse i64 work(void) {
            if (feature) { return 10; }
            return 20;
        }
        i64 worker(i64 iters) {
            i64 acc = 0;
            while (iters > 0) { acc = acc + work(); iters = iters - 1; }
            return acc;
        }
        i64 main(void) { return worker(4); }
    "#;

    #[test]
    fn smp_world_runs_and_commits_quiesced() {
        for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
            let p = Program::build(&[("t", SMP_SRC)]).unwrap();
            let mut w = p.boot_smp(4);
            w.spawn_all("worker", &[200]).unwrap();
            // Let the workers get going, then flip the switch and commit
            // mid-flight.
            for _ in 0..3 {
                w.smp.step_round();
            }
            w.set("feature", 1).unwrap();
            let report = w.commit_quiesced(strategy).unwrap();
            assert_eq!(report.strategy, strategy);
            assert!(report.commit.variants_committed >= 1);
            let results = w.run(1_000_000).unwrap();
            assert_eq!(results.len(), 4);
            for r in results {
                // Every worker sums 200 calls; each call returned 20
                // before the commit landed and 10 after.
                assert!((200 * 10..=200 * 20).contains(&r), "sum {r} out of range");
                assert_eq!(r % 10, 0);
            }
        }
    }

    #[test]
    fn missing_symbol_is_reported() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        assert!(matches!(w.call("nope", &[]), Err(BuildError::NoSymbol(_))));
    }
}
