//! True SMP execution: N virtual CPUs over one shared memory image.
//!
//! The paper's marquee case studies (spinlocks, PV-Ops) are about
//! multi-core kernels, and §7.3 frames `multiverse_commit()` as binary
//! patching of text *other CPUs may be executing*. A single-vCPU machine
//! cannot exhibit the hazards that make that hard — torn fetches, stale
//! per-CPU icaches, a core resuming into a half-patched function — so
//! this module provides the missing substrate:
//!
//! * [`SmpMachine`] owns one [`Machine`] (shared [`crate::mem::Memory`],
//!   cost model, output sink) plus one [`CpuContext`] per vCPU —
//!   registers, predictors, stats and the private decoded-instruction
//!   cache. Contexts are O(1)-swapped into the interpreter for each
//!   quantum, so all single-core semantics (costs, fusion, predictors)
//!   carry over unchanged.
//! * A deterministic round-robin scheduler: each round visits the vCPUs
//!   in rotating order and runs each for a quantum whose length is
//!   jittered by a seeded xorshift generator. The same seed always
//!   reproduces the same interleaving — the property the concurrent
//!   commit sweep in `tests/` relies on.
//! * Per-CPU icaches with an explicit IPI-style shootdown: the machine
//!   runs in sticky-icache mode ([`Machine::set_sticky_icache`]), so a
//!   text patch becomes visible to a vCPU only after
//!   [`SmpMachine::flush_remote`] evicts its private decode cache —
//!   forgetting the shootdown leaves stale instructions observably
//!   executing, exactly the cross-modifying-code hazard Linux's
//!   `text_poke` machinery exists to prevent.
//! * A registered trap handler for the 1-byte [`mvasm::Insn::Trap`]
//!   (`0xCC`): by default a trapping vCPU stalls at the trap byte
//!   (breakpoint-first patching parks cores this way); handlers can
//!   override the disposition.
//!
//! Commits run host-side *between* quanta — the interpreter itself is
//! not preemptible mid-instruction, which mirrors real hardware:
//! instruction fetch is atomic, and all the interesting races live at
//! instruction granularity.

use crate::block::{BlockCacheStats, ExecTier};
use crate::cost::CostModel;
use crate::machine::{CpuContext, Fault, Machine, MachineConfig, MachineMode, RET_SENTINEL};
use crate::stats::Stats;
use mvasm::Reg;
use mvobj::Executable;

/// What a registered trap handler tells the scheduler to do with a
/// vCPU that fetched a trap byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrapDisposition {
    /// Park the vCPU at the trap byte; it re-executes the same address
    /// once released (after the patcher restores/overwrites the byte
    /// and shoots down the icache). This is the breakpoint-first
    /// default.
    Stall,
    /// Skip the trap byte (advance `pc` by one) and keep running —
    /// debugger-style resume.
    Skip,
}

/// Scheduling state of one vCPU.
#[derive(Clone, Debug)]
pub enum VcpuState {
    /// No work has been spawned on this vCPU.
    Idle,
    /// Runnable: the scheduler steps it each round.
    Runnable,
    /// Parked at a safepoint by [`SmpMachine::park`]; burns `pause`
    /// cycles until unparked.
    Parked,
    /// Stalled on a trap byte; `addr` is the trap address (== its `pc`).
    Trapped {
        /// Address of the trap byte the vCPU is stalled on.
        addr: u64,
    },
    /// The spawned call returned; the value is `r0`.
    Done {
        /// Return value of the spawned call.
        ret: u64,
    },
    /// The vCPU faulted; the scheduler will not step it again.
    Faulted(Fault),
}

impl VcpuState {
    /// `true` while the vCPU still has work the scheduler could run or
    /// resume (runnable, parked or trapped).
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            VcpuState::Runnable | VcpuState::Parked | VcpuState::Trapped { .. }
        )
    }
}

/// A registered trap handler: `(vcpu, trap_addr) -> disposition`.
pub type TrapHandler = Box<dyn FnMut(usize, u64) -> TrapDisposition>;

/// Default scheduling quantum (instructions per vCPU per round).
pub const DEFAULT_QUANTUM: u64 = 32;
/// Default quantum jitter: each visit runs `quantum - (rng % jitter)`
/// instructions, so seeds produce distinct interleavings.
pub const DEFAULT_JITTER: u64 = 16;

/// A multi-vCPU machine: shared memory, N CPU contexts, a deterministic
/// seeded round-robin scheduler, per-CPU icaches with IPI shootdown.
pub struct SmpMachine {
    /// The shared interpreter. Host-side code (the patching runtime)
    /// operates on this directly between quanta; its resident
    /// [`CpuContext`] is a scratch that is swapped per quantum.
    pub machine: Machine,
    ctxs: Vec<CpuContext>,
    states: Vec<VcpuState>,
    base_sp: Vec<u64>,
    stall: Vec<u64>,
    quantum: u64,
    jitter: u64,
    seed: u64,
    rng: u64,
    rounds: u64,
    executed: Vec<u64>,
    shootdowns: u64,
    trap_hits: u64,
    handler: Option<TrapHandler>,
}

fn xorshift(x: &mut u64) -> u64 {
    let mut v = *x;
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    *x = v;
    v
}

impl SmpMachine {
    /// Creates an SMP machine with `n` vCPUs (`n >= 1`).
    ///
    /// The machine is forced into [`MachineMode::Multicore`] (atomics pay
    /// coherence) and sticky-icache mode (private per-CPU icaches; see
    /// module docs). The stack region is divided into `n` equal
    /// per-vCPU stacks.
    pub fn new(cost: CostModel, config: MachineConfig, n: usize) -> SmpMachine {
        assert!(n >= 1, "need at least one vCPU");
        let config = MachineConfig {
            mode: MachineMode::Multicore,
            ..config
        };
        let mut machine = Machine::new(cost, config);
        machine.set_sticky_icache(true);
        let stride = config.stack_size / n as u64;
        assert!(stride >= 4096, "stack too small for {n} vCPUs");
        let mut ctxs = Vec::with_capacity(n);
        let mut base_sp = Vec::with_capacity(n);
        for i in 0..n {
            let sp = crate::machine::STACK_TOP - 64 - i as u64 * stride;
            ctxs.push(CpuContext {
                cpu: crate::cpu::Cpu::new(sp),
                ..CpuContext::default()
            });
            base_sp.push(sp);
        }
        SmpMachine {
            machine,
            ctxs,
            states: vec![VcpuState::Idle; n],
            base_sp,
            stall: vec![0; n],
            quantum: DEFAULT_QUANTUM,
            jitter: DEFAULT_JITTER,
            seed: 0x9E37_79B9_7F4A_7C15,
            rng: 0x9E37_79B9_7F4A_7C15,
            rounds: 0,
            executed: vec![0; n],
            shootdowns: 0,
            trap_hits: 0,
            handler: None,
        }
    }

    /// Creates a default SMP machine with `n` vCPUs and loads `exe`.
    pub fn boot(exe: &Executable, n: usize) -> SmpMachine {
        let mut smp = SmpMachine::new(CostModel::default(), MachineConfig::default(), n);
        smp.machine.load(exe);
        smp
    }

    /// Number of vCPUs.
    pub fn vcpus(&self) -> usize {
        self.ctxs.len()
    }

    /// Reseeds the interleaving generator. The same seed over the same
    /// workload reproduces the same schedule exactly.
    pub fn set_seed(&mut self, seed: u64) {
        // xorshift has an all-zero fixed point; nudge it.
        self.seed = if seed == 0 { 0xDEAD_BEEF } else { seed };
        self.rng = self.seed;
    }

    /// The interleaving seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Overrides quantum length and jitter (`jitter >= 1`; an effective
    /// quantum is always at least one instruction, also when the jitter
    /// exceeds the quantum).
    pub fn set_quantum(&mut self, quantum: u64, jitter: u64) {
        self.quantum = quantum.max(1);
        self.jitter = jitter.max(1);
    }

    /// Registers the trap handler consulted when a vCPU fetches a trap
    /// byte. Without one, every trap stalls the vCPU
    /// ([`TrapDisposition::Stall`]).
    pub fn set_trap_handler(&mut self, h: TrapHandler) {
        self.handler = Some(h);
    }

    /// Spawns a call to `addr` with register `args` on vCPU `i`: resets
    /// its context to a fresh stack, pushes the return sentinel and
    /// marks it runnable. Like [`Machine::call`] but scheduled rather
    /// than run to completion.
    pub fn spawn(&mut self, i: usize, addr: u64, args: &[u64]) -> Result<(), Fault> {
        assert!(args.len() <= 6, "at most six register arguments");
        let ctx = &mut self.ctxs[i];
        let mut cpu = crate::cpu::Cpu::new(self.base_sp[i]);
        for (k, &a) in args.iter().enumerate() {
            cpu.set(Reg::new(k as u8).expect("< 6"), a);
        }
        let sp = cpu.sp().wrapping_sub(8);
        self.machine.mem.write(sp, &RET_SENTINEL.to_le_bytes())?;
        cpu.set(Reg::SP, sp);
        cpu.pc = addr;
        ctx.cpu = cpu;
        ctx.pred.flush();
        ctx.fusable_at = None;
        self.states[i] = VcpuState::Runnable;
        self.executed[i] = 0;
        Ok(())
    }

    /// Parks a runnable vCPU at its current `pc` (a safepoint the caller
    /// has verified). Parked vCPUs burn `pause` cycles per round.
    pub fn park(&mut self, i: usize) {
        if matches!(self.states[i], VcpuState::Runnable) {
            self.states[i] = VcpuState::Parked;
        }
    }

    /// Unparks a parked vCPU.
    pub fn unpark(&mut self, i: usize) {
        if matches!(self.states[i], VcpuState::Parked) {
            self.states[i] = VcpuState::Runnable;
        }
    }

    /// Releases a vCPU stalled on a trap byte: it re-executes the trap
    /// address, so the caller must first have replaced the byte and shot
    /// down icaches, or it traps again immediately.
    pub fn release_trap(&mut self, i: usize) {
        if matches!(self.states[i], VcpuState::Trapped { .. }) {
            self.states[i] = VcpuState::Runnable;
        }
    }

    /// IPI-style cross-CPU icache shootdown: evicts `[start, end)` (or
    /// everything, with `None`) from every vCPU's private decode cache
    /// *and* the machine's resident one. Returns the number of caches
    /// invalidated. This is the only operation that makes patched text
    /// visible to already-running vCPUs in sticky-icache mode.
    ///
    /// A [`crate::FaultPlan`] targeting [`crate::FaultOp::Shootdown`]
    /// silently loses the broadcast: nothing is evicted, the shootdown
    /// counter does not move, and `0` is returned. A real broadcast
    /// always acknowledges at least one cache (the machine's resident
    /// one), so callers can detect the lost IPI and re-issue.
    pub fn flush_remote(&mut self, range: Option<(u64, u64)>) -> usize {
        let fault_addr = range.map_or(0, |(s, _)| s);
        if self
            .machine
            .mem
            .trip_fault(crate::FaultOp::Shootdown, fault_addr)
        {
            return 0;
        }
        match range {
            Some((s, e)) => {
                for ctx in &mut self.ctxs {
                    ctx.decode_cache.retain(|&pc, _| pc < s || pc >= e);
                    ctx.blocks.invalidate_range(s, e);
                }
                self.machine.invalidate_decode_range(s, e);
            }
            None => {
                for ctx in &mut self.ctxs {
                    ctx.decode_cache.clear();
                    ctx.blocks.invalidate_all();
                }
                self.machine.invalidate_decode_all();
            }
        }
        self.shootdowns += 1;
        self.ctxs.len() + 1
    }

    /// Selects the execution tier (see [`ExecTier`]) for every vCPU: the
    /// tier is machine state, the block caches stay per-CPU. Switching
    /// tiers resets every vCPU's block cache so all tiers start cold.
    pub fn set_tier(&mut self, tier: ExecTier) {
        if self.machine.tier() != tier {
            for ctx in &mut self.ctxs {
                ctx.blocks.reset();
            }
        }
        self.machine.set_tier(tier);
    }

    /// The active execution tier.
    pub fn tier(&self) -> ExecTier {
        self.machine.tier()
    }

    /// Roll-up of block-cache counters across the resident machine and
    /// every vCPU's private block cache.
    pub fn block_stats(&self) -> BlockCacheStats {
        let mut total = self.machine.block_stats();
        for ctx in &self.ctxs {
            total += ctx.blocks.stats;
        }
        total
    }

    /// Number of shootdowns issued so far.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Number of trap-byte hits taken so far.
    pub fn trap_hits(&self) -> u64 {
        self.trap_hits
    }

    /// Scheduler rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cycles vCPU `i` has spent parked or trap-stalled.
    pub fn stall_cycles(&self, i: usize) -> u64 {
        self.stall[i]
    }

    /// Total stall cycles across all vCPUs.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall.iter().sum()
    }

    /// Scheduling state of vCPU `i`.
    pub fn state(&self, i: usize) -> &VcpuState {
        &self.states[i]
    }

    /// The context of vCPU `i` (registers, predictors, stats, icache).
    pub fn context(&self, i: usize) -> &CpuContext {
        &self.ctxs[i]
    }

    /// Current `pc` of vCPU `i`.
    pub fn pc_of(&self, i: usize) -> u64 {
        self.ctxs[i].cpu.pc
    }

    /// Return-address backtrace of vCPU `i` (its context need not be
    /// resident), walked lazily.
    pub fn backtrace_of(&self, i: usize, max_frames: usize) -> impl Iterator<Item = u64> + '_ {
        self.machine
            .backtrace_from(self.ctxs[i].cpu.get(Reg::BP), max_frames)
    }

    /// Machine-wide event-counter roll-up: the sum of every vCPU's
    /// private [`Stats`] (plus whatever retired on the resident scratch
    /// context, normally zero).
    pub fn total_stats(&self) -> Stats {
        let mut total = self.machine.stats;
        for ctx in &self.ctxs {
            total += ctx.stats;
        }
        total
    }

    /// TSC of vCPU `i`.
    pub fn cycles_of(&self, i: usize) -> u64 {
        self.ctxs[i].cpu.tsc
    }

    /// The highest per-vCPU TSC — wall-clock time of the parallel
    /// execution under the cost model.
    pub fn max_cycles(&self) -> u64 {
        self.ctxs.iter().map(|c| c.cpu.tsc).max().unwrap_or(0)
    }

    /// `true` while any vCPU is runnable, parked or trapped.
    pub fn any_live(&self) -> bool {
        self.states.iter().any(|s| s.is_live())
    }

    /// `true` once every spawned vCPU has finished (`Done`); idle vCPUs
    /// are ignored.
    pub fn all_done(&self) -> bool {
        self.states
            .iter()
            .all(|s| matches!(s, VcpuState::Idle | VcpuState::Done { .. }))
    }

    /// Return value of vCPU `i`, if it finished.
    pub fn result(&self, i: usize) -> Option<u64> {
        match self.states[i] {
            VcpuState::Done { ret } => Some(ret),
            _ => None,
        }
    }

    /// Runs one scheduler round: visits every vCPU in rotating order and
    /// steps the runnable ones for a jittered quantum; parked/trapped
    /// vCPUs burn `pause` cycles. Returns the number of instructions
    /// retired this round.
    pub fn step_round(&mut self) -> u64 {
        let n = self.ctxs.len();
        let start = (xorshift(&mut self.rng) % n as u64) as usize;
        let mut retired = 0u64;
        for k in 0..n {
            let i = (start + k) % n;
            let q = self
                .quantum
                .saturating_sub(xorshift(&mut self.rng) % self.jitter)
                .max(1);
            match self.states[i] {
                VcpuState::Runnable => retired += self.run_quantum(i, q),
                VcpuState::Parked | VcpuState::Trapped { .. } => {
                    // A parked core spins at its safepoint (pause loop);
                    // the burned cycles are the worker-side cost of the
                    // quiesce protocol, reported by the E15 experiment.
                    let c = q * self.machine.cost.pause;
                    self.ctxs[i].cpu.tsc += c;
                    self.stall[i] += c;
                }
                _ => {}
            }
        }
        self.rounds += 1;
        retired
    }

    fn run_quantum(&mut self, i: usize, quantum: u64) -> u64 {
        self.machine.swap_context(&mut self.ctxs[i]);
        let mut retired = 0u64;
        // `slots` is the quantum budget in issue slots: each retired
        // instruction consumes one, and so does a trap fetch (the vCPU
        // occupied the pipeline without retiring) — the exact accounting
        // of the old one-step-per-iteration loop, so schedules are
        // byte-identical across tiers.
        let mut slots = quantum;
        while slots > 0 {
            if self.machine.cpu.pc == RET_SENTINEL || self.machine.cpu.halted {
                self.states[i] = VcpuState::Done {
                    ret: self.machine.cpu.get(Reg::R0),
                };
                break;
            }
            if self.executed[i] >= self.machine.config().fuel {
                self.states[i] = VcpuState::Faulted(Fault::Timeout {
                    executed: self.executed[i],
                });
                break;
            }
            let budget = slots.min(self.machine.config().fuel - self.executed[i]);
            let (n, r) = self.machine.step_tiered(budget);
            retired += n;
            self.executed[i] += n;
            slots -= n;
            match r {
                Ok(()) => {}
                Err(Fault::Trap { addr }) => {
                    self.trap_hits += 1;
                    // A fault surfaces only while retired < budget, so at
                    // least one slot is left for the trap fetch.
                    slots -= 1;
                    let disposition = match &mut self.handler {
                        Some(h) => h(i, addr),
                        None => TrapDisposition::Stall,
                    };
                    match disposition {
                        TrapDisposition::Stall => {
                            self.states[i] = VcpuState::Trapped { addr };
                            break;
                        }
                        TrapDisposition::Skip => {
                            self.machine.cpu.pc = addr + 1;
                        }
                    }
                }
                Err(f) => {
                    self.states[i] = VcpuState::Faulted(f);
                    break;
                }
            }
        }
        // A vCPU that finished exactly at the end of its quantum is
        // marked Done on its next visit via the checks above.
        if matches!(self.states[i], VcpuState::Runnable) && self.machine.cpu.pc == RET_SENTINEL {
            self.states[i] = VcpuState::Done {
                ret: self.machine.cpu.get(Reg::R0),
            };
        }
        self.machine.swap_context(&mut self.ctxs[i]);
        retired
    }

    /// Runs scheduler rounds until every spawned vCPU finishes, up to
    /// `max_rounds`. Returns per-vCPU results (`0` for idle vCPUs).
    /// Faulted vCPUs surface their fault; exceeding `max_rounds` with
    /// parked/trapped vCPUs still pending is a [`Fault::Timeout`].
    pub fn run_until_done(&mut self, max_rounds: u64) -> Result<Vec<u64>, Fault> {
        for _ in 0..max_rounds {
            if self.all_done() {
                break;
            }
            self.step_round();
            for s in &self.states {
                if let VcpuState::Faulted(f) = s {
                    return Err(f.clone());
                }
            }
        }
        if !self.all_done() {
            return Err(Fault::Timeout {
                executed: self.executed.iter().sum(),
            });
        }
        Ok((0..self.ctxs.len())
            .map(|i| self.result(i).unwrap_or(0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasm::{AluOp, Insn};
    use mvobj::{link, Layout, Object, SectionKind, Symbol};

    fn exe_with_fn(body: impl FnOnce(&mut mvasm::Assembler)) -> Executable {
        let mut a = mvasm::Assembler::new();
        a.emit(Insn::Halt); // entry
        a.label("f");
        let off = a.len();
        body(&mut a);
        let blob = a.finish().unwrap();
        let len = blob.bytes.len() as u64 - off as u64;
        let mut o = Object::new("t");
        o.append(mvobj::SEC_TEXT, SectionKind::Text, &blob.bytes);
        o.define(Symbol::func("main", mvobj::SEC_TEXT, 0, 1));
        o.define(Symbol::func("f", mvobj::SEC_TEXT, off as u64, len));
        link(&[o], &Layout::default()).unwrap()
    }

    fn adder_exe() -> Executable {
        exe_with_fn(|a| {
            a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R0,
                imm: 5,
            });
            a.ret();
        })
    }

    #[test]
    fn vcpus_run_independent_calls() {
        let exe = adder_exe();
        let mut smp = SmpMachine::boot(&exe, 4);
        let f = exe.symbol("f").unwrap();
        for i in 0..4 {
            smp.spawn(i, f, &[i as u64 * 10]).unwrap();
        }
        let results = smp.run_until_done(1000).unwrap();
        assert_eq!(results, vec![5, 15, 25, 35]);
    }

    #[test]
    fn jitter_above_quantum_still_runs_short_quanta() {
        // A jitter larger than the quantum once underflowed the
        // subtraction: a debug build panicked, a release build wrapped
        // to a quantum of about 2^64 and ran the vCPU to completion.
        let exe = exe_with_fn(|a| {
            a.mov_ri(Reg::R1, 0);
            a.label("loop");
            a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R1,
                imm: 1,
            });
            a.cmp_ri(Reg::R1, 100);
            a.jcc("loop", mvasm::Cond::Lt);
            a.ret();
        });
        let mut smp = SmpMachine::boot(&exe, 1);
        smp.set_quantum(5, 100);
        smp.spawn(0, exe.symbol("f").unwrap(), &[]).unwrap();
        for _ in 0..20 {
            let retired = smp.step_round();
            assert!((1..=5).contains(&retired), "retired {retired}");
        }
        assert!(!smp.all_done());
    }

    #[test]
    fn same_seed_same_interleaving() {
        let exe = exe_with_fn(|a| {
            // Loop long enough to span many quanta.
            a.mov_ri(Reg::R1, 0);
            a.label("loop");
            a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R1,
                imm: 1,
            });
            a.cmp_ri(Reg::R1, 500);
            a.jcc("loop", mvasm::Cond::Lt);
            a.emit(Insn::MovRR {
                dst: Reg::R0,
                src: Reg::R1,
            });
            a.ret();
        });
        let f = exe.symbol("f").unwrap();
        // The observable is the schedule itself: instructions retired per
        // round (per-vCPU cycle totals are schedule-independent for
        // non-interacting workloads).
        let run = |seed: u64| {
            let mut smp = SmpMachine::boot(&exe, 3);
            smp.set_seed(seed);
            for i in 0..3 {
                smp.spawn(i, f, &[]).unwrap();
            }
            let mut schedule = Vec::new();
            while !smp.all_done() {
                schedule.push(smp.step_round());
                assert!(smp.rounds() < 10_000);
            }
            let cycles: Vec<u64> = (0..3).map(|i| smp.cycles_of(i)).collect();
            (schedule, cycles)
        };
        assert_eq!(run(7), run(7), "identical seeds must reproduce exactly");
        assert_ne!(
            run(7).0,
            run(8).0,
            "different seeds should perturb the schedule"
        );
    }

    #[test]
    fn per_vcpu_stacks_do_not_collide() {
        // Each vCPU pushes/pops around its call; distinct results prove
        // isolated stacks (a shared stack would corrupt return paths).
        let exe = adder_exe();
        let mut smp = SmpMachine::boot(&exe, 8);
        let f = exe.symbol("f").unwrap();
        for i in 0..8 {
            smp.spawn(i, f, &[100 * i as u64]).unwrap();
        }
        let results = smp.run_until_done(1000).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, 100 * i as u64 + 5);
        }
    }

    #[test]
    fn sticky_icache_requires_shootdown() {
        let exe = adder_exe();
        let f = exe.symbol("f").unwrap();
        let mut smp = SmpMachine::boot(&exe, 2);
        smp.spawn(0, f, &[0]).unwrap();
        let r = smp.run_until_done(1000).unwrap();
        assert_eq!(r[0], 5);

        // Patch `add r0, 5` → `add r0, 9` host-side with a *global*
        // icache flush but no shootdown: vCPU 0's private cache stays
        // stale, a freshly spawned decode on vCPU 1 sees the new code.
        let patched = mvasm::encode(&Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: 9,
        });
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
        smp.machine.mem.write(f, &patched).unwrap();
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
        smp.machine.mem.flush_icache(f, 16);

        smp.spawn(0, f, &[0]).unwrap();
        let stale = smp.run_until_done(1000).unwrap();
        assert_eq!(stale[0], 5, "no shootdown: vCPU 0 must execute stale code");

        smp.flush_remote(Some((f, f + 16)));
        smp.spawn(0, f, &[0]).unwrap();
        let fresh = smp.run_until_done(1000).unwrap();
        assert_eq!(fresh[0], 9, "after shootdown the patch is visible");
        assert_eq!(smp.shootdowns(), 1);
    }

    #[test]
    fn trap_stalls_until_released() {
        let exe = adder_exe();
        let f = exe.symbol("f").unwrap();
        let mut smp = SmpMachine::boot(&exe, 2);

        // Plant a trap byte over f's first byte.
        let original = smp.machine.mem.read_vec(f, 1).unwrap();
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
        smp.machine
            .mem
            .write(f, &mvasm::encode(&Insn::Trap))
            .unwrap();
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
        smp.flush_remote(Some((f, f + 1)));

        smp.spawn(0, f, &[1]).unwrap();
        for _ in 0..5 {
            smp.step_round();
        }
        assert!(matches!(smp.state(0), VcpuState::Trapped { addr } if *addr == f));
        assert!(smp.trap_hits() >= 1);
        assert!(smp.stall_cycles(0) > 0, "trapped vCPU burns pause cycles");

        // Restore the byte, shoot down, release: the call completes.
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
        smp.machine.mem.write(f, &original).unwrap();
        smp.machine.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
        smp.flush_remote(Some((f, f + 1)));
        smp.release_trap(0);
        let r = smp.run_until_done(1000).unwrap();
        assert_eq!(r[0], 6);
    }

    #[test]
    fn trap_handler_can_skip() {
        let exe = exe_with_fn(|a| {
            a.emit(Insn::Trap);
            a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R0,
                imm: 3,
            });
            a.ret();
        });
        let f = exe.symbol("f").unwrap();
        let mut smp = SmpMachine::boot(&exe, 1);
        smp.set_trap_handler(Box::new(|_, _| TrapDisposition::Skip));
        smp.spawn(0, f, &[10]).unwrap();
        let r = smp.run_until_done(1000).unwrap();
        assert_eq!(r[0], 13);
        assert_eq!(smp.trap_hits(), 1);
    }

    #[test]
    fn total_stats_rolls_up_per_cpu_counters() {
        let exe = adder_exe();
        let f = exe.symbol("f").unwrap();
        let mut smp = SmpMachine::boot(&exe, 4);
        for i in 0..4 {
            smp.spawn(i, f, &[0]).unwrap();
        }
        smp.run_until_done(1000).unwrap();
        let total = smp.total_stats();
        // Each vCPU retired add + ret (2 insns).
        assert_eq!(total.instructions, 8);
        assert_eq!(total.rets, 4);
        for i in 0..4 {
            assert_eq!(
                smp.context(i).stats.rets,
                1,
                "per-CPU counters stay private"
            );
        }
    }

    #[test]
    fn tiers_preserve_smp_schedules() {
        // The same seed over the same workload must produce the same
        // schedule (instructions per round), per-vCPU cycles and stats
        // under every execution tier.
        let exe = exe_with_fn(|a| {
            a.mov_ri(Reg::R1, 0);
            a.label("loop");
            a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R1,
                imm: 1,
            });
            a.cmp_ri(Reg::R1, 300);
            a.jcc("loop", mvasm::Cond::Lt);
            a.emit(Insn::MovRR {
                dst: Reg::R0,
                src: Reg::R1,
            });
            a.ret();
        });
        let f = exe.symbol("f").unwrap();
        let run = |tier: ExecTier| {
            let mut smp = SmpMachine::boot(&exe, 3);
            smp.set_tier(tier);
            smp.set_seed(7);
            for i in 0..3 {
                smp.spawn(i, f, &[]).unwrap();
            }
            let mut schedule = Vec::new();
            while !smp.all_done() {
                schedule.push(smp.step_round());
                assert!(smp.rounds() < 10_000);
            }
            let cycles: Vec<u64> = (0..3).map(|i| smp.cycles_of(i)).collect();
            (schedule, cycles, smp.total_stats())
        };
        let base = run(ExecTier::Tierless);
        assert_eq!(run(ExecTier::Block), base, "tier-0 schedule diverged");
        assert_eq!(run(ExecTier::Superblock), base, "superblock diverged");
    }

    #[test]
    fn tiered_sticky_icache_requires_shootdown() {
        // The private-icache staleness discipline survives the block
        // tiers: a global flush_icache is not enough, only flush_remote
        // makes the patch visible.
        for tier in [ExecTier::Block, ExecTier::Superblock] {
            let exe = adder_exe();
            let f = exe.symbol("f").unwrap();
            let mut smp = SmpMachine::boot(&exe, 2);
            smp.set_tier(tier);
            smp.spawn(0, f, &[0]).unwrap();
            assert_eq!(smp.run_until_done(1000).unwrap()[0], 5);

            let patched = mvasm::encode(&Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::R0,
                imm: 9,
            });
            smp.machine.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
            smp.machine.mem.write(f, &patched).unwrap();
            smp.machine.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
            smp.machine.mem.flush_icache(f, 16);

            smp.spawn(0, f, &[0]).unwrap();
            let stale = smp.run_until_done(1000).unwrap();
            assert_eq!(stale[0], 5, "{tier}: no shootdown, must stay stale");

            smp.flush_remote(Some((f, f + 16)));
            smp.spawn(0, f, &[0]).unwrap();
            let fresh = smp.run_until_done(1000).unwrap();
            assert_eq!(fresh[0], 9, "{tier}: shootdown must refresh");
            assert!(smp.block_stats().evictions >= 1, "{tier}");
        }
    }

    #[test]
    fn parked_vcpu_makes_no_progress() {
        let exe = adder_exe();
        let f = exe.symbol("f").unwrap();
        let mut smp = SmpMachine::boot(&exe, 2);
        smp.spawn(0, f, &[0]).unwrap();
        smp.park(0);
        for _ in 0..10 {
            smp.step_round();
        }
        assert!(matches!(smp.state(0), VcpuState::Parked));
        assert_eq!(smp.pc_of(0), f, "parked at the spawn point");
        assert!(smp.stall_cycles(0) > 0);
        smp.unpark(0);
        let r = smp.run_until_done(1000).unwrap();
        assert_eq!(r[0], 5);
    }
}
