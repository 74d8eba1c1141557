//! The interpreter: fetch, decode (cached), execute, charge cycles.
//!
//! Execution is tiered (see [`ExecTier`] and [`crate::block`]): the
//! default tierless engine decodes one instruction at a time through the
//! per-instruction decode cache; the block tiers memoize straight-line
//! decode runs and replay them through the *same* per-instruction
//! execution routine, so every observable — cycles, [`Stats`], traces,
//! profiles, fault points — is identical across tiers by construction.

use crate::block::{
    span, BlockCacheStats, BlockOp, DecodedBlock, ExecTier, MAX_BLOCK_INSTS, MAX_SUPERBLOCK_FUSES,
    MAX_SUPERBLOCK_INSTS,
};
use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::fx::FxHashMap;
use crate::mem::{extend, MemError, Memory, PAGE_SIZE};
use crate::native::{MicroOp, NativeFn, NativeRegistry, NativeStats, Seg};
use crate::pred::Predictors;
use crate::stats::Stats;
use crate::tier0::{BlockCache, HOT_THRESHOLD};
use mvasm::{AluOp, DecodeError, Insn, Reg};
use mvobj::Executable;
use std::fmt;
use std::rc::Rc;

/// A cached decode: the instruction, the `code_version`s of the pages
/// its encoding touches (see [`page_versions`]), and the
/// [`Memory::flush_epoch`] at which those were last found current. The
/// versions must still match for the entry to be served (non-sticky
/// mode) — keying on the first page alone would let an instruction
/// straddling a page boundary survive a flush of its tail page. Only a
/// flush moves a `code_version`, so while the epoch stands still the
/// entry is served without reading them.
type CachedDecode = (Insn, u64, u64);

/// Unicore or multicore operation — switches the cost of bus-locked
/// atomics, modelling the UP/SMP distinction of the spinlock case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineMode {
    /// Single CPU online; atomics stay core-local.
    Unicore,
    /// Multiple CPUs online; atomics pay coherence traffic.
    Multicore,
}

/// Execution platform — native hardware or a paravirtualized Xen guest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Platform {
    /// Bare metal: `sti`/`cli` are cheap, hypercalls are invalid.
    Native,
    /// Xen PV guest: `sti`/`cli` trap to the hypervisor (expensive
    /// emulation), `hypercall` performs the operation at moderate cost.
    XenGuest,
}

/// Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Unicore or multicore.
    pub mode: MachineMode,
    /// Native or guest.
    pub platform: Platform,
    /// Stack size in bytes.
    pub stack_size: u64,
    /// Maximum instructions a single [`Machine::call`] may retire before
    /// failing with [`Fault::Timeout`].
    pub fuel: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mode: MachineMode::Unicore,
            platform: Platform::Native,
            stack_size: 1 << 20,
            fuel: 20_000_000_000,
        }
    }
}

/// Top of the stack region.
pub const STACK_TOP: u64 = 0x7FFF_F000;
/// Return-address sentinel used by [`Machine::call`]; reaching it ends the
/// call.
pub const RET_SENTINEL: u64 = 0xFFFF_FFFF_0000_0000;

/// Execution faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Memory access or protection violation.
    Mem(MemError),
    /// Undecodable instruction bytes.
    Decode {
        /// Address of the bad instruction.
        addr: u64,
        /// Decoder diagnosis.
        err: DecodeError,
    },
    /// Integer division by zero.
    DivByZero {
        /// Address of the dividing instruction.
        addr: u64,
    },
    /// `hypercall` on native hardware or with an unknown number.
    InvalidHypercall {
        /// Address of the instruction.
        addr: u64,
        /// Hypercall number.
        nr: u8,
    },
    /// The fuel limit was exhausted.
    Timeout {
        /// Instructions retired before giving up.
        executed: u64,
    },
    /// `halt` retired inside [`Machine::call`] (the program ended instead
    /// of returning).
    Halted,
    /// A one-byte trap instruction ([`mvasm::Insn::Trap`], the `int3`
    /// analog) was fetched. The faulting CPU has *not* advanced past the
    /// trap: `pc` still points at the trap byte, so whoever catches the
    /// fault (the SMP scheduler's registered handler, a debugger) decides
    /// whether to stall, skip, or re-execute after the byte is restored.
    Trap {
        /// Address of the trap byte.
        addr: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(e) => write!(f, "{e}"),
            Fault::Decode { addr, err } => write!(f, "decode fault at {addr:#x}: {err}"),
            Fault::DivByZero { addr } => write!(f, "division by zero at {addr:#x}"),
            Fault::InvalidHypercall { addr, nr } => {
                write!(f, "invalid hypercall {nr} at {addr:#x}")
            }
            Fault::Timeout { executed } => write!(f, "fuel exhausted after {executed} insns"),
            Fault::Halted => write!(f, "machine halted during call"),
            Fault::Trap { addr } => write!(f, "trap (int3) at {addr:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemError> for Fault {
    fn from(e: MemError) -> Fault {
        Fault::Mem(e)
    }
}

/// Hypercall number: enable interrupts.
pub const HC_STI: u8 = 1;
/// Hypercall number: disable interrupts.
pub const HC_CLI: u8 = 2;

/// The virtual machine.
pub struct Machine {
    /// Guest memory.
    pub mem: Memory,
    /// CPU state.
    pub cpu: Cpu,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Branch predictors.
    pub pred: Predictors,
    /// Event counters.
    pub stats: Stats,
    config: MachineConfig,
    out: Vec<u8>,
    decode_cache: FxHashMap<u64, CachedDecode>,
    /// Which execution engine runs (shared by all vCPUs of an SMP
    /// machine — the tier is machine state, not per-CPU state).
    tier: ExecTier,
    /// The resident per-CPU block cache (tiered execution); swapped with
    /// [`CpuContext::blocks`] alongside the decode cache.
    blocks: BlockCache,
    /// Lowered native-tier regions (see [`crate::native`]). Machine
    /// state like the tier itself, not per-CPU state — the native tier
    /// only runs in non-sticky (unicore) mode, where there is exactly
    /// one CPU observing the shared text.
    natives: NativeRegistry,
    /// `pc` at which a `jcc` would macro-fuse with the preceding `cmp`.
    fusable_at: Option<u64>,
    /// Sticky-icache mode: cached decodes are served *without* the
    /// code-version check, so [`Memory::flush_icache`] alone no longer
    /// invalidates them — only the explicit
    /// [`Machine::invalidate_decode_range`]/[`Machine::invalidate_decode_all`]
    /// primitives do. This models a private per-CPU icache that requires
    /// an IPI shootdown (the SMP machine's `flush_remote`): on a
    /// multi-vCPU machine a patcher that flushes only its own cache
    /// observably leaves stale instructions running elsewhere.
    sticky_icache: bool,
    trace: Option<crate::trace::Trace>,
    profiler: Option<crate::profile::Profiler>,
}

/// The per-CPU slice of machine state: everything a core owns privately
/// — architectural registers, branch predictors, event counters, the
/// decoded-instruction cache (the icache model) and the macro-fusion
/// latch. [`Machine::swap_context`] exchanges it against the machine's
/// resident state in O(1), which is how [`crate::smp::SmpMachine`]
/// multiplexes N virtual CPUs over one interpreter and one shared
/// [`Memory`].
#[derive(Default)]
pub struct CpuContext {
    /// Architectural register/flag state (including the per-CPU TSC).
    pub cpu: Cpu,
    /// Private branch-predictor state (2-bit counters, BTB, RSB).
    pub pred: Predictors,
    /// Private event counters; roll up machine-wide with `AddAssign`.
    pub stats: Stats,
    /// Private decoded-instruction cache (the icache model).
    pub decode_cache: FxHashMap<u64, CachedDecode>,
    /// Private decoded-block cache (the tiered engine's icache model).
    pub blocks: BlockCache,
    /// Pending cmp→jcc macro-fusion point.
    pub fusable_at: Option<u64>,
}

impl Machine {
    /// Creates a machine with the given cost model and configuration.
    /// The stack is mapped immediately.
    pub fn new(cost: CostModel, config: MachineConfig) -> Machine {
        let mut mem = Memory::new();
        mem.map(
            STACK_TOP - config.stack_size,
            config.stack_size,
            mvobj::Prot::RW,
        );
        Machine {
            mem,
            cpu: Cpu::new(STACK_TOP - 64),
            cost,
            pred: Predictors::new(),
            stats: Stats::default(),
            config,
            out: Vec::new(),
            decode_cache: FxHashMap::default(),
            tier: ExecTier::Tierless,
            blocks: BlockCache::default(),
            natives: NativeRegistry::default(),
            fusable_at: None,
            sticky_icache: false,
            trace: None,
            profiler: None,
        }
    }

    /// Creates a default native unicore machine and loads `exe`.
    pub fn boot(exe: &Executable) -> Machine {
        let mut m = Machine::new(CostModel::default(), MachineConfig::default());
        m.load(exe);
        m
    }

    /// Maps all segments of a linked executable.
    pub fn load(&mut self, exe: &Executable) {
        self.mem.load(exe);
        self.decode_cache.clear();
        self.blocks.reset();
        self.natives.clear();
    }

    /// Selects the execution engine (see [`ExecTier`]). Switching tiers
    /// resets the resident block cache and the native-region registry so
    /// every tier starts cold; the per-instruction decode cache is
    /// untouched. The tier is machine state shared by every vCPU of an
    /// SMP machine.
    pub fn set_tier(&mut self, tier: ExecTier) {
        if self.tier != tier {
            self.blocks.reset();
            self.natives.clear();
        }
        self.tier = tier;
    }

    /// The active execution tier.
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Counters of the resident block cache (for an SMP machine, use
    /// [`crate::SmpMachine::block_stats`] which rolls up every vCPU).
    pub fn block_stats(&self) -> BlockCacheStats {
        self.blocks.stats
    }

    /// Machine mode (unicore/multicore).
    pub fn mode(&self) -> MachineMode {
        self.config.mode
    }

    /// Switches between unicore and multicore cost behavior at run time
    /// (CPU hot-plug, as in the paper's SMP scenario).
    ///
    /// Hot-plug semantics: bringing CPUs on or offline flushes all
    /// branch-predictor state (counters, BTB, RSB) — on real hardware the
    /// plugged core arrives cold, and keeping another mode's training
    /// would let stale indirect-branch targets leak across the plug. The
    /// decoded-instruction cache is *kept*: hot-plug changes how many
    /// cores observe the text, not the text itself, and x86 caches are
    /// coherent across hot-plug. A no-op call (same mode) changes
    /// nothing.
    pub fn set_mode(&mut self, mode: MachineMode) {
        if self.config.mode != mode {
            self.pred.flush();
        }
        self.config.mode = mode;
    }

    /// Execution platform.
    pub fn platform(&self) -> Platform {
        self.config.platform
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle count (the TSC).
    pub fn cycles(&self) -> u64 {
        self.cpu.tsc
    }

    /// Bytes written via `out` so far.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Takes and clears the output sink.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Flushes all branch-predictor state (cold-BTB ablation).
    pub fn flush_predictors(&mut self) {
        self.pred.flush();
    }

    /// Enables or disables sticky-icache mode (see the field docs on
    /// [`Machine`]): when sticky, cached decodes survive
    /// [`Memory::flush_icache`] and only the explicit invalidation
    /// primitives refresh them — the private-per-CPU-icache model the
    /// SMP machine runs under.
    pub fn set_sticky_icache(&mut self, sticky: bool) {
        self.sticky_icache = sticky;
    }

    /// `true` if the machine serves cached decodes without version
    /// checks (sticky-icache mode).
    pub fn sticky_icache(&self) -> bool {
        self.sticky_icache
    }

    /// Drops cached decoded instructions *and decoded blocks* for
    /// `[start, end)` — the per-CPU half of an icache shootdown. Unlike
    /// [`Memory::flush_icache`] this acts on *this* CPU's private caches
    /// and works even in sticky mode. Both layers use the same
    /// instruction-start-address rule, so a shootdown that evicts a
    /// single decode also evicts exactly the blocks replaying it (a trap
    /// plant therefore splits/evicts the blocks spanning it), and
    /// nothing else.
    pub fn invalidate_decode_range(&mut self, start: u64, end: u64) {
        self.decode_cache.retain(|&pc, _| pc < start || pc >= end);
        self.blocks.invalidate_range(start, end);
        self.natives.invalidate_overlapping(start, end);
    }

    /// Drops every cached decoded instruction and block of this CPU.
    pub fn invalidate_decode_all(&mut self) {
        self.decode_cache.clear();
        self.blocks.invalidate_all();
        self.natives.clear();
    }

    /// Exchanges the machine's resident per-CPU state (registers,
    /// predictors, stats, decode cache, fusion latch) with `ctx` in
    /// O(1). The SMP scheduler swaps a vCPU's context in, steps a
    /// quantum, and swaps it back out; memory, cost model, output sink,
    /// trace and profiler stay resident and shared.
    pub fn swap_context(&mut self, ctx: &mut CpuContext) {
        std::mem::swap(&mut self.cpu, &mut ctx.cpu);
        std::mem::swap(&mut self.pred, &mut ctx.pred);
        std::mem::swap(&mut self.stats, &mut ctx.stats);
        std::mem::swap(&mut self.decode_cache, &mut ctx.decode_cache);
        std::mem::swap(&mut self.blocks, &mut ctx.blocks);
        std::mem::swap(&mut self.fusable_at, &mut ctx.fusable_at);
    }

    /// Installs a deterministic fault schedule on guest memory (see
    /// [`crate::fault`]). Replaces any existing plan.
    pub fn inject_fault(&mut self, plan: crate::fault::FaultPlan) {
        self.mem.set_fault_plan(plan);
    }

    /// Removes the fault schedule, returning it with its counters.
    pub fn clear_fault(&mut self) -> Option<crate::fault::FaultPlan> {
        self.mem.clear_fault_plan()
    }

    /// Starts recording the last `cap` retired instructions.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(crate::trace::Trace::new(cap));
    }

    /// Stops tracing and returns the recorded ring, if any.
    pub fn take_trace(&mut self) -> Option<crate::trace::Trace> {
        self.trace.take()
    }

    /// The active trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::Trace> {
        self.trace.as_ref()
    }

    /// Starts per-function profiling, deriving function ranges from the
    /// symbol table of `exe` (see [`crate::profile`]). Replaces any
    /// profiler already installed.
    pub fn enable_profile(&mut self, exe: &Executable) {
        self.profiler = Some(crate::profile::Profiler::from_executable(exe));
    }

    /// Stops profiling and returns the collected attribution, if any.
    pub fn take_profile(&mut self) -> Option<crate::profile::Profiler> {
        self.profiler.take()
    }

    /// The active profiler, if profiling is enabled.
    pub fn profile(&self) -> Option<&crate::profile::Profiler> {
        self.profiler.as_ref()
    }

    /// Best-effort stack backtrace: return addresses collected by walking
    /// the saved-`bp` chain that framed functions maintain (`push bp; mov
    /// bp, sp`). Frameless leaves do not appear — as with `-fomit-frame-
    /// pointer` code under a real debugger.
    pub fn backtrace(&self, max_frames: usize) -> Vec<u64> {
        self.backtrace_from(self.cpu.get(Reg::BP), max_frames)
            .collect()
    }

    /// The return addresses of [`Machine::backtrace`], walked lazily from
    /// an explicit frame pointer — lets the SMP scheduler walk the stack
    /// of a vCPU whose context is currently swapped out without
    /// collecting it.
    pub fn backtrace_from(&self, bp: u64, max_frames: usize) -> impl Iterator<Item = u64> + '_ {
        let mut frame = Some(bp);
        std::iter::from_fn(move || {
            let bp = frame.take()?;
            // Frame layout: [bp] = caller's bp, [bp+8] = return address.
            let ret = self.mem.read_uint(bp.wrapping_add(8), 8).ok()?;
            let next_bp = self.mem.read_uint(bp, 8).ok()?;
            if ret == 0 || ret == RET_SENTINEL {
                return None;
            }
            // Stacks grow down; anything else is a torn chain.
            frame = (next_bp > bp).then_some(next_bp);
            Some(ret)
        })
        .take(max_frames)
    }

    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.cpu.tsc += cycles;
    }

    #[inline]
    fn push(&mut self, v: u64) -> Result<(), Fault> {
        let sp = self.cpu.sp().wrapping_sub(8);
        self.mem.write(sp, &v.to_le_bytes())?;
        self.cpu.set(Reg::SP, sp);
        Ok(())
    }

    #[inline]
    fn pop(&mut self) -> Result<u64, Fault> {
        let sp = self.cpu.sp();
        let v = self.mem.read_uint(sp, 8)?;
        self.cpu.set(Reg::SP, sp.wrapping_add(8));
        Ok(v)
    }

    fn decode_at(&mut self, pc: u64) -> Result<Insn, Fault> {
        let epoch = self.mem.flush_epoch();
        if let Some(d) = self.decode_cache.get_mut(&pc) {
            // Sticky mode: the private icache ignores the shared
            // version counter — only an explicit shootdown
            // (invalidate_decode_*) evicts, exactly the staleness a
            // missing cross-CPU IPI leaves behind.
            if self.sticky_icache || d.2 == epoch {
                return Ok(d.0);
            }
            if decode_fresh(&self.mem, pc, *d) {
                d.2 = epoch;
                return Ok(d.0);
            }
        }
        let insn = self.mem.fetch_insn(pc)?;
        self.decode_cache
            .insert(pc, fresh_decode(&self.mem, pc, insn));
        Ok(insn)
    }

    /// A dividing ALU op (every other ALU op is register-only and goes
    /// through [`Machine::exec_fast`]). A zero divisor faults without
    /// charging any cycles.
    fn alu(&mut self, op: AluOp, a: u64, b: u64, at: u64) -> Result<u64, Fault> {
        let v = op.eval(a, b).ok_or(Fault::DivByZero { addr: at })?;
        self.charge(self.cost.alu_op(op));
        Ok(v)
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> Result<(), Fault> {
        let pc = self.cpu.pc;
        let insn = self.decode_at(pc)?;
        self.exec_insn(pc, insn)
    }

    /// Executes one already-decoded instruction at `pc`. This is the
    /// single execution routine: the tierless loop calls it after
    /// `decode_at`, block replay calls it with the memoized decode, and
    /// its register-only ops are the same [`Machine::exec_fast`] that
    /// fast runs call — cycles, stats, traces, profiles and fault
    /// behavior are therefore identical across tiers by construction.
    #[inline]
    fn exec_insn(&mut self, pc: u64, insn: Insn) -> Result<(), Fault> {
        // Snapshot TSC and counters so the step's deltas can be charged
        // to the function holding `pc`. Stats is Copy; with no profiler
        // installed this is a single branch.
        let prof_snap = self.profiler.as_ref().map(|_| (self.cpu.tsc, self.stats));
        if matches!(insn, Insn::Trap) {
            // The trap does not retire: pc stays on the trap byte and no
            // cycles are charged, so the catcher sees the CPU exactly at
            // the breakpoint (x86 `int3` semantics, minus the IDT).
            return Err(Fault::Trap { addr: pc });
        }
        let next = pc + insn.len() as u64;
        self.stats.instructions += 1;
        if let Some(t) = &mut self.trace {
            t.record(pc, insn);
        }
        let fused_here = self.fusable_at == Some(pc);
        self.fusable_at = None;
        let mut new_pc = next;

        match insn {
            _ if DecodedBlock::is_fast(&insn) => {
                let c = self.exec_fast(insn);
                self.charge(c);
                self.fusable_at = DecodedBlock::fuse_latch(&insn, next);
            }
            Insn::AluRR { op, dst, src } => {
                let v = self.alu(op, self.cpu.get(dst), self.cpu.get(src), pc)?;
                self.cpu.set(dst, v);
            }
            Insn::AluRI { op, dst, imm } => {
                let v = self.alu(op, self.cpu.get(dst), imm as u64, pc)?;
                self.cpu.set(dst, v);
            }
            Insn::Load {
                dst,
                base,
                off,
                width,
                signed,
            } => {
                let a = self.cpu.get(base).wrapping_add(off as i64 as u64);
                let raw = self.mem.read_uint(a, width.bytes())?;
                self.cpu.set(dst, extend(raw, width.bytes(), signed) as u64);
                self.stats.loads += 1;
                self.charge(self.cost.load);
            }
            Insn::Store {
                src,
                base,
                off,
                width,
            } => {
                let a = self.cpu.get(base).wrapping_add(off as i64 as u64);
                let v = self.cpu.get(src);
                self.mem.write_int(a, v, width.bytes())?;
                self.stats.stores += 1;
                self.charge(self.cost.store);
            }
            Insn::LoadAbs {
                dst,
                addr,
                width,
                signed,
            } => {
                let raw = self.mem.read_uint(addr, width.bytes())?;
                self.cpu.set(dst, extend(raw, width.bytes(), signed) as u64);
                self.stats.loads += 1;
                self.charge(self.cost.load);
            }
            Insn::StoreAbs { src, addr, width } => {
                let v = self.cpu.get(src);
                self.mem.write_int(addr, v, width.bytes())?;
                self.stats.stores += 1;
                self.charge(self.cost.store);
            }
            Insn::Jmp { rel } => {
                new_pc = next.wrapping_add(rel as i64 as u64);
                self.charge(self.cost.jmp);
            }
            Insn::Jcc { cc, rel } => {
                let (a, b) = self.cpu.cmp;
                let taken = cc.eval(a, b);
                self.stats.branches += 1;
                if taken {
                    self.stats.branches_taken += 1;
                    new_pc = next.wrapping_add(rel as i64 as u64);
                }
                let base = if fused_here {
                    self.cost.fused_cmp_branch.saturating_sub(self.cost.cmp)
                } else {
                    self.cost.branch
                };
                self.charge(base);
                if !self.pred.cond_branch(pc, taken) {
                    self.stats.mispredicts += 1;
                    self.charge(self.cost.mispredict);
                }
            }
            Insn::CallRel { rel } => {
                self.push(next)?;
                self.pred.push_ret(next);
                new_pc = next.wrapping_add(rel as i64 as u64);
                self.stats.calls += 1;
                self.charge(self.cost.call);
            }
            Insn::CallInd { target } => {
                let t = self.cpu.get(target);
                self.push(next)?;
                self.pred.push_ret(next);
                new_pc = t;
                self.stats.indirect_calls += 1;
                self.charge(self.cost.call_ind);
                if !self.pred.indirect(pc, t) {
                    self.stats.mispredicts += 1;
                    self.charge(self.cost.mispredict);
                }
            }
            Insn::CallMem { addr } => {
                let t = self.mem.read_uint(addr, 8)?;
                self.push(next)?;
                self.pred.push_ret(next);
                new_pc = t;
                self.stats.indirect_calls += 1;
                self.stats.loads += 1;
                self.charge(self.cost.call_ind + self.cost.call_mem_extra);
                if !self.pred.indirect(pc, t) {
                    self.stats.mispredicts += 1;
                    self.charge(self.cost.mispredict);
                }
            }
            Insn::Push { src } => {
                let v = self.cpu.get(src);
                self.push(v)?;
                self.charge(self.cost.push_pop);
            }
            Insn::Pop { dst } => {
                let v = self.pop()?;
                self.cpu.set(dst, v);
                self.charge(self.cost.push_pop);
            }
            Insn::Ret => {
                let t = self.pop()?;
                new_pc = t;
                self.stats.rets += 1;
                self.charge(self.cost.ret);
                if !self.pred.pop_ret(t) {
                    self.stats.mispredicts += 1;
                    self.charge(self.cost.mispredict);
                }
            }
            Insn::Halt => {
                self.cpu.halted = true;
                new_pc = pc;
            }
            Insn::Sti | Insn::Cli => {
                let enable = matches!(insn, Insn::Sti);
                self.cpu.if_flag = enable;
                match self.config.platform {
                    Platform::Native => self.charge(self.cost.sti_cli),
                    Platform::XenGuest => {
                        self.stats.guest_traps += 1;
                        self.charge(self.cost.guest_priv_trap);
                    }
                }
            }
            Insn::Hypercall { nr } => {
                if self.config.platform == Platform::Native {
                    return Err(Fault::InvalidHypercall { addr: pc, nr });
                }
                match nr {
                    HC_STI => self.cpu.if_flag = true,
                    HC_CLI => self.cpu.if_flag = false,
                    _ => return Err(Fault::InvalidHypercall { addr: pc, nr }),
                }
                self.stats.hypercalls += 1;
                self.charge(self.cost.hypercall);
            }
            Insn::Rdtsc { dst } => {
                self.charge(self.cost.rdtsc);
                let t = self.cpu.tsc;
                self.cpu.set(dst, t);
            }
            Insn::Pause => self.charge(self.cost.pause),
            Insn::Out { src } => {
                let b = self.cpu.get(src) as u8;
                self.out.push(b);
                self.stats.out_bytes += 1;
                self.charge(self.cost.out);
            }
            Insn::XchgLock { val, base } => {
                let a = self.cpu.get(base);
                let old = self.mem.read_uint(a, 8)?;
                let v = self.cpu.get(val);
                self.mem.write_int(a, v, 8)?;
                self.cpu.set(val, old);
                self.stats.atomics += 1;
                let c = match self.config.mode {
                    MachineMode::Unicore => self.cost.atomic_up,
                    MachineMode::Multicore => self.cost.atomic_smp,
                };
                self.charge(c);
            }
            Insn::Mfence => self.charge(self.cost.fence),
            Insn::Trap => unreachable!("trap faults before dispatch"),
            Insn::MovRR { .. }
            | Insn::MovRI { .. }
            | Insn::Lea { .. }
            | Insn::CmpRR { .. }
            | Insn::CmpRI { .. }
            | Insn::Setcc { .. } => unreachable!("fast ops dispatch to exec_fast"),
            Insn::Nop { .. } => {
                self.stats.nops += 1;
                self.charge(self.cost.nop);
            }
        }

        self.cpu.pc = new_pc;
        if let Some((tsc0, stats0)) = prof_snap {
            let cycles = self.cpu.tsc - tsc0;
            let delta = self.stats.since(&stats0);
            if let Some(p) = self.profiler.as_mut() {
                p.record(pc, cycles, &delta);
            }
        }
        Ok(())
    }

    /// Retires up to `budget > 0` instructions through the active
    /// [`ExecTier`] and returns how many retired plus the first fault, if
    /// any. Tierless calls [`Machine::step`] in a loop; the block tiers
    /// replay and record decoded blocks. Every tier stops at the budget,
    /// at `halt`, and where control reaches [`RET_SENTINEL`] after at
    /// least one retirement. Every observable — cycles, [`Stats`],
    /// traces, profiles, fault points — matches calling [`Machine::step`]
    /// the same number of times, because the tiers memoize decode, never
    /// semantics.
    pub fn step_tiered(&mut self, budget: u64) -> (u64, Result<(), Fault>) {
        debug_assert!(budget > 0, "step_tiered needs a positive budget");
        match self.tier {
            ExecTier::Tierless => self.step_insns(budget),
            ExecTier::Block | ExecTier::Superblock | ExecTier::Native => self.step_blocks(budget),
        }
    }

    /// The tierless loop: [`Machine::step`] until the budget, `halt`,
    /// or control reaching [`RET_SENTINEL`] mid-run — the stops of
    /// [`Machine::step_blocks`], so callers see the same quanta at
    /// every tier.
    fn step_insns(&mut self, budget: u64) -> (u64, Result<(), Fault>) {
        let mut retired = 0u64;
        while retired < budget && !self.cpu.halted {
            if retired > 0 && self.cpu.pc == RET_SENTINEL {
                break;
            }
            if let Err(f) = self.step() {
                return (retired, Err(f));
            }
            retired += 1;
        }
        (retired, Ok(()))
    }

    /// The block-tier loop: replay cached valid blocks, record new ones.
    /// Stops at the budget, at `halt`, or when control reaches
    /// [`RET_SENTINEL`] mid-run. (With zero retired, the sentinel falls
    /// through to recording, whose fetch faults exactly as a tierless
    /// fetch from the sentinel would.)
    ///
    /// On the native tier each block entry first looks for a lowered
    /// region (see [`crate::native`]) and runs it while it stays valid.
    /// With a tracer or profiler attached, or in sticky-icache (SMP)
    /// mode, regions are never entered — per-op observation and
    /// shootdown-precise invalidation belong to the block engine.
    fn step_blocks(&mut self, budget: u64) -> (u64, Result<(), Fault>) {
        let native = self.tier == ExecTier::Native
            && self.trace.is_none()
            && self.profiler.is_none()
            && !self.sticky_icache
            && !self.natives.is_empty();
        let mut retired = 0u64;
        while retired < budget && !self.cpu.halted {
            let pc = self.cpu.pc;
            if retired > 0 && pc == RET_SENTINEL {
                break;
            }
            if let Some(nf) = native.then(|| self.natives.get(pc).cloned()).flatten() {
                if nf.pages.valid(&self.mem) {
                    let (n, r) = self.run_native(&nf, budget - retired);
                    retired += n;
                    if r.is_err() {
                        return (retired, r);
                    }
                    if n > 0 {
                        continue;
                    }
                    // Not enough budget for a whole native block: one
                    // block-engine iteration instead.
                } else {
                    self.natives.invalidate_region(nf.entry);
                }
            }
            let (n, r) = self.step_block_once(budget - retired);
            retired += n;
            if r.is_err() {
                return (retired, r);
            }
        }
        (retired, Ok(()))
    }

    /// One iteration of the block-tier loop at the current `pc`: replay
    /// the cached block if present and valid, record one otherwise.
    fn step_block_once(&mut self, budget: u64) -> (u64, Result<(), Fault>) {
        let pc = self.cpu.pc;
        let (b, from_last) = match self.blocks.last(pc) {
            Some(b) => (b, true),
            None => match self.blocks.get(pc) {
                Some(b) => (b, false),
                None => return self.record_block(pc, budget, false),
            },
        };
        // Sticky mode serves blocks unchecked: the private icache
        // ignores version counters and only the explicit shootdown
        // primitives evict (see `invalidate_decode_range`).
        if !self.sticky_icache && !self.blocks.valid(b, &self.mem) {
            self.blocks.evict(pc);
            return self.record_block(pc, budget, false);
        }
        let b = b.clone();
        if !from_last
            && matches!(self.tier, ExecTier::Superblock | ExecTier::Native)
            && !b.superblock
            && self.blocks.bump_hot(pc) >= HOT_THRESHOLD
        {
            // Hot tier-0 entry: re-record as a fused superblock (the
            // recording replaces the map entry at `pc`).
            self.blocks.stats.promotions += 1;
            return self.record_block(pc, budget, true);
        }
        self.blocks.stats.hits += 1;
        let ops = span(&b.ops);
        if !from_last {
            self.blocks.set_last(b);
        }
        // Replay borrows the op arena: nothing a replayed op executes
        // reaches the block cache.
        let arena = std::mem::take(&mut self.blocks.ops);
        let r = self.replay_block(&arena[ops], budget);
        self.blocks.ops = arena;
        r
    }

    /// Executes lowered blocks of `nf` while control stays inside the
    /// region and the budget covers whole blocks. Returns instructions
    /// retired plus the first fault, if any. Kept out of line so edits
    /// to the block loop around it cannot reshape the native loop.
    #[inline(never)]
    fn run_native(&mut self, nf: &NativeFn, budget: u64) -> (u64, Result<(), Fault>) {
        let mut retired = 0u64;
        let mut runs = 0u64;
        let mut result = Ok(());
        'outer: while !self.cpu.halted {
            let pc = self.cpu.pc;
            let Some(&bi) = nf.by_pc.get(&pc) else { break };
            let b = &nf.blocks[bi];
            if b.ops.len() as u64 > budget - retired {
                break;
            }
            if retired > 0 && !nf.pages.valid(&self.mem) {
                break;
            }
            runs += 1;
            if !b.fetched.get() {
                let (n, r) = self.run_native_first(b);
                retired += n;
                if r.is_err() {
                    result = r;
                    break;
                }
                continue;
            }
            for seg in &b.segs {
                match seg {
                    Seg::Fast(fs) => {
                        for op in fs.micro.iter() {
                            self.exec_micro(op, &fs.chains);
                        }
                        self.cpu.tsc += fs.counts.cycles(&self.cost);
                        self.stats.instructions += fs.insns as u64;
                        self.fusable_at = fs.fuse_next;
                        self.cpu.pc = fs.next_pc;
                        retired += fs.insns as u64;
                    }
                    Seg::Slow { pc, insn } => {
                        debug_assert_eq!(self.cpu.pc, *pc, "native run left the lowered trace");
                        if let Err(f) = self.exec_insn(*pc, *insn) {
                            result = Err(f);
                            break 'outer;
                        }
                        retired += 1;
                    }
                }
            }
        }
        self.natives.stats.runs += runs;
        self.natives.stats.insns += retired;
        (retired, result)
    }

    /// The first run of lowered block `b`: each op enters the decode
    /// cache, then retires through [`Machine::exec_insn`] — the fetches
    /// tierless execution makes, so an unflushed patch later finds the
    /// same stale decodes whichever tier ran the code. Marks `b` fetched
    /// once the whole block retired.
    #[cold]
    fn run_native_first(&mut self, b: &crate::native::NativeBlock) -> (u64, Result<(), Fault>) {
        for (i, &(pc, insn)) in b.ops.iter().enumerate() {
            self.decode_cache
                .insert(pc, fresh_decode(&self.mem, pc, insn));
            if let Err(f) = self.exec_insn(pc, insn) {
                return (i as u64, Err(f));
            }
        }
        b.fetched.set(true);
        (b.ops.len() as u64, Ok(()))
    }

    /// One micro-op of a native fast segment. ALU values come from
    /// [`AluOp::apply`], as in [`Machine::exec_fast`]; cycle charges
    /// are pre-classified in the segment's [`crate::native::CostCounts`].
    /// `chains` is the owning segment's [`MicroOp::ChainRI`] step table.
    #[inline]
    fn exec_micro(&mut self, op: &MicroOp, chains: &[crate::native::AluChain]) {
        #[inline]
        fn ix(r: u8) -> usize {
            r as usize & (Reg::COUNT - 1)
        }
        match *op {
            MicroOp::MovRR { dst, src } => self.cpu.regs[ix(dst)] = self.cpu.regs[ix(src)],
            MicroOp::MovRI { dst, imm } => self.cpu.regs[ix(dst)] = imm,
            MicroOp::AluRR { op, dst, src } => {
                self.cpu.regs[ix(dst)] = op.apply(self.cpu.regs[ix(dst)], self.cpu.regs[ix(src)]);
            }
            MicroOp::AluRI { op, dst, imm } => {
                self.cpu.regs[ix(dst)] = op.apply(self.cpu.regs[ix(dst)], imm);
            }
            MicroOp::Alu2RI {
                op1,
                dst1,
                imm1,
                op2,
                dst2,
                imm2,
            } => {
                self.cpu.regs[ix(dst1)] = op1.apply(self.cpu.regs[ix(dst1)], imm1);
                self.cpu.regs[ix(dst2)] = op2.apply(self.cpu.regs[ix(dst2)], imm2);
            }
            MicroOp::CmpRR { a, b } => self.cpu.cmp = (self.cpu.regs[ix(a)], self.cpu.regs[ix(b)]),
            MicroOp::CmpRI { a, imm } => self.cpu.cmp = (self.cpu.regs[ix(a)], imm),
            MicroOp::Setcc { cc, dst } => {
                let (a, b) = self.cpu.cmp;
                self.cpu.regs[ix(dst)] = cc.eval(a, b) as u64;
            }
            MicroOp::ChainRI { dst, chain } => {
                // The chained value lives in a host register for the
                // whole run — no register-file round trip between steps.
                // Unrolled by four: rolled, the per-step dispatch ran
                // about a fifth slower whenever the linker left the loop
                // head off a 32-byte boundary, which varies by build.
                let d = ix(dst);
                let mut v = self.cpu.regs[d];
                let mut quads = chains[chain as usize].chunks_exact(4);
                for q in &mut quads {
                    v = q[0].0.apply(v, q[0].1);
                    v = q[1].0.apply(v, q[1].1);
                    v = q[2].0.apply(v, q[2].1);
                    v = q[3].0.apply(v, q[3].1);
                }
                for &(op, imm) in quads.remainder() {
                    v = op.apply(v, imm);
                }
                self.cpu.regs[d] = v;
            }
        }
    }

    /// Lowers and registers the function region at `entry` for the
    /// native tier, if it is not already covered by a valid region.
    /// Returns `false` when nothing executable could be lowered there.
    /// Idempotent; an attached runtime calls this after every commit for
    /// every live function body. Each pc is read through the decode
    /// cache while that holds a valid entry, so a region never decodes
    /// ahead of the icache model.
    pub fn ensure_native(&mut self, entry: u64) -> bool {
        if let Some(nf) = self.natives.get(entry).cloned() {
            if nf.pages.valid(&self.mem) {
                return true;
            }
            self.natives.invalidate_region(nf.entry);
        }
        let decode = |pc| match self.decode_cache.get(&pc) {
            Some(&d) if decode_fresh(&self.mem, pc, d) => Some(d.0),
            _ => self.mem.fetch_insn(pc).ok(),
        };
        match crate::native::lower(&self.mem, entry, decode) {
            Some(nf) => {
                self.natives.register(Rc::new(nf));
                true
            }
            None => false,
        }
    }

    /// Drops lowered regions whose registered entry fails `keep` (the
    /// reconciliation half of the runtime's post-commit native sync).
    pub fn retain_native(&mut self, keep: impl Fn(u64) -> bool) {
        self.natives.retain_regions(keep);
    }

    /// `true` if a lowered region covers a block starting at `pc`.
    pub fn has_native(&self, pc: u64) -> bool {
        self.natives.get(pc).is_some()
    }

    /// Counters of the native tier (see [`NativeStats`]).
    pub fn native_stats(&self) -> NativeStats {
        self.natives.stats
    }

    /// Re-executes the memoized `ops` of the block at the current `pc`.
    /// Stops at the budget or at a fault.
    ///
    /// Mid-block control flow is deterministic by construction: recording
    /// breaks at every transfer except fused `jmp`/`call rel`, whose
    /// targets are static, and `halt` only ever terminates a trace — so
    /// inside the pre-sliced budget window the per-op `pc` guard is a
    /// debug assertion.
    ///
    /// With no tracer or profiler attached, maximal runs of register-only
    /// ops ([`BlockOp::fast_run`]) retire through [`Machine::exec_fast`]
    /// with the `tsc`, instruction-count, `fusable_at` and `pc` updates
    /// batched to the end of the run. Fast ops cannot fault, halt,
    /// transfer control, or read `tsc`/[`Stats`], and host code only
    /// observes machine state between quanta, so the end-of-quantum state
    /// is bit-identical to per-instruction execution. Everything else —
    /// and every op when a tracer or profiler is attached — goes through
    /// [`Machine::exec_insn`] unchanged.
    fn replay_block(&mut self, ops: &[BlockOp], budget: u64) -> (u64, Result<(), Fault>) {
        let limit = usize::try_from(budget).map_or(ops.len(), |n| ops.len().min(n));
        let plain = self.trace.is_none() && self.profiler.is_none();
        let mut i = 0usize;
        while i < limit {
            let op = ops[i];
            debug_assert_eq!(self.cpu.pc, op.pc, "replay left the recorded trace");
            let run = if plain {
                (op.fast_run as usize).min(limit - i)
            } else {
                0
            };
            if run > 0 {
                let mut cycles = 0u64;
                for fast in &ops[i..i + run] {
                    cycles += self.exec_fast(fast.insn);
                }
                self.cpu.tsc += cycles;
                self.stats.instructions += run as u64;
                let last = ops[i + run - 1];
                let next = last.pc + last.insn.len() as u64;
                self.fusable_at = DecodedBlock::fuse_latch(&last.insn, next);
                self.cpu.pc = next;
                i += run;
            } else {
                if let Err(f) = self.exec_insn(op.pc, op.insn) {
                    return (i as u64, Err(f));
                }
                i += 1;
            }
        }
        (i as u64, Ok(()))
    }

    /// Executes one register-only [`DecodedBlock::is_fast`] op and
    /// returns its cycle charge without touching `tsc`. This is the one
    /// definition of those ops: [`Machine::exec_insn`] dispatches to it
    /// and fast-run replay ([`Machine::replay_block`]) calls it directly.
    /// Forced inline: with two callers it is otherwise outlined, and a
    /// call per op slows fast-run replay by about a quarter.
    #[inline(always)]
    fn exec_fast(&mut self, insn: Insn) -> u64 {
        match insn {
            Insn::MovRR { dst, src } => {
                self.cpu.set(dst, self.cpu.get(src));
                self.cost.alu
            }
            Insn::MovRI { dst, imm } => {
                self.cpu.set(dst, imm as u64);
                self.cost.alu
            }
            Insn::Lea { dst, addr } => {
                self.cpu.set(dst, addr);
                self.cost.lea
            }
            Insn::AluRR { op, dst, src } => {
                self.cpu
                    .set(dst, op.apply(self.cpu.get(dst), self.cpu.get(src)));
                self.cost.alu_op(op)
            }
            Insn::AluRI { op, dst, imm } => {
                self.cpu.set(dst, op.apply(self.cpu.get(dst), imm as u64));
                self.cost.alu_op(op)
            }
            Insn::CmpRR { a, b } => {
                self.cpu.cmp = (self.cpu.get(a), self.cpu.get(b));
                self.cost.cmp
            }
            Insn::CmpRI { a, imm } => {
                self.cpu.cmp = (self.cpu.get(a), imm as u64);
                self.cost.cmp
            }
            Insn::Setcc { cc, dst } => {
                let (a, b) = self.cpu.cmp;
                self.cpu.set(dst, cc.eval(a, b) as u64);
                self.cost.alu
            }
            _ => unreachable!("non-fast op inside a fast run"),
        }
    }

    /// Records a new block at the current `pc` by executing instructions
    /// through the ordinary decode path while memoizing every decode it
    /// performed — never decoding ahead, so a sticky stale decode enters
    /// the block exactly as stale as tierless execution observes it. A
    /// faulting op is kept as the block terminator (a replay re-reaches
    /// the same fault point); a budget cut caches the partial block.
    fn record_block(
        &mut self,
        entry: u64,
        budget: u64,
        superblock: bool,
    ) -> (u64, Result<(), Fault>) {
        self.blocks.stats.misses += 1;
        let max_ops = if superblock {
            MAX_SUPERBLOCK_INSTS
        } else {
            MAX_BLOCK_INSTS
        };
        let mark = self.blocks.mark(&self.mem);
        let mut fuses = 0usize;
        let mut retired = 0u64;
        let mut result = Ok(());
        while retired < budget {
            let pc = self.cpu.pc;
            let insn = match self.decode_at(pc) {
                Ok(i) => i,
                Err(f) => {
                    result = Err(f);
                    break;
                }
            };
            self.blocks.push_op(mark, &self.mem, pc, insn);
            if let Err(f) = self.exec_insn(pc, insn) {
                result = Err(f);
                break;
            }
            retired += 1;
            let recorded = &self.blocks.ops[mark.ops..];
            if self.cpu.halted || self.cpu.pc == RET_SENTINEL || recorded.len() >= max_ops {
                break;
            }
            // A superblock fuses across direct, statically-targeted
            // transfers — unless the target is already in the trace (a
            // loop) or the fuse allowance ran out.
            if superblock
                && fuses < MAX_SUPERBLOCK_FUSES
                && matches!(insn, Insn::Jmp { .. } | Insn::CallRel { .. })
                && !recorded.iter().any(|op| op.pc == self.cpu.pc)
            {
                fuses += 1;
                continue;
            }
            if matches!(
                insn,
                Insn::Jmp { .. }
                    | Insn::Jcc { .. }
                    | Insn::CallRel { .. }
                    | Insn::CallInd { .. }
                    | Insn::CallMem { .. }
                    | Insn::Ret
            ) {
                break;
            }
        }
        self.blocks.finish(mark, entry, superblock);
        (retired, result)
    }

    /// Calls the function at `addr` with up to six `args`, runs it to
    /// completion and returns `r0`.
    ///
    /// The machine's TSC, statistics and predictor state persist across
    /// calls, so repeated calls model a warm microbenchmark loop.
    pub fn call(&mut self, addr: u64, args: &[u64]) -> Result<u64, Fault> {
        assert!(args.len() <= 6, "at most six register arguments");
        for (i, &a) in args.iter().enumerate() {
            self.cpu.set(Reg::new(i as u8).expect("< 6"), a);
        }
        // (Re)entering execution clears a previous `halt`: a halted
        // machine used to poison every later call with `Fault::Halted`
        // even though the caller asked it to run new code.
        self.cpu.halted = false;
        self.push(RET_SENTINEL)?;
        self.pred.push_ret(RET_SENTINEL);
        self.cpu.pc = addr;
        let mut executed = 0u64;
        while self.cpu.pc != RET_SENTINEL {
            if self.cpu.halted {
                return Err(Fault::Halted);
            }
            if executed >= self.config.fuel {
                return Err(Fault::Timeout { executed });
            }
            let (n, r) = self.step_tiered(self.config.fuel - executed);
            executed += n;
            r?;
        }
        Ok(self.cpu.get(Reg::R0))
    }

    /// Runs from the image entry point until `halt`; returns `r0`.
    pub fn run_entry(&mut self, exe: &Executable) -> Result<u64, Fault> {
        // (Re)entering execution clears a previous `halt` — without this
        // a second `run_entry` returned `r0` without executing a single
        // instruction.
        self.cpu.halted = false;
        self.cpu.pc = exe.entry;
        let mut executed = 0u64;
        while !self.cpu.halted {
            if executed >= self.config.fuel {
                return Err(Fault::Timeout { executed });
            }
            let (n, r) = self.step_tiered(self.config.fuel - executed);
            executed += n;
            r?;
        }
        Ok(self.cpu.get(Reg::R0))
    }
}

/// A decode of `insn` at `pc`, stamped with the current versions of
/// its pages and the current flush epoch.
fn fresh_decode(mem: &Memory, pc: u64, insn: Insn) -> CachedDecode {
    (insn, page_versions(mem, pc, insn), mem.flush_epoch())
}

/// `true` while every page the cached decode at `pc` touches is still at
/// its recorded version: an instruction straddling a page boundary is
/// stale as soon as either page is flushed.
#[inline(always)]
fn decode_fresh(mem: &Memory, pc: u64, (insn, versions, _): CachedDecode) -> bool {
    versions == page_versions(mem, pc, insn)
}

/// The `code_version` of the page holding `insn`'s encoding at `pc`,
/// plus that of the next page when the encoding straddles into it.
/// Versions only grow, so the sum moves whenever either one does.
fn page_versions(mem: &Memory, pc: u64, insn: Insn) -> u64 {
    let head = mem.code_version(pc);
    let last = pc + insn.len() as u64 - 1;
    if last / PAGE_SIZE == pc / PAGE_SIZE {
        head
    } else {
        head + mem.code_version(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasm::Cond;
    use mvobj::{link, Layout, Object, SectionKind, Symbol};

    fn exe_from(asm: mvasm::Assembler, extra: impl FnOnce(&mut Object)) -> Executable {
        let blob = asm.finish().unwrap();
        let mut o = Object::new("t");
        o.append(mvobj::SEC_TEXT, SectionKind::Text, &blob.bytes);
        o.define(Symbol::func(
            "main",
            mvobj::SEC_TEXT,
            0,
            blob.bytes.len() as u64,
        ));
        for f in &blob.fixups {
            let kind = match f.kind {
                mvasm::FixupKind::Rel32 { next_insn } => mvobj::RelocKind::Rel32 {
                    next_insn: next_insn as u64,
                },
                mvasm::FixupKind::Abs64 => mvobj::RelocKind::Abs64,
            };
            o.relocate(mvobj::Reloc {
                section: mvobj::SEC_TEXT.into(),
                offset: f.offset as u64,
                kind,
                symbol: f.symbol.clone(),
                addend: f.addend,
            });
        }
        extra(&mut o);
        link(&[o], &Layout::default()).unwrap()
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum 1..=10 into r0
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, 0);
        a.mov_ri(Reg::R1, 1);
        a.label("loop");
        a.emit(Insn::AluRR {
            op: AluOp::Add,
            dst: Reg::R0,
            src: Reg::R1,
        });
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R1,
            imm: 1,
        });
        a.cmp_ri(Reg::R1, 10);
        a.jcc("loop", Cond::Le);
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        assert_eq!(m.run_entry(&exe).unwrap(), 55);
    }

    #[test]
    fn call_and_ret_roundtrip() {
        let mut a = mvasm::Assembler::new();
        a.call_sym("double_it", false);
        a.emit(Insn::Halt);
        a.label("double_it");
        // Local label targets are assembler-local; expose as symbol below.
        let blob_offset_known = a.len();
        a.emit(Insn::AluRR {
            op: AluOp::Add,
            dst: Reg::R0,
            src: Reg::R0,
        });
        a.ret();
        let exe = exe_from(a, |o| {
            o.define(Symbol::func(
                "double_it",
                mvobj::SEC_TEXT,
                blob_offset_known as u64,
                5,
            ));
        });
        let mut m = Machine::boot(&exe);
        m.cpu.set(Reg::R0, 21);
        assert_eq!(m.run_entry(&exe).unwrap(), 42);
        assert_eq!(m.stats.calls, 1);
        assert_eq!(m.stats.rets, 1);
    }

    #[test]
    fn machine_call_returns_r0() {
        let mut a = mvasm::Assembler::new();
        a.emit(Insn::Halt); // entry, unused
        a.label("f");
        let f_off = a.len();
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: 5,
        });
        a.ret();
        let exe = exe_from(a, |o| {
            o.define(Symbol::func("f", mvobj::SEC_TEXT, f_off as u64, 12));
        });
        let mut m = Machine::boot(&exe);
        let f = exe.symbol("f").unwrap();
        assert_eq!(m.call(f, &[37]).unwrap(), 42);
        // TSC advanced and the machine is reusable.
        let t = m.cycles();
        assert!(t > 0);
        assert_eq!(m.call(f, &[0]).unwrap(), 5);
        assert!(m.cycles() > t);
    }

    #[test]
    fn profiler_attributes_callee_to_callee() {
        let mut a = mvasm::Assembler::new();
        a.call_sym("double_it", false);
        a.emit(Insn::Halt);
        a.label("double_it");
        let off = a.len();
        a.emit(Insn::AluRR {
            op: AluOp::Add,
            dst: Reg::R0,
            src: Reg::R0,
        });
        a.ret();
        let exe = exe_from(a, |o| {
            o.define(Symbol::func("double_it", mvobj::SEC_TEXT, off as u64, 5));
        });
        let mut m = Machine::boot(&exe);
        m.enable_profile(&exe);
        m.cpu.set(Reg::R0, 21);
        m.run_entry(&exe).unwrap();
        let p = m.take_profile().unwrap();
        // The call retires in main; add+ret retire in double_it.
        let main = p.counters_of("main").unwrap();
        let callee = p.counters_of("double_it").unwrap();
        assert_eq!(main.stats.calls, 1);
        assert_eq!(callee.stats.rets, 1);
        assert_eq!(callee.stats.instructions, 2);
        assert!(callee.cycles > 0);
        // Everything retired is attributed somewhere.
        let total: u64 = p
            .report()
            .iter()
            .map(|r| r.counters.stats.instructions)
            .sum();
        assert_eq!(total, m.stats.instructions);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, 1);
        a.mov_ri(Reg::R1, 0);
        a.emit(Insn::AluRR {
            op: AluOp::Divu,
            dst: Reg::R0,
            src: Reg::R1,
        });
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        assert!(matches!(
            m.run_entry(&exe).unwrap_err(),
            Fault::DivByZero { .. }
        ));
    }

    #[test]
    fn warm_branch_costs_less_than_cold() {
        // A taken loop branch: first iterations mispredict, then the
        // predictor warms up.
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R1, 0);
        a.label("loop");
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R1,
            imm: 1,
        });
        a.cmp_ri(Reg::R1, 1000);
        a.jcc("loop", Cond::Lt);
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        m.run_entry(&exe).unwrap();
        // Only the warm-up and the final not-taken branch mispredict.
        assert!(m.stats.mispredicts <= 3, "{}", m.stats.mispredicts);
        assert_eq!(m.stats.branches, 1000);
    }

    #[test]
    fn guest_sti_traps_native_does_not() {
        let mut a = mvasm::Assembler::new();
        a.emit(Insn::Cli);
        a.emit(Insn::Sti);
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});

        let mut native = Machine::boot(&exe);
        native.run_entry(&exe).unwrap();
        assert_eq!(native.stats.guest_traps, 0);
        let native_cycles = native.cycles();

        let mut guest = Machine::new(
            CostModel::default(),
            MachineConfig {
                platform: Platform::XenGuest,
                ..MachineConfig::default()
            },
        );
        guest.load(&exe);
        guest.run_entry(&exe).unwrap();
        assert_eq!(guest.stats.guest_traps, 2);
        assert!(guest.cycles() > native_cycles * 10);
    }

    #[test]
    fn hypercall_invalid_on_native() {
        let mut a = mvasm::Assembler::new();
        a.emit(Insn::Hypercall { nr: HC_CLI });
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        assert!(matches!(
            m.run_entry(&exe).unwrap_err(),
            Fault::InvalidHypercall { nr: HC_CLI, .. }
        ));

        let mut guest = Machine::new(
            CostModel::default(),
            MachineConfig {
                platform: Platform::XenGuest,
                ..MachineConfig::default()
            },
        );
        guest.load(&exe);
        guest.run_entry(&exe).unwrap();
        assert!(!guest.cpu.if_flag);
        assert_eq!(guest.stats.hypercalls, 1);
    }

    #[test]
    fn atomic_costs_more_in_smp() {
        let mk = |mode| {
            let mut a = mvasm::Assembler::new();
            a.lea_sym(Reg::R1, "lockword");
            a.mov_ri(Reg::R0, 1);
            a.emit(Insn::XchgLock {
                val: Reg::R0,
                base: Reg::R1,
            });
            a.emit(Insn::Halt);
            let exe = exe_from(a, |o| o.define_bss("lockword", 8));
            let mut m = Machine::new(
                CostModel::default(),
                MachineConfig {
                    mode,
                    ..MachineConfig::default()
                },
            );
            m.load(&exe);
            m.run_entry(&exe).unwrap();
            (m.cycles(), m.stats.atomics)
        };
        let (up, a1) = mk(MachineMode::Unicore);
        let (smp, a2) = mk(MachineMode::Multicore);
        assert_eq!((a1, a2), (1, 1));
        assert!(smp > up);
    }

    #[test]
    fn xchg_swaps_memory() {
        let mut a = mvasm::Assembler::new();
        a.lea_sym(Reg::R1, "word");
        a.mov_ri(Reg::R0, 7);
        a.emit(Insn::XchgLock {
            val: Reg::R0,
            base: Reg::R1,
        });
        a.emit(Insn::Halt);
        let exe = exe_from(a, |o| {
            o.define_data("word", &42u64.to_le_bytes());
        });
        let mut m = Machine::boot(&exe);
        m.run_entry(&exe).unwrap();
        assert_eq!(m.cpu.get(Reg::R0), 42);
        let w = exe.symbol("word").unwrap();
        assert_eq!(m.mem.read_uint(w, 8).unwrap(), 7);
    }

    #[test]
    fn out_collects_bytes() {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, b'h' as i64);
        a.emit(Insn::Out { src: Reg::R0 });
        a.mov_ri(Reg::R0, b'i' as i64);
        a.emit(Insn::Out { src: Reg::R0 });
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        m.run_entry(&exe).unwrap();
        assert_eq!(m.take_output(), b"hi");
        assert!(m.output().is_empty());
    }

    #[test]
    fn stale_icache_executes_old_instruction() {
        // Execute a mov once (populating the decode cache), then patch the
        // text without flushing: the machine must keep executing the stale
        // decoded instruction until flush_icache.
        let mut a = mvasm::Assembler::new();
        a.label("f");
        a.mov_ri(Reg::R0, 1);
        a.ret();
        a.emit(Insn::Halt);
        let f_len = 0;
        let exe = exe_from(a, |o| {
            o.define(Symbol::func("f", mvobj::SEC_TEXT, f_len, 11));
        });
        let mut m = Machine::boot(&exe);
        let f = exe.symbol("f").unwrap();
        assert_eq!(m.call(f, &[]).unwrap(), 1);

        // Patch `mov r0, 1` → `mov r0, 2` behind the icache's back.
        let patched = mvasm::encode(&Insn::MovRI {
            dst: Reg::R0,
            imm: 2,
        });
        m.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
        m.mem.write(f, &patched).unwrap();
        m.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();

        // Stale: still returns 1.
        assert_eq!(m.call(f, &[]).unwrap(), 1);
        // After the flush the new code is visible.
        m.mem.flush_icache(f, 16);
        assert_eq!(m.call(f, &[]).unwrap(), 2);
    }

    #[test]
    fn fuel_exhaustion_times_out() {
        let mut a = mvasm::Assembler::new();
        a.label("spin");
        a.jmp("spin");
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::new(
            CostModel::default(),
            MachineConfig {
                fuel: 1000,
                ..MachineConfig::default()
            },
        );
        m.load(&exe);
        assert!(matches!(
            m.run_entry(&exe).unwrap_err(),
            Fault::Timeout { executed: 1000 }
        ));
    }

    #[test]
    fn set_mode_hotplug_resets_predictors_keeps_decode_cache() {
        // Hot-plug semantics: switching UP↔SMP must flush predictor
        // training (the plugged core arrives cold) but must NOT flush
        // the decode cache (text is unchanged by hot-plug).
        let mut a = mvasm::Assembler::new();
        a.label("f");
        a.mov_ri(Reg::R0, 1);
        a.ret();
        a.label("g");
        let g_off = a.len();
        // A 16-iteration loop whose taken back-edge needs training.
        a.mov_ri(Reg::R1, 0);
        a.label("loop");
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R1,
            imm: 1,
        });
        a.cmp_ri(Reg::R1, 16);
        a.jcc("loop", Cond::Lt);
        a.ret();
        a.emit(Insn::Halt);
        let exe = exe_from(a, |o| {
            o.define(Symbol::func("f", mvobj::SEC_TEXT, 0, 11));
            o.define(Symbol::func("g", mvobj::SEC_TEXT, g_off as u64, 38));
        });
        let mut m = Machine::boot(&exe);
        let f = exe.symbol("f").unwrap();
        let g = exe.symbol("g").unwrap();

        // Warm the branch predictor and the decode cache.
        assert_eq!(m.call(f, &[]).unwrap(), 1);
        m.call(g, &[]).unwrap();
        let warm = {
            let before = m.stats.mispredicts;
            m.call(g, &[]).unwrap();
            m.stats.mispredicts - before
        };

        // Patch f *without* flushing, then hot-plug.
        let patched = mvasm::encode(&Insn::MovRI {
            dst: Reg::R0,
            imm: 2,
        });
        m.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
        m.mem.write(f, &patched).unwrap();
        m.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
        m.set_mode(MachineMode::Multicore);
        assert_eq!(m.mode(), MachineMode::Multicore);

        // Decode cache survived the mode change: without an icache
        // flush the stale instruction keeps executing.
        assert_eq!(m.call(f, &[]).unwrap(), 1, "decode cache must be kept");
        // Predictors were flushed: the loop back-edge needs retraining.
        let cold = {
            let before = m.stats.mispredicts;
            m.call(g, &[]).unwrap();
            m.stats.mispredicts - before
        };
        assert!(
            cold > warm,
            "predictors must be cold after hot-plug (cold {cold} !> warm {warm})"
        );

        // No-op mode change (same mode) flushes nothing.
        m.call(g, &[]).unwrap();
        let before = m.stats.mispredicts;
        m.set_mode(MachineMode::Multicore);
        m.call(g, &[]).unwrap();
        assert_eq!(
            m.stats.mispredicts - before,
            warm,
            "same-mode set_mode must not flush training"
        );
    }

    #[test]
    fn fused_cmp_jcc_is_cheaper_than_unfused() {
        // cmp;jcc adjacent (fused) vs cmp;nop;jcc (unfused): same outcome,
        // the fused pair must not cost more.
        let run = |fused: bool| {
            let mut a = mvasm::Assembler::new();
            a.cmp_ri(Reg::R0, 1);
            if !fused {
                a.emit(Insn::Nop { len: 1 });
            }
            a.jcc("t", Cond::Eq);
            a.label("t");
            a.emit(Insn::Halt);
            let exe = exe_from(a, |_| {});
            let mut m = Machine::boot(&exe);
            m.run_entry(&exe).unwrap();
            m.cycles()
        };
        // Unfused pays the nop (1) plus the unfused branch (1); fused pays
        // only the pair cost.
        assert!(run(true) < run(false));
    }

    #[test]
    fn straddling_insn_sees_tail_page_flush() {
        // A mov whose 8-byte immediate lives entirely on the page after
        // its opcode byte: patching and flushing only that tail page must
        // invalidate the cached decode. (The cache used to be keyed on
        // the head page's generation alone and served the insn stale.)
        let mut m = Machine::new(CostModel::default(), MachineConfig::default());
        let base = 0x10000u64;
        m.mem.map(base, 2 * PAGE_SIZE, mvobj::Prot::RW);
        let pc = base + PAGE_SIZE - 2; // opcode+reg on page 0, imm on page 1
        let mov = mvasm::encode(&Insn::MovRI {
            dst: Reg::R0,
            imm: 1,
        });
        assert_eq!(mov.len(), 10, "straddle layout relies on the encoding");
        m.mem.write(pc, &mov).unwrap();
        let ret = mvasm::encode(&Insn::Ret);
        m.mem.write(pc + 10, &ret).unwrap();
        m.mem
            .mprotect(base, 2 * PAGE_SIZE, mvobj::Prot::RX)
            .unwrap();
        assert_eq!(m.call(pc, &[]).unwrap(), 1);

        // Patch only the immediate — bytes entirely on the tail page —
        // and flush only that page.
        let tail = base + PAGE_SIZE;
        m.mem.mprotect(tail, PAGE_SIZE, mvobj::Prot::RW).unwrap();
        m.mem.write(tail, &2i64.to_le_bytes()).unwrap();
        m.mem.mprotect(tail, PAGE_SIZE, mvobj::Prot::RX).unwrap();
        m.mem.flush_icache(tail, 8);
        assert_eq!(
            m.call(pc, &[]).unwrap(),
            2,
            "a tail-page flush must invalidate the straddling decode"
        );
    }

    #[test]
    fn halted_machine_accepts_new_calls() {
        // run_entry ends in `halt`; the machine must still run later
        // calls instead of failing them all with Fault::Halted.
        let mut a = mvasm::Assembler::new();
        a.emit(Insn::Halt);
        a.label("f");
        let f_off = a.len();
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: 5,
        });
        a.ret();
        let exe = exe_from(a, |o| {
            o.define(Symbol::func("f", mvobj::SEC_TEXT, f_off as u64, 12));
        });
        let mut m = Machine::boot(&exe);
        m.run_entry(&exe).unwrap();
        assert!(m.cpu.halted);
        let f = exe.symbol("f").unwrap();
        assert_eq!(
            m.call(f, &[37]).unwrap(),
            42,
            "a finished run must not poison later calls"
        );
        // Halt retiring *during* a call still faults.
        assert_eq!(m.call(exe.entry, &[]).unwrap_err(), Fault::Halted);
    }

    #[test]
    fn run_entry_twice_reexecutes() {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, 7);
        a.emit(Insn::Halt);
        let exe = exe_from(a, |_| {});
        let mut m = Machine::boot(&exe);
        assert_eq!(m.run_entry(&exe).unwrap(), 7);
        let insns = m.stats.instructions;
        m.cpu.set(Reg::R0, 0);
        assert_eq!(m.run_entry(&exe).unwrap(), 7, "second run must re-execute");
        assert_eq!(m.stats.instructions, insns * 2);
    }

    /// A loop with a cmp→jcc back-edge, a call/ret pair per iteration and
    /// a direct jmp split: exercises block terminators, superblock fusion
    /// and the return path.
    fn tier_workload() -> Executable {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, 0);
        a.mov_ri(Reg::R1, 0);
        a.label("loop");
        a.call_sym("bump", false);
        a.jmp("cont");
        a.label("cont");
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R1,
            imm: 1,
        });
        a.cmp_ri(Reg::R1, 50);
        a.jcc("loop", Cond::Lt);
        a.emit(Insn::Halt);
        a.label("bump");
        let off = a.len();
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: 3,
        });
        a.ret();
        exe_from(a, |o| {
            o.define(Symbol::func("bump", mvobj::SEC_TEXT, off as u64, 12));
        })
    }

    #[test]
    fn tiers_are_observation_identical() {
        let run = |tier: ExecTier| {
            let exe = tier_workload();
            let mut m = Machine::boot(&exe);
            m.set_tier(tier);
            m.enable_trace(32);
            m.enable_profile(&exe);
            let r = m.run_entry(&exe).unwrap();
            let trace: Vec<(u64, Insn)> = m.take_trace().unwrap().entries().copied().collect();
            let p = m.take_profile().unwrap();
            let callee = p.counters_of("bump").unwrap();
            (r, m.cycles(), m.stats, trace, callee.cycles, callee.stats)
        };
        let base = run(ExecTier::Tierless);
        assert_eq!(run(ExecTier::Block), base, "tier-0 diverged");
        assert_eq!(run(ExecTier::Superblock), base, "superblock diverged");
        // With a tracer attached the native tier must bypass its fast
        // path and still be observation-identical.
        assert_eq!(run(ExecTier::Native), base, "native (traced) diverged");
    }

    #[test]
    fn native_tier_is_observation_identical_and_actually_runs() {
        let run = |native: bool| {
            let exe = tier_workload();
            let mut m = Machine::boot(&exe);
            if native {
                m.set_tier(ExecTier::Native);
                assert!(m.ensure_native(exe.entry), "entry must lower");
                assert!(m.has_native(exe.entry));
            }
            let r = m.run_entry(&exe).unwrap();
            (r, m.cycles(), m.stats, m.native_stats())
        };
        let (r0, c0, s0, _) = run(false);
        let (r1, c1, s1, n) = run(true);
        assert_eq!((r1, c1, s1), (r0, c0, s0), "native diverged");
        assert!(n.runs > 0, "native fast path never ran: {n:?}");
        assert!(n.insns > 0);
        assert!(n.regions >= 1 && n.blocks >= 2);
    }

    #[test]
    fn native_region_survives_retain_and_reconciles() {
        let exe = tier_workload();
        let mut m = Machine::boot(&exe);
        m.set_tier(ExecTier::Native);
        assert!(m.ensure_native(exe.entry));
        // ensure is idempotent: no second region for the same entry.
        assert!(m.ensure_native(exe.entry));
        assert_eq!(m.native_stats().regions, 1);
        m.retain_native(|e| e != exe.entry);
        assert!(!m.has_native(exe.entry), "retain must drop the region");
        assert!(m.ensure_native(exe.entry));
        assert_eq!(m.native_stats().regions, 2, "re-lowered after drop");
    }

    #[test]
    fn block_cache_hits_and_promotes() {
        let exe = tier_workload();
        let mut m = Machine::boot(&exe);
        m.set_tier(ExecTier::Superblock);
        m.run_entry(&exe).unwrap();
        let s = m.block_stats();
        assert!(s.hits > 0, "loop re-entries must hit: {s:?}");
        assert!(s.misses > 0);
        assert!(s.promotions > 0, "hot entries must promote: {s:?}");
    }

    #[test]
    fn tiered_staleness_matches_tierless() {
        // The stale-icache discipline must survive every tier: a patch
        // without a flush stays stale exactly where tierless execution
        // already decoded the old bytes, and the flush makes exactly the
        // patched code fresh. On the native tier `lower` registers a
        // region at `f` wherever the scenario says so; the other tiers
        // must observe the same values without one.
        #[derive(Clone, Copy)]
        enum Step {
            Call,
            Write,
            Flush,
            /// Flushes a page other than `f`'s (the stack's top page).
            FlushOther,
            Lower,
        }
        use Step::*;
        let run = |tier: ExecTier, steps: &[Step]| -> Vec<u64> {
            let mut a = mvasm::Assembler::new();
            a.label("f");
            a.mov_ri(Reg::R0, 1);
            a.ret();
            a.emit(Insn::Halt);
            let exe = exe_from(a, |o| {
                o.define(Symbol::func("f", mvobj::SEC_TEXT, 0, 11));
            });
            let mut m = Machine::boot(&exe);
            m.set_tier(tier);
            let f = exe.symbol("f").unwrap();
            let mut seen = Vec::new();
            for step in steps {
                match step {
                    Call => seen.push(m.call(f, &[]).unwrap()),
                    Write => {
                        let patched = mvasm::encode(&Insn::MovRI {
                            dst: Reg::R0,
                            imm: 2,
                        });
                        m.mem.mprotect(f, 16, mvobj::Prot::RW).unwrap();
                        m.mem.write(f, &patched).unwrap();
                        m.mem.mprotect(f, 16, mvobj::Prot::RX).unwrap();
                    }
                    Flush => m.mem.flush_icache(f, 16),
                    FlushOther => m.mem.flush_icache(STACK_TOP - 8, 8),
                    Lower if tier == ExecTier::Native => assert!(m.ensure_native(f)),
                    Lower => {}
                }
            }
            seen
        };
        for (steps, want) in [
            // Decoded before the write: stale until the flush.
            (&[Lower, Call, Write, Call, Flush, Call][..], &[1, 1, 2][..]),
            // Lowered after an unflushed write over a decoded body: the
            // region must take the stale decode, not the new bytes.
            (&[Call, Write, Lower, Call], &[1, 1]),
            // Written after lowering but before any fetch: the first
            // fetch sees the new bytes, so the region must not run.
            (&[Lower, Write, Call], &[2]),
            // A flush elsewhere moves the flush epoch but not `f`'s
            // code version: the decode of `f` stays stale.
            (&[Lower, Call, Write, FlushOther, Call], &[1, 1]),
        ] {
            for tier in [
                ExecTier::Tierless,
                ExecTier::Block,
                ExecTier::Superblock,
                ExecTier::Native,
            ] {
                assert_eq!(run(tier, steps), want, "{tier}");
            }
        }
    }
}
