//! The variational interpreter.
//!
//! One [`Vexec`] pass executes a call under *every* switch assignment at
//! once. Machine state lives in per-configuration contexts (`Ctx`),
//! each keyed by a [`LeafSet`] of the configurations it stands for; a
//! context's registers, compare operands, output bytes and memory
//! overlay are [`Val`]s — concrete, or tabulated over one switch.
//!
//! **Split.** Two things force a context apart: a conditional branch
//! whose outcome differs across the live values of a switch (the
//! children retire the branch and continue at their respective targets),
//! and an instruction that cannot stay variational — a division whose
//! divisor is zero in some configurations, an address or call target
//! derived from a switch, or an operation mixing two switches. The
//! latter *materializes*: the context splits into one child per live
//! value (making that switch concrete) and the instruction re-executes.
//!
//! **Join.** When the arms of a split return out of the function that
//! split them (the call boundary approximates the branch's
//! post-dominator), siblings at the same pc/depth re-merge if their leaf
//! sets differ in exactly one switch and every diverging state component
//! can be re-expressed as a [`Val::PerValue`] table over that switch.
//! A failed join is not an error — the contexts simply stay split, which
//! is sound but forfeits sharing. Split siblings share the memory bytes
//! written before their split, so a split and the join after it cost
//! what the siblings wrote in between, not the size of the overlay.
//!
//! **Memory.** A context's writes live in its overlay (the private
//! `overlay` module): page-sized chunks of concrete bytes with a written
//! and a variational bit per byte, in a part frozen at the last split and
//! a part of its own. A load inside one page whose bytes are all concrete
//! in one part, or that reads only the base image outside every switch
//! cell, costs one check; so does a concrete store inside one page.
//! Everything else — variational bytes, switch cells, accesses split
//! between parts or straddling a page — reads and writes byte by byte,
//! with exactly the per-byte semantics. A store faults where
//! [`Memory::write`] would, at the first byte of the first page it may
//! not write.
//!
//! **Bail.** `rdtsc` is refused outright ([`VexecError::Unsupported`]):
//! cycle counts are configuration-dependent in ways the shared pass does
//! not model, so timing questions must fall back to enumeration. A fault
//! that is concrete across a context's configurations aborts the pass
//! with the label of one offending configuration.

use std::fmt;

use mvasm::{AluOp, Insn, Reg};
use mvtrace::{EventKind, TraceRing};
use mvvm::fx::FxHashMap;
use mvvm::machine::{HC_CLI, HC_STI, RET_SENTINEL};
use mvvm::mem::{extend, Access, MemError};
use mvvm::{Fault, Memory, Platform};

use crate::config::{ConfigSpace, LeafSet};
use crate::overlay::{Byte, Load, Overlay};
use crate::value::{NeedSplit, Val};

/// Maximum *shared* steps before a pass gives up with
/// [`VexecError::Fuel`]. One shared step may stand for thousands of
/// per-configuration instructions.
const FUEL: u64 = 50_000_000;

/// Work accounting for one pass.
#[derive(Clone, Copy, Default, Debug)]
pub struct VexecStats {
    /// Shared interpreter steps actually executed.
    pub steps: u64,
    /// What enumerate-and-rerun would have executed: each shared step
    /// weighted by the number of configurations it stood for.
    pub enum_equiv_insns: u64,
    /// Context splits (branch outcome divergence + materializations).
    pub splits: u64,
    /// Successful sibling joins.
    pub joins: u64,
    /// Leaves covered (always the full cross product on success).
    pub leaf_count: u64,
    /// High-water mark of simultaneously live contexts.
    pub max_live: u64,
    /// Total child contexts ever created by splits.
    pub contexts_spawned: u64,
}

impl VexecStats {
    /// How many enumerated instructions each shared step replaced —
    /// the speedup of the variational pass over enumerate-and-rerun,
    /// counted in instructions.
    pub fn shared_prefix_ratio(&self) -> f64 {
        self.enum_equiv_insns as f64 / self.steps.max(1) as f64
    }
}

/// The observation of one leaf configuration at the end of the pass.
#[derive(Clone, Debug)]
pub struct VexecLeaf {
    /// Leaf index in the [`ConfigSpace`].
    pub leaf: usize,
    /// The switch assignment, `(name, value)` in switch order.
    pub assignment: Vec<(String, i64)>,
    /// Return value (`r0`).
    pub exit: u64,
    /// Final register file.
    pub regs: [u64; Reg::COUNT],
    /// Final compare operands.
    pub cmp: (u64, u64),
    /// Final interrupt-enable flag.
    pub if_flag: bool,
    /// `true` if the program halted instead of returning.
    pub halted: bool,
    /// Bytes written to the output sink, in order.
    pub out: Vec<u8>,
    /// Every memory byte the program wrote, `(addr, value)` ascending.
    pub writes: Vec<(u64, u8)>,
}

/// The result of a successful pass: one observation per leaf, plus the
/// work accounting.
#[derive(Clone, Debug)]
pub struct VexecReport {
    /// Per-leaf observations, sorted by leaf index; covers the full
    /// cross product.
    pub leaves: Vec<VexecLeaf>,
    /// Work accounting.
    pub stats: VexecStats,
}

/// Why a pass could not complete.
#[derive(Clone, Debug)]
pub enum VexecError {
    /// An instruction the variational pass refuses to model.
    Unsupported {
        /// Address of the instruction.
        pc: u64,
        /// What it was.
        what: &'static str,
    },
    /// The program faulted; `label` names one affected configuration.
    Fault {
        /// The underlying machine fault.
        fault: Fault,
        /// `name=value,...` label of a configuration that faults.
        label: String,
    },
    /// The shared-step budget ran out.
    Fuel {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// Internal invariant breach: terminal contexts did not cover the
    /// cross product.
    Incomplete {
        /// Number of uncovered leaves.
        missing: usize,
    },
}

impl fmt::Display for VexecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VexecError::Unsupported { pc, what } => {
                write!(
                    f,
                    "vexec cannot model {what} at {pc:#x}; fall back to enumeration"
                )
            }
            VexecError::Fault { fault, label } => {
                write!(f, "fault under configuration {label}: {fault}")
            }
            VexecError::Fuel { steps } => write!(f, "vexec fuel exhausted after {steps} steps"),
            VexecError::Incomplete { missing } => {
                write!(f, "vexec lost {missing} leaves of the cross product")
            }
        }
    }
}

impl std::error::Error for VexecError {}

/// How a context ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Terminal {
    /// Returned through the call sentinel.
    Ret,
    /// Retired `halt`.
    Halt,
}

/// One variational context: the state of some subset of configurations.
struct Ctx {
    leaves: LeafSet,
    regs: [Val; Reg::COUNT],
    cmp: (Val, Val),
    if_flag: bool,
    pc: u64,
    /// Call depth relative to the vexec'd entry (call +1, ret −1). The
    /// scheduler suspends a context when its depth drops below the
    /// horizon of the split that created it — the join point.
    depth: i64,
    /// Every byte the context wrote over the base image. Bytes frozen
    /// at a split keep the splitting context's tables; reads restrict
    /// them to this context's leaves.
    overlay: Overlay,
    out: Vec<Val>,
    terminal: Option<Terminal>,
}

impl Ctx {
    /// A child over `leaves`, a subset of this (frozen) context's: value
    /// tables in registers and output are pruned, the overlay is shared.
    fn child(&self, space: &ConfigSpace, leaves: LeafSet) -> Ctx {
        debug_assert!(self.overlay.is_frozen(), "split before freeze");
        Ctx {
            regs: std::array::from_fn(|i| self.regs[i].restrict(space, &leaves)),
            cmp: (
                self.cmp.0.restrict(space, &leaves),
                self.cmp.1.restrict(space, &leaves),
            ),
            overlay: self.overlay.child(),
            out: self
                .out
                .iter()
                .map(|v| v.restrict(space, &leaves))
                .collect(),
            leaves,
            if_flag: self.if_flag,
            pc: self.pc,
            depth: self.depth,
            terminal: self.terminal,
        }
    }
}

/// Why one instruction could not retire in the current context. Aborts
/// leave the context unmodified, so [`Abort::Split`] can safely
/// re-execute the instruction in the children.
enum Abort {
    /// Materialize this switch and retry.
    Split(usize),
    /// A machine fault, concrete for every configuration of the context.
    Fault(Fault),
    /// An instruction vexec refuses to model.
    Unsupported(&'static str),
}

impl From<NeedSplit> for Abort {
    fn from(n: NeedSplit) -> Abort {
        Abort::Split(n.sw)
    }
}

impl From<MemError> for Abort {
    fn from(e: MemError) -> Abort {
        Abort::Fault(Fault::Mem(e))
    }
}

/// Outcome of one shared step.
enum Step {
    /// The instruction retired; the context advanced.
    Retired,
    /// The context ended (sentinel return or halt).
    Terminal,
    /// The context split; the children replace it.
    Split(Vec<Ctx>),
}

/// The variational execution engine. Borrows the base memory image
/// read-only: all writes land in per-context overlays, so a pass never
/// perturbs the machine it inspects.
pub struct Vexec<'a> {
    mem: &'a Memory,
    space: &'a ConfigSpace,
    platform: Platform,
    trace: Option<&'a mut TraceRing>,
    decode_cache: FxHashMap<u64, Insn>,
    /// The first and last byte of the switch cells, if any: an access
    /// outside that range reads no cell.
    cells: Option<(u64, u64)>,
    stats: VexecStats,
    live: u64,
}

/// The last byte of the `width`-byte access at `addr`. A range running
/// past the end of the address space faults as unmapped at `addr`, as
/// in the VM.
fn last_byte(addr: u64, width: usize, access: Access) -> Result<u64, Abort> {
    addr.checked_add(width as u64 - 1)
        .ok_or(Abort::Fault(Fault::Mem(MemError {
            addr,
            access,
            mapped: false,
        })))
}

fn want_concrete(v: &Val) -> Result<u64, Abort> {
    match v {
        Val::Concrete(x) => Ok(*x),
        Val::PerValue { sw, .. } => Err(Abort::Split(*sw)),
    }
}

/// Folds two sibling values into one table over switch `s`, given each
/// side's live value indices. `None` means the pair is not joinable.
fn merge_val(a: &Val, b: &Val, s: usize, da: &[usize], db: &[usize]) -> Option<Val> {
    if a == b {
        return Some(a.clone());
    }
    let expand = |v: &Val, ds: &[usize]| -> Option<Vec<(usize, u64)>> {
        match v {
            Val::Concrete(c) => Some(ds.iter().map(|&i| (i, *c)).collect()),
            Val::PerValue { sw, vals } if *sw == s => Some(vals.clone()),
            Val::PerValue { .. } => None,
        }
    };
    let mut table = expand(a, da)?;
    table.extend(expand(b, db)?);
    Some(Val::per_value(s, table))
}

impl<'a> Vexec<'a> {
    /// Creates an engine over a base memory image and a configuration
    /// space, with the platform deciding hypercall semantics.
    pub fn new(mem: &'a Memory, space: &'a ConfigSpace, platform: Platform) -> Vexec<'a> {
        let cells = space.switches().iter().fold(None, |span, sw| {
            let last = sw.addr + sw.width as u64 - 1;
            let (lo, hi) = span.unwrap_or((sw.addr, last));
            Some((lo.min(sw.addr), hi.max(last)))
        });
        Vexec {
            mem,
            space,
            platform,
            trace: None,
            decode_cache: FxHashMap::default(),
            cells,
            stats: VexecStats::default(),
            live: 0,
        }
    }

    /// Attaches a trace ring; split/join/leaf events land there.
    pub fn with_trace(mut self, ring: &'a mut TraceRing) -> Vexec<'a> {
        self.trace = Some(ring);
        self
    }

    /// Runs `entry(args...)` under every configuration at once,
    /// mirroring `Machine::call`: `args` land in `r0..`, a return
    /// sentinel is pushed, and the pass ends when every context has
    /// returned through it (or halted).
    pub fn run_call(
        &mut self,
        entry: u64,
        args: &[u64],
        regs0: &[u64; Reg::COUNT],
        if_flag: bool,
    ) -> Result<VexecReport, VexecError> {
        assert!(args.len() <= 6, "at most 6 register arguments");
        self.stats = VexecStats::default();
        self.live = 1;
        self.stats.max_live = 1;
        self.decode_cache.clear();
        let mut regs: [Val; Reg::COUNT] = std::array::from_fn(|i| Val::Concrete(regs0[i]));
        for (i, &a) in args.iter().enumerate() {
            regs[i] = Val::Concrete(a);
        }
        let mut ctx = Ctx {
            leaves: self.space.full_set(),
            regs,
            cmp: (Val::Concrete(0), Val::Concrete(0)),
            if_flag,
            pc: entry,
            depth: 0,
            overlay: Overlay::default(),
            out: Vec::new(),
            terminal: None,
        };
        if let Err(e) = self.push(&mut ctx, Val::Concrete(RET_SENTINEL)) {
            return Err(self.abort_to_error(e, &ctx));
        }
        let pool = self.run(ctx, i64::MIN)?;
        self.finalize(pool)
    }

    fn abort_to_error(&self, e: Abort, ctx: &Ctx) -> VexecError {
        match e {
            Abort::Fault(fault) => VexecError::Fault {
                fault,
                label: self.space.label(ctx.leaves.first().unwrap_or(0)),
            },
            Abort::Unsupported(what) => VexecError::Unsupported { pc: ctx.pc, what },
            Abort::Split(_) => VexecError::Incomplete { missing: 0 },
        }
    }

    /// Runs `ctx` until it terminates or its depth drops below
    /// `horizon` (the join point of the split that created it).
    /// Returns every terminal/suspended context that descends from it.
    fn run(&mut self, mut ctx: Ctx, horizon: i64) -> Result<Vec<Ctx>, VexecError> {
        let mut out: Vec<Ctx> = Vec::new();
        let mut weight = ctx.leaves.count() as u64;
        loop {
            if ctx.terminal.is_some() || ctx.depth < horizon {
                out.push(ctx);
                self.try_merge(&mut out);
                return Ok(out);
            }
            match self.step(&mut ctx, weight)? {
                Step::Retired => {}
                Step::Terminal => {
                    out.push(ctx);
                    return Ok(out);
                }
                Step::Split(children) => {
                    let here = ctx.depth;
                    let mut pool: Vec<Ctx> = Vec::new();
                    for child in children {
                        pool.extend(self.run(child, here)?);
                    }
                    self.try_merge(&mut pool);
                    let mut live: Vec<Ctx> = Vec::new();
                    for c in pool {
                        if c.terminal.is_some() || c.depth < horizon {
                            out.push(c);
                        } else {
                            live.push(c);
                        }
                    }
                    if live.len() == 1 && out.is_empty() {
                        // Fully re-joined: continue sharing in this frame.
                        ctx = live.pop().expect("len checked");
                        weight = ctx.leaves.count() as u64;
                        continue;
                    }
                    for c in live {
                        out.extend(self.run(c, horizon)?);
                    }
                    self.try_merge(&mut out);
                    return Ok(out);
                }
            }
        }
    }

    /// One shared step of `ctx`, which stands for `weight`
    /// configurations: execute, or turn an [`Abort`] into a
    /// materializing split / pass error.
    fn step(&mut self, ctx: &mut Ctx, weight: u64) -> Result<Step, VexecError> {
        if self.stats.steps >= FUEL {
            return Err(VexecError::Fuel {
                steps: self.stats.steps,
            });
        }
        match self.exec(ctx) {
            Ok(step) => {
                // The instruction retired exactly once for every
                // configuration the context stands for (a splitting
                // branch still retired once, shared, in the parent).
                self.stats.steps += 1;
                self.stats.enum_equiv_insns += weight;
                Ok(step)
            }
            Err(Abort::Split(sw)) => Ok(self.materialize(ctx, sw)),
            Err(e) => Err(self.abort_to_error(e, ctx)),
        }
    }

    /// Splits `ctx` into one child per live value of `sw`, at the same
    /// pc — the aborted instruction re-executes with the switch
    /// concrete.
    fn materialize(&mut self, ctx: &mut Ctx, sw: usize) -> Step {
        ctx.overlay.freeze();
        let digits = self.space.live_digits(&ctx.leaves, sw);
        let children: Vec<Ctx> = digits
            .iter()
            .map(|&i| ctx.child(self.space, self.space.mask(sw, i).intersect(&ctx.leaves)))
            .collect();
        self.record_split(ctx.pc, sw, children.len());
        Step::Split(children)
    }

    fn record_split(&mut self, pc: u64, sw: usize, arms: usize) {
        self.stats.splits += 1;
        self.stats.contexts_spawned += arms as u64;
        self.live += arms as u64 - 1;
        self.stats.max_live = self.stats.max_live.max(self.live);
        let addr = self.space.switches()[sw].addr;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(EventKind::VexecSplit {
                pc,
                switch: addr,
                arms: arms as u32,
            });
        }
    }

    /// Pairwise sibling merging to a fixpoint.
    fn try_merge(&mut self, pool: &mut Vec<Ctx>) {
        loop {
            let mut merged = None;
            'scan: for i in 0..pool.len() {
                for j in i + 1..pool.len() {
                    if let Some((m, sw)) = self.merge_pair(&pool[i], &pool[j]) {
                        merged = Some((i, j, m, sw));
                        break 'scan;
                    }
                }
            }
            match merged {
                Some((i, j, m, sw)) => {
                    let pc = m.pc;
                    pool[i] = m;
                    pool.swap_remove(j);
                    self.stats.joins += 1;
                    self.live -= 1;
                    let addr = self.space.switches()[sw].addr;
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.record(EventKind::VexecJoin {
                            pc,
                            switch: addr,
                            parties: 2,
                        });
                    }
                }
                None => return,
            }
        }
    }

    /// Tries to fold two contexts back into one. They must sit at the
    /// same pc/depth with the same control state, and their leaf sets
    /// must differ in exactly one switch whose table can absorb every
    /// diverging component.
    fn merge_pair(&self, a: &Ctx, b: &Ctx) -> Option<(Ctx, usize)> {
        if a.terminal.is_some() || b.terminal.is_some() {
            return None;
        }
        if a.pc != b.pc
            || a.depth != b.depth
            || a.if_flag != b.if_flag
            || a.out.len() != b.out.len()
        {
            return None;
        }
        for s in 0..self.space.switches().len() {
            if self.space.project_digit0(&a.leaves, s) != self.space.project_digit0(&b.leaves, s) {
                continue;
            }
            if let Some(m) = self.merge_over(a, b, s) {
                return Some((m, s));
            }
        }
        None
    }

    fn merge_over(&self, a: &Ctx, b: &Ctx, s: usize) -> Option<Ctx> {
        let da = self.space.live_digits(&a.leaves, s);
        let db = self.space.live_digits(&b.leaves, s);
        debug_assert!(da.iter().all(|d| !db.contains(d)), "sibling digits overlap");
        let mut regs: Vec<Val> = Vec::with_capacity(Reg::COUNT);
        for (ra, rb) in a.regs.iter().zip(&b.regs) {
            regs.push(merge_val(ra, rb, s, &da, &db)?);
        }
        let cmp = (
            merge_val(&a.cmp.0, &b.cmp.0, s, &da, &db)?,
            merge_val(&a.cmp.1, &b.cmp.1, s, &da, &db)?,
        );
        let mut out = Vec::with_capacity(a.out.len());
        for (x, y) in a.out.iter().zip(&b.out) {
            out.push(merge_val(x, y, s, &da, &db)?);
        }
        // Contexts holding one frozen part see the same byte wherever
        // neither wrote since it froze, and that byte restricted to each
        // side merges back into itself; any other pair merges every byte.
        let mut overlay = if a.overlay.shares_frozen(&b.overlay) {
            a.overlay.child()
        } else {
            Overlay::default()
        };
        for addr in Overlay::join_addrs(&a.overlay, &b.overlay) {
            // A byte one side never wrote still has a value there — the
            // symbolic-or-base read the other side would see.
            let va = self.read_byte(a, addr).ok()?;
            let vb = self.read_byte(b, addr).ok()?;
            overlay.set(addr, merge_val(&va, &vb, s, &da, &db)?);
        }
        Some(Ctx {
            leaves: a.leaves.union(&b.leaves),
            regs: regs.try_into().expect("register count"),
            cmp,
            if_flag: a.if_flag,
            pc: a.pc,
            depth: a.depth,
            overlay,
            out,
            terminal: None,
        })
    }

    /// Expands terminal contexts into per-leaf observations and checks
    /// the cross product is fully covered.
    fn finalize(&mut self, pool: Vec<Ctx>) -> Result<VexecReport, VexecError> {
        let n = self.space.leaf_count();
        let mut coverage = LeafSet::empty(n);
        let mut leaves: Vec<VexecLeaf> = Vec::with_capacity(n);
        for ctx in &pool {
            if ctx.terminal.is_none() {
                return Err(VexecError::Incomplete { missing: n });
            }
            let sp = self.space;
            let written = ctx.overlay.written();
            for leaf in ctx.leaves.iter() {
                debug_assert!(!coverage.contains(leaf), "terminal contexts overlap");
                coverage.insert(leaf);
                let regs: [u64; Reg::COUNT] = std::array::from_fn(|i| ctx.regs[i].at(sp, leaf));
                let vl = VexecLeaf {
                    leaf,
                    assignment: sp.assignment(leaf),
                    exit: regs[0],
                    regs,
                    cmp: (ctx.cmp.0.at(sp, leaf), ctx.cmp.1.at(sp, leaf)),
                    if_flag: ctx.if_flag,
                    halted: ctx.terminal == Some(Terminal::Halt),
                    out: ctx.out.iter().map(|v| v.at(sp, leaf) as u8).collect(),
                    writes: written
                        .iter()
                        .map(|&(a, b)| match b {
                            Byte::Concrete(x) => (a, x),
                            Byte::Var(v) => (a, v.at(sp, leaf) as u8),
                        })
                        .collect(),
                };
                if let Some(t) = self.trace.as_deref_mut() {
                    t.record(EventKind::VexecLeaf {
                        leaf: leaf as u64,
                        configs: ctx.leaves.count() as u64,
                        exit: vl.exit,
                    });
                }
                leaves.push(vl);
            }
        }
        let missing = n - coverage.count();
        if missing > 0 {
            return Err(VexecError::Incomplete { missing });
        }
        leaves.sort_by_key(|l| l.leaf);
        self.stats.leaf_count = n as u64;
        Ok(VexecReport {
            leaves,
            stats: self.stats,
        })
    }

    // ---- memory -----------------------------------------------------

    fn decode(&mut self, ctx: &Ctx, pc: u64) -> Result<Insn, Abort> {
        if ctx.overlay.any_written(pc, pc.saturating_add(16)) {
            return Err(Abort::Unsupported("self-modifying code"));
        }
        if let Some(i) = self.decode_cache.get(&pc) {
            return Ok(*i);
        }
        let insn = self.mem.fetch_insn(pc).map_err(Abort::Fault)?;
        self.decode_cache.insert(pc, insn);
        Ok(insn)
    }

    /// `true` if `addr..=last` may read a switch cell.
    fn near_cells(&self, addr: u64, last: u64) -> bool {
        self.cells.is_some_and(|(lo, hi)| addr <= hi && lo <= last)
    }

    /// One memory byte as the context sees it: its own bytes first, then
    /// its frozen ones (restricted to its leaves), then the symbolic view
    /// of a switch cell, then the shared base.
    fn read_byte(&self, ctx: &Ctx, addr: u64) -> Result<Val, Abort> {
        if let Some(b) = ctx.overlay.own_byte(addr) {
            return Ok(b.to_val());
        }
        if let Some(b) = ctx.overlay.frozen_byte(addr) {
            return Ok(match b {
                Byte::Concrete(x) => Val::Concrete(x as u64),
                Byte::Var(v) => v.restrict(self.space, &ctx.leaves),
            });
        }
        if self.near_cells(addr, addr) {
            for (s, sw) in self.space.switches().iter().enumerate() {
                if addr >= sw.addr && addr < sw.addr + sw.width as u64 {
                    let shift = 8 * (addr - sw.addr) as u32;
                    let vals = self
                        .space
                        .live_digits(&ctx.leaves, s)
                        .into_iter()
                        .map(|i| (i, (sw.values[i] as u64 >> shift) & 0xFF))
                        .collect();
                    return Ok(Val::per_value(s, vals));
                }
            }
        }
        self.mem
            .read_uint(addr, 1)
            .map(Val::Concrete)
            .map_err(Abort::from)
    }

    /// The `width`-byte load at `addr`. An access inside one chunk of the
    /// overlay that reads only concrete bytes of one part, or only the
    /// base image outside every switch cell, costs one check; any other
    /// reads byte by byte.
    fn read_mem(&self, ctx: &Ctx, addr: u64, width: usize) -> Result<Val, Abort> {
        let last = last_byte(addr, width, Access::Read)?;
        match ctx.overlay.load(addr, width) {
            Load::Concrete(v) => return Ok(Val::Concrete(v)),
            // One chunk is one page, so this read faults where the
            // byte-by-byte one would.
            Load::Untouched if !self.near_cells(addr, last) => {
                return Ok(Val::Concrete(self.mem.read_uint(addr, width)?));
            }
            Load::Untouched | Load::Bytes => {}
        }
        let mut acc = Val::Concrete(0);
        for j in 0..width {
            let b = self.read_byte(ctx, addr + j as u64)?;
            let shift = 8 * j as u32;
            acc = Val::zip(&acc, &b, |a, x| a | (x << shift))?;
        }
        Ok(acc)
    }

    /// Stores the low `width` bytes of `val` at `addr`, faulting exactly
    /// where [`Memory::write`] would.
    fn write_mem(&self, ctx: &mut Ctx, addr: u64, val: Val, width: usize) -> Result<(), Abort> {
        self.mem.check_write(addr, width)?;
        ctx.overlay.store(addr, &val, width);
        Ok(())
    }

    fn push(&self, ctx: &mut Ctx, v: Val) -> Result<(), Abort> {
        let sp = want_concrete(&ctx.regs[Reg::SP.index()])?.wrapping_sub(8);
        self.write_mem(ctx, sp, v, 8)?;
        ctx.regs[Reg::SP.index()] = Val::Concrete(sp);
        Ok(())
    }

    fn pop(&self, ctx: &mut Ctx) -> Result<Val, Abort> {
        let sp = want_concrete(&ctx.regs[Reg::SP.index()])?;
        let v = self.read_mem(ctx, sp, 8)?;
        ctx.regs[Reg::SP.index()] = Val::Concrete(sp.wrapping_add(8));
        Ok(v)
    }

    fn alu(&self, op: AluOp, a: &Val, b: &Val, at: u64) -> Result<Val, Abort> {
        if op.divides() {
            match b {
                Val::Concrete(0) => return Err(Abort::Fault(Fault::DivByZero { addr: at })),
                Val::PerValue { sw, vals } if vals.iter().any(|&(_, v)| v == 0) => {
                    // Fault-divergent: some configurations divide by
                    // zero. Materialize; the zero-divisor child then
                    // faults concretely.
                    return Err(Abort::Split(*sw));
                }
                _ => {}
            }
        }
        Ok(Val::zip(a, b, |x, y| {
            op.eval(x, y).expect("zero divisors are screened above")
        })?)
    }

    // ---- the interpreter --------------------------------------------

    /// Executes one instruction variationally. On [`Err`], `ctx` is
    /// untouched.
    fn exec(&mut self, ctx: &mut Ctx) -> Result<Step, Abort> {
        let pc = ctx.pc;
        let insn = self.decode(ctx, pc)?;
        if matches!(insn, Insn::Trap) {
            return Err(Abort::Fault(Fault::Trap { addr: pc }));
        }
        let next = pc + insn.len() as u64;
        let mut new_pc = next;
        match insn {
            Insn::MovRR { dst, src } => {
                let v = ctx.regs[src.index()].clone();
                ctx.regs[dst.index()] = v;
            }
            Insn::MovRI { dst, imm } => ctx.regs[dst.index()] = Val::Concrete(imm as u64),
            Insn::Lea { dst, addr } => ctx.regs[dst.index()] = Val::Concrete(addr),
            Insn::Load {
                dst,
                base,
                off,
                width,
                signed,
            } => {
                let a = ctx.regs[base.index()].map(|v| v.wrapping_add(off as i64 as u64));
                let a = want_concrete(&a)?;
                let raw = self.read_mem(ctx, a, width.bytes())?;
                ctx.regs[dst.index()] = raw.map(|r| extend(r, width.bytes(), signed) as u64);
            }
            Insn::Store {
                src,
                base,
                off,
                width,
            } => {
                let a = ctx.regs[base.index()].map(|v| v.wrapping_add(off as i64 as u64));
                let a = want_concrete(&a)?;
                let v = ctx.regs[src.index()].clone();
                self.write_mem(ctx, a, v, width.bytes())?;
            }
            Insn::LoadAbs {
                dst,
                addr,
                width,
                signed,
            } => {
                let raw = self.read_mem(ctx, addr, width.bytes())?;
                ctx.regs[dst.index()] = raw.map(|r| extend(r, width.bytes(), signed) as u64);
            }
            Insn::StoreAbs { src, addr, width } => {
                let v = ctx.regs[src.index()].clone();
                self.write_mem(ctx, addr, v, width.bytes())?;
            }
            Insn::AluRR { op, dst, src } => {
                let v = self.alu(op, &ctx.regs[dst.index()], &ctx.regs[src.index()], pc)?;
                ctx.regs[dst.index()] = v;
            }
            Insn::AluRI { op, dst, imm } => {
                let v = self.alu(op, &ctx.regs[dst.index()], &Val::Concrete(imm as u64), pc)?;
                ctx.regs[dst.index()] = v;
            }
            Insn::CmpRR { a, b } => {
                ctx.cmp = (ctx.regs[a.index()].clone(), ctx.regs[b.index()].clone());
            }
            Insn::CmpRI { a, imm } => {
                ctx.cmp = (ctx.regs[a.index()].clone(), Val::Concrete(imm as u64));
            }
            Insn::Setcc { cc, dst } => {
                let v = Val::zip(&ctx.cmp.0, &ctx.cmp.1, |a, b| cc.eval(a, b) as u64)?;
                ctx.regs[dst.index()] = v;
            }
            Insn::Jmp { rel } => new_pc = next.wrapping_add(rel as i64 as u64),
            Insn::Jcc { cc, rel } => {
                let t = Val::zip(&ctx.cmp.0, &ctx.cmp.1, |a, b| cc.eval(a, b) as u64)?;
                match t {
                    Val::Concrete(v) => {
                        if v == 1 {
                            new_pc = next.wrapping_add(rel as i64 as u64);
                        }
                    }
                    Val::PerValue { sw, vals } => {
                        let target = next.wrapping_add(rel as i64 as u64);
                        let children = self.branch_split(ctx, sw, &vals, target, next);
                        return Ok(Step::Split(children));
                    }
                }
            }
            Insn::CallRel { rel } => {
                self.push(ctx, Val::Concrete(next))?;
                ctx.depth += 1;
                new_pc = next.wrapping_add(rel as i64 as u64);
            }
            Insn::CallInd { target } => {
                let t = want_concrete(&ctx.regs[target.index()])?;
                self.push(ctx, Val::Concrete(next))?;
                ctx.depth += 1;
                new_pc = t;
            }
            Insn::CallMem { addr } => {
                let t = self.read_mem(ctx, addr, 8)?;
                let t = want_concrete(&t)?;
                self.push(ctx, Val::Concrete(next))?;
                ctx.depth += 1;
                new_pc = t;
            }
            Insn::Push { src } => {
                let v = ctx.regs[src.index()].clone();
                self.push(ctx, v)?;
            }
            Insn::Pop { dst } => {
                let v = self.pop(ctx)?;
                ctx.regs[dst.index()] = v;
            }
            Insn::Ret => {
                let sp = want_concrete(&ctx.regs[Reg::SP.index()])?;
                let t = self.read_mem(ctx, sp, 8)?;
                let t = want_concrete(&t)?;
                ctx.regs[Reg::SP.index()] = Val::Concrete(sp.wrapping_add(8));
                if t == RET_SENTINEL {
                    ctx.pc = RET_SENTINEL;
                    ctx.terminal = Some(Terminal::Ret);
                    return Ok(Step::Terminal);
                }
                ctx.depth -= 1;
                new_pc = t;
            }
            Insn::Halt => {
                ctx.terminal = Some(Terminal::Halt);
                return Ok(Step::Terminal);
            }
            Insn::Sti | Insn::Cli => ctx.if_flag = matches!(insn, Insn::Sti),
            Insn::Hypercall { nr } => {
                if self.platform == Platform::Native {
                    return Err(Abort::Fault(Fault::InvalidHypercall { addr: pc, nr }));
                }
                match nr {
                    HC_STI => ctx.if_flag = true,
                    HC_CLI => ctx.if_flag = false,
                    _ => return Err(Abort::Fault(Fault::InvalidHypercall { addr: pc, nr })),
                }
            }
            Insn::Rdtsc { .. } => {
                return Err(Abort::Unsupported(
                    "rdtsc (timing is configuration-dependent)",
                ))
            }
            Insn::Pause | Insn::Mfence | Insn::Nop { .. } => {}
            Insn::Out { src } => {
                let v = ctx.regs[src.index()].map(|x| x & 0xFF);
                ctx.out.push(v);
            }
            Insn::XchgLock { val, base } => {
                let a = want_concrete(&ctx.regs[base.index()])?;
                let old = self.read_mem(ctx, a, 8)?;
                let v = ctx.regs[val.index()].clone();
                self.write_mem(ctx, a, v, 8)?;
                ctx.regs[val.index()] = old;
            }
            Insn::Trap => unreachable!("trap aborts before dispatch"),
        }
        ctx.pc = new_pc;
        Ok(Step::Retired)
    }

    /// Splits a context at a configuration-dependent branch: the branch
    /// retires once, shared; the children continue at the taken /
    /// fall-through pcs with their leaf subsets.
    fn branch_split(
        &mut self,
        ctx: &mut Ctx,
        sw: usize,
        outcomes: &[(usize, u64)],
        taken_pc: u64,
        fall_pc: u64,
    ) -> Vec<Ctx> {
        ctx.overlay.freeze();
        let n = self.space.leaf_count();
        let mut taken = LeafSet::empty(n);
        let mut fall = LeafSet::empty(n);
        for &(idx, v) in outcomes {
            let m = self.space.mask(sw, idx);
            if v == 1 {
                taken = taken.union(m);
            } else {
                fall = fall.union(m);
            }
        }
        let mut children = Vec::new();
        for (set, pc) in [(taken, taken_pc), (fall, fall_pc)] {
            let set = set.intersect(&ctx.leaves);
            if set.is_empty() {
                continue;
            }
            let mut c = ctx.child(self.space, set);
            c.pc = pc;
            children.push(c);
        }
        self.record_split(ctx.pc, sw, children.len());
        children
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchDomain;
    use mvasm::{encode_into, Cond, Width};
    use mvobj::Prot;

    const CODE: u64 = 0x1000;
    const SWITCH: u64 = 0x2000;
    const SCRATCH: u64 = 0x3000;
    const STACK_TOP: u64 = mvvm::machine::STACK_TOP;

    fn setup(code: &[Insn], domains: Vec<SwitchDomain>) -> (Memory, ConfigSpace) {
        let mut mem = Memory::new();
        let mut bytes = Vec::new();
        for i in code {
            encode_into(i, &mut bytes);
        }
        mem.map(CODE, bytes.len().max(1) as u64, Prot::RX);
        mem.write_unchecked(CODE, &bytes);
        mem.map(SWITCH, 4096, Prot::RW);
        mem.map(STACK_TOP - 0x10000, 0x10000, Prot::RW);
        let space = ConfigSpace::new(domains).unwrap();
        (mem, space)
    }

    fn domain(values: &[i64]) -> SwitchDomain {
        SwitchDomain {
            name: "sw".into(),
            addr: SWITCH,
            width: 4,
            signed: true,
            values: values.to_vec(),
        }
    }

    fn regs0() -> [u64; Reg::COUNT] {
        let mut r = [0u64; Reg::COUNT];
        r[Reg::SP.index()] = STACK_TOP;
        r
    }

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn straight_line_never_splits() {
        // r0 = sw * 10; no branch: one shared pass covers all leaves.
        let code = [
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::AluRI {
                op: AluOp::Mul,
                dst: r(1),
                imm: 10,
            },
            Insn::MovRR {
                dst: r(0),
                src: r(1),
            },
            Insn::Ret,
        ];
        let (mem, space) = setup(&code, vec![domain(&[1, 2, 3])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.leaves.len(), 3);
        for (leaf, want) in [(0u64, 10u64), (1, 20), (2, 30)] {
            assert_eq!(rep.leaves[leaf as usize].exit, want);
        }
        assert_eq!(rep.stats.splits, 0);
        assert!((rep.stats.shared_prefix_ratio() - 3.0).abs() < 1e-9);
    }

    /// `f` branches on the switch; lengths: LoadAbs 11, CmpRI 10, Jcc 6,
    /// MovRI 10, Ret 1.
    fn branchy_fn(at: u64) -> Vec<Insn> {
        let _ = at;
        vec![
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::CmpRI { a: r(1), imm: 0 },
            // taken → skip MovRI+Ret (11 bytes)
            Insn::Jcc {
                cc: Cond::Eq,
                rel: 11,
            },
            Insn::MovRI { dst: r(0), imm: 9 },
            Insn::Ret,
            Insn::MovRI { dst: r(0), imm: 5 },
            Insn::Ret,
        ]
    }

    #[test]
    fn branch_splits_and_covers_all_leaves() {
        let (mem, space) = setup(&branchy_fn(CODE), vec![domain(&[0, 1, 2])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.leaves.len(), 3);
        assert_eq!(rep.leaves[0].exit, 5); // sw=0 takes the branch
        assert_eq!(rep.leaves[1].exit, 9);
        assert_eq!(rep.leaves[2].exit, 9);
        assert_eq!(rep.stats.splits, 1);
        // Top-frame split: arms return straight through the sentinel,
        // so there is nothing to join.
        assert_eq!(rep.stats.joins, 0);
    }

    #[test]
    fn callee_split_rejoins_at_return() {
        // main: call f; call f; ret — the split inside f merges back at
        // each return, so the second call shares the prefix again.
        let f_at = CODE + 0x40;
        let mut main = vec![
            Insn::CallRel {
                rel: (f_at - (CODE + 5)) as i32,
            },
            Insn::CallRel {
                rel: (f_at - (CODE + 10)) as i32,
            },
            Insn::Ret,
        ];
        // Pad to f's address.
        let main_len: usize = main.iter().map(|i| i.len()).sum();
        for _ in 0..(f_at - CODE) as usize - main_len {
            main.push(Insn::Nop { len: 1 });
        }
        main.extend(branchy_fn(f_at));
        let (mem, space) = setup(&main, vec![domain(&[0, 1])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.leaves.len(), 2);
        assert_eq!(rep.leaves[0].exit, 5);
        assert_eq!(rep.leaves[1].exit, 9);
        assert_eq!(rep.stats.splits, 2, "one split per call");
        assert_eq!(rep.stats.joins, 2, "one join per return");
        assert_eq!(rep.stats.max_live, 2);
    }

    #[test]
    fn store_load_roundtrip_keeps_variational_value() {
        // mem[SCRATCH] = sw; r0 = mem[SCRATCH] + 100.
        let code = [
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::StoreAbs {
                src: r(1),
                addr: SCRATCH,
                width: Width::W64,
            },
            Insn::LoadAbs {
                dst: r(0),
                addr: SCRATCH,
                width: Width::W64,
                signed: false,
            },
            Insn::AluRI {
                op: AluOp::Add,
                dst: r(0),
                imm: 100,
            },
            Insn::Ret,
        ];
        let (mut mem, space) = setup(&code, vec![domain(&[3, 7])]);
        mem.map(SCRATCH, 4096, Prot::RW);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.stats.splits, 0, "per-value stores do not split");
        assert_eq!(rep.leaves[0].exit, 103);
        assert_eq!(rep.leaves[1].exit, 107);
        // The write shows up in the per-leaf observation.
        assert!(rep.leaves[0].writes.contains(&(SCRATCH, 3)));
        assert!(rep.leaves[1].writes.contains(&(SCRATCH, 7)));
    }

    #[test]
    fn out_stream_is_per_configuration() {
        let code = [
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::Out { src: r(1) },
            Insn::Ret,
        ];
        let (mem, space) = setup(&code, vec![domain(&[65, 66])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.leaves[0].out, vec![65]);
        assert_eq!(rep.leaves[1].out, vec![66]);
        assert_eq!(rep.stats.splits, 0);
    }

    #[test]
    fn config_dependent_div_by_zero_faults_with_label() {
        let code = [
            Insn::MovRI { dst: r(0), imm: 10 },
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::AluRR {
                op: AluOp::Divu,
                dst: r(0),
                src: r(1),
            },
            Insn::Ret,
        ];
        let (mem, space) = setup(&code, vec![domain(&[0, 2])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let err = vx.run_call(CODE, &[], &regs0(), true).unwrap_err();
        match err {
            VexecError::Fault { fault, label } => {
                assert!(matches!(fault, Fault::DivByZero { .. }));
                assert_eq!(label, "sw=0");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn rdtsc_is_refused() {
        let code = [Insn::Rdtsc { dst: r(0) }, Insn::Ret];
        let (mem, space) = setup(&code, vec![domain(&[0, 1])]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let err = vx.run_call(CODE, &[], &regs0(), true).unwrap_err();
        assert!(matches!(err, VexecError::Unsupported { .. }));
    }

    /// The address one past `code` laid out from [`CODE`].
    fn end(code: &[Insn]) -> u64 {
        CODE + code.iter().map(|i| i.len() as u64).sum::<u64>()
    }

    /// Pads `code` with one-byte NOPs up to `addr`.
    fn pad_to(code: &mut Vec<Insn>, addr: u64) {
        while end(code) < addr {
            code.push(Insn::Nop { len: 1 });
        }
    }

    fn store_byte(imm: i64, addr: u64) -> [Insn; 2] {
        [
            Insn::MovRI { dst: r(2), imm },
            Insn::StoreAbs {
                src: r(2),
                addr,
                width: Width::W8,
            },
        ]
    }

    #[test]
    fn jump_into_stored_bytes_is_refused() {
        let target = CODE + 0x100;
        let jmp_to = |code: &[Insn]| Insn::Jmp {
            rel: (target - (end(code) + 5)) as i32,
        };
        // The store and the jump in one context.
        let mut direct = store_byte(0x90, target).to_vec();
        direct.push(jmp_to(&direct));
        // The store before a branch on the switch, the jump in both arms:
        // the stored byte predates the split that made the jumping child.
        let mut split = store_byte(0x90, target).to_vec();
        split.extend([
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::CmpRI { a: r(1), imm: 0 },
        ]);
        split.push(Insn::Jcc {
            cc: Cond::Eq,
            rel: (target - (end(&split) + 6)) as i32,
        });
        split.push(jmp_to(&split));
        for (code, splits) in [(direct, 0), (split, 1)] {
            let (mut mem, space) = setup(&code, vec![domain(&[0, 1])]);
            mem.map(CODE, 4096, Prot::RWX);
            let mut vx = Vexec::new(&mem, &space, Platform::Native);
            match vx.run_call(CODE, &[], &regs0(), true) {
                Err(VexecError::Unsupported { pc, what }) => {
                    assert_eq!((pc, what), (target, "self-modifying code"));
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
            assert_eq!(vx.stats.splits, splits);
        }
    }

    #[test]
    fn nested_split_rejoins_inner_siblings_first() {
        // main calls f; f branches on `a` and each arm stores its own
        // byte and calls g; g branches on `b` and each arm stores its own
        // byte. The two splits on `b` re-join as g returns, each pair
        // sharing what its arm of `a` wrote; the arms of `a` re-join as f
        // returns, each holding what a different split froze.
        let (a, b) = (SWITCH, SWITCH + 8);
        let (f_at, g_at) = (CODE + 0x40, CODE + 0x100);
        let mut code = vec![
            Insn::CallRel {
                rel: (f_at - (CODE + 5)) as i32,
            },
            Insn::Ret,
        ];
        let branch = |code: &mut Vec<Insn>, cell: u64, arm_len: u64| {
            code.extend([
                Insn::LoadAbs {
                    dst: r(1),
                    addr: cell,
                    width: Width::W32,
                    signed: true,
                },
                Insn::CmpRI { a: r(1), imm: 0 },
                Insn::Jcc {
                    cc: Cond::Eq,
                    rel: arm_len as i32,
                },
            ]);
        };
        pad_to(&mut code, f_at);
        // Each arm of f: store (21 bytes), call g (5), ret (1).
        branch(&mut code, a, 27);
        let mut g_ret = [0u64; 2];
        for (digit, imm, dst) in [(1, 0x33, SCRATCH + 8), (0, 0x44, SCRATCH + 9)] {
            code.extend(store_byte(imm, dst));
            g_ret[digit] = end(&code) + 5;
            code.push(Insn::CallRel {
                rel: (g_at - g_ret[digit]) as i32,
            });
            code.push(Insn::Ret);
        }
        pad_to(&mut code, g_at);
        // Each arm of g: store (21 bytes), ret (1).
        branch(&mut code, b, 22);
        for (imm, dst) in [(0x22, SCRATCH + 1), (0x11, SCRATCH)] {
            code.extend(store_byte(imm, dst));
            code.push(Insn::Ret);
        }
        let cell = |name: &str, addr| SwitchDomain {
            name: name.into(),
            addr,
            ..domain(&[0, 1])
        };
        let (mut mem, space) = setup(&code, vec![cell("a", a), cell("b", b)]);
        mem.map(SCRATCH, 4096, Prot::RW);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(
            (rep.stats.splits, rep.stats.joins, rep.stats.max_live),
            (3, 3, 3)
        );
        for leaf in &rep.leaves {
            let (da, db) = (leaf.leaf % 2, leaf.leaf / 2);
            let mut want = Vec::new();
            for (at, v) in [
                (STACK_TOP - 24, g_ret[da]),
                (STACK_TOP - 16, CODE + 5),
                (STACK_TOP - 8, RET_SENTINEL),
            ] {
                want.extend((0..8).map(|j| (at + j, (v >> (8 * j)) as u8)));
            }
            // A byte one arm stored reads as the base image's zero in the
            // other arm, which the join records as written.
            want.extend([
                (SCRATCH, if db == 0 { 0x11 } else { 0 }),
                (SCRATCH + 1, if db == 1 { 0x22 } else { 0 }),
                (SCRATCH + 8, if da == 1 { 0x33 } else { 0 }),
                (SCRATCH + 9, if da == 0 { 0x44 } else { 0 }),
            ]);
            want.sort_unstable();
            assert_eq!(leaf.writes, want, "leaf {}", leaf.leaf);
        }
    }

    /// Runs an 8-byte store at the last four bytes of the [`SCRATCH`]
    /// page, with the next page mapped `next` (or unmapped), and checks
    /// that the pass faults exactly as [`Memory::write`] does.
    fn straddling_store_faults_as_the_vm(next: Option<Prot>) {
        let at = SCRATCH + 0xFFC;
        let code = [
            Insn::MovRI { dst: r(1), imm: -1 },
            Insn::StoreAbs {
                src: r(1),
                addr: at,
                width: Width::W64,
            },
            Insn::Ret,
        ];
        let (mut mem, space) = setup(&code, vec![domain(&[0, 1])]);
        mem.map(SCRATCH, 4096, Prot::RW);
        if let Some(prot) = next {
            mem.map(SCRATCH + 0x1000, 4096, prot);
        }
        let want = mem.write(at, &[0xFF; 8]).unwrap_err();
        assert_eq!(want.addr, SCRATCH + 0x1000, "the VM faults at the page");
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        match vx.run_call(CODE, &[], &regs0(), true) {
            Err(VexecError::Fault {
                fault: Fault::Mem(e),
                ..
            }) => assert_eq!(e, want),
            other => panic!("expected a write fault, got {other:?}"),
        }
    }

    #[test]
    fn store_into_unmapped_second_page_faults_at_that_page() {
        straddling_store_faults_as_the_vm(None);
    }

    #[test]
    fn store_into_read_only_second_page_faults_at_that_page() {
        straddling_store_faults_as_the_vm(Some(Prot::R));
    }

    #[test]
    fn load_overlapping_a_switch_cell_in_part_reads_byte_by_byte() {
        // The cell sits 8 bytes into the switch page. r0 reads four
        // stored bytes and the cell's first four; r1 reads two base
        // bytes, the whole cell and two more base bytes.
        let cell = SWITCH + 8;
        let code = [
            Insn::MovRI {
                dst: r(2),
                imm: 0x1122_3344,
            },
            Insn::StoreAbs {
                src: r(2),
                addr: cell - 4,
                width: Width::W32,
            },
            Insn::LoadAbs {
                dst: r(0),
                addr: cell - 4,
                width: Width::W64,
                signed: false,
            },
            Insn::LoadAbs {
                dst: r(1),
                addr: cell - 2,
                width: Width::W64,
                signed: false,
            },
            Insn::Ret,
        ];
        let sw = SwitchDomain {
            addr: cell,
            ..domain(&[3, -7])
        };
        let (mem, space) = setup(&code, vec![sw]);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.stats.splits, 0);
        let want = |v: i64| {
            let v = v as u32 as u64;
            ((v << 32) | 0x1122_3344, (v << 16) | 0x1122)
        };
        let got: Vec<(u64, u64)> = rep.leaves.iter().map(|l| (l.exit, l.regs[1])).collect();
        assert_eq!(got, vec![want(-7), want(3)]);
    }

    #[test]
    fn chunk_straddling_accesses_read_byte_by_byte() {
        // A concrete store across the page boundary, then a switch value
        // stored across it again, then loads across it.
        let at = SCRATCH + 0xFFC;
        let code = [
            Insn::MovRI {
                dst: r(2),
                imm: 0x8877_6655_4433_2211_u64 as i64,
            },
            Insn::StoreAbs {
                src: r(2),
                addr: at,
                width: Width::W64,
            },
            Insn::LoadAbs {
                dst: r(1),
                addr: at + 1,
                width: Width::W32,
                signed: false,
            },
            Insn::LoadAbs {
                dst: r(3),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::StoreAbs {
                src: r(3),
                addr: at + 3,
                width: Width::W16,
            },
            Insn::LoadAbs {
                dst: r(0),
                addr: at,
                width: Width::W64,
                signed: false,
            },
            Insn::Ret,
        ];
        let (mut mem, space) = setup(&code, vec![domain(&[0x0102, 0x0A0B])]);
        mem.map(SCRATCH, 0x2000, Prot::RW);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.stats.splits, 0);
        let bytes = |v: u64| {
            let mut b = 0x8877_6655_4433_2211u64.to_le_bytes();
            b[3..5].copy_from_slice(&v.to_le_bytes()[..2]);
            b
        };
        for (leaf, v) in rep.leaves.iter().zip([0x0102u64, 0x0A0B]) {
            assert_eq!(
                (leaf.exit, leaf.regs[1]),
                (u64::from_le_bytes(bytes(v)), 0x5544_3322)
            );
            let stored: Vec<(u64, u8)> = (at..).zip(bytes(v)).collect();
            assert!(leaf.writes.starts_with(&stored), "leaf {}", leaf.leaf);
        }
    }

    #[test]
    fn load_split_between_own_and_frozen_bytes_reads_byte_by_byte() {
        // Eight bytes stored before a split on the switch; each arm
        // overwrites two of them, then loads all eight.
        let arm = |imm: i64| {
            [
                Insn::MovRI { dst: r(3), imm },
                Insn::StoreAbs {
                    src: r(3),
                    addr: SCRATCH + 2,
                    width: Width::W16,
                },
                Insn::LoadAbs {
                    dst: r(0),
                    addr: SCRATCH,
                    width: Width::W64,
                    signed: false,
                },
                Insn::Ret,
            ]
        };
        let fall = arm(0xAAAA);
        let mut code = vec![
            Insn::MovRI {
                dst: r(2),
                imm: 0x0807_0605_0403_0201,
            },
            Insn::StoreAbs {
                src: r(2),
                addr: SCRATCH,
                width: Width::W64,
            },
            Insn::LoadAbs {
                dst: r(1),
                addr: SWITCH,
                width: Width::W32,
                signed: true,
            },
            Insn::CmpRI { a: r(1), imm: 0 },
            Insn::Jcc {
                cc: Cond::Eq,
                rel: fall.iter().map(|i| i.len() as i32).sum(),
            },
        ];
        code.extend(fall);
        code.extend(arm(0xBBBB));
        let (mut mem, space) = setup(&code, vec![domain(&[0, 1])]);
        mem.map(SCRATCH, 4096, Prot::RW);
        let mut vx = Vexec::new(&mem, &space, Platform::Native);
        let rep = vx.run_call(CODE, &[], &regs0(), true).unwrap();
        assert_eq!(rep.stats.splits, 1);
        let exit: Vec<u64> = rep.leaves.iter().map(|l| l.exit).collect();
        assert_eq!(exit, vec![0x0807_0605_BBBB_0201, 0x0807_0605_AAAA_0201]);
        for leaf in &rep.leaves {
            let stored: Vec<(u64, u8)> = (SCRATCH..).zip(leaf.exit.to_le_bytes()).collect();
            assert!(leaf.writes.starts_with(&stored), "leaf {}", leaf.leaf);
        }
    }

    #[test]
    fn events_are_emitted() {
        let (mem, space) = setup(&branchy_fn(CODE), vec![domain(&[0, 1])]);
        let mut ring = TraceRing::new(64);
        let mut vx = Vexec::new(&mem, &space, Platform::Native).with_trace(&mut ring);
        vx.run_call(CODE, &[], &regs0(), true).unwrap();
        let names: Vec<&str> = ring.events().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"vexec_split"));
        assert!(names.contains(&"vexec_leaf"));
    }
}
