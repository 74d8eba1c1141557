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
//! is sound but forfeits sharing.
//!
//! **Bail.** `rdtsc` is refused outright ([`VexecError::Unsupported`]):
//! cycle counts are configuration-dependent in ways the shared pass does
//! not model, so timing questions must fall back to enumeration. A fault
//! that is concrete across a context's configurations aborts the pass
//! with the label of one offending configuration.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use mvasm::{AluOp, Insn, Reg};
use mvtrace::{EventKind, TraceRing};
use mvvm::machine::{HC_CLI, HC_STI, RET_SENTINEL};
use mvvm::mem::{extend, Access, MemError};
use mvvm::{Fault, Memory, Platform};

use crate::config::{ConfigSpace, LeafSet};
use crate::value::{NeedSplit, Val};

/// Tuning knobs for a vexec pass.
#[derive(Clone, Copy, Debug)]
pub struct VexecOptions {
    /// Maximum *shared* steps before the pass gives up with
    /// [`VexecError::Fuel`]. One shared step may stand for thousands of
    /// per-configuration instructions.
    pub fuel: u64,
}

impl Default for VexecOptions {
    fn default() -> VexecOptions {
        VexecOptions { fuel: 50_000_000 }
    }
}

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
#[derive(Clone)]
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
    /// Byte-granular memory delta over the shared base image.
    overlay: BTreeMap<u64, Val>,
    out: Vec<Val>,
    terminal: Option<Terminal>,
}

impl Ctx {
    /// A copy restricted to `leaves`, with every value table pruned.
    fn restricted(&self, space: &ConfigSpace, leaves: LeafSet) -> Ctx {
        Ctx {
            regs: std::array::from_fn(|i| self.regs[i].restrict(space, &leaves)),
            cmp: (
                self.cmp.0.restrict(space, &leaves),
                self.cmp.1.restrict(space, &leaves),
            ),
            overlay: self
                .overlay
                .iter()
                .map(|(a, v)| (*a, v.restrict(space, &leaves)))
                .collect(),
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
    opts: VexecOptions,
    trace: Option<&'a mut TraceRing>,
    decode_cache: HashMap<u64, Insn>,
    stats: VexecStats,
    live: u64,
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
        Vexec {
            mem,
            space,
            platform,
            opts: VexecOptions::default(),
            trace: None,
            decode_cache: HashMap::new(),
            stats: VexecStats::default(),
            live: 0,
        }
    }

    /// Replaces the tuning options.
    pub fn with_options(mut self, opts: VexecOptions) -> Vexec<'a> {
        self.opts = opts;
        self
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
            overlay: BTreeMap::new(),
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
        loop {
            if ctx.terminal.is_some() || ctx.depth < horizon {
                out.push(ctx);
                self.try_merge(&mut out);
                return Ok(out);
            }
            match self.step(&mut ctx)? {
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

    /// One shared step: execute, or turn an [`Abort`] into a
    /// materializing split / pass error.
    fn step(&mut self, ctx: &mut Ctx) -> Result<Step, VexecError> {
        if self.stats.steps >= self.opts.fuel {
            return Err(VexecError::Fuel {
                steps: self.stats.steps,
            });
        }
        let weight = ctx.leaves.count() as u64;
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
    fn materialize(&mut self, ctx: &Ctx, sw: usize) -> Step {
        let digits = self.space.live_digits(&ctx.leaves, sw);
        let children: Vec<Ctx> = digits
            .iter()
            .map(|&i| ctx.restricted(self.space, self.space.mask(sw, i).intersect(&ctx.leaves)))
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
        let mut overlay = BTreeMap::new();
        for addr in a.overlay.keys().chain(b.overlay.keys()) {
            if overlay.contains_key(addr) {
                continue;
            }
            // A byte one side never wrote still has a value there — the
            // symbolic-or-base read the other side would see.
            let va = match a.overlay.get(addr) {
                Some(v) => v.clone(),
                None => self.read_byte(a, *addr).ok()?,
            };
            let vb = match b.overlay.get(addr) {
                Some(v) => v.clone(),
                None => self.read_byte(b, *addr).ok()?,
            };
            overlay.insert(*addr, merge_val(&va, &vb, s, &da, &db)?);
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
                    writes: ctx
                        .overlay
                        .iter()
                        .map(|(a, v)| (*a, v.at(sp, leaf) as u8))
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
        if ctx
            .overlay
            .range(pc..pc.saturating_add(16))
            .next()
            .is_some()
        {
            return Err(Abort::Unsupported("self-modifying code"));
        }
        if let Some(i) = self.decode_cache.get(&pc) {
            return Ok(*i);
        }
        let insn = self.mem.fetch_insn(pc).map_err(Abort::Fault)?;
        self.decode_cache.insert(pc, insn);
        Ok(insn)
    }

    /// One memory byte as the context sees it: its own overlay first,
    /// then the symbolic view of a switch cell, then the shared base.
    fn read_byte(&self, ctx: &Ctx, addr: u64) -> Result<Val, Abort> {
        if let Some(v) = ctx.overlay.get(&addr) {
            return Ok(v.clone());
        }
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
        self.mem
            .read_uint(addr, 1)
            .map(Val::Concrete)
            .map_err(Abort::from)
    }

    fn read_mem(&self, ctx: &Ctx, addr: u64, width: usize) -> Result<Val, Abort> {
        let mut acc = Val::Concrete(0);
        for j in 0..width {
            let b = self.read_byte(ctx, addr + j as u64)?;
            let shift = 8 * j as u32;
            acc = Val::zip(&acc, &b, |a, x| a | (x << shift))?;
        }
        Ok(acc)
    }

    fn write_mem(&self, ctx: &mut Ctx, addr: u64, val: Val, width: usize) -> Result<(), Abort> {
        let last = addr + width as u64 - 1;
        for probe in [addr, last] {
            match self.mem.prot_of(probe) {
                Some(p) if p.write => {}
                other => {
                    return Err(Abort::Fault(Fault::Mem(MemError {
                        addr: probe,
                        access: Access::Write,
                        mapped: other.is_some(),
                    })))
                }
            }
        }
        for j in 0..width {
            let shift = 8 * j as u32;
            ctx.overlay
                .insert(addr + j as u64, val.map(|v| (v >> shift) & 0xFF));
        }
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
        ctx: &Ctx,
        sw: usize,
        outcomes: &[(usize, u64)],
        taken_pc: u64,
        fall_pc: u64,
    ) -> Vec<Ctx> {
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
            let mut c = ctx.restricted(self.space, set);
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
