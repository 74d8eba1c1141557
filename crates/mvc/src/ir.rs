//! The MVC intermediate representation — a three-address CFG, the stand-in
//! for GIMPLE in the paper's plugin pipeline.
//!
//! Invariants:
//!
//! * Temporaries are **block-local** and single-assignment; values that
//!   cross blocks go through numbered local *slots* (no phi nodes needed).
//! * All temporaries hold 64-bit values; memory accesses carry their width
//!   and sign-extend on load, truncate on store.
//!
//! [`FuncIr::canonical_key`] renders a function in a numbering-independent
//! normal form; two variants whose keys match are *structurally identical
//! after optimization* and are merged by the multiverse pass, exactly like
//! the body merge of Fig. 2.
//!
//! Temps, slots and blocks are dense ids, so per-function analyses keep
//! their facts in [`IdMap`] tables indexed by id rather than in hash
//! maps. A [`Scratch`] holds every table the optimizer, the canonical
//! key and the validator use; reused across functions, it makes them
//! allocate nothing once its tables have grown to the largest function.

use mvasm::{AluOp, Cond};
use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// Temporary id (block-local, single assignment).
pub type TempId = u32;
/// Basic-block id.
pub type BlockId = u32;
/// Local-variable slot id (frame-allocated).
pub type SlotId = u32;

/// An instruction operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A temporary.
    Temp(TempId),
    /// An integer constant.
    Const(i64),
}

/// IR binary operations (comparisons yield 0/1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum IrBin {
    Add,
    Sub,
    Mul,
    Divs,
    Divu,
    Rems,
    Remu,
    And,
    Or,
    Xor,
    Shl,
    Shrs,
    Shru,
    CmpEq,
    CmpNe,
    CmpLts,
    CmpLes,
    CmpGts,
    CmpGes,
    CmpLtu,
    CmpLeu,
    CmpGtu,
    CmpGeu,
}

impl IrBin {
    /// The MV64 ALU op computing this operation (`None` for comparisons).
    pub(crate) fn alu_op(self) -> Option<AluOp> {
        Some(match self {
            IrBin::Add => AluOp::Add,
            IrBin::Sub => AluOp::Sub,
            IrBin::Mul => AluOp::Mul,
            IrBin::Divs => AluOp::Divs,
            IrBin::Divu => AluOp::Divu,
            IrBin::Rems => AluOp::Rems,
            IrBin::Remu => AluOp::Remu,
            IrBin::And => AluOp::And,
            IrBin::Or => AluOp::Or,
            IrBin::Xor => AluOp::Xor,
            IrBin::Shl => AluOp::Shl,
            IrBin::Shrs => AluOp::Shrs,
            IrBin::Shru => AluOp::Shru,
            _ => return None,
        })
    }

    /// The MV64 condition computing this comparison (`None` otherwise).
    pub(crate) fn cmp_cond(self) -> Option<Cond> {
        Some(match self {
            IrBin::CmpEq => Cond::Eq,
            IrBin::CmpNe => Cond::Ne,
            IrBin::CmpLts => Cond::Lt,
            IrBin::CmpLes => Cond::Le,
            IrBin::CmpGts => Cond::Gt,
            IrBin::CmpGes => Cond::Ge,
            IrBin::CmpLtu => Cond::B,
            IrBin::CmpLeu => Cond::Be,
            IrBin::CmpGtu => Cond::A,
            IrBin::CmpGeu => Cond::Ae,
            _ => return None,
        })
    }

    /// Constant-folds the operation with exactly the semantics of the
    /// instruction codegen emits for it ([`AluOp::eval`], [`Cond::eval`]);
    /// `None` on division by zero (left to fault at run time).
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        let (a, b) = (a as u64, b as u64);
        let v = match self.cmp_cond() {
            Some(cc) => cc.eval(a, b) as u64,
            None => self.alu_op()?.eval(a, b)?,
        };
        Some(v as i64)
    }
}

/// IR unary operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum IrUn {
    Neg,
    /// Logical not (0 → 1, non-zero → 0).
    Not,
    BitNot,
}

impl IrUn {
    /// Constant-folds the operation.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            IrUn::Neg => a.wrapping_neg(),
            IrUn::Not => (a == 0) as i64,
            IrUn::BitNot => !a,
        }
    }
}

/// Call targets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Callee {
    /// Direct call to a named function.
    Direct(String),
    /// Indirect call through a `fnptr` global.
    Ptr(String),
}

/// Intrinsics (the machine-level escape hatches of MVC).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Intrinsic {
    /// `__xchg(ptr, val)` — bus-locked 64-bit exchange.
    Xchg,
    /// `__cli()`.
    Cli,
    /// `__sti()`.
    Sti,
    /// `__hypercall(n)`.
    Hypercall,
    /// `__rdtsc()`.
    Rdtsc,
    /// `__out(byte)`.
    Out,
    /// `__pause()`.
    Pause,
    /// `__mfence()`.
    Mfence,
    /// `__halt()`.
    Halt,
    /// `__flush_btb()` is intentionally absent: predictor state is not
    /// architectural; benchmarks flush it from the host side.
    _Reserved,
}

/// One IR instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Inst {
    /// `dst ← a op b`.
    Bin {
        /// Operation.
        op: IrBin,
        /// Destination temp.
        dst: TempId,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst ← op a`.
    Un {
        /// Operation.
        op: IrUn,
        /// Destination temp.
        dst: TempId,
        /// Operand.
        a: Operand,
    },
    /// `dst ← global` (the configuration-switch read the multiverse pass
    /// substitutes).
    LoadGlobal {
        /// Destination temp.
        dst: TempId,
        /// Global name.
        global: String,
        /// Access width in bytes.
        width: u8,
        /// Sign-extend.
        signed: bool,
    },
    /// `global ← src`.
    StoreGlobal {
        /// Global name.
        global: String,
        /// Source operand.
        src: Operand,
        /// Access width in bytes.
        width: u8,
    },
    /// `dst ← &symbol` (global or function address).
    AddrOf {
        /// Destination temp.
        dst: TempId,
        /// Symbol name.
        symbol: String,
    },
    /// `dst ← slot`.
    LoadLocal {
        /// Destination temp.
        dst: TempId,
        /// Slot.
        slot: SlotId,
    },
    /// `slot ← src`.
    StoreLocal {
        /// Slot.
        slot: SlotId,
        /// Source operand.
        src: Operand,
    },
    /// `dst ← mem[addr]`.
    LoadMem {
        /// Destination temp.
        dst: TempId,
        /// Address operand.
        addr: Operand,
        /// Access width in bytes.
        width: u8,
        /// Sign-extend.
        signed: bool,
    },
    /// `mem[addr] ← src`.
    StoreMem {
        /// Address operand.
        addr: Operand,
        /// Source operand.
        src: Operand,
        /// Access width in bytes.
        width: u8,
    },
    /// Function call.
    Call {
        /// Result temp (`None` for void).
        dst: Option<TempId>,
        /// Callee.
        callee: Callee,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Machine intrinsic.
    Intr {
        /// Result temp (for `__xchg`, `__rdtsc`).
        dst: Option<TempId>,
        /// Which intrinsic.
        kind: Intrinsic,
        /// Arguments.
        args: Vec<Operand>,
    },
}

impl Inst {
    /// Destination temp defined by this instruction, if any.
    pub fn dst(&self) -> Option<TempId> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::AddrOf { dst, .. }
            | Inst::LoadLocal { dst, .. }
            | Inst::LoadMem { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::Intr { dst, .. } => *dst,
            Inst::StoreGlobal { .. } | Inst::StoreLocal { .. } | Inst::StoreMem { .. } => None,
        }
    }

    /// A switch read bound to `v` at compile time: `dst ← v + 0`, which
    /// constant folding dissolves.
    pub fn bound_read(dst: TempId, v: i64) -> Inst {
        Inst::Bin {
            op: IrBin::Add,
            dst,
            a: Operand::Const(v),
            b: Operand::Const(0),
        }
    }

    /// `true` if removing the instruction (when its result is unused)
    /// changes program behaviour.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Inst::Bin { op, b, .. } => {
                // Division by a non-constant (or zero) divisor can fault.
                matches!(op, IrBin::Divs | IrBin::Divu | IrBin::Rems | IrBin::Remu)
                    && !matches!(b, Operand::Const(c) if *c != 0)
            }
            Inst::Un { .. }
            | Inst::AddrOf { .. }
            | Inst::LoadLocal { .. }
            | Inst::LoadGlobal { .. } => false,
            // Loads from raw memory can fault.
            Inst::LoadMem { .. } => true,
            Inst::StoreGlobal { .. }
            | Inst::StoreLocal { .. }
            | Inst::StoreMem { .. }
            | Inst::Call { .. }
            | Inst::Intr { .. } => true,
        }
    }

    /// Operands read by this instruction, in evaluation order.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<Operand>; 2], &[Operand]) = match self {
            Inst::Bin { a, b, .. } => ([Some(*a), Some(*b)], &[]),
            Inst::Un { a, .. } => ([Some(*a), None], &[]),
            Inst::LoadGlobal { .. } | Inst::AddrOf { .. } | Inst::LoadLocal { .. } => {
                ([None, None], &[])
            }
            Inst::StoreGlobal { src, .. } | Inst::StoreLocal { src, .. } => {
                ([Some(*src), None], &[])
            }
            Inst::LoadMem { addr, .. } => ([Some(*addr), None], &[]),
            Inst::StoreMem { addr, src, .. } => ([Some(*addr), Some(*src)], &[]),
            Inst::Call { args, .. } | Inst::Intr { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// Applies `f` to every operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::LoadGlobal { .. } | Inst::AddrOf { .. } | Inst::LoadLocal { .. } => {}
            Inst::StoreGlobal { src, .. } | Inst::StoreLocal { src, .. } => f(src),
            Inst::LoadMem { addr, .. } => f(addr),
            Inst::StoreMem { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Call { args, .. } | Inst::Intr { args, .. } => {
                for a in args {
                    f(a);
                }
            }
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch (non-zero → `t`).
    Br {
        /// Condition operand.
        cond: Operand,
        /// Taken successor.
        t: BlockId,
        /// Fall-through successor.
        f: BlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
}

impl Term {
    /// Successor block ids (taken successor first).
    pub fn succs(&self) -> impl DoubleEndedIterator<Item = BlockId> {
        match *self {
            Term::Jmp(b) => [Some(b), None],
            Term::Br { t, f, .. } => [Some(t), Some(f)],
            Term::Ret(_) => [None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// A basic block.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Block {
    /// Instructions.
    pub insts: Vec<Inst>,
    /// Terminator (`Ret(None)` by default).
    pub term: Term,
}

impl Default for Term {
    fn default() -> Term {
        Term::Ret(None)
    }
}

/// Function-level attributes relevant to later passes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnAttrs {
    /// Declared `multiverse`.
    pub multiverse: bool,
    /// Uses the PV-Ops calling convention.
    pub pvop_cc: bool,
    /// Partial specialization: only these switches are bound in variants.
    pub bind: Option<Vec<String>>,
}

/// A function in IR form.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FuncIr {
    /// Function name (variants get mangled names like `f.A=1`).
    pub name: String,
    /// Number of parameters (slots `0..n_params`).
    pub n_params: u32,
    /// Total local slots (params first).
    pub n_slots: u32,
    /// Next fresh temp id.
    pub n_temps: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Returns a value.
    pub has_ret: bool,
    /// Attributes.
    pub attrs: FnAttrs,
}

impl FuncIr {
    /// Creates an empty function with one (entry) block.
    pub fn new(name: &str, n_params: u32, has_ret: bool) -> FuncIr {
        FuncIr {
            name: name.to_string(),
            n_params,
            n_slots: n_params,
            n_temps: 0,
            blocks: vec![Block::default()],
            has_ret,
            attrs: FnAttrs::default(),
        }
    }

    /// Allocates a fresh temp.
    pub fn temp(&mut self) -> TempId {
        let t = self.n_temps;
        self.n_temps += 1;
        t
    }

    /// Allocates a fresh local slot.
    pub fn slot(&mut self) -> SlotId {
        let s = self.n_slots;
        self.n_slots += 1;
        s
    }

    /// Appends a new empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        (self.blocks.len() - 1) as BlockId
    }

    /// The set of multiverse switches read by this function, given a
    /// predicate identifying switch globals.
    pub fn globals_read(&self, is_switch: impl Fn(&str) -> bool) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for b in &self.blocks {
            for i in &b.insts {
                if let Inst::LoadGlobal { global, .. } = i {
                    if is_switch(global) && seen.insert(global.clone()) {
                        out.push(global.clone());
                    }
                }
            }
        }
        out
    }

    /// Renders the function in a canonical, numbering-independent textual
    /// form: blocks in DFS order from the entry, temps renumbered in
    /// first-definition order. Two functions with equal keys compute the
    /// same thing instruction-for-instruction.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        self.write_canonical_key(&mut key, &mut Scratch::default());
        key
    }

    /// Fills `s.order` with the blocks reachable from the entry in DFS
    /// order, first successor first, and `s.seen` with the same set.
    pub(crate) fn walk_blocks(&self, s: &mut Scratch) {
        s.seen.clear();
        s.order.clear();
        s.stack.clear();
        s.stack.push(0);
        while let Some(b) = s.stack.pop() {
            if s.seen.insert(b, ()) {
                s.order.push(b);
                // Reversed, so the first successor is popped first.
                s.stack.extend(self.blocks[b as usize].term.succs().rev());
            }
        }
    }

    /// Appends [`FuncIr::canonical_key`] to `out`, ranking blocks and
    /// temps in `s`'s tables.
    pub(crate) fn write_canonical_key(&self, out: &mut String, s: &mut Scratch) {
        self.walk_blocks(s);
        s.blocks.clear();
        for (i, &b) in s.order.iter().enumerate() {
            s.blocks.insert(b, i as u32);
        }
        let block = |b: BlockId| s.blocks.get(b).expect("successors are reachable");

        // Temps are ranked in first-mention order: an instruction's
        // operands, then its destination.
        s.temps.clear();
        let mut next = 0;
        let mut rank = |temps: &mut IdMap<i64>, t: TempId| {
            if temps.insert(t, next) {
                next += 1;
            }
        };
        let _ = writeln!(out, "fn[{} params, ret={}]", self.n_params, self.has_ret);
        for &b in &s.order {
            let _ = writeln!(out, "b{}:", block(b));
            let blk = &self.blocks[b as usize];
            for inst in &blk.insts {
                for o in inst.operands() {
                    if let Operand::Temp(t) = o {
                        rank(&mut s.temps, t);
                    }
                }
                if let Some(d) = inst.dst() {
                    rank(&mut s.temps, d);
                }
                let r = Ranked(&s.temps);
                let _ = match inst {
                    Inst::Bin { op, dst, a, b } => {
                        writeln!(out, "  {} = {op:?} {}, {}", r.t(*dst), r.o(*a), r.o(*b))
                    }
                    Inst::Un { op, dst, a } => {
                        writeln!(out, "  {} = {op:?} {}", r.t(*dst), r.o(*a))
                    }
                    Inst::LoadGlobal {
                        dst,
                        global,
                        width,
                        signed,
                    } => writeln!(out, "  {} = ldg {global} w{width} s{signed}", r.t(*dst)),
                    Inst::StoreGlobal { global, src, width } => {
                        writeln!(out, "  stg {global} w{width}, {}", r.o(*src))
                    }
                    Inst::AddrOf { dst, symbol } => {
                        writeln!(out, "  {} = addr {symbol}", r.t(*dst))
                    }
                    Inst::LoadLocal { dst, slot } => writeln!(out, "  {} = ldl s{slot}", r.t(*dst)),
                    Inst::StoreLocal { slot, src } => writeln!(out, "  stl s{slot}, {}", r.o(*src)),
                    Inst::LoadMem {
                        dst,
                        addr,
                        width,
                        signed,
                    } => writeln!(
                        out,
                        "  {} = ldm [{}] w{width} s{signed}",
                        r.t(*dst),
                        r.o(*addr)
                    ),
                    Inst::StoreMem { addr, src, width } => {
                        writeln!(out, "  stm [{}] w{width}, {}", r.o(*addr), r.o(*src))
                    }
                    Inst::Call { dst, callee, args } => {
                        out.push_str("  ");
                        if let Some(d) = dst {
                            let _ = write!(out, "{} = ", r.t(*d));
                        }
                        let _ = write!(out, "call {callee:?}(");
                        r.args(out, args)
                    }
                    Inst::Intr { dst, kind, args } => {
                        out.push_str("  ");
                        if let Some(d) = dst {
                            let _ = write!(out, "{} = ", r.t(*d));
                        }
                        let _ = write!(out, "{kind:?}(");
                        r.args(out, args)
                    }
                };
            }
            if let Term::Br {
                cond: Operand::Temp(t),
                ..
            }
            | Term::Ret(Some(Operand::Temp(t))) = blk.term
            {
                rank(&mut s.temps, t);
            }
            let r = Ranked(&s.temps);
            let _ = match blk.term {
                Term::Jmp(t) => writeln!(out, "  jmp b{}", block(t)),
                Term::Br { cond, t, f } => {
                    writeln!(out, "  br {} ? b{} : b{}", r.o(cond), block(t), block(f))
                }
                Term::Ret(Some(v)) => writeln!(out, "  ret {}", r.o(v)),
                Term::Ret(None) => writeln!(out, "  ret"),
            };
        }
    }

    /// Checks structural invariants: temps defined before use and not
    /// crossing blocks, block references in range. Panics on violation
    /// (compiler bug).
    pub fn validate(&self) {
        self.validate_in(&mut IdMap::default());
    }

    /// [`FuncIr::validate`], with `defined` as the per-block table of
    /// defined temps.
    pub(crate) fn validate_in(&self, defined: &mut IdMap<()>) {
        for (bi, b) in self.blocks.iter().enumerate() {
            defined.clear();
            for inst in &b.insts {
                for op in inst.operands() {
                    if let Operand::Temp(t) = op {
                        assert!(
                            defined.contains(t),
                            "{}: t{t} used before def in block {bi}",
                            self.name
                        );
                    }
                }
                if let Some(d) = inst.dst() {
                    assert!(
                        defined.insert(d, ()),
                        "{}: t{d} defined twice in block {bi}",
                        self.name
                    );
                }
            }
            if let Term::Br {
                cond: Operand::Temp(t),
                ..
            } = b.term
            {
                assert!(
                    defined.contains(t),
                    "{}: branch cond t{t} undefined in block {bi}",
                    self.name
                );
            }
            if let Term::Ret(Some(Operand::Temp(t))) = b.term {
                assert!(
                    defined.contains(t),
                    "{}: ret value t{t} undefined in block {bi}",
                    self.name
                );
            }
            for s in b.term.succs() {
                assert!(
                    (s as usize) < self.blocks.len(),
                    "{}: bad successor b{s}",
                    self.name
                );
            }
        }
    }
}

/// Renders operands with the temp ranks of [`FuncIr::write_canonical_key`].
struct Ranked<'a>(&'a IdMap<i64>);

impl Ranked<'_> {
    fn t(&self, t: TempId) -> impl fmt::Display {
        RankedOp::Temp(self.0.get(t).expect("ranked before rendering"))
    }

    fn o(&self, o: Operand) -> impl fmt::Display {
        match o {
            Operand::Temp(t) => RankedOp::Temp(self.0.get(t).expect("ranked before rendering")),
            Operand::Const(c) => RankedOp::Const(c),
        }
    }

    /// Writes `args` comma-separated, then `)` and the line end.
    fn args(&self, out: &mut String, args: &[Operand]) -> fmt::Result {
        for (i, &a) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", self.o(a))?;
        }
        out.push_str(")\n");
        Ok(())
    }
}

enum RankedOp {
    Temp(i64),
    Const(i64),
}

impl fmt::Display for RankedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankedOp::Temp(r) => write!(f, "t{r}"),
            RankedOp::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A map from dense ids (temps, slots, blocks) to values, emptied in
/// O(1): an entry is present only while its stamp equals the map's
/// generation, and [`IdMap::clear`] starts a new generation. The table
/// grows to the largest id it has seen and keeps that capacity.
#[derive(Clone, Debug)]
pub struct IdMap<V> {
    generation: u32,
    entries: Vec<(u32, V)>,
}

impl<V> Default for IdMap<V> {
    fn default() -> IdMap<V> {
        IdMap {
            generation: 1,
            entries: Vec::new(),
        }
    }
}

impl<V: Copy + Default> IdMap<V> {
    /// Removes every entry.
    pub fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps of the old generations could come back: forget them.
            self.entries.clear();
            self.generation = 1;
        }
    }

    /// The value of `id`, if present.
    pub fn get(&self, id: u32) -> Option<V> {
        match self.entries.get(id as usize) {
            Some(&(stamp, v)) if stamp == self.generation => Some(v),
            _ => None,
        }
    }

    /// `true` if `id` is present.
    pub fn contains(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    /// Sets `id` to `v`; returns `true` if `id` was absent.
    pub fn insert(&mut self, id: u32, v: V) -> bool {
        let i = id as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, (0, V::default()));
        }
        let fresh = self.entries[i].0 != self.generation;
        self.entries[i] = (self.generation, v);
        fresh
    }

    /// Removes `id`.
    pub fn remove(&mut self, id: u32) {
        if let Some(e) = self.entries.get_mut(id as usize) {
            e.0 = 0;
        }
    }
}

/// The tables of one optimizer worker: what the passes, the canonical
/// key and the validator know about the function at hand, plus the
/// blocks the CFG cleanup dropped, kept for the next function to fill.
/// Every table is emptied by whoever starts using it.
#[derive(Default)]
pub struct Scratch {
    /// Temps: a block's known constants (constant folding), the temps
    /// any instruction reads (dead-code elimination), first-mention
    /// ranks (canonical key).
    pub(crate) temps: IdMap<i64>,
    /// Slots: a block's known constants (constant folding), the slots
    /// any load reads (dead-code elimination).
    pub(crate) slots: IdMap<i64>,
    /// Blocks: jump-threading targets, predecessor counts, new ids,
    /// canonical ranks.
    pub(crate) blocks: IdMap<u32>,
    /// Blocks visited by a walk.
    pub(crate) seen: IdMap<()>,
    /// A walk's pending blocks.
    pub(crate) stack: Vec<BlockId>,
    /// A walk's blocks in visiting order.
    pub(crate) order: Vec<BlockId>,
    /// Validation's defined temps.
    pub(crate) defined: IdMap<()>,
    /// Blocks removed from a function, with their instruction buffers.
    pub(crate) spare: Vec<Block>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_folds_correctly() {
        assert_eq!(IrBin::Add.eval(2, 3), Some(5));
        assert_eq!(IrBin::Divs.eval(7, 2), Some(3));
        assert_eq!(IrBin::Divs.eval(7, 0), None);
        assert_eq!(IrBin::CmpLtu.eval(-1, 0), Some(0)); // unsigned: max > 0
        assert_eq!(IrBin::CmpLts.eval(-1, 0), Some(1));
        assert_eq!(IrUn::Not.eval(0), 1);
        assert_eq!(IrUn::Not.eval(5), 0);
    }

    #[test]
    fn canonical_key_ignores_numbering() {
        // f: t5 = 1+2; ret t5  vs  t0 = 1+2; ret t0
        let mut a = FuncIr::new("a", 0, true);
        a.n_temps = 10;
        a.blocks[0].insts.push(Inst::Bin {
            op: IrBin::Add,
            dst: 5,
            a: Operand::Const(1),
            b: Operand::Const(2),
        });
        a.blocks[0].term = Term::Ret(Some(Operand::Temp(5)));

        let mut b = FuncIr::new("b", 0, true);
        b.n_temps = 1;
        b.blocks[0].insts.push(Inst::Bin {
            op: IrBin::Add,
            dst: 0,
            a: Operand::Const(1),
            b: Operand::Const(2),
        });
        b.blocks[0].term = Term::Ret(Some(Operand::Temp(0)));

        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_semantics() {
        let mk = |c: i64| {
            let mut f = FuncIr::new("f", 0, true);
            f.blocks[0].term = Term::Ret(Some(Operand::Const(c)));
            f
        };
        assert_ne!(mk(1).canonical_key(), mk(2).canonical_key());
    }

    #[test]
    fn validate_catches_cross_block_temp() {
        let mut f = FuncIr::new("f", 0, true);
        let t = f.temp();
        f.blocks[0].insts.push(Inst::Bin {
            op: IrBin::Add,
            dst: t,
            a: Operand::Const(1),
            b: Operand::Const(1),
        });
        let b1 = f.new_block();
        f.blocks[0].term = Term::Jmp(b1);
        f.blocks[b1 as usize].term = Term::Ret(Some(Operand::Temp(t)));
        let r = std::panic::catch_unwind(|| f.validate());
        assert!(r.is_err());
    }

    #[test]
    fn id_map_clear_forgets_every_entry() {
        let mut m = IdMap::default();
        assert!(m.insert(3, 7i64));
        assert!(!m.insert(3, 8), "present already");
        assert_eq!(m.get(3), Some(8));
        assert_eq!(m.get(4), None);
        m.remove(3);
        assert!(!m.contains(3));
        m.insert(3, 1);
        m.clear();
        assert_eq!(m.get(3), None);
        // Across a generation wrap, stale stamps never come back.
        m.generation = u32::MAX;
        m.insert(5, 2);
        m.clear();
        assert!(!m.contains(5) && !m.contains(3));
        m.insert(5, 3);
        assert_eq!(m.get(5), Some(3));
    }

    #[test]
    fn globals_read_deduplicates() {
        let mut f = FuncIr::new("f", 0, false);
        for _ in 0..3 {
            let t = f.temp();
            f.blocks[0].insts.push(Inst::LoadGlobal {
                dst: t,
                global: "A".into(),
                width: 4,
                signed: true,
            });
        }
        let t = f.temp();
        f.blocks[0].insts.push(Inst::LoadGlobal {
            dst: t,
            global: "other".into(),
            width: 4,
            signed: true,
        });
        assert_eq!(f.globals_read(|g| g == "A"), vec!["A".to_string()]);
    }
}
