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

use mvasm::{AluOp, Cond};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

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

    /// Operands read by this instruction.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Inst::Bin { a, b, .. } => vec![*a, *b],
            Inst::Un { a, .. } => vec![*a],
            Inst::LoadGlobal { .. } | Inst::AddrOf { .. } | Inst::LoadLocal { .. } => vec![],
            Inst::StoreGlobal { src, .. } | Inst::StoreLocal { src, .. } => vec![*src],
            Inst::LoadMem { addr, .. } => vec![*addr],
            Inst::StoreMem { addr, src, .. } => vec![*addr, *src],
            Inst::Call { args, .. } | Inst::Intr { args, .. } => args.clone(),
        }
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
    /// Successor block ids.
    pub fn succs(&self) -> Vec<BlockId> {
        match self {
            Term::Jmp(b) => vec![*b],
            Term::Br { t, f, .. } => vec![*t, *f],
            Term::Ret(_) => vec![],
        }
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
#[derive(Clone, PartialEq, Eq, Debug)]
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
        // DFS block order.
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![0 as BlockId];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            order.push(b);
            // Push successors in reverse so the first successor is visited
            // first (stable order).
            for s in self.blocks[b as usize].term.succs().into_iter().rev() {
                stack.push(s);
            }
        }
        let block_rank: HashMap<BlockId, usize> =
            order.iter().enumerate().map(|(i, &b)| (b, i)).collect();

        let mut temp_rank: HashMap<TempId, usize> = HashMap::new();
        let rank = |t: TempId, map: &mut HashMap<TempId, usize>| -> usize {
            let next = map.len();
            *map.entry(t).or_insert(next)
        };
        let fmt_op = |o: Operand, map: &mut HashMap<TempId, usize>| match o {
            Operand::Temp(t) => {
                let next = map.len();
                format!("t{}", *map.entry(t).or_insert(next))
            }
            Operand::Const(c) => format!("{c}"),
        };

        let mut s = String::new();
        let _ = writeln!(s, "fn[{} params, ret={}]", self.n_params, self.has_ret);
        for &b in &order {
            let _ = writeln!(s, "b{}:", block_rank[&b]);
            for inst in &self.blocks[b as usize].insts {
                let line = match inst {
                    Inst::Bin { op, dst, a, b } => {
                        let (a, b) = (fmt_op(*a, &mut temp_rank), fmt_op(*b, &mut temp_rank));
                        format!("t{} = {op:?} {a}, {b}", rank(*dst, &mut temp_rank))
                    }
                    Inst::Un { op, dst, a } => {
                        let a = fmt_op(*a, &mut temp_rank);
                        format!("t{} = {op:?} {a}", rank(*dst, &mut temp_rank))
                    }
                    Inst::LoadGlobal {
                        dst,
                        global,
                        width,
                        signed,
                    } => format!(
                        "t{} = ldg {global} w{width} s{signed}",
                        rank(*dst, &mut temp_rank)
                    ),
                    Inst::StoreGlobal { global, src, width } => {
                        format!("stg {global} w{width}, {}", fmt_op(*src, &mut temp_rank))
                    }
                    Inst::AddrOf { dst, symbol } => {
                        format!("t{} = addr {symbol}", rank(*dst, &mut temp_rank))
                    }
                    Inst::LoadLocal { dst, slot } => {
                        format!("t{} = ldl s{slot}", rank(*dst, &mut temp_rank))
                    }
                    Inst::StoreLocal { slot, src } => {
                        format!("stl s{slot}, {}", fmt_op(*src, &mut temp_rank))
                    }
                    Inst::LoadMem {
                        dst,
                        addr,
                        width,
                        signed,
                    } => {
                        let a = fmt_op(*addr, &mut temp_rank);
                        format!(
                            "t{} = ldm [{a}] w{width} s{signed}",
                            rank(*dst, &mut temp_rank)
                        )
                    }
                    Inst::StoreMem { addr, src, width } => {
                        let a = fmt_op(*addr, &mut temp_rank);
                        let v = fmt_op(*src, &mut temp_rank);
                        format!("stm [{a}] w{width}, {v}")
                    }
                    Inst::Call { dst, callee, args } => {
                        let args: Vec<String> =
                            args.iter().map(|&a| fmt_op(a, &mut temp_rank)).collect();
                        let d = dst.map(|d| format!("t{} = ", rank(d, &mut temp_rank)));
                        format!(
                            "{}call {callee:?}({})",
                            d.unwrap_or_default(),
                            args.join(",")
                        )
                    }
                    Inst::Intr { dst, kind, args } => {
                        let args: Vec<String> =
                            args.iter().map(|&a| fmt_op(a, &mut temp_rank)).collect();
                        let d = dst.map(|d| format!("t{} = ", rank(d, &mut temp_rank)));
                        format!("{}{kind:?}({})", d.unwrap_or_default(), args.join(","))
                    }
                };
                let _ = writeln!(s, "  {line}");
            }
            let term = match &self.blocks[b as usize].term {
                Term::Jmp(t) => format!("jmp b{}", block_rank[t]),
                Term::Br { cond, t, f } => {
                    let c = fmt_op(*cond, &mut temp_rank);
                    format!("br {c} ? b{} : b{}", block_rank[t], block_rank[f])
                }
                Term::Ret(Some(v)) => format!("ret {}", fmt_op(*v, &mut temp_rank)),
                Term::Ret(None) => "ret".to_string(),
            };
            let _ = writeln!(s, "  {term}");
        }
        s
    }

    /// Checks structural invariants: temps defined before use and not
    /// crossing blocks, block references in range. Panics on violation
    /// (compiler bug).
    pub fn validate(&self) {
        for (bi, b) in self.blocks.iter().enumerate() {
            let mut defined: HashSet<TempId> = HashSet::new();
            for inst in &b.insts {
                for op in inst.operands() {
                    if let Operand::Temp(t) = op {
                        assert!(
                            defined.contains(&t),
                            "{}: t{t} used before def in block {bi}",
                            self.name
                        );
                    }
                }
                if let Some(d) = inst.dst() {
                    assert!(
                        defined.insert(d),
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
                    defined.contains(&t),
                    "{}: branch cond t{t} undefined in block {bi}",
                    self.name
                );
            }
            if let Term::Ret(Some(Operand::Temp(t))) = b.term {
                assert!(
                    defined.contains(&t),
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
