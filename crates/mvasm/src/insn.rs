//! MV64 instruction definitions.

use crate::reg::Reg;
use core::fmt;

/// Memory access width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 1 byte.
    W8,
    /// 2 bytes.
    W16,
    /// 4 bytes.
    W32,
    /// 8 bytes.
    W64,
}

impl Width {
    /// Access size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// Width from a byte count (1, 2, 4 or 8).
    pub const fn from_bytes(n: usize) -> Option<Width> {
        match n {
            1 => Some(Width::W8),
            2 => Some(Width::W16),
            4 => Some(Width::W32),
            8 => Some(Width::W64),
            _ => None,
        }
    }

    /// Two-bit encoding (log2 of the byte count).
    pub const fn encode(self) -> u8 {
        match self {
            Width::W8 => 0,
            Width::W16 => 1,
            Width::W32 => 2,
            Width::W64 => 3,
        }
    }

    /// Decodes the two-bit width field.
    pub const fn decode(bits: u8) -> Width {
        match bits & 0b11 {
            0 => Width::W8,
            1 => Width::W16,
            2 => Width::W32,
            _ => Width::W64,
        }
    }
}

/// Binary ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (faults on division by zero).
    Divs,
    /// Unsigned division (faults on division by zero).
    Divu,
    /// Signed remainder.
    Rems,
    /// Unsigned remainder.
    Remu,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Arithmetic shift right.
    Shrs,
    /// Logical shift right.
    Shru,
}

impl AluOp {
    /// One-byte encoding.
    pub const fn encode(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::Mul => 2,
            AluOp::Divs => 3,
            AluOp::Divu => 4,
            AluOp::Rems => 5,
            AluOp::Remu => 6,
            AluOp::And => 7,
            AluOp::Or => 8,
            AluOp::Xor => 9,
            AluOp::Shl => 10,
            AluOp::Shrs => 11,
            AluOp::Shru => 12,
        }
    }

    /// Decodes the one-byte ALU opcode.
    pub const fn decode(b: u8) -> Option<AluOp> {
        Some(match b {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::Divs,
            4 => AluOp::Divu,
            5 => AluOp::Rems,
            6 => AluOp::Remu,
            7 => AluOp::And,
            8 => AluOp::Or,
            9 => AluOp::Xor,
            10 => AluOp::Shl,
            11 => AluOp::Shrs,
            12 => AluOp::Shru,
            _ => return None,
        })
    }

    /// `true` for the division family (`divs`, `divu`, `rems`, `remu`):
    /// the only ops that can fault (on a zero divisor).
    pub const fn divides(self) -> bool {
        matches!(self, AluOp::Divs | AluOp::Divu | AluOp::Rems | AluOp::Remu)
    }

    /// `a op b` for the nine non-dividing ops — the fault-free form that
    /// register-only fast paths call. Shift counts are taken modulo 64;
    /// `shrs` sign-fills. The division family is unreachable here: it
    /// goes through [`AluOp::eval`].
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shrs => (a as i64).wrapping_shr(b as u32) as u64,
            AluOp::Shru => a.wrapping_shr(b as u32),
            AluOp::Divs | AluOp::Divu | AluOp::Rems | AluOp::Remu => {
                unreachable!("dividing ops go through AluOp::eval")
            }
        }
    }

    /// `a op b` with MV64 semantics: wrapping arithmetic, signed division
    /// and remainder truncating toward zero (`i64::MIN / -1` wraps to
    /// `i64::MIN`, `i64::MIN % -1` is 0). `None` iff the op
    /// [`divides`](AluOp::divides) and `b` is zero — the point where the
    /// machine faults and a constant folder declines to fold.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> Option<u64> {
        if self.divides() && b == 0 {
            return None;
        }
        Some(match self {
            AluOp::Divs => (a as i64).wrapping_div(b as i64) as u64,
            AluOp::Divu => a / b,
            AluOp::Rems => (a as i64).wrapping_rem(b as i64) as u64,
            AluOp::Remu => a % b,
            _ => self.apply(a, b),
        })
    }

    /// Mnemonic as printed by the disassembler.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Divs => "divs",
            AluOp::Divu => "divu",
            AluOp::Rems => "rems",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shrs => "shrs",
            AluOp::Shru => "shru",
        }
    }
}

/// Condition code for [`Insn::Jcc`], evaluated against the flags produced by
/// the most recent `cmp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    B,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above.
    A,
    /// Unsigned above-or-equal.
    Ae,
}

impl Cond {
    /// One-byte encoding.
    pub const fn encode(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
            Cond::B => 6,
            Cond::Be => 7,
            Cond::A => 8,
            Cond::Ae => 9,
        }
    }

    /// Decodes the one-byte condition code.
    pub const fn decode(b: u8) -> Option<Cond> {
        Some(match b {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Le,
            4 => Cond::Gt,
            5 => Cond::Ge,
            6 => Cond::B,
            7 => Cond::Be,
            8 => Cond::A,
            9 => Cond::Ae,
            _ => return None,
        })
    }

    /// The condition testing the opposite outcome.
    pub const fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::B => Cond::Ae,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::Ae => Cond::B,
        }
    }

    /// Evaluates the condition for compared values `a` and `b`.
    pub fn eval(self, a: u64, b: u64) -> bool {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => sa < sb,
            Cond::Le => sa <= sb,
            Cond::Gt => sa > sb,
            Cond::Ge => sa >= sb,
            Cond::B => a < b,
            Cond::Be => a <= b,
            Cond::A => a > b,
            Cond::Ae => a >= b,
        }
    }

    /// Mnemonic suffix as printed by the disassembler.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
        }
    }
}

/// A decoded MV64 instruction.
///
/// `rel` fields are relative to the address of the **next** instruction, as
/// on x86: `target = insn_addr + insn_len + rel`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Insn {
    /// `dst ← src`.
    MovRR {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst ← imm`.
    MovRI {
        /// Destination register.
        dst: Reg,
        /// 64-bit immediate.
        imm: i64,
    },
    /// `dst ← addr` (load an absolute address; materialized by relocation).
    Lea {
        /// Destination register.
        dst: Reg,
        /// Absolute address.
        addr: u64,
    },
    /// `dst ← mem[base + off]`, sign- or zero-extended to 64 bits.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        off: i32,
        /// Access width.
        width: Width,
        /// Sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `mem[base + off] ← src` (low `width` bytes).
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        off: i32,
        /// Access width.
        width: Width,
    },
    /// `dst ← mem[addr]` with absolute addressing (globals).
    LoadAbs {
        /// Destination register.
        dst: Reg,
        /// Absolute address.
        addr: u64,
        /// Access width.
        width: Width,
        /// Sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `mem[addr] ← src` with absolute addressing (globals).
    StoreAbs {
        /// Source register.
        src: Reg,
        /// Absolute address.
        addr: u64,
        /// Access width.
        width: Width,
    },
    /// `dst ← dst op src`.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination and left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst ← dst op imm`.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination and left operand.
        dst: Reg,
        /// Right operand immediate.
        imm: i64,
    },
    /// Compare two registers, setting the flags.
    CmpRR {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Compare a register with an immediate, setting the flags.
    CmpRI {
        /// Left operand.
        a: Reg,
        /// Right operand immediate.
        imm: i64,
    },
    /// `dst ← 1` if the condition holds for the last comparison, else
    /// `dst ← 0` (x86 `setcc`).
    Setcc {
        /// Condition.
        cc: Cond,
        /// Destination register.
        dst: Reg,
    },
    /// Unconditional relative jump (5 bytes, like x86 `E9`).
    Jmp {
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// Conditional relative jump.
    Jcc {
        /// Condition.
        cc: Cond,
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// Direct relative call (5 bytes, like x86 `E8`) — the patchable call
    /// site of the Multiverse mechanism.
    CallRel {
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// Indirect call through a register.
    CallInd {
        /// Register holding the target address.
        target: Reg,
    },
    /// Indirect call through a 64-bit function pointer in memory
    /// (`call *mem[addr]`) — the PV-Ops dispatch form.
    CallMem {
        /// Address of the function pointer.
        addr: u64,
    },
    /// Push a register onto the stack.
    Push {
        /// Source register.
        src: Reg,
    },
    /// Pop from the stack into a register.
    Pop {
        /// Destination register.
        dst: Reg,
    },
    /// Return to the address on top of the stack.
    Ret,
    /// Stop the machine (normal program termination).
    Halt,
    /// Enable interrupts. Privileged: traps in a paravirtualized guest.
    Sti,
    /// Disable interrupts. Privileged: traps in a paravirtualized guest.
    Cli,
    /// Invoke the hypervisor.
    Hypercall {
        /// Hypercall number.
        nr: u8,
    },
    /// `dst ←` time-stamp counter (with serializing fence, like
    /// `rdtsc_ordered()`).
    Rdtsc {
        /// Destination register.
        dst: Reg,
    },
    /// Spin-loop hint.
    Pause,
    /// Write the low byte of `src` to the output sink.
    Out {
        /// Source register.
        src: Reg,
    },
    /// Atomically exchange `val` with the 64-bit word at `[base]`
    /// (bus-locked, like x86 `lock xchg`).
    XchgLock {
        /// Register swapped with memory; receives the old value.
        val: Reg,
        /// Base address register.
        base: Reg,
    },
    /// Full memory fence.
    Mfence,
    /// One-byte trap (the `int3` analog, opcode `0xCC`). Executing it
    /// faults into whoever drives the machine — the breakpoint-first
    /// cross-modifying-code protocol plants it over the first byte of a
    /// function being patched so concurrent vCPUs stall at the entry
    /// instead of running into half-patched text.
    Trap,
    /// No operation of the given encoded length (1..=15 bytes).
    Nop {
        /// Encoded instruction length in bytes.
        len: u8,
    },
}

impl Insn {
    /// Encoded length of the instruction in bytes (never zero — there is
    /// deliberately no `is_empty`).
    ///
    /// Lengths are fixed per opcode (only [`Insn::Nop`] varies), which is
    /// what makes single-pass layout and robust patch-site verification
    /// possible.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> usize {
        match self {
            Insn::MovRR { .. } => 3,
            Insn::MovRI { .. } => 10,
            Insn::Lea { .. } => 10,
            Insn::Load { .. } => 8,
            Insn::Store { .. } => 8,
            Insn::LoadAbs { .. } => 11,
            Insn::StoreAbs { .. } => 11,
            Insn::AluRR { .. } => 4,
            Insn::AluRI { .. } => 11,
            Insn::CmpRR { .. } => 3,
            Insn::CmpRI { .. } => 10,
            Insn::Setcc { .. } => 3,
            Insn::Jmp { .. } => 5,
            Insn::Jcc { .. } => 6,
            Insn::CallRel { .. } => 5,
            Insn::CallInd { .. } => 2,
            Insn::CallMem { .. } => 9,
            Insn::Push { .. } => 2,
            Insn::Pop { .. } => 2,
            Insn::Ret => 1,
            Insn::Halt => 1,
            Insn::Sti => 1,
            Insn::Cli => 1,
            Insn::Hypercall { .. } => 2,
            Insn::Rdtsc { .. } => 2,
            Insn::Pause => 1,
            Insn::Out { .. } => 2,
            Insn::XchgLock { .. } => 3,
            Insn::Mfence => 1,
            Insn::Trap => 1,
            Insn::Nop { len } => *len as usize,
        }
    }

    /// `true` if this is an instruction with no effect.
    pub const fn is_nop(&self) -> bool {
        matches!(self, Insn::Nop { .. })
    }

    /// `true` for instructions that transfer control (the basic-block
    /// terminators plus calls).
    pub const fn is_control(&self) -> bool {
        matches!(
            self,
            Insn::Jmp { .. }
                | Insn::Jcc { .. }
                | Insn::CallRel { .. }
                | Insn::CallInd { .. }
                | Insn::CallMem { .. }
                | Insn::Ret
                | Insn::Halt
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::MovRR { dst, src } => write!(f, "mov {dst}, {src}"),
            Insn::MovRI { dst, imm } => write!(f, "mov {dst}, {imm}"),
            Insn::Lea { dst, addr } => write!(f, "lea {dst}, {addr:#x}"),
            Insn::Load {
                dst,
                base,
                off,
                width,
                signed,
            } => {
                let s = if signed { "s" } else { "u" };
                write!(f, "ld{s}{} {dst}, [{base}{off:+}]", width.bytes() * 8)
            }
            Insn::Store {
                src,
                base,
                off,
                width,
            } => write!(f, "st{} [{base}{off:+}], {src}", width.bytes() * 8),
            Insn::LoadAbs {
                dst,
                addr,
                width,
                signed,
            } => {
                let s = if signed { "s" } else { "u" };
                write!(f, "ld{s}{} {dst}, [{addr:#x}]", width.bytes() * 8)
            }
            Insn::StoreAbs { src, addr, width } => {
                write!(f, "st{} [{addr:#x}], {src}", width.bytes() * 8)
            }
            Insn::AluRR { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Insn::AluRI { op, dst, imm } => write!(f, "{} {dst}, {imm}", op.mnemonic()),
            Insn::CmpRR { a, b } => write!(f, "cmp {a}, {b}"),
            Insn::CmpRI { a, imm } => write!(f, "cmp {a}, {imm}"),
            Insn::Setcc { cc, dst } => write!(f, "set{} {dst}", cc.mnemonic()),
            Insn::Jmp { rel } => write!(f, "jmp {rel:+}"),
            Insn::Jcc { cc, rel } => write!(f, "j{} {rel:+}", cc.mnemonic()),
            Insn::CallRel { rel } => write!(f, "call {rel:+}"),
            Insn::CallInd { target } => write!(f, "call {target}"),
            Insn::CallMem { addr } => write!(f, "call *[{addr:#x}]"),
            Insn::Push { src } => write!(f, "push {src}"),
            Insn::Pop { dst } => write!(f, "pop {dst}"),
            Insn::Ret => write!(f, "ret"),
            Insn::Halt => write!(f, "halt"),
            Insn::Sti => write!(f, "sti"),
            Insn::Cli => write!(f, "cli"),
            Insn::Hypercall { nr } => write!(f, "hypercall {nr}"),
            Insn::Rdtsc { dst } => write!(f, "rdtsc {dst}"),
            Insn::Pause => write!(f, "pause"),
            Insn::Out { src } => write!(f, "out {src}"),
            Insn::XchgLock { val, base } => write!(f, "lock xchg {val}, [{base}]"),
            Insn::Mfence => write!(f, "mfence"),
            Insn::Trap => write!(f, "trap"),
            Insn::Nop { len } => write!(f, "nop{len}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_and_jmp_are_five_bytes() {
        assert_eq!(Insn::CallRel { rel: 0 }.len(), crate::CALL_SITE_LEN);
        assert_eq!(Insn::Jmp { rel: -123 }.len(), crate::CALL_SITE_LEN);
    }

    #[test]
    fn cond_negate_is_involution() {
        for b in 0..10 {
            let c = Cond::decode(b).unwrap();
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn cond_eval_matches_semantics() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Lt.eval(-1i64 as u64, 0));
        assert!(Cond::B.eval(0, u64::MAX));
        assert!(Cond::A.eval(u64::MAX, 0));
        assert!(Cond::Ge.eval(0, -5i64 as u64));
        assert!(!Cond::Ae.eval(0, u64::MAX));
    }

    #[test]
    fn negated_cond_evaluates_opposite() {
        let pairs = [(3u64, 7u64), (7, 3), (5, 5), (u64::MAX, 1), (0, 0)];
        for b in 0..10 {
            let c = Cond::decode(b).unwrap();
            for &(x, y) in &pairs {
                assert_eq!(c.eval(x, y), !c.negate().eval(x, y), "{c:?} on ({x},{y})");
            }
        }
    }

    #[test]
    fn width_roundtrip() {
        for w in [Width::W8, Width::W16, Width::W32, Width::W64] {
            assert_eq!(Width::decode(w.encode()), w);
            assert_eq!(Width::from_bytes(w.bytes()), Some(w));
        }
        assert_eq!(Width::from_bytes(3), None);
    }

    #[test]
    fn aluop_roundtrip() {
        for b in 0..13 {
            let op = AluOp::decode(b).unwrap();
            assert_eq!(op.encode(), b);
        }
        assert_eq!(AluOp::decode(13), None);
    }

    #[test]
    fn aluop_eval_pins_the_edge_cases() {
        let all = || (0..13).map(|b| AluOp::decode(b).unwrap());
        let min = i64::MIN as u64;
        let neg1 = -1i64 as u64;
        for op in all().filter(|op| op.divides()) {
            assert_eq!(op.eval(7, 0), None, "{op:?} by zero");
            assert_eq!(op.eval(0, 0), None, "{op:?} zero by zero");
        }
        assert_eq!(AluOp::Divs.eval(min, neg1), Some(min));
        assert_eq!(AluOp::Rems.eval(min, neg1), Some(0));
        assert_eq!(AluOp::Divs.eval(-7i64 as u64, 2), Some(-3i64 as u64));
        assert_eq!(AluOp::Rems.eval(-7i64 as u64, 2), Some(-1i64 as u64));
        assert_eq!(AluOp::Divu.eval(neg1, 2), Some(u64::MAX / 2));
        assert_eq!(AluOp::Remu.eval(neg1, 10), Some(5));
        // Shift counts are taken mod 64; `shrs` sign-fills, `shru` does not.
        assert_eq!(AluOp::Shl.eval(1, 64), Some(1));
        assert_eq!(AluOp::Shl.eval(1, 65), Some(2));
        assert_eq!(AluOp::Shl.eval(1, neg1), Some(1 << 63));
        assert_eq!(AluOp::Shru.eval(min, 127), Some(1));
        assert_eq!(AluOp::Shrs.eval(min, 63), Some(neg1));
        assert_eq!(AluOp::Shrs.eval(min, 64), Some(min));
        assert_eq!(AluOp::Shrs.eval(-8i64 as u64, 1), Some(-4i64 as u64));
        // The fault-free form agrees with `eval` on every non-dividing op.
        let vals = [0, 1, 2, 63, 64, 65, 0x5A5A, min, neg1, i64::MAX as u64];
        for op in all().filter(|op| !op.divides()) {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(op.eval(a, b), Some(op.apply(a, b)), "{op:?} {a} {b}");
                }
            }
        }
    }
}
