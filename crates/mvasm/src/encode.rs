//! Binary encoding of MV64 instructions.
//!
//! The encoding is fixed-length per opcode (cf. [`Insn::len`]), with
//! little-endian immediates. The opcodes for `call rel32` (`0xE8`) and
//! `jmp rel32` (`0xE9`) deliberately match x86, and wide NOPs come in every
//! length from 1 to 15 bytes so the patcher can erase arbitrary call sites.

use crate::insn::{Insn, Width};

/// Opcode byte for `call rel32`.
pub const OP_CALL_REL: u8 = 0xE8;
/// Opcode byte for `jmp rel32`.
pub const OP_JMP: u8 = 0xE9;
/// Opcode byte for the single-byte NOP.
pub const OP_NOP1: u8 = 0x90;
/// Opcode byte for the wide NOP (`0x91 len pad…`).
pub const OP_NOPW: u8 = 0x91;
/// Opcode byte for the one-byte trap — deliberately x86's `int3`
/// (`0xCC`), the byte kernels plant first when cross-modifying live text.
pub const OP_TRAP: u8 = 0xCC;

pub(crate) const OP_MOV_RR: u8 = 0x01;
pub(crate) const OP_MOV_RI: u8 = 0x02;
pub(crate) const OP_LEA: u8 = 0x03;
pub(crate) const OP_LOAD: u8 = 0x04;
pub(crate) const OP_STORE: u8 = 0x05;
pub(crate) const OP_LOAD_ABS: u8 = 0x06;
pub(crate) const OP_STORE_ABS: u8 = 0x07;
pub(crate) const OP_ALU_RR: u8 = 0x08;
pub(crate) const OP_ALU_RI: u8 = 0x09;
pub(crate) const OP_CMP_RR: u8 = 0x0A;
pub(crate) const OP_CMP_RI: u8 = 0x0B;
pub(crate) const OP_JCC: u8 = 0x0C;
pub(crate) const OP_CALL_IND: u8 = 0x0D;
pub(crate) const OP_CALL_MEM: u8 = 0x0E;
pub(crate) const OP_PUSH: u8 = 0x0F;
pub(crate) const OP_POP: u8 = 0x10;
pub(crate) const OP_RET: u8 = 0x11;
pub(crate) const OP_HALT: u8 = 0x12;
pub(crate) const OP_STI: u8 = 0x13;
pub(crate) const OP_CLI: u8 = 0x14;
pub(crate) const OP_HYPERCALL: u8 = 0x15;
pub(crate) const OP_RDTSC: u8 = 0x16;
pub(crate) const OP_PAUSE: u8 = 0x17;
pub(crate) const OP_OUT: u8 = 0x18;
pub(crate) const OP_XCHG_LOCK: u8 = 0x19;
pub(crate) const OP_MFENCE: u8 = 0x1A;
pub(crate) const OP_SETCC: u8 = 0x1B;

fn width_flags(width: Width, signed: bool) -> u8 {
    width.encode() | if signed { 0b100 } else { 0 }
}

/// Encodes `insn`, appending its bytes to `out`.
pub fn encode_into(insn: &Insn, out: &mut Vec<u8>) {
    let start = out.len();
    match *insn {
        Insn::MovRR { dst, src } => {
            out.extend_from_slice(&[OP_MOV_RR, dst.raw(), src.raw()]);
        }
        Insn::MovRI { dst, imm } => {
            out.extend_from_slice(&[OP_MOV_RI, dst.raw()]);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Insn::Lea { dst, addr } => {
            out.extend_from_slice(&[OP_LEA, dst.raw()]);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        Insn::Load {
            dst,
            base,
            off,
            width,
            signed,
        } => {
            out.extend_from_slice(&[OP_LOAD, dst.raw(), base.raw()]);
            out.extend_from_slice(&off.to_le_bytes());
            out.push(width_flags(width, signed));
        }
        Insn::Store {
            src,
            base,
            off,
            width,
        } => {
            out.extend_from_slice(&[OP_STORE, src.raw(), base.raw()]);
            out.extend_from_slice(&off.to_le_bytes());
            out.push(width_flags(width, false));
        }
        Insn::LoadAbs {
            dst,
            addr,
            width,
            signed,
        } => {
            out.extend_from_slice(&[OP_LOAD_ABS, dst.raw()]);
            out.extend_from_slice(&addr.to_le_bytes());
            out.push(width_flags(width, signed));
        }
        Insn::StoreAbs { src, addr, width } => {
            out.extend_from_slice(&[OP_STORE_ABS, src.raw()]);
            out.extend_from_slice(&addr.to_le_bytes());
            out.push(width_flags(width, false));
        }
        Insn::AluRR { op, dst, src } => {
            out.extend_from_slice(&[OP_ALU_RR, op.encode(), dst.raw(), src.raw()]);
        }
        Insn::AluRI { op, dst, imm } => {
            out.extend_from_slice(&[OP_ALU_RI, op.encode(), dst.raw()]);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Insn::CmpRR { a, b } => {
            out.extend_from_slice(&[OP_CMP_RR, a.raw(), b.raw()]);
        }
        Insn::CmpRI { a, imm } => {
            out.extend_from_slice(&[OP_CMP_RI, a.raw()]);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Insn::Jmp { rel } => out.extend_from_slice(&rel32_insn(OP_JMP, rel)),
        Insn::Jcc { cc, rel } => {
            out.extend_from_slice(&[OP_JCC, cc.encode()]);
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Insn::CallRel { rel } => out.extend_from_slice(&rel32_insn(OP_CALL_REL, rel)),
        Insn::CallInd { target } => {
            out.extend_from_slice(&[OP_CALL_IND, target.raw()]);
        }
        Insn::CallMem { addr } => {
            out.push(OP_CALL_MEM);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        Insn::Push { src } => out.extend_from_slice(&[OP_PUSH, src.raw()]),
        Insn::Pop { dst } => out.extend_from_slice(&[OP_POP, dst.raw()]),
        Insn::Ret => out.push(OP_RET),
        Insn::Halt => out.push(OP_HALT),
        Insn::Sti => out.push(OP_STI),
        Insn::Cli => out.push(OP_CLI),
        Insn::Hypercall { nr } => out.extend_from_slice(&[OP_HYPERCALL, nr]),
        Insn::Rdtsc { dst } => out.extend_from_slice(&[OP_RDTSC, dst.raw()]),
        Insn::Pause => out.push(OP_PAUSE),
        Insn::Out { src } => out.extend_from_slice(&[OP_OUT, src.raw()]),
        Insn::XchgLock { val, base } => {
            out.extend_from_slice(&[OP_XCHG_LOCK, val.raw(), base.raw()]);
        }
        Insn::Setcc { cc, dst } => {
            out.extend_from_slice(&[OP_SETCC, cc.encode(), dst.raw()]);
        }
        Insn::Mfence => out.push(OP_MFENCE),
        Insn::Trap => out.push(OP_TRAP),
        Insn::Nop { len } => {
            assert!(
                (1..=crate::MAX_NOP_LEN as u8).contains(&len),
                "nop length {len} out of range 1..=15"
            );
            out.resize(start + len as usize, 0);
            write_nop(&mut out[start..]);
        }
    }
    debug_assert_eq!(out.len() - start, insn.len(), "length mismatch for {insn}");
}

/// Encodes `insn` into a fresh byte vector.
pub fn encode(insn: &Insn) -> Vec<u8> {
    let mut v = Vec::with_capacity(insn.len());
    encode_into(insn, &mut v);
    v
}

/// The encoding of a `rel32` transfer (`call rel32` or `jmp rel32`):
/// the opcode, then the little-endian displacement.
pub(crate) fn rel32_insn(op: u8, rel: i32) -> [u8; crate::CALL_SITE_LEN] {
    let mut bytes = [op; crate::CALL_SITE_LEN];
    bytes[1..].copy_from_slice(&rel.to_le_bytes());
    bytes
}

/// Writes one NOP exactly `out.len()` (1 to 15) bytes long.
fn write_nop(out: &mut [u8]) {
    if let [byte] = out {
        *byte = OP_NOP1;
    } else {
        out[0] = OP_NOPW;
        out[1] = out.len() as u8;
        out[2..].fill(0);
    }
}

/// Fills `out` with NOP instructions covering exactly its length.
///
/// Used by the patcher to erase an empty function body at a call site
/// (Fig. 3 c of the paper). Any length is supported by chaining wide
/// NOPs.
pub fn nop_fill(out: &mut [u8]) {
    let mut rest = out;
    while !rest.is_empty() {
        // A trailing remainder of 16 must not emit a 15-byte NOP followed by
        // an invalid 1-byte tail of a wide NOP, so split 16 as 8 + 8.
        let chunk = match rest.len() {
            16 => 8,
            n => n.min(crate::MAX_NOP_LEN),
        };
        let (nop, tail) = rest.split_at_mut(chunk);
        write_nop(nop);
        rest = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::reg::Reg;

    #[test]
    fn lengths_match_declared() {
        let insns = [
            Insn::MovRR {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Insn::MovRI {
                dst: Reg::R2,
                imm: -7,
            },
            Insn::CallRel { rel: 42 },
            Insn::Jmp { rel: -42 },
            Insn::Ret,
            Insn::Nop { len: 1 },
            Insn::Nop { len: 15 },
        ];
        for i in &insns {
            assert_eq!(encode(i).len(), i.len(), "{i}");
        }
    }

    #[test]
    fn nop_fill_covers_every_length() {
        for len in 1..200 {
            let mut bytes = vec![0u8; len];
            nop_fill(&mut bytes);
            assert_eq!(bytes.len(), len);
            // The fill must decode as a pure NOP sled.
            let mut pos = 0;
            while pos < len {
                let (insn, n) = decode(&bytes[pos..]).expect("decodable");
                assert!(insn.is_nop(), "at {pos}: {insn}");
                pos += n;
            }
            assert_eq!(pos, len);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nop_zero_rejected() {
        encode(&Insn::Nop { len: 0 });
    }
}
