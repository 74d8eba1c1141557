#![warn(missing_docs)]
//! MV64 — the instruction-set architecture underlying the Multiverse
//! reproduction.
//!
//! The EuroSys'19 Multiverse paper patches IA-32/AMD64 text segments at run
//! time: it rewrites 5-byte `CALL rel32` instructions at recorded call sites,
//! overwrites function entries with 5-byte `JMP rel32` instructions, and
//! inlines function bodies that are smaller than a call site (padding with
//! wide `NOP`s). MV64 is an x86-flavoured ISA designed so that exactly these
//! binary transformations are expressible with the same size constraints:
//!
//! * [`Insn::CallRel`] and [`Insn::Jmp`] encode to exactly **5 bytes**
//!   (opcode + `rel32`), mirroring x86 `E8`/`E9`.
//! * Wide no-ops of any length from 1 to 15 bytes exist ([`nop_fill`]),
//!   mirroring the x86 multi-byte NOP used to erase empty bodies.
//! * Indirect calls through memory ([`Insn::CallMem`]) model the PV-Ops
//!   function-pointer dispatch that the Linux kernel patches at boot.
//! * Privileged interrupt-flag instructions ([`Insn::Sti`]/[`Insn::Cli`]) and
//!   [`Insn::Hypercall`] model the paravirtualization case study.
//!
//! The crate provides the instruction definitions ([`insn`]), binary
//! encoding and decoding ([`encode()`](encode()), [`decode()`](decode())), a label-resolving
//! assembler that records relocation fixups ([`asm`]), a disassembler
//! ([`disasm()`](disasm())), and calling-convention descriptions ([`cc`]) including the
//! custom all-callee-saved PV-Ops convention the paper discusses in §6.1.

pub mod abi;
pub mod asm;
pub mod cc;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod insn;
pub mod reg;

pub use abi::{AbiError, Mv64Abi, MV64};
pub use asm::{Assembler, Fixup, FixupKind};
pub use decode::{decode, DecodeError};
pub use disasm::disasm;
pub use encode::{encode, encode_into, nop_fill};
pub use insn::{AluOp, Cond, Insn, Width};
pub use reg::Reg;

/// Size in bytes of a `CALL rel32` / `JMP rel32` instruction.
///
/// This is the "far-call site is 5 bytes" constant from §4 of the paper: a
/// variant body is inlined into a call site only if it fits into this many
/// bytes.
pub const CALL_SITE_LEN: usize = 5;

/// Largest wide NOP instruction, as on x86 (15-byte instruction limit).
pub const MAX_NOP_LEN: usize = 15;
