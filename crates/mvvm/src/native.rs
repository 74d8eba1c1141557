//! The native host-closure tier: whole-function regions lowered ahead
//! of execution into pre-resolved micro-op runs.
//!
//! Where the block tiers ([`crate::block`]) *record* decode as a side
//! effect of executing, this tier *lowers* statically: starting from a
//! registered function entry it walks the reachable direct control flow
//! (`jmp`, `jcc`, `call rel` and fallthrough edges) through
//! [`crate::Memory::fetch`] and compiles every straight-line block into a
//! [`NativeBlock`] — alternating [`Seg::Fast`] runs of packed
//! [`MicroOp`]s with their cycle charges pre-classified, and
//! [`Seg::Slow`] single instructions that replay through the one true
//! per-instruction routine. A peephole pass folds `mov r, imm; alu r,
//! imm` into a constant move, merges same-op immediate chains, collapses
//! maximal same-register immediate-ALU runs into [`MicroOp::ChainRI`]
//! chains (the executor keeps the chained value in a host register
//! instead of bouncing every intermediate off the register file), and
//! pairs the remaining immediate ALU ops — one batched `tsc` update per
//! segment.
//!
//! The observational contract is identical to the block tiers: fast
//! micro-ops are restricted to the [`crate::DecodedBlock::is_fast`]
//! subset (register-only, unfaultable, control-free), cycle charges are
//! counted per original instruction class, and everything else — loads,
//! stores, branches, calls, traps — goes through `exec_insn` unchanged.
//! A lowered region is valid only while every page it was lowered from
//! keeps its `code_version`; a commit patch invalidates the whole
//! region and execution falls back to the block engine until the next
//! successful commit re-registers it.
//!
//! Registration is explicit ([`crate::Machine::ensure_native`]): the
//! `native` runtime backend drives it from the commit protocol, keeping
//! the set of lowered regions in lockstep with the functions' installed
//! variants.

use crate::block::{FxBuildHasher, PageGens};
use crate::mem::Memory;
use crate::DecodedBlock;
use mvasm::{AluOp, Cond, Insn};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Blocks a lowered region may hold before lowering stops following
/// successors (execution past the cap falls back to the block engine).
pub const MAX_NATIVE_BLOCKS: usize = 128;
/// Instructions per lowered block (the tier-0 limit, for parity).
pub const MAX_NATIVE_BLOCK_INSTS: usize = crate::block::MAX_BLOCK_INSTS;

/// Monotone counters of the native tier, mirrored into the metrics
/// registry as `mv_vm_native_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Regions lowered and registered (cumulative).
    pub regions: u64,
    /// Blocks lowered across all regions (cumulative).
    pub blocks: u64,
    /// Native block executions (one per block entered, not per op).
    pub runs: u64,
    /// Guest instructions retired through native segments.
    pub insns: u64,
    /// Regions dropped because a page generation moved under them.
    pub invalidations: u64,
}

/// A pre-resolved register-only micro-operation. Register operands are
/// stored as raw indices (`Reg::index()`), immediates pre-widened to
/// `u64` — everything the hot dispatch would otherwise recompute.
#[derive(Clone, Copy, Debug)]
pub enum MicroOp {
    /// `dst = src`.
    MovRR {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst = imm` — also the lowering of `lea` and of folded
    /// move/ALU-immediate chains.
    MovRI {
        /// Destination register index.
        dst: u8,
        /// Pre-widened immediate.
        imm: u64,
    },
    /// `dst = dst op src`.
    AluRR {
        /// ALU operation (never div/rem — those cannot enter a fast run).
        op: AluOp,
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst = dst op imm`.
    AluRI {
        /// ALU operation (never div/rem).
        op: AluOp,
        /// Destination register index.
        dst: u8,
        /// Pre-widened immediate.
        imm: u64,
    },
    /// Two immediate ALU ops retired in one dispatch.
    Alu2RI {
        /// First operation.
        op1: AluOp,
        /// First destination register index.
        dst1: u8,
        /// First immediate.
        imm1: u64,
        /// Second operation.
        op2: AluOp,
        /// Second destination register index.
        dst2: u8,
        /// Second immediate.
        imm2: u64,
    },
    /// `cmp = (a, b)`.
    CmpRR {
        /// Left operand register index.
        a: u8,
        /// Right operand register index.
        b: u8,
    },
    /// `cmp = (a, imm)`.
    CmpRI {
        /// Left operand register index.
        a: u8,
        /// Pre-widened immediate.
        imm: u64,
    },
    /// `dst = cc(cmp)`.
    Setcc {
        /// Condition to evaluate against the `cmp` operands.
        cc: Cond,
        /// Destination register index.
        dst: u8,
    },
    /// A maximal run of immediate ALU ops on one register, executed as
    /// `dst = opN(.. op2(op1(dst, i1), i2) .., iN)` with the chained
    /// value held in a host register throughout. The steps live in the
    /// owning segment's [`FastSeg::chains`] table (out of line, so the
    /// op stays `Copy`).
    ChainRI {
        /// Destination register index.
        dst: u8,
        /// Index into [`FastSeg::chains`].
        chain: u32,
    },
}

/// The step list of one [`MicroOp::ChainRI`]: `(op, imm)` applied left
/// to right to the chained value.
pub type AluChain = Box<[(AluOp, u64)]>;

/// Per-cost-class instruction counts of a fast segment: the segment's
/// whole cycle charge is `Σ count · class_cost`, computed once per run
/// instead of once per op. Counted from the *original* instructions, so
/// peephole fusion can never change what a segment charges.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostCounts {
    /// Ops charging `cost.alu` (moves, non-mul ALU, `setcc`).
    pub alu: u32,
    /// Ops charging `cost.mul`.
    pub mul: u32,
    /// Ops charging `cost.lea`.
    pub lea: u32,
    /// Ops charging `cost.cmp`.
    pub cmp: u32,
}

impl CostCounts {
    /// Total cycle charge of a segment under `cost`.
    #[inline]
    pub fn cycles(&self, cost: &crate::CostModel) -> u64 {
        self.alu as u64 * cost.alu
            + self.mul as u64 * cost.mul
            + self.lea as u64 * cost.lea
            + self.cmp as u64 * cost.cmp
    }

    fn count(&mut self, insn: &Insn) {
        match insn {
            Insn::MovRR { .. } | Insn::MovRI { .. } | Insn::Setcc { .. } => self.alu += 1,
            Insn::Lea { .. } => self.lea += 1,
            Insn::AluRR { op, .. } | Insn::AluRI { op, .. } => {
                if matches!(op, AluOp::Mul) {
                    self.mul += 1;
                } else {
                    self.alu += 1;
                }
            }
            Insn::CmpRR { .. } | Insn::CmpRI { .. } => self.cmp += 1,
            _ => unreachable!("non-fast op in a fast segment"),
        }
    }
}

/// A maximal run of fast ops, pre-lowered and pre-accounted.
pub struct FastSeg {
    /// The fused micro-op sequence.
    pub micro: Box<[MicroOp]>,
    /// Step tables of the segment's [`MicroOp::ChainRI`] ops.
    pub chains: Box<[AluChain]>,
    /// Guest instructions this segment retires (pre-fusion count).
    pub insns: u32,
    /// Pre-classified cycle charges.
    pub counts: CostCounts,
    /// `pc` after the segment's last instruction.
    pub next_pc: u64,
    /// `Some(next_pc)` iff the last instruction is a `cmp` (the macro-
    /// fusion latch the following `jcc` reads).
    pub fuse_next: Option<u64>,
}

/// One segment of a lowered block.
pub enum Seg {
    /// A batched run of register-only micro-ops.
    Fast(FastSeg),
    /// A single instruction replayed through `exec_insn`.
    Slow {
        /// Instruction address.
        pc: u64,
        /// The decoded instruction.
        insn: Insn,
    },
}

/// A lowered straight-line block.
pub struct NativeBlock {
    /// Entry address.
    pub entry: u64,
    /// Segments in execution order.
    pub segs: Vec<Seg>,
    /// Total guest instructions in the block.
    pub insns: u32,
}

/// A lowered function region: every straight-line block reachable from
/// `entry` over direct control flow, plus the page generations the
/// lowering observed.
pub struct NativeFn {
    /// The registered entry the region was lowered from.
    pub entry: u64,
    /// Lowered blocks; `by_pc` maps block entry addresses to indices.
    pub blocks: Vec<NativeBlock>,
    /// Block entry `pc` → index into [`NativeFn::blocks`].
    pub by_pc: HashMap<u64, usize, FxBuildHasher>,
    /// The generation of every page any lowered instruction's encoding
    /// touches — the same validity record the block caches use.
    pub pages: PageGens,
}

/// Shared handle to a lowered region.
pub type NativeRef = Rc<NativeFn>;

/// The per-machine registry of lowered regions, keyed by every block
/// entry address so execution can re-enter a region mid-function.
#[derive(Default)]
pub struct NativeRegistry {
    map: HashMap<u64, NativeRef, FxBuildHasher>,
    /// Monotone tier counters (survive invalidations and `clear`).
    pub stats: NativeStats,
}

impl NativeRegistry {
    /// The region covering a block starting at `pc`, if any.
    #[inline]
    pub fn get(&self, pc: u64) -> Option<&NativeRef> {
        self.map.get(&pc)
    }

    /// `true` if no region is registered at all (the one-branch fast
    /// path out of the native stepper).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Registers `nf` under every block entry it lowers.
    pub fn register(&mut self, nf: NativeRef) {
        self.stats.regions += 1;
        self.stats.blocks += nf.blocks.len() as u64;
        for b in &nf.blocks {
            self.map.insert(b.entry, Rc::clone(&nf));
        }
    }

    /// Drops the region registered from `entry` (leaves keys another
    /// region has since overwritten untouched).
    pub fn unregister(&mut self, entry: u64) {
        self.map.retain(|_, nf| nf.entry != entry);
    }

    /// Drops the region registered from `entry`, counting it as a
    /// validity invalidation.
    pub fn invalidate_region(&mut self, entry: u64) {
        self.stats.invalidations += 1;
        self.unregister(entry);
    }

    /// Keeps only regions whose registered entry satisfies `keep`.
    pub fn retain_regions(&mut self, keep: impl Fn(u64) -> bool) {
        self.map.retain(|_, nf| keep(nf.entry));
    }

    /// Drops every region whose lowered pages overlap `[start, end)` —
    /// the native half of an explicit icache shootdown. Page-granular
    /// (a superset of the instruction-start rule): over-eviction only
    /// costs a re-lowering, never correctness.
    pub fn invalidate_overlapping(&mut self, start: u64, end: u64) {
        self.map.retain(|_, nf| !nf.pages.overlaps(start, end));
    }

    /// Drops every region.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Registered entry addresses (deduplicated, unordered).
    pub fn entries(&self) -> Vec<u64> {
        let set: HashSet<u64> = self.map.values().map(|nf| nf.entry).collect();
        set.into_iter().collect()
    }
}

/// `x op i1 op i2 == x op combine(i1, i2)` under wrapping semantics —
/// the ops whose immediate chains merge into one.
fn combine_imms(op: AluOp, i1: u64, i2: u64) -> Option<u64> {
    match op {
        AluOp::Add | AluOp::Sub => Some(i1.wrapping_add(i2)),
        AluOp::Mul => Some(i1.wrapping_mul(i2)),
        AluOp::And => Some(i1 & i2),
        AluOp::Or => Some(i1 | i2),
        AluOp::Xor => Some(i1 ^ i2),
        _ => None,
    }
}

fn micro_of(insn: &Insn) -> MicroOp {
    match *insn {
        Insn::MovRR { dst, src } => MicroOp::MovRR {
            dst: dst.index() as u8,
            src: src.index() as u8,
        },
        Insn::MovRI { dst, imm } => MicroOp::MovRI {
            dst: dst.index() as u8,
            imm: imm as u64,
        },
        Insn::Lea { dst, addr } => MicroOp::MovRI {
            dst: dst.index() as u8,
            imm: addr,
        },
        Insn::AluRR { op, dst, src } => MicroOp::AluRR {
            op,
            dst: dst.index() as u8,
            src: src.index() as u8,
        },
        Insn::AluRI { op, dst, imm } => MicroOp::AluRI {
            op,
            dst: dst.index() as u8,
            imm: imm as u64,
        },
        Insn::CmpRR { a, b } => MicroOp::CmpRR {
            a: a.index() as u8,
            b: b.index() as u8,
        },
        Insn::CmpRI { a, imm } => MicroOp::CmpRI {
            a: a.index() as u8,
            imm: imm as u64,
        },
        Insn::Setcc { cc, dst } => MicroOp::Setcc {
            cc,
            dst: dst.index() as u8,
        },
        _ => unreachable!("non-fast op lowered as micro-op"),
    }
}

/// The peephole pass: fold `mov dst, i1; alu dst, i2` to a constant
/// move, merge same-op immediate chains on one register, collapse
/// maximal same-register immediate-ALU runs into [`MicroOp::ChainRI`],
/// then pair the remaining adjacent immediate ALU ops into
/// [`MicroOp::Alu2RI`]. Value semantics are preserved exactly (ops are
/// applied in program order; only wrapping arithmetic identities fold);
/// cycle accounting is untouched because segments charge by pre-fusion
/// [`CostCounts`]. Returns the fused sequence plus the chain step
/// tables the `ChainRI` ops index.
fn fuse(mut micro: Vec<MicroOp>) -> (Vec<MicroOp>, Vec<AluChain>) {
    loop {
        let mut out: Vec<MicroOp> = Vec::with_capacity(micro.len());
        let mut changed = false;
        for op in micro {
            match (out.last().copied(), op) {
                (
                    Some(MicroOp::MovRI { dst, imm }),
                    MicroOp::AluRI {
                        op,
                        dst: d2,
                        imm: i2,
                    },
                ) if dst == d2 => {
                    *out.last_mut().unwrap() = MicroOp::MovRI {
                        dst,
                        imm: op.apply(imm, i2),
                    };
                    changed = true;
                }
                (
                    Some(MicroOp::AluRI { op, dst, imm }),
                    MicroOp::AluRI {
                        op: o2,
                        dst: d2,
                        imm: i2,
                    },
                ) if dst == d2 && op == o2 && combine_imms(op, imm, i2).is_some() => {
                    *out.last_mut().unwrap() = MicroOp::AluRI {
                        op,
                        dst,
                        imm: combine_imms(op, imm, i2).unwrap(),
                    };
                    changed = true;
                }
                (_, op) => out.push(op),
            }
        }
        micro = out;
        if !changed {
            break;
        }
    }
    // Collapse maximal same-register immediate-ALU runs into chains:
    // dependent intermediates then live in one host register instead of
    // round-tripping through the register file between every op (the
    // store-to-load forwarding latency that otherwise dominates hot
    // ALU-chain workloads).
    let mut chains: Vec<AluChain> = Vec::new();
    let mut out: Vec<MicroOp> = Vec::with_capacity(micro.len());
    let mut i = 0usize;
    while i < micro.len() {
        if let MicroOp::AluRI { op, dst, imm } = micro[i] {
            let mut steps = vec![(op, imm)];
            let mut j = i + 1;
            while j < micro.len() {
                match micro[j] {
                    MicroOp::AluRI {
                        op: o2,
                        dst: d2,
                        imm: i2,
                    } if d2 == dst => {
                        steps.push((o2, i2));
                        j += 1;
                    }
                    _ => break,
                }
            }
            if steps.len() >= 2 {
                out.push(MicroOp::ChainRI {
                    dst,
                    chain: chains.len() as u32,
                });
                chains.push(steps.into_boxed_slice());
                i = j;
                continue;
            }
        }
        out.push(micro[i]);
        i += 1;
    }
    micro = out;
    // Pair what remains: two immediate ALU ops per dispatch. (Chaining
    // already took every same-register run, so pairs mix registers.)
    let mut out: Vec<MicroOp> = Vec::with_capacity(micro.len());
    for op in micro {
        match (out.last().copied(), op) {
            (
                Some(MicroOp::AluRI {
                    op: op1,
                    dst: dst1,
                    imm: imm1,
                }),
                MicroOp::AluRI {
                    op: op2,
                    dst: dst2,
                    imm: imm2,
                },
            ) => {
                *out.last_mut().unwrap() = MicroOp::Alu2RI {
                    op1,
                    dst1,
                    imm1,
                    op2,
                    dst2,
                    imm2,
                };
            }
            (_, op) => out.push(op),
        }
    }
    (out, chains)
}

fn build_block(entry: u64, ops: &[(u64, Insn)]) -> NativeBlock {
    let mut segs = Vec::new();
    let mut i = 0usize;
    while i < ops.len() {
        let (pc, insn) = ops[i];
        if DecodedBlock::is_fast(&insn) {
            let mut j = i;
            let mut counts = CostCounts::default();
            let mut micro = Vec::new();
            while j < ops.len() && DecodedBlock::is_fast(&ops[j].1) {
                counts.count(&ops[j].1);
                micro.push(micro_of(&ops[j].1));
                j += 1;
            }
            let (last_pc, last) = ops[j - 1];
            let next_pc = last_pc + last.len() as u64;
            let (micro, chains) = fuse(micro);
            segs.push(Seg::Fast(FastSeg {
                micro: micro.into_boxed_slice(),
                chains: chains.into_boxed_slice(),
                insns: (j - i) as u32,
                counts,
                next_pc,
                fuse_next: DecodedBlock::fuse_latch(&last, next_pc),
            }));
            i = j;
        } else {
            segs.push(Seg::Slow { pc, insn });
            i += 1;
        }
    }
    NativeBlock {
        entry,
        segs,
        insns: ops.len() as u32,
    }
}

/// Statically lowers the function region reachable from `entry`:
/// breadth-first over direct control flow, fetching and decoding
/// through `mem` without executing anything. Returns `None` when not
/// even the entry block could be decoded (unmapped, non-executable, or
/// an immediate decode error).
pub fn lower(mem: &Memory, entry: u64) -> Option<NativeFn> {
    let mut blocks: Vec<NativeBlock> = Vec::new();
    let mut by_pc: HashMap<u64, usize, FxBuildHasher> = HashMap::default();
    let mut pages = PageGens::new(mem);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut enqueued: HashSet<u64> = HashSet::new();
    queue.push_back(entry);
    enqueued.insert(entry);
    while let Some(pc) = queue.pop_front() {
        if by_pc.contains_key(&pc) || blocks.len() >= MAX_NATIVE_BLOCKS {
            continue;
        }
        let mut ops: Vec<(u64, Insn)> = Vec::new();
        let mut cur = pc;
        let mut succs: Vec<u64> = Vec::new();
        loop {
            if ops.len() >= MAX_NATIVE_BLOCK_INSTS {
                succs.push(cur); // fallthrough continuation block
                break;
            }
            let Ok(insn) = mem.fetch_insn(cur) else {
                break;
            };
            pages.record(mem, cur, insn.len());
            ops.push((cur, insn));
            let next = cur + insn.len() as u64;
            match insn {
                Insn::Jmp { rel } => {
                    succs.push(next.wrapping_add(rel as i64 as u64));
                    break;
                }
                Insn::Jcc { rel, .. } => {
                    succs.push(next.wrapping_add(rel as i64 as u64));
                    succs.push(next);
                    break;
                }
                Insn::CallRel { rel } => {
                    succs.push(next.wrapping_add(rel as i64 as u64));
                    succs.push(next); // where the callee's `ret` lands
                    break;
                }
                Insn::CallInd { .. }
                | Insn::CallMem { .. }
                | Insn::Ret
                | Insn::Halt
                | Insn::Trap => break,
                _ => cur = next,
            }
        }
        if ops.is_empty() {
            continue;
        }
        let idx = blocks.len();
        blocks.push(build_block(pc, &ops));
        by_pc.insert(pc, idx);
        for s in succs {
            if enqueued.insert(s) {
                queue.push_back(s);
            }
        }
    }
    if blocks.is_empty() {
        return None;
    }
    Some(NativeFn {
        entry,
        blocks,
        by_pc,
        pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasm::Reg;

    fn alu_ri(op: AluOp, dst: u8, imm: u64) -> MicroOp {
        MicroOp::AluRI { op, dst, imm }
    }

    #[test]
    fn fuse_folds_mov_alu_chains_to_a_constant() {
        let micro = vec![
            MicroOp::MovRI { dst: 3, imm: 10 },
            alu_ri(AluOp::Add, 3, 5),
            alu_ri(AluOp::Mul, 3, 2),
        ];
        let (out, chains) = fuse(micro);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], MicroOp::MovRI { dst: 3, imm: 30 }));
        assert!(chains.is_empty());
    }

    #[test]
    fn fuse_merges_same_op_chains_and_chains_same_register_runs() {
        // add r1, 1; add r1, 2  → add r1, 3 (merged)
        // xor r2, 4; and r2, 7  → one ChainRI run on r2
        let micro = vec![
            alu_ri(AluOp::Add, 1, 1),
            alu_ri(AluOp::Add, 1, 2),
            alu_ri(AluOp::Xor, 2, 4),
            alu_ri(AluOp::And, 2, 7),
        ];
        let (out, chains) = fuse(micro);
        assert_eq!(out.len(), 2, "merged add-chain, then the r2 run chained");
        assert!(matches!(
            out[0],
            MicroOp::AluRI {
                op: AluOp::Add,
                dst: 1,
                imm: 3
            }
        ));
        assert!(matches!(out[1], MicroOp::ChainRI { dst: 2, chain: 0 }));
        assert_eq!(&*chains[0], &[(AluOp::Xor, 4), (AluOp::And, 7)]);
    }

    #[test]
    fn fuse_pairs_mixed_register_alu_ops() {
        // Different registers: no chain forms, greedy pairing applies.
        let micro = vec![alu_ri(AluOp::Add, 1, 1), alu_ri(AluOp::Xor, 2, 4)];
        let (out, chains) = fuse(micro);
        assert_eq!(out.len(), 1);
        assert!(chains.is_empty());
        assert!(matches!(
            out[0],
            MicroOp::Alu2RI {
                op1: AluOp::Add,
                dst1: 1,
                imm1: 1,
                op2: AluOp::Xor,
                dst2: 2,
                imm2: 4,
            }
        ));
    }

    #[test]
    fn fuse_never_merges_shift_chains() {
        // shl r0, 40; shl r0, 40 must NOT become shl r0, 80 — the shift
        // count wraps mod 64 per instruction. It chains as two steps.
        let micro = vec![alu_ri(AluOp::Shl, 0, 40), alu_ri(AluOp::Shl, 0, 40)];
        let (out, chains) = fuse(micro);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], MicroOp::ChainRI { dst: 0, chain: 0 }));
        assert_eq!(&*chains[0], &[(AluOp::Shl, 40), (AluOp::Shl, 40)]);
    }

    #[test]
    fn chained_steps_apply_in_program_order() {
        // ((x + 1) ^ 0x5A5A) & 0xffff — order matters; the chain must
        // evaluate left to right exactly as the discrete ops would.
        let micro = vec![
            alu_ri(AluOp::Add, 0, 1),
            alu_ri(AluOp::Xor, 0, 0x5A5A),
            alu_ri(AluOp::And, 0, 0xffff),
        ];
        let (out, chains) = fuse(micro);
        assert_eq!(out.len(), 1);
        let MicroOp::ChainRI { chain, .. } = out[0] else {
            panic!("expected a chain");
        };
        let x = 0x1234u64;
        let v = chains[chain as usize]
            .iter()
            .fold(x, |v, &(op, imm)| op.apply(v, imm));
        assert_eq!(v, ((x + 1) ^ 0x5A5A) & 0xffff);
    }

    #[test]
    fn cost_counts_classify_by_cycle_class() {
        let mut c = CostCounts::default();
        c.count(&Insn::MovRI {
            dst: Reg::R0,
            imm: 1,
        });
        c.count(&Insn::AluRI {
            op: AluOp::Mul,
            dst: Reg::R0,
            imm: 2,
        });
        c.count(&Insn::Lea {
            dst: Reg::R1,
            addr: 0x100,
        });
        c.count(&Insn::CmpRI { a: Reg::R0, imm: 3 });
        assert_eq!((c.alu, c.mul, c.lea, c.cmp), (1, 1, 1, 1));
        let cost = crate::CostModel::default();
        assert_eq!(c.cycles(&cost), cost.alu + cost.mul + cost.lea + cost.cmp);
    }

    #[test]
    fn registry_register_unregister_and_overlap() {
        let mut reg = NativeRegistry::default();
        let mem = Memory::new();
        let mut pages = PageGens::new(&mem);
        pages.record(&mem, 0x1000, 1);
        let nf = Rc::new(NativeFn {
            entry: 0x1000,
            blocks: vec![
                NativeBlock {
                    entry: 0x1000,
                    segs: vec![],
                    insns: 0,
                },
                NativeBlock {
                    entry: 0x1040,
                    segs: vec![],
                    insns: 0,
                },
            ],
            by_pc: HashMap::default(),
            pages,
        });
        reg.register(nf);
        assert!(reg.get(0x1000).is_some());
        assert!(reg.get(0x1040).is_some(), "keyed by every block entry");
        assert_eq!(reg.entries(), vec![0x1000]);
        // A range on another page leaves it alone…
        reg.invalidate_overlapping(0x5000, 0x5010);
        assert!(reg.get(0x1000).is_some());
        // …one on its page drops the whole region.
        reg.invalidate_overlapping(0x1ff0, 0x2001);
        assert!(reg.get(0x1000).is_none());
        assert!(reg.is_empty());
    }
}
