//! Decoded straight-line blocks: the unit of the tiered execution engine.
//!
//! A [`DecodedBlock`] is a *recorded trace* of `(pc, insn)` pairs: the
//! first time the interpreter enters a block, it executes instruction by
//! instruction through the ordinary decode path ([`crate::Machine`]'s
//! `decode_at`) while memoizing every decode it performed. Replaying the
//! block later re-runs the exact same decoded instructions through the
//! exact same per-instruction execution routine, so cycles, [`crate::Stats`],
//! traces and profiles are byte-identical to tierless execution by
//! construction — the block layer memoizes *decode*, never semantics.
//!
//! Invalidation is precise, driven by per-page text generations
//! ([`crate::Memory::text_gen`]) through the [`PageGens`] record that
//! blocks and lowered native regions share:
//!
//! * every block records the generation of **every page any of its
//!   instruction encodings touches** (an instruction straddling a page
//!   boundary contributes both pages);
//! * in normal (non-sticky) mode a block is served only while all its
//!   recorded generations still match — a commit patch invalidates
//!   exactly the blocks on the pages it wrote or flushed, nothing else.
//!   An unflushed write sends a block back through the decode cache,
//!   which still serves the stale decodes, so the re-recorded block is
//!   exactly as stale as tierless execution. The
//!   [`crate::Memory::text_epoch`] counter provides an O(1) "nothing
//!   written or flushed since validation" fast path;
//! * in sticky-icache mode (the SMP machine's private per-CPU icaches)
//!   version checks are skipped entirely; only an explicit shootdown
//!   ([`crate::SmpMachine::flush_remote`]) evicts. A ranged one goes
//!   through [`crate::Machine::invalidate_decode_range`], using the same
//!   instruction-start-address rule the per-instruction cache uses, so a
//!   stale block stays observably stale exactly as long as a stale
//!   per-instruction decode would; a full one (every quiesced commit's)
//!   empties every vCPU's decode and block caches.
//!
//! A [`DecodedBlock`] is a small by-value header. Its ops ([`BlockOp`])
//! and page generations live in two arenas of the owning
//! [`crate::tier0::BlockCache`], so recording appends and a full
//! shootdown frees nothing.

use crate::mem::{Memory, PAGE_SIZE};
use mvasm::Insn;
use std::cell::Cell;
use std::ops::Range;

/// Which execution engine the machine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecTier {
    /// The original fetch/decode/execute loop, one instruction at a time.
    /// This is the default and the oracle the tiered engines are
    /// differentially tested against.
    #[default]
    Tierless,
    /// Tier 0: straight-line blocks decoded once and replayed, ending at
    /// every control transfer.
    Block,
    /// Tier 1: tier-0 blocks, plus hot block entries are re-recorded as
    /// superblocks that fuse across direct `jmp`/`call` transfers into
    /// longer pre-decoded runs.
    Superblock,
    /// Tier 2: superblock behavior plus pre-lowered whole-function
    /// regions ([`crate::native`]) for explicitly registered entries —
    /// the host-closure tier an attached runtime keeps on the live
    /// variants after every commit.
    Native,
}

impl ExecTier {
    /// Parses a tier name as accepted by `mvcc run --tier`.
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "tierless" | "off" => Some(ExecTier::Tierless),
            "block" | "tier0" => Some(ExecTier::Block),
            "superblock" | "tier1" => Some(ExecTier::Superblock),
            "native" | "tier2" => Some(ExecTier::Native),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecTier::Tierless => "tierless",
            ExecTier::Block => "block",
            ExecTier::Superblock => "superblock",
            ExecTier::Native => "native",
        })
    }
}

/// Ops per tier-0 block before recording stops unconditionally.
pub const MAX_BLOCK_INSTS: usize = 256;
/// Ops per superblock before recording stops unconditionally.
pub const MAX_SUPERBLOCK_INSTS: usize = 1024;
/// Direct transfers a superblock may fuse across.
pub const MAX_SUPERBLOCK_FUSES: usize = 16;

/// One recorded op in a block cache's op arena: a `(pc, insn)` pair of
/// the memoized trace, plus the fast run starting at it.
#[derive(Clone, Copy, Debug)]
pub struct BlockOp {
    /// Address the op was fetched from.
    pub pc: u64,
    /// The memoized decode.
    pub insn: Insn,
    /// Length of the maximal run of *fast* ops (see
    /// [`DecodedBlock::is_fast`]) starting at this op within its block,
    /// or `0` if this op is not fast. Replay retires a whole run with
    /// batched `tsc`/instruction-count bookkeeping — sound because fast
    /// ops cannot fault, halt, transfer control, or observe
    /// `tsc`/[`crate::Stats`], and nothing else can observe machine state
    /// mid-quantum.
    pub fast_run: u32,
}

impl BlockOp {
    /// A recorded op; its fast run is filled in when its block is
    /// complete ([`DecodedBlock::mark_fast_runs`]).
    pub fn new(pc: u64, insn: Insn) -> BlockOp {
        BlockOp {
            pc,
            insn,
            fast_run: 0,
        }
    }
}

/// A recorded straight-line (or, for superblocks, direct-jump-fused) run
/// of decoded instructions, keyed by its entry `pc`. This is the small
/// by-value header a [`crate::tier0::BlockCache`]'s map and `last` slot
/// hold; the ops and page generations it names live in that cache's
/// arenas.
#[derive(Clone, Debug)]
pub struct DecodedBlock {
    /// Entry address (the cache key).
    pub entry: u64,
    /// The block's ops in the cache's op arena, in execution order.
    pub(crate) ops: Range<u32>,
    /// The block's `(page, text_gen)` records in the cache's generation
    /// arena: every page any op's encoding touches, as observed when the
    /// block was recorded.
    pub(crate) gens: Range<u32>,
    /// `true` once this entry was promoted to a fused superblock.
    pub superblock: bool,
    /// The [`Memory::text_epoch`] at the last successful validation (see
    /// [`gens_valid`]).
    pub(crate) epoch: Cell<u64>,
}

/// A `u32` arena range as a slice index.
#[inline]
pub(crate) fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

impl DecodedBlock {
    /// `true` for the register-only micro-op subset replay may batch:
    /// moves, `lea`, non-dividing ALU ops, compares and `setcc`. These
    /// touch only the register file, `cmp` operands and statically-known
    /// cycle charges — no memory, no control flow, no faults — so their
    /// observable effects commute with deferring the `tsc` and
    /// instruction-count updates to the end of the run.
    pub fn is_fast(insn: &Insn) -> bool {
        match insn {
            Insn::MovRR { .. }
            | Insn::MovRI { .. }
            | Insn::Lea { .. }
            | Insn::CmpRR { .. }
            | Insn::CmpRI { .. }
            | Insn::Setcc { .. } => true,
            Insn::AluRR { op, .. } | Insn::AluRI { op, .. } => !op.divides(),
            _ => false,
        }
    }

    /// The macro-fusion latch after the fast op `insn` retires with
    /// `next` as the following `pc`: `Some(next)` iff it is a `cmp`,
    /// which the very next `jcc` may fuse with.
    pub(crate) fn fuse_latch(insn: &Insn, next: u64) -> Option<u64> {
        matches!(insn, Insn::CmpRR { .. } | Insn::CmpRI { .. }).then_some(next)
    }

    /// Fills in [`BlockOp::fast_run`] for every op of one complete block.
    pub fn mark_fast_runs(ops: &mut [BlockOp]) {
        let mut run = 0u32;
        for op in ops.iter_mut().rev() {
            run = if Self::is_fast(&op.insn) { run + 1 } else { 0 };
            op.fast_run = run;
        }
    }

    /// `true` if any of `ops` *starts* in `[start, end)` — the same
    /// instruction-start-address rule
    /// [`crate::Machine::invalidate_decode_range`] applies to the
    /// per-instruction decode cache, so explicit shootdowns evict blocks
    /// and single decodes in lockstep.
    pub fn overlaps(ops: &[BlockOp], start: u64, end: u64) -> bool {
        ops.iter().any(|op| op.pc >= start && op.pc < end)
    }
}

/// Appends to `gens[from..]` the current generation of every page the
/// `len`-byte encoding at `pc` touches, skipping pages already recorded
/// there — a straddling instruction contributes both its pages, so
/// writing or flushing either one invalidates the translation.
pub(crate) fn record_gens(
    gens: &mut Vec<(u64, u64)>,
    from: usize,
    mem: &Memory,
    pc: u64,
    len: usize,
) {
    let first = pc / PAGE_SIZE;
    let last = (pc + len as u64 - 1) / PAGE_SIZE;
    for page in first..=last {
        if !gens[from..].iter().any(|&(p, _)| p == page) {
            gens.push((page, mem.text_gen(page * PAGE_SIZE)));
        }
    }
}

/// `true` while every recorded `(page, text_gen)` in `gens` still holds,
/// with an O(1) fast path: while the global text epoch still matches
/// `epoch` (the epoch of the last successful validation), no page
/// generation anywhere can have moved. A successful full check advances
/// `epoch`.
#[inline]
pub(crate) fn gens_valid(gens: &[(u64, u64)], epoch: &Cell<u64>, mem: &Memory) -> bool {
    let now = mem.text_epoch();
    if epoch.get() == now {
        return true;
    }
    if gens
        .iter()
        .all(|&(page, gen)| mem.text_gen(page * PAGE_SIZE) == gen)
    {
        epoch.set(now);
        return true;
    }
    false
}

/// The code generations a memoized translation was built from: the
/// `(page_number, text_gen)` of every page any of its instruction
/// encodings touches, plus the [`Memory::text_epoch`] at the last
/// successful validation. Lowered native regions own one; blocks keep
/// the same records in their cache's generation arena. Both go through
/// `record_gens` and `gens_valid`, so a text write or a flush
/// invalidates both tiers in lockstep.
#[derive(Default)]
pub struct PageGens {
    pages: Vec<(u64, u64)>,
    /// While the global text epoch still matches, no page generation
    /// anywhere can have moved, so the per-page comparison is skipped.
    epoch: Cell<u64>,
}

impl PageGens {
    /// An empty record stamped with `mem`'s current text epoch.
    pub(crate) fn new(mem: &Memory) -> PageGens {
        PageGens {
            pages: Vec::new(),
            epoch: Cell::new(mem.text_epoch()),
        }
    }

    /// Records the current generation of every page the `len`-byte
    /// encoding at `pc` touches (deduplicated, see [`record_gens`]).
    pub(crate) fn record(&mut self, mem: &Memory, pc: u64, len: usize) {
        record_gens(&mut self.pages, 0, mem, pc, len);
    }

    /// `true` while every recorded page keeps its generation (see
    /// [`gens_valid`]).
    #[inline]
    pub(crate) fn valid(&self, mem: &Memory) -> bool {
        gens_valid(&self.pages, &self.epoch, mem)
    }

    /// `true` if any recorded page intersects `[start, end)`
    /// (page-granular).
    pub(crate) fn overlaps(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let (first, last) = (start / PAGE_SIZE, (end - 1) / PAGE_SIZE);
        self.pages.iter().any(|&(p, _)| p >= first && p <= last)
    }
}

/// Monotone counters of one block cache (see
/// [`crate::tier0::BlockCache`]): hits, misses (= recordings),
/// evictions (stale or shot down) and superblock promotions. Exported
/// as `mv_vm_block_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block entries served from the cache (one per replay, not per op).
    pub hits: u64,
    /// Block entries that had to be recorded.
    pub misses: u64,
    /// Blocks dropped because a page generation moved or an explicit
    /// invalidation covered one of their ops.
    pub evictions: u64,
    /// Hot tier-0 entries re-recorded as fused superblocks.
    pub promotions: u64,
}

impl std::ops::AddAssign for BlockCacheStats {
    fn add_assign(&mut self, d: BlockCacheStats) {
        self.hits += d.hits;
        self.misses += d.misses;
        self.evictions += d.evictions;
        self.promotions += d.promotions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_tier_parses_names_and_aliases() {
        assert_eq!(ExecTier::parse("tierless"), Some(ExecTier::Tierless));
        assert_eq!(ExecTier::parse("block"), Some(ExecTier::Block));
        assert_eq!(ExecTier::parse("tier0"), Some(ExecTier::Block));
        assert_eq!(ExecTier::parse("superblock"), Some(ExecTier::Superblock));
        assert_eq!(ExecTier::parse("tier1"), Some(ExecTier::Superblock));
        assert_eq!(ExecTier::parse("native"), Some(ExecTier::Native));
        assert_eq!(ExecTier::parse("tier2"), Some(ExecTier::Native));
        assert_eq!(ExecTier::parse("bogus"), None);
        assert_eq!(ExecTier::Superblock.to_string(), "superblock");
        assert_eq!(ExecTier::Native.to_string(), "native");
    }

    #[test]
    fn overlaps_uses_instruction_start_addresses() {
        let b = [
            BlockOp::new(0x100, Insn::Nop { len: 4 }),
            BlockOp::new(0x104, Insn::Halt),
        ];
        let overlaps = |start, end| DecodedBlock::overlaps(&b, start, end);
        assert!(overlaps(0x100, 0x101));
        assert!(overlaps(0x104, 0x200));
        // Covers bytes of the nop but no op *starts* there — the
        // per-instruction cache would keep its entry, so the block layer
        // must too.
        assert!(!overlaps(0x101, 0x104));
        assert!(!overlaps(0x105, 0x200));
    }

    #[test]
    fn fast_runs_batch_register_only_ops_and_stop_at_everything_else() {
        use mvasm::{AluOp, Reg};
        let alu = |op| Insn::AluRI {
            op,
            dst: Reg::R0,
            imm: 1,
        };
        let mut ops: Vec<BlockOp> = [
            alu(AluOp::Add),                    // fast
            alu(AluOp::Xor),                    // fast
            Insn::CmpRI { a: Reg::R0, imm: 3 }, // fast
            Insn::Jcc {
                cc: mvasm::Cond::Lt,
                rel: 0,
            }, // control flow: not fast
            alu(AluOp::Divu),                   // can fault: not fast
            Insn::MovRI {
                dst: Reg::R1,
                imm: 9,
            }, // fast
            Insn::Halt,                         // not fast
        ]
        .into_iter()
        .enumerate()
        .map(|(i, insn)| BlockOp::new(i as u64 * 4, insn))
        .collect();
        DecodedBlock::mark_fast_runs(&mut ops);
        let fast_runs: Vec<u32> = ops.iter().map(|op| op.fast_run).collect();
        assert_eq!(fast_runs, vec![3, 2, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn page_gens_track_straddles_flushes_and_overlap() {
        let mut mem = Memory::new();
        mem.map(0x1000, 3 * PAGE_SIZE, mvobj::Prot::RX);
        let mut gens = PageGens::new(&mem);
        gens.record(&mem, 0x2000 - 2, 10); // straddles pages 1 and 2
        gens.record(&mem, 0x2000 + 8, 4); // page 2 again: deduplicated
        assert_eq!(gens.pages, vec![(1, 0), (2, 0)]);
        assert!(gens.overlaps(0x1fff, 0x2000));
        assert!(!gens.overlaps(0x3000, 0x4000));
        assert!(!gens.overlaps(0x2000, 0x2000), "empty range");
        mem.flush_icache(0x3000, 1); // another page: epoch moves, gens hold
        assert!(gens.valid(&mem));
        mem.flush_icache(0x2000, 1); // the straddled tail page
        assert!(!gens.valid(&mem));
        let mut gens = PageGens::new(&mem);
        gens.record(&mem, 0x2000, 4);
        mem.mprotect(0x2000, 1, mvobj::Prot::RW).unwrap();
        mem.write(0x2000, &[0]).unwrap(); // an unflushed text write
        assert!(!gens.valid(&mem));
    }
}
