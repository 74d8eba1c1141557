//! The per-CPU block cache backing the tiered execution engine.
//!
//! One [`BlockCache`] lives on the resident [`crate::Machine`] and one in
//! every [`crate::CpuContext`]; [`crate::Machine::swap_context`] exchanges
//! them in O(1) along with the rest of the private per-CPU state, so each
//! vCPU of an [`crate::SmpMachine`] keeps its own block cache with its own
//! staleness — the block-level mirror of the private per-CPU icache model.
//!
//! The cache is the `FxHashMap<u64, DecodedBlock>` + `last_block` shape
//! of aero's tier-0 interpreter, std-only: a `last` fast path skips even
//! the Fx map lookup when control returns to the block just executed,
//! and per-entry hot counters drive tier-1 superblock promotion (see
//! [`crate::Machine::set_tier`]).
//!
//! The map and `last` hold small by-value [`DecodedBlock`] headers. Every
//! block's ops live in one op arena and its page generations in a second
//! one, each block a contiguous range of both:
//!
//! * recording appends to the arenas;
//! * a full shootdown ([`BlockCache::invalidate_all`]) clears the map and
//!   both arenas without freeing anything, so re-recording after it
//!   reuses their capacity;
//! * a single eviction, and a promotion replacing its tier-0 block, leave
//!   the block's ops behind as dead; once dead ops outnumber live ones
//!   the live blocks are compacted to the front of both arenas, in place.

use crate::block::{gens_valid, record_gens, span, BlockCacheStats, BlockOp, DecodedBlock};
use crate::fx::FxHashMap;
use crate::mem::Memory;
use mvasm::Insn;
use std::cell::Cell;

/// Hits on a tier-0 block entry before it is re-recorded as a fused
/// superblock (tier-1 only).
pub const HOT_THRESHOLD: u32 = 8;

/// Cache of decoded blocks keyed by entry `pc`, with a `last_block` fast
/// path, hot counters and monotone [`BlockCacheStats`].
#[derive(Default)]
pub struct BlockCache {
    map: FxHashMap<u64, DecodedBlock>,
    last: Option<DecodedBlock>,
    hot: FxHashMap<u64, u32>,
    /// The op arena: every cached block's ops, and the dead ops evicted
    /// and replaced blocks left behind. Block replay moves it out for
    /// the replay (host code runs only between quanta), so the machine
    /// sees it directly.
    pub(crate) ops: Vec<BlockOp>,
    /// The generation arena: every cached block's `(page, text_gen)`
    /// records.
    gens: Vec<(u64, u64)>,
    /// Ops in the arena that no cached block owns.
    dead: usize,
    /// Compaction scratch, kept for its capacity: `(first op, entry)` of
    /// every cached block.
    order: Vec<(u32, u64)>,
    /// Monotone hit/miss/eviction/promotion counters.
    pub stats: BlockCacheStats,
}

/// Where a block being recorded starts in both arenas (see
/// [`BlockCache::mark`]).
#[derive(Clone, Copy)]
pub(crate) struct Mark {
    /// First op of the recording.
    pub(crate) ops: usize,
    gens: usize,
    /// [`Memory::text_epoch`] when the recording started.
    epoch: u64,
}

impl BlockCache {
    /// The block last replayed, if its entry is `pc` (no map lookup).
    pub fn last(&self, pc: u64) -> Option<&DecodedBlock> {
        self.last.as_ref().filter(|b| b.entry == pc)
    }

    /// Looks `pc` up in the map (the slow path behind `last`).
    pub fn get(&self, pc: u64) -> Option<&DecodedBlock> {
        self.map.get(&pc)
    }

    /// `true` while every page block `b` was recorded from keeps its text
    /// generation (the non-sticky validity rule, see
    /// [`crate::block::PageGens`]).
    #[inline]
    pub(crate) fn valid(&self, b: &DecodedBlock, mem: &Memory) -> bool {
        gens_valid(&self.gens[span(&b.gens)], &b.epoch, mem)
    }

    /// Remembers `block` as the most recently replayed one.
    pub fn set_last(&mut self, block: DecodedBlock) {
        self.last = Some(block);
    }

    /// Starts recording a block at the tails of both arenas.
    pub(crate) fn mark(&self, mem: &Memory) -> Mark {
        Mark {
            ops: self.ops.len(),
            gens: self.gens.len(),
            epoch: mem.text_epoch(),
        }
    }

    /// Appends one op to the block recorded since `mark`, with the
    /// generation of every page its encoding touches.
    pub(crate) fn push_op(&mut self, mark: Mark, mem: &Memory, pc: u64, insn: Insn) {
        record_gens(&mut self.gens, mark.gens, mem, pc, insn.len());
        self.ops.push(BlockOp::new(pc, insn));
    }

    /// Ends the recording started at `mark`: caches its ops under
    /// `entry` (replacing any block there) and makes it the `last`
    /// block. A recording with no ops caches nothing.
    pub(crate) fn finish(&mut self, mark: Mark, entry: u64, superblock: bool) {
        if self.ops.len() == mark.ops {
            self.gens.truncate(mark.gens);
            return;
        }
        DecodedBlock::mark_fast_runs(&mut self.ops[mark.ops..]);
        let block = DecodedBlock {
            entry,
            ops: mark.ops as u32..self.ops.len() as u32,
            gens: mark.gens as u32..self.gens.len() as u32,
            superblock,
            epoch: Cell::new(mark.epoch),
        };
        if let Some(old) = self.map.insert(entry, block.clone()) {
            self.dead += old.ops.len();
        }
        self.last = Some(block);
        self.compact_if_mostly_dead();
    }

    /// Drops the entry at `pc` (stale on re-validation), counting an
    /// eviction.
    pub fn evict(&mut self, pc: u64) {
        if let Some(old) = self.map.remove(&pc) {
            self.stats.evictions += 1;
            self.dead += old.ops.len();
        }
        if self.last(pc).is_some() {
            self.last = None;
        }
        self.compact_if_mostly_dead();
    }

    /// Bumps the hot counter of entry `pc`, returning the new count.
    pub fn bump_hot(&mut self, pc: u64) -> u32 {
        let c = self.hot.entry(pc).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Evicts exactly the blocks with an op starting in `[start, end)` —
    /// the ranged-shootdown half of invalidation (sticky-icache mode).
    /// Blocks elsewhere survive: no blanket clears.
    pub fn invalidate_range(&mut self, start: u64, end: u64) {
        let hit = |ops: &[BlockOp], b: &DecodedBlock| {
            DecodedBlock::overlaps(&ops[span(&b.ops)], start, end)
        };
        if self.last.as_ref().is_some_and(|b| hit(&self.ops, b)) {
            self.last = None;
        }
        let (ops, dead, evictions) = (&self.ops, &mut self.dead, &mut self.stats.evictions);
        self.map.retain(|_, b| {
            let evicted = hit(ops, b);
            if evicted {
                *dead += b.ops.len();
                *evictions += 1;
            }
            !evicted
        });
        self.compact_if_mostly_dead();
    }

    /// Evicts every cached block (full shootdown): clears the map and
    /// both arenas in O(1), keeping their capacity.
    pub fn invalidate_all(&mut self) {
        self.stats.evictions += self.map.len() as u64;
        self.clear();
    }

    /// Forgets all blocks and heat without counting evictions — loading
    /// a fresh image is not an invalidation event.
    pub fn reset(&mut self) {
        self.clear();
        self.hot.clear();
    }

    fn clear(&mut self) {
        self.map.clear();
        self.last = None;
        self.ops.clear();
        self.gens.clear();
        self.dead = 0;
    }

    /// Once dead ops outnumber live ones, moves every cached block's ops
    /// and generations to the front of their arenas, in arena order, and
    /// truncates the rest. Blocks keep their ops, generations and
    /// validation epoch; `last` is cleared rather than re-pointed.
    fn compact_if_mostly_dead(&mut self) {
        if self.dead <= self.ops.len() - self.dead {
            return;
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(self.map.iter().map(|(&pc, b)| (b.ops.start, pc)));
        // A block's ops and generations are appended by the same
        // recording, so both arenas hold blocks in the same order.
        order.sort_unstable();
        let (mut op_end, mut gen_end) = (0usize, 0usize);
        for &(_, pc) in &order {
            let b = self
                .map
                .get_mut(&pc)
                .expect("compaction order lists cached blocks");
            let (ops, gens) = (span(&b.ops), span(&b.gens));
            self.ops.copy_within(ops.clone(), op_end);
            self.gens.copy_within(gens.clone(), gen_end);
            b.ops = op_end as u32..(op_end + ops.len()) as u32;
            b.gens = gen_end as u32..(gen_end + gens.len()) as u32;
            op_end += ops.len();
            gen_end += gens.len();
        }
        self.ops.truncate(op_end);
        self.gens.truncate(gen_end);
        self.order = order;
        self.dead = 0;
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;

    /// Records a block of one-byte NOPs at `pcs` under `entry`, as the
    /// machine's recorder would.
    fn record(c: &mut BlockCache, mem: &Memory, entry: u64, pcs: &[u64]) {
        let mark = c.mark(mem);
        for &pc in pcs {
            c.push_op(mark, mem, pc, Insn::Nop { len: 1 });
        }
        c.finish(mark, entry, false);
    }

    fn insert(c: &mut BlockCache, entry: u64, pcs: &[u64]) {
        record(c, &Memory::new(), entry, pcs);
    }

    #[test]
    fn last_block_fast_path_tracks_inserts() {
        let mut c = BlockCache::default();
        assert!(c.last(0x100).is_none());
        insert(&mut c, 0x100, &[0x100]);
        assert!(c.last(0x100).is_some());
        assert!(c.last(0x200).is_none());
        insert(&mut c, 0x200, &[0x200]);
        assert!(c.last(0x100).is_none(), "last follows the newest insert");
        assert!(c.last(0x200).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_range_is_precise() {
        let mut c = BlockCache::default();
        insert(&mut c, 0x100, &[0x100, 0x101]);
        insert(&mut c, 0x200, &[0x200, 0x201]);
        insert(&mut c, 0x300, &[0x300]);
        c.invalidate_range(0x200, 0x202);
        assert_eq!(c.len(), 2, "only the overlapped block goes");
        assert!(c.get(0x100).is_some());
        assert!(c.get(0x200).is_none());
        assert!(c.get(0x300).is_some());
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn invalidate_range_clears_last_only_when_hit() {
        let mut c = BlockCache::default();
        insert(&mut c, 0x100, &[0x100]);
        c.invalidate_range(0x500, 0x600);
        assert!(c.last(0x100).is_some(), "untouched last survives");
        c.invalidate_range(0x100, 0x101);
        assert!(c.last(0x100).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn hot_counter_saturates() {
        let mut c = BlockCache::default();
        for _ in 0..5 {
            c.bump_hot(0x100);
        }
        assert_eq!(c.bump_hot(0x100), 6);
        assert_eq!(c.bump_hot(0x200), 1, "per-entry heat");
    }

    #[test]
    fn reset_does_not_count_evictions() {
        let mut c = BlockCache::default();
        insert(&mut c, 0x100, &[0x100]);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.stats.evictions, 0);
        insert(&mut c, 0x100, &[0x100]);
        c.invalidate_all();
        assert_eq!(c.stats.evictions, 1);
    }

    /// Three blocks on three text pages, the middle one the `last`.
    fn three_pages() -> (BlockCache, Memory) {
        let mut mem = Memory::new();
        mem.map(0x1000, 3 * PAGE_SIZE, mvobj::Prot::RX);
        let mut c = BlockCache::default();
        record(&mut c, &mem, 0x1000, &[0x1000, 0x1001, 0x1002]);
        record(&mut c, &mem, 0x2000, &[0x2000, 0x2001]);
        record(&mut c, &mem, 0x3000, &[0x3000, 0x3001, 0x3002, 0x3003]);
        let middle = c.get(0x2000).unwrap().clone();
        c.set_last(middle);
        (c, mem)
    }

    fn ops(c: &BlockCache, entry: u64) -> &[BlockOp] {
        &c.ops[span(&c.get(entry).unwrap().ops)]
    }

    fn pcs(c: &BlockCache, entry: u64) -> Vec<u64> {
        ops(c, entry).iter().map(|op| op.pc).collect()
    }

    #[test]
    fn compaction_keeps_live_blocks_and_clears_last() {
        let (mut c, mut mem) = three_pages();
        mem.flush_icache(0x1000, 1); // validate the middle block at a new epoch
        assert!(c.valid(c.get(0x2000).unwrap(), &mem));
        let epoch = c.get(0x2000).unwrap().epoch.get();
        c.evict(0x1000);
        assert_eq!(c.ops.len(), 9, "3 dead ops against 6 live: no compaction");
        assert!(c.last(0x2000).is_some());
        c.evict(0x3000);
        assert_eq!(c.ops.len(), 2, "7 dead ops against 2 live: compacted");
        assert_eq!(c.gens.len(), 1);
        assert!(c.last(0x2000).is_none(), "compaction clears last");
        let b = c.get(0x2000).unwrap();
        assert_eq!(pcs(&c, 0x2000), [0x2000, 0x2001]);
        assert_eq!(ops(&c, 0x2000)[0].fast_run, 0);
        assert_eq!(b.epoch.get(), epoch, "validity survives the move");
        assert!(c.valid(b, &mem));
        mem.flush_icache(0x3000, 1); // another page: still valid
        assert!(c.valid(c.get(0x2000).unwrap(), &mem));
        mem.flush_icache(0x2000, 1); // its own page
        assert!(!c.valid(c.get(0x2000).unwrap(), &mem));
        assert_eq!(c.stats.evictions, 2);
        // The arenas keep growing from the compacted tails.
        record(&mut c, &mem, 0x3000, &[0x3000]);
        assert_eq!(pcs(&c, 0x3000), [0x3000]);
        assert_eq!(pcs(&c, 0x2000), [0x2000, 0x2001]);
    }

    #[test]
    fn invalidate_all_empties_both_arenas_and_counts_every_block() {
        let (mut c, _mem) = three_pages();
        c.evict(0x1000);
        c.invalidate_all();
        assert_eq!(c.stats.evictions, 3, "one eviction, then two blocks");
        assert!(c.is_empty() && c.last(0x2000).is_none());
        assert!(c.ops.is_empty() && c.gens.is_empty());
        assert!(c.ops.capacity() >= 9, "the op arena keeps its capacity");
    }

    #[test]
    fn range_evicted_block_never_returns_through_last() {
        let (mut c, mem) = three_pages();
        c.invalidate_range(0x2001, 0x2002);
        assert!(c.last(0x2000).is_none() && c.get(0x2000).is_none());
        record(&mut c, &mem, 0x4000, &[0x4000]);
        c.evict(0x1000); // 5 dead ops against 5 live: kept
        c.evict(0x4000); // 6 against 4: compacted
        assert_eq!(c.ops.len(), 4);
        assert!(c.last(0x2000).is_none() && c.get(0x2000).is_none());
        assert_eq!(pcs(&c, 0x3000), [0x3000, 0x3001, 0x3002, 0x3003]);
    }
}
