//! The per-CPU block cache backing the tiered execution engine.
//!
//! One [`BlockCache`] lives on the resident [`crate::Machine`] and one in
//! every [`crate::CpuContext`]; [`crate::Machine::swap_context`] exchanges
//! them in O(1) along with the rest of the private per-CPU state, so each
//! vCPU of an [`crate::SmpMachine`] keeps its own block cache with its own
//! staleness — the block-level mirror of the private per-CPU icache model.
//!
//! The cache is the `FxHashMap<u64, Rc<DecodedBlock>>` + `last_block`
//! shape of aero's tier-0 interpreter, std-only: a `last` fast path skips
//! even the Fx map lookup when control returns to the block just
//! executed, and per-entry hot counters drive tier-1 superblock
//! promotion (see [`crate::Machine::set_tier`]).

use crate::block::{BlockCacheStats, BlockRef};
use crate::fx::FxHashMap;

/// Hits on a tier-0 block entry before it is re-recorded as a fused
/// superblock (tier-1 only).
pub const HOT_THRESHOLD: u32 = 8;

/// Cache of decoded blocks keyed by entry `pc`, with a `last_block` fast
/// path, hot counters and monotone [`BlockCacheStats`].
#[derive(Default)]
pub struct BlockCache {
    map: FxHashMap<u64, BlockRef>,
    last: Option<(u64, BlockRef)>,
    hot: FxHashMap<u64, u32>,
    /// Monotone hit/miss/eviction/promotion counters.
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// The block last replayed, if its entry is `pc` (no map lookup).
    pub fn last(&self, pc: u64) -> Option<&BlockRef> {
        match &self.last {
            Some((last_pc, b)) if *last_pc == pc => Some(b),
            _ => None,
        }
    }

    /// Looks `pc` up in the map (the slow path behind `last`).
    pub fn get(&self, pc: u64) -> Option<&BlockRef> {
        self.map.get(&pc)
    }

    /// Caches `block` under `pc` and makes it the `last` block.
    pub fn insert(&mut self, pc: u64, block: BlockRef) {
        self.last = Some((pc, block.clone()));
        self.map.insert(pc, block);
    }

    /// Remembers `block` as the most recently replayed one.
    pub fn set_last(&mut self, pc: u64, block: BlockRef) {
        self.last = Some((pc, block));
    }

    /// Drops the entry at `pc` (stale on re-validation), counting an
    /// eviction.
    pub fn evict(&mut self, pc: u64) {
        if self.map.remove(&pc).is_some() {
            self.stats.evictions += 1;
        }
        if matches!(&self.last, Some((p, _)) if *p == pc) {
            self.last = None;
        }
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
    /// the explicit-shootdown half of invalidation (sticky-icache mode).
    /// Blocks elsewhere survive: no blanket clears.
    pub fn invalidate_range(&mut self, start: u64, end: u64) {
        let before = self.map.len();
        self.map.retain(|_, b| !b.overlaps(start, end));
        self.stats.evictions += (before - self.map.len()) as u64;
        if matches!(&self.last, Some((_, b)) if b.overlaps(start, end)) {
            self.last = None;
        }
    }

    /// Evicts every cached block (full shootdown).
    pub fn invalidate_all(&mut self) {
        self.stats.evictions += self.map.len() as u64;
        self.map.clear();
        self.last = None;
    }

    /// Forgets all blocks and heat without counting evictions — loading
    /// a fresh image is not an invalidation event.
    pub fn reset(&mut self) {
        self.map.clear();
        self.hot.clear();
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{DecodedBlock, PageGens};
    use mvasm::Insn;
    use std::rc::Rc;

    fn block(entry: u64, ops: &[u64]) -> BlockRef {
        let ops: Vec<(u64, Insn)> = ops.iter().map(|&pc| (pc, Insn::Nop { len: 1 })).collect();
        Rc::new(DecodedBlock {
            entry,
            fast_runs: DecodedBlock::fast_runs_of(&ops),
            ops,
            pages: PageGens::default(),
            superblock: false,
        })
    }

    #[test]
    fn last_block_fast_path_tracks_inserts() {
        let mut c = BlockCache::default();
        assert!(c.last(0x100).is_none());
        c.insert(0x100, block(0x100, &[0x100]));
        assert!(c.last(0x100).is_some());
        assert!(c.last(0x200).is_none());
        c.insert(0x200, block(0x200, &[0x200]));
        assert!(c.last(0x100).is_none(), "last follows the newest insert");
        assert!(c.last(0x200).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_range_is_precise() {
        let mut c = BlockCache::default();
        c.insert(0x100, block(0x100, &[0x100, 0x101]));
        c.insert(0x200, block(0x200, &[0x200, 0x201]));
        c.insert(0x300, block(0x300, &[0x300]));
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
        c.insert(0x100, block(0x100, &[0x100]));
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
        c.insert(0x100, block(0x100, &[0x100]));
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.stats.evictions, 0);
        c.insert(0x100, block(0x100, &[0x100]));
        c.invalidate_all();
        assert_eq!(c.stats.evictions, 1);
    }
}
