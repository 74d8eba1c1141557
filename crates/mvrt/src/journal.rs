//! The patch journal: undo log for transactional commits.
//!
//! Every byte-write the apply phase performs is recorded here *before*
//! the write is attempted — site address, the bytes being replaced, the
//! bytes going in. If any step of the apply fails, replaying the journal
//! in reverse restores the text segment byte-for-byte (the restore
//! reopens, relocks and flushes every touched page, so page protections
//! and icache state are repaired too).
//!
//! Recording *before* attempting matters: a write that faults after its
//! page was unlocked has left that page RW; the rollback re-walks the
//! window over the unchanged bytes and ends with the page RX again.
//!
//! Entries store their byte spans inline ([`MAX_SPAN`] bytes) rather
//! than on the heap: every patch the runtime makes is a call site
//! (5 or 9 bytes) or an entry jump (5 bytes), and the journal sits on
//! the happy path of every commit, where per-write allocation would be
//! pure overhead.

use crate::error::RtError;
use crate::patch::pages_of;
use crate::stats::PatchStats;
use mvobj::Prot;
use mvvm::{Machine, PAGE_SIZE};

/// Maximum byte length of one journaled write. Comfortably above the
/// longest patch the runtime performs (a 9-byte indirect call site).
pub const MAX_SPAN: usize = 16;

/// A byte span stored inline (length ≤ [`MAX_SPAN`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Span {
    len: u8,
    buf: [u8; MAX_SPAN],
}

impl Span {
    /// Copies `bytes` into an inline span. Panics if longer than
    /// [`MAX_SPAN`].
    pub fn from_slice(bytes: &[u8]) -> Span {
        assert!(
            bytes.len() <= MAX_SPAN,
            "patch span of {} bytes exceeds MAX_SPAN",
            bytes.len()
        );
        let mut buf = [0u8; MAX_SPAN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Span {
            len: bytes.len() as u8,
            buf,
        }
    }
}

impl std::ops::Deref for Span {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One recorded text write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Address the write targets (also the start of its icache span).
    pub addr: u64,
    /// The bytes that were there before.
    pub old: Span,
    /// The bytes the apply phase wrote (or was about to write).
    pub new: Span,
}

/// An append-only undo log of one apply phase.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Records a write about to happen.
    pub fn record(&mut self, addr: u64, old: &[u8], new: &[u8]) {
        debug_assert_eq!(old.len(), new.len(), "journal spans must match");
        self.entries.push(JournalEntry {
            addr,
            old: Span::from_slice(old),
            new: Span::from_slice(new),
        });
    }

    /// Drops all recorded entries, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes covered by recorded writes.
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.new.len() as u64).sum()
    }

    /// The recorded entries, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Restores every recorded range to its `old` bytes under the same
    /// O(pages) discipline as the forward apply: one RW window per
    /// touched page (the recorded entries' pages united with
    /// `extra_pages`, typically the apply batch's still-open windows),
    /// every entry restored newest first with plain writes, then one RX
    /// relock and one icache flush per page. `extra_pages` matters for a
    /// batch aborted between opening a window and writing into it: the
    /// window must be relocked even though no journal entry names its
    /// page.
    ///
    /// On failure returns [`RtError::RollbackFailed`] naming the address
    /// whose step failed; the image may be torn, and some windows may be
    /// left open.
    pub fn rollback(
        &self,
        m: &mut Machine,
        extra_pages: &[u64],
        stats: &mut PatchStats,
    ) -> Result<(), RtError> {
        let mut pages: Vec<u64> = Vec::new();
        for e in &self.entries {
            for p in pages_of(e.addr, e.old.len()) {
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
        }
        for &p in extra_pages {
            if !pages.contains(&p) {
                pages.push(p);
            }
        }
        let fail = |addr: u64| {
            move |src: mvvm::MemError| RtError::RollbackFailed {
                addr,
                source: Box::new(RtError::Mem(src)),
            }
        };
        for &p in &pages {
            m.mem.mprotect(p, PAGE_SIZE, Prot::RW).map_err(fail(p))?;
            stats.mprotects += 1;
        }
        for e in self.entries.iter().rev() {
            m.mem.write(e.addr, &e.old).map_err(fail(e.addr))?;
            stats.bytes_written += e.old.len() as u64;
        }
        for &p in &pages {
            m.mem.mprotect(p, PAGE_SIZE, Prot::RX).map_err(fail(p))?;
            stats.mprotects += 1;
            m.mem.flush_icache(p, PAGE_SIZE);
            stats.icache_flushes += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::patch_bytes;
    use mvvm::{CostModel, MachineConfig};

    fn machine_with_text(bytes: &[u8]) -> Machine {
        let mut m = Machine::new(CostModel::default(), MachineConfig::default());
        m.mem.map(0x1000, bytes.len() as u64, Prot::RX);
        m.mem.write_unchecked(0x1000, bytes);
        m.mem
            .mprotect(0x1000, bytes.len() as u64, Prot::RX)
            .unwrap();
        m
    }

    #[test]
    fn rollback_restores_in_reverse_order() {
        let mut m = machine_with_text(&[1, 2, 3, 4, 5, 6]);
        let mut stats = PatchStats::default();
        let mut j = Journal::new();
        // Two overlapping writes: only reverse-order restore yields the
        // original bytes.
        j.record(0x1000, &[1, 2, 3], &[9, 9, 9]);
        patch_bytes(&mut m, 0x1000, &[9, 9, 9], &mut stats).unwrap();
        j.record(0x1001, &[9, 9], &[7, 7]);
        patch_bytes(&mut m, 0x1001, &[7, 7], &mut stats).unwrap();
        assert_eq!(m.mem.read_vec(0x1000, 6).unwrap(), vec![9, 7, 7, 4, 5, 6]);

        j.rollback(&mut m, &[], &mut stats).unwrap();
        assert_eq!(m.mem.read_vec(0x1000, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        // W^X restored: writes still fault.
        assert!(m.mem.write(0x1000, &[0]).is_err());
        assert_eq!(j.len(), 2);
        assert_eq!(j.bytes(), 5);
    }

    #[test]
    fn rollback_failure_names_the_entry() {
        let mut m = machine_with_text(&[1, 2, 3]);
        let mut stats = PatchStats::default();
        let mut j = Journal::new();
        j.record(0x1000, &[1], &[9]);
        j.record(0xdead_0000, &[0], &[1]); // unmapped: restore fails
        let err = j.rollback(&mut m, &[], &mut stats).unwrap_err();
        match err {
            RtError::RollbackFailed { addr, .. } => assert_eq!(addr, 0xdead_0000),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
