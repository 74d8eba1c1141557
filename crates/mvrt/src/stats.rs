//! Patching statistics — the §6.1 accounting (1161 call sites, ≈16 ms
//! patch time, descriptor overhead).

use std::time::Duration;

/// Counters accumulated across commits and reverts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Call sites whose target was rewritten.
    pub sites_patched: u64,
    /// Call sites where a variant body was inlined.
    pub sites_inlined: u64,
    /// Entry jumps written over generic prologues.
    pub entry_jumps: u64,
    /// Prologues restored by reverts.
    pub prologues_restored: u64,
    /// Total bytes written into the text segment.
    pub bytes_written: u64,
    /// `mprotect` invocations (an unlock and a relock per touched page,
    /// or per trap-byte poke).
    pub mprotects: u64,
    /// Instruction-cache flushes.
    pub icache_flushes: u64,
    /// Functions committed to a specialized variant.
    pub committed_variants: u64,
    /// Functions that fell back to the generic body because no variant's
    /// guards admitted the current configuration (Fig. 3 d).
    pub generic_fallbacks: u64,
    /// Distinct text pages whose RW window an apply phase opened (each
    /// page also gets exactly one icache flush on close).
    pub pages_touched: u64,
    /// Call sites delta planning skipped because they were already in
    /// the selected state (the commit fast path).
    pub sites_skipped: u64,
    /// Undo-log entries recorded by apply phases.
    pub journal_entries: u64,
    /// Bytes covered by journal entries.
    pub journal_bytes: u64,
    /// Apply phases that failed and were rolled back successfully.
    pub rollbacks: u64,
    /// Transactions re-attempted after a transient fault.
    pub retries: u64,
}

impl PatchStats {
    /// Difference `self - earlier`, saturating at zero per counter.
    ///
    /// Saturating keeps the diff meaningful even when `earlier` was taken
    /// from a *different* runtime (or after the counters were reset):
    /// a nonsensical pairing yields zeros instead of a panic or a
    /// wrapped-around astronomical count.
    pub fn since(&self, earlier: &PatchStats) -> PatchStats {
        PatchStats {
            sites_patched: self.sites_patched.saturating_sub(earlier.sites_patched),
            sites_inlined: self.sites_inlined.saturating_sub(earlier.sites_inlined),
            entry_jumps: self.entry_jumps.saturating_sub(earlier.entry_jumps),
            prologues_restored: self
                .prologues_restored
                .saturating_sub(earlier.prologues_restored),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            mprotects: self.mprotects.saturating_sub(earlier.mprotects),
            icache_flushes: self.icache_flushes.saturating_sub(earlier.icache_flushes),
            committed_variants: self
                .committed_variants
                .saturating_sub(earlier.committed_variants),
            generic_fallbacks: self
                .generic_fallbacks
                .saturating_sub(earlier.generic_fallbacks),
            pages_touched: self.pages_touched.saturating_sub(earlier.pages_touched),
            sites_skipped: self.sites_skipped.saturating_sub(earlier.sites_skipped),
            journal_entries: self.journal_entries.saturating_sub(earlier.journal_entries),
            journal_bytes: self.journal_bytes.saturating_sub(earlier.journal_bytes),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

/// Timing of one commit/revert operation, measured on the host.
///
/// The per-phase durations are accumulated across every attempt of the
/// operation (a retried transaction re-runs all three phases), so
/// `plan + validate + apply ≤ elapsed` — the difference is `backoff`
/// plus driver overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchTiming {
    /// Wall-clock time the operation took, end to end.
    pub elapsed: Duration,
    /// Time spent planning (action-list construction, variant selection).
    pub plan: Duration,
    /// Time spent in read-only validation.
    pub validate: Duration,
    /// Time spent in the journaled write pass (including any rollback).
    pub apply: Duration,
    /// Retry backoff charged to this operation: the sum of every
    /// inter-attempt sleep the [`crate::RetryPolicy`] scheduled.
    pub backoff: Duration,
    /// Attempts beyond the first this operation needed.
    pub retries: u32,
    /// Call sites visited.
    pub sites: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_saturates_instead_of_panicking() {
        let newer = PatchStats {
            sites_patched: 5,
            ..PatchStats::default()
        };
        let older = PatchStats {
            sites_patched: 2,
            retries: 7, // "earlier" ahead of "self": mismatched pairing
            ..PatchStats::default()
        };
        let d = newer.since(&older);
        assert_eq!(d.sites_patched, 3);
        assert_eq!(d.retries, 0);
    }
}
