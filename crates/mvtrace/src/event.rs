//! The typed event taxonomy.
//!
//! Events are deliberately small and `Copy`: every payload is a fixed
//! set of addresses/counters plus `&'static str` labels, so recording
//! one is a store into the ring, never an allocation. The taxonomy
//! mirrors the transactional commit engine: a commit opens a span, each
//! attempt walks the plan → validate → apply phases, point events mark
//! individual text patches, and the failure path (fault → rollback →
//! retry) is first-class rather than inferred.

use std::fmt;

/// A phase of the two-phase (plus planning) transactional commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Action-list construction and variant selection (read-only).
    Plan,
    /// Read-only re-checks of everything apply will rely on.
    Validate,
    /// The journaled write pass.
    Apply,
}

impl Phase {
    /// Stable lowercase name, used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Validate => "validate",
            Phase::Apply => "apply",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transactional operation started (`op` is the Table 1 entry
    /// point: `commit`, `revert`, `commit_refs`, …).
    CommitBegin {
        /// Name of the public operation.
        op: &'static str,
    },
    /// The operation finished; `ok` is its overall outcome after all
    /// retry attempts.
    CommitEnd {
        /// `true` if the operation succeeded.
        ok: bool,
    },
    /// A phase of the current attempt started.
    PhaseBegin {
        /// Which phase.
        phase: Phase,
    },
    /// A phase finished. `ok = false` means the phase failed and the
    /// attempt is over (apply failures additionally carry
    /// [`EventKind::FaultObserved`]/[`EventKind::Rollback`] before this).
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Whether the phase succeeded.
        ok: bool,
    },
    /// A call site was rewritten to a direct call.
    SitePatched {
        /// Call-site address.
        site: u64,
        /// New call target.
        target: u64,
    },
    /// A call site was restored to its original bytes.
    SiteRestored {
        /// Call-site address.
        site: u64,
    },
    /// A variant body was inlined over a call site (Fig. 3 c).
    Inlined {
        /// Call-site address.
        site: u64,
        /// Entry address of the inlined variant body.
        variant: u64,
    },
    /// The completeness entry jump was written over a generic prologue.
    EntryJumpWritten {
        /// Generic entry address.
        function: u64,
        /// Committed variant the jump targets.
        variant: u64,
    },
    /// A saved generic prologue was written back (revert path).
    PrologueRestored {
        /// Generic entry address.
        function: u64,
    },
    /// An apply-phase write faulted. `what` classifies the root cause;
    /// `addr` is the faulting address when known (0 otherwise).
    FaultObserved {
        /// Faulting address, 0 if unknown.
        addr: u64,
        /// Root-cause class: `protection-fault`, `icache-stale`, `error`.
        what: &'static str,
    },
    /// The journal was replayed after an apply failure; the image is
    /// byte-identical to its pre-commit state again.
    Rollback {
        /// Undo-log entries restored.
        entries: u64,
    },
    /// A transient failure is being retried; `attempt` is 1-based.
    Retry {
        /// Which retry this is (1 = first re-attempt).
        attempt: u32,
    },
    /// Delta planning found a function (or function-pointer switch)
    /// already in its selected state, verified it, and planned no action
    /// for it — the commit fast path.
    ActionSkipped {
        /// Generic entry (or pointer-switch address) left untouched.
        function: u64,
        /// Call sites covered by the skip.
        sites: u64,
    },
    /// A page-batched apply phase closed its RW windows: every journaled
    /// write of the transaction went through one window per touched page,
    /// with one icache flush per page.
    PageBatch {
        /// Distinct text pages whose window was opened.
        pages: u64,
        /// Journaled writes performed inside the batch.
        writes: u64,
    },
    /// A named stage of the compiler's staged pipeline started
    /// (`lower`, `mv-expand`, `optimize`, `merge`, `codegen`).
    StageBegin {
        /// Stage name.
        stage: &'static str,
    },
    /// The compiler pipeline stage finished.
    StageEnd {
        /// Stage name.
        stage: &'static str,
        /// Units of work the stage processed (functions, clones, bodies —
        /// whatever the stage iterates over).
        items: u64,
    },
    /// A concurrent commit began quiescing the SMP machine.
    QuiesceBegin {
        /// Protocol name: `stop-machine` or `breakpoint`.
        strategy: &'static str,
        /// vCPUs that must be brought to a safe state.
        vcpus: u64,
    },
    /// The quiesce window closed: the text is consistent again and every
    /// surviving vCPU has been released.
    QuiesceEnd {
        /// `true` if the underlying transaction committed (on `false`
        /// the journal rolled the image back before release).
        ok: bool,
        /// Scheduler rounds spent inside the quiesce window.
        rounds: u64,
    },
    /// One vCPU reached a safepoint and was parked by the rendezvous.
    VcpuParked {
        /// Parked vCPU index.
        vcpu: u64,
        /// Its program counter at park time.
        pc: u64,
    },
    /// An IPI-style cross-CPU instruction-cache shootdown: every vCPU's
    /// private decode cache dropped the given text range.
    IcacheShootdown {
        /// First invalidated address.
        start: u64,
        /// One past the last invalidated address (0 with `start = 0`
        /// means a full flush).
        end: u64,
        /// vCPUs whose caches were invalidated.
        vcpus: u64,
    },
    /// A vCPU fetched a breakpoint byte planted by the breakpoint-first
    /// protocol and trapped into the commit's handler.
    TrapHit {
        /// Trapping vCPU index.
        vcpu: u64,
        /// Address of the trap byte.
        addr: u64,
    },
    /// The mvd control plane admitted a commit request into a queue
    /// lane.
    QueueAdmit {
        /// Lane name: `normal` or `priority`.
        lane: &'static str,
        /// Coalescing key (switch address; 0 for whole-image ops).
        key: u64,
    },
    /// A new request merged into an already-queued entry for the same
    /// key: one commit will serve them all.
    Coalesced {
        /// Coalescing key (switch address; 0 for whole-image ops).
        key: u64,
        /// Requesters now sharing the entry's outcome.
        waiters: u64,
    },
    /// Backpressure dropped a queued normal-lane entry (oldest first)
    /// to make room, or a deadline expired before processing.
    Shed {
        /// Coalescing key of the dropped entry.
        key: u64,
    },
    /// An assignment was parked on the quarantine list after repeated
    /// consecutive commit failures; later requests for it fail fast.
    Quarantined {
        /// Coalescing key of the parked assignment.
        key: u64,
        /// Consecutive failures that triggered the parking.
        failures: u64,
    },
    /// The daemon fell back from one quiesce protocol to another for a
    /// commit after repeated quiesce failures (it heals back on a later
    /// success of the preferred protocol).
    StrategyDegraded {
        /// Protocol abandoned (`breakpoint`).
        from: &'static str,
        /// Protocol substituted (`stop-machine`).
        to: &'static str,
    },
    /// A variational-execution context split at a configuration-
    /// dependent point.
    VexecSplit {
        /// Address of the splitting instruction.
        pc: u64,
        /// Address of the switch the context split on.
        switch: u64,
        /// Child contexts created.
        arms: u32,
    },
    /// Sibling variational contexts re-merged into one.
    VexecJoin {
        /// Program counter both parties stood at.
        pc: u64,
        /// Address of the switch whose table absorbed the differences.
        switch: u64,
        /// Contexts folded together (always 2 per event today).
        parties: u32,
    },
    /// One leaf configuration's observation was finalized at the end of
    /// a variational pass.
    VexecLeaf {
        /// Leaf index in the configuration space.
        leaf: u64,
        /// Configurations the terminal context stood for.
        configs: u64,
        /// The leaf's return value.
        exit: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the event class, used by every
    /// exporter and by span reconstruction.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CommitBegin { .. } => "commit_begin",
            EventKind::CommitEnd { .. } => "commit_end",
            EventKind::PhaseBegin { .. } => "phase_begin",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::SitePatched { .. } => "site_patched",
            EventKind::SiteRestored { .. } => "site_restored",
            EventKind::Inlined { .. } => "inlined",
            EventKind::EntryJumpWritten { .. } => "entry_jump_written",
            EventKind::PrologueRestored { .. } => "prologue_restored",
            EventKind::FaultObserved { .. } => "fault_observed",
            EventKind::Rollback { .. } => "rollback",
            EventKind::Retry { .. } => "retry",
            EventKind::ActionSkipped { .. } => "action_skipped",
            EventKind::PageBatch { .. } => "page_batch",
            EventKind::StageBegin { .. } => "stage_begin",
            EventKind::StageEnd { .. } => "stage_end",
            EventKind::QuiesceBegin { .. } => "quiesce_begin",
            EventKind::QuiesceEnd { .. } => "quiesce_end",
            EventKind::VcpuParked { .. } => "vcpu_parked",
            EventKind::IcacheShootdown { .. } => "icache_shootdown",
            EventKind::TrapHit { .. } => "trap_hit",
            EventKind::QueueAdmit { .. } => "queue_admit",
            EventKind::Coalesced { .. } => "coalesced",
            EventKind::Shed { .. } => "shed",
            EventKind::Quarantined { .. } => "quarantined",
            EventKind::StrategyDegraded { .. } => "strategy_degraded",
            EventKind::VexecSplit { .. } => "vexec_split",
            EventKind::VexecJoin { .. } => "vexec_join",
            EventKind::VexecLeaf { .. } => "vexec_leaf",
        }
    }

    /// `true` for the point events that live *inside* a phase span (as
    /// opposed to the span-boundary events).
    pub fn is_point(&self) -> bool {
        !matches!(
            self,
            EventKind::CommitBegin { .. }
                | EventKind::CommitEnd { .. }
                | EventKind::PhaseBegin { .. }
                | EventKind::PhaseEnd { .. }
                | EventKind::StageBegin { .. }
                | EventKind::StageEnd { .. }
        )
    }
}

/// One recorded event: a process-wide monotonic sequence number, a host
/// timestamp in nanoseconds since the ring's creation, and the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (global across all rings in the
    /// process, so interleaved streams have a total order).
    pub seq: u64,
    /// Nanoseconds since the recording ring was created.
    pub ts_ns: u64,
    /// The payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(
            EventKind::CommitBegin { op: "commit" }.name(),
            "commit_begin"
        );
        assert_eq!(Phase::Validate.name(), "validate");
        assert!(EventKind::Rollback { entries: 3 }.is_point());
        assert!(!EventKind::PhaseEnd {
            phase: Phase::Apply,
            ok: true
        }
        .is_point());
    }
}
