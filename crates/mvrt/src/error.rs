//! Run-time library errors.
//!
//! Since the transactional-commit rework, failures inside
//! [`crate::Runtime::commit`] and friends are wrapped in
//! [`RtError::Commit`], which names the phase ([`CommitPhase`]) and, when
//! known, the generic entry of the function being processed. The
//! underlying cause is preserved boxed and reachable both through
//! [`std::error::Error::source`] and [`RtError::root_cause`].

use mvobj::descriptor::DescError;
use mvvm::MemError;
use std::fmt;

/// The phase of a transactional commit in which a failure occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPhase {
    /// The planning pass: reading switches, resolving variant selection
    /// and building the action list (including the delta-planning skip
    /// checks). A plan failure means **nothing was written**.
    Plan,
    /// The read-only validation pass: call-site byte verification,
    /// page-protection and descriptor-guard checks. A validate failure
    /// means **nothing was written**.
    Validate,
    /// The journaled write pass. An apply failure means the journal was
    /// rolled back and the image is byte-identical to its pre-commit
    /// state.
    Apply,
    /// Rolling back the journal itself failed. The image may be torn;
    /// the wrapped [`RtError::RollbackFailed`] names the first address
    /// whose restore failed.
    Rollback,
}

impl fmt::Display for CommitPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommitPhase::Plan => "plan",
            CommitPhase::Validate => "validate",
            CommitPhase::Apply => "apply",
            CommitPhase::Rollback => "rollback",
        })
    }
}

/// Errors of the multiverse run-time library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// Guest memory access failed.
    Mem(MemError),
    /// A descriptor section is malformed.
    Desc(DescError),
    /// No multiversed function with this generic address.
    UnknownFunction(u64),
    /// No configuration switch at this address.
    UnknownVariable(u64),
    /// A guard references a switch with no variable descriptor.
    UnknownGuardVariable {
        /// Generic address of the guarded function.
        function: u64,
        /// Unresolvable switch address.
        var_addr: u64,
    },
    /// A call site did not contain the instruction the runtime expected —
    /// the "check if they point to a expected call target" step of §4.
    SiteVerifyFailed {
        /// Address of the call site.
        site: u64,
        /// Human-readable description of the mismatch.
        what: String,
    },
    /// A generic function body is smaller than the 5-byte entry jump that
    /// completeness patching must place over it.
    GenericTooSmall {
        /// Generic entry address.
        function: u64,
        /// Its body size.
        size: u32,
    },
    /// A `call rel32`/`jmp rel32` target is farther than the ±2 GiB the
    /// 32-bit displacement field can reach. Surfaced by the encoders
    /// instead of silently truncating the displacement.
    DisplacementOutOfRange {
        /// Address of the instruction being encoded.
        site: u64,
        /// The unreachable target.
        target: u64,
    },
    /// A variant body is larger than the call site it was asked to be
    /// inlined into — a corrupt descriptor body length. Surfaced as an
    /// error so a transaction rolls back instead of aborting the process.
    InlineTooLarge {
        /// Body length in bytes.
        body: usize,
        /// Available call-site length in bytes.
        site_len: usize,
    },
    /// A function-pointer switch holds a value that is not a function
    /// entry the runtime knows how to reach.
    BadFnPtrTarget {
        /// Switch address.
        var_addr: u64,
        /// Pointer value found.
        target: u64,
    },
    /// An icache flush after a text write did not take effect (the page's
    /// code version did not advance), so stale decoded instructions would
    /// keep executing. Treated as a transient patching fault.
    IcacheStale {
        /// Base of the written page whose flush was lost.
        addr: u64,
    },
    /// Restoring a journal entry during rollback failed; the text segment
    /// may be torn. Carried inside an [`RtError::Commit`] with
    /// [`CommitPhase::Rollback`].
    RollbackFailed {
        /// Address (journal entry or page) whose restore step failed.
        addr: u64,
        /// Why the restore failed.
        source: Box<RtError>,
    },
    /// A concurrent commit could not quiesce the SMP machine: the
    /// rendezvous or breakpoint drain did not converge within its round
    /// budget. Nothing was written; every vCPU was released.
    Quiesce {
        /// What did not converge.
        reason: &'static str,
        /// Scheduler rounds spent before giving up.
        rounds: u64,
    },
    /// A transactional commit/revert operation failed. `source` is the
    /// underlying error; `phase` says how far the transaction got (and
    /// therefore what state the image is in — see [`CommitPhase`]).
    Commit {
        /// The phase that failed.
        phase: CommitPhase,
        /// Generic entry of the function being processed, when known.
        function: Option<u64>,
        /// The underlying error.
        source: Box<RtError>,
    },
}

impl RtError {
    /// Follows `Commit`/`RollbackFailed` wrappers down to the underlying
    /// error.
    pub fn root_cause(&self) -> &RtError {
        match self {
            RtError::Commit { source, .. } | RtError::RollbackFailed { source, .. } => {
                source.root_cause()
            }
            other => other,
        }
    }

    /// The commit phase this error is attributed to, if it came out of a
    /// transactional operation.
    pub fn commit_phase(&self) -> Option<CommitPhase> {
        match self {
            RtError::Commit { phase, .. } => Some(*phase),
            _ => None,
        }
    }

    /// `true` for apply-phase failures whose root cause is a transient
    /// patching fault (a protection fault on a mapped page, or a lost
    /// icache flush) — the class the bounded retry policy may retry,
    /// because the image was rolled back and the fault may heal.
    pub fn is_transient(&self) -> bool {
        match self {
            RtError::Commit {
                phase: CommitPhase::Apply,
                source,
                ..
            } => matches!(
                source.root_cause(),
                RtError::Mem(MemError { mapped: true, .. }) | RtError::IcacheStale { .. }
            ),
            _ => false,
        }
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Mem(e) => write!(f, "{e}"),
            RtError::Desc(e) => write!(f, "{e}"),
            RtError::UnknownFunction(a) => write!(f, "no multiversed function at {a:#x}"),
            RtError::UnknownVariable(a) => write!(f, "no configuration switch at {a:#x}"),
            RtError::UnknownGuardVariable { function, var_addr } => write!(
                f,
                "function {function:#x} guarded by unknown switch {var_addr:#x}"
            ),
            RtError::SiteVerifyFailed { site, what } => {
                write!(f, "call-site verification failed at {site:#x}: {what}")
            }
            RtError::GenericTooSmall { function, size } => write!(
                f,
                "generic body of {function:#x} is {size} bytes, smaller than an entry jump"
            ),
            RtError::DisplacementOutOfRange { site, target } => {
                write!(f, "target {target:#x} is out of rel32 range from {site:#x}")
            }
            RtError::InlineTooLarge { body, site_len } => write!(
                f,
                "inline body of {body} bytes does not fit a {site_len}-byte call site"
            ),
            RtError::BadFnPtrTarget { var_addr, target } => write!(
                f,
                "function pointer at {var_addr:#x} holds unreachable target {target:#x}"
            ),
            RtError::IcacheStale { addr } => {
                write!(f, "icache flush lost for patched range at {addr:#x}")
            }
            RtError::RollbackFailed { addr, source } => {
                write!(f, "rollback failed restoring {addr:#x}: {source}")
            }
            RtError::Quiesce { reason, rounds } => {
                write!(
                    f,
                    "quiesce did not converge after {rounds} rounds: {reason}"
                )
            }
            RtError::Commit {
                phase,
                function,
                source,
            } => {
                write!(f, "commit failed in {phase} phase")?;
                if let Some(g) = function {
                    write!(f, " (function {g:#x})")?;
                }
                write!(f, ": {source}")
            }
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Mem(e) => Some(e),
            RtError::Desc(e) => Some(e),
            RtError::RollbackFailed { source, .. } | RtError::Commit { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<MemError> for RtError {
    fn from(e: MemError) -> RtError {
        RtError::Mem(e)
    }
}

impl From<DescError> for RtError {
    fn from(e: DescError) -> RtError {
        RtError::Desc(e)
    }
}

impl From<mvasm::AbiError> for RtError {
    fn from(e: mvasm::AbiError) -> RtError {
        match e {
            mvasm::AbiError::DisplacementOutOfRange { site, target } => {
                RtError::DisplacementOutOfRange { site, target }
            }
            mvasm::AbiError::InlineTooLarge { body, site_len } => {
                RtError::InlineTooLarge { body, site_len }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvvm::mem::Access;
    use std::error::Error as _;

    fn protection_fault() -> RtError {
        RtError::Mem(MemError {
            addr: 0x1000,
            access: Access::Write,
            mapped: true,
        })
    }

    #[test]
    fn source_chains_through_wrappers() {
        let e = RtError::Commit {
            phase: CommitPhase::Apply,
            function: Some(0x4000),
            source: Box::new(protection_fault()),
        };
        // RtError -> inner RtError::Mem -> MemError
        let inner = e.source().unwrap();
        assert!(inner.source().unwrap().is::<MemError>());
        assert_eq!(e.root_cause(), &protection_fault());
        assert_eq!(e.commit_phase(), Some(CommitPhase::Apply));
    }

    #[test]
    fn transient_classification() {
        let transient = RtError::Commit {
            phase: CommitPhase::Apply,
            function: None,
            source: Box::new(protection_fault()),
        };
        assert!(transient.is_transient());
        let validate = RtError::Commit {
            phase: CommitPhase::Validate,
            function: None,
            source: Box::new(protection_fault()),
        };
        assert!(!validate.is_transient());
        let hard = RtError::Commit {
            phase: CommitPhase::Apply,
            function: None,
            source: Box::new(RtError::UnknownFunction(1)),
        };
        assert!(!hard.is_transient());
        assert!(!protection_fault().is_transient());
        let stale = RtError::Commit {
            phase: CommitPhase::Apply,
            function: None,
            source: Box::new(RtError::IcacheStale { addr: 0x2000 }),
        };
        assert!(stale.is_transient());
    }

    #[test]
    fn display_names_phase_and_function() {
        let e = RtError::Commit {
            phase: CommitPhase::Validate,
            function: Some(0x4000),
            source: Box::new(RtError::GenericTooSmall {
                function: 0x4000,
                size: 3,
            }),
        };
        let s = e.to_string();
        assert!(s.contains("validate"), "{s}");
        assert!(s.contains("0x4000"), "{s}");
    }
}
