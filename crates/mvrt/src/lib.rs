#![warn(missing_docs)]
//! The multiverse run-time library.
//!
//! This is the reproduction of the paper's <850-line C run-time (§4–§5): a
//! light-weight binary-patching mechanism that interprets the descriptors
//! emitted by the compiler, selects function variants according to the
//! *current* values of the configuration switches, and installs them into
//! the running process image.
//!
//! # The mechanism (Fig. 3)
//!
//! For a `commit`, the runtime:
//!
//! 1. reads every configuration switch from guest memory (width- and
//!    signedness-aware, per its 32-byte descriptor);
//! 2. for each multiversed function, searches a variant whose guard ranges
//!    all admit the current values — if none fits, the function *reverts to
//!    the generic* body, which is always correct, and the fallback is
//!    signalled to the caller (Fig. 3 d);
//! 3. patches every recorded call site: after verifying the site still
//!    contains the expected `call rel32`, the call target is replaced —
//!    or, if the variant body (minus its final `ret`) fits into the 5-byte
//!    call site, the body is **inlined** and padded with wide NOPs, which
//!    erases empty bodies entirely (Fig. 3 c);
//! 4. saves the first 5 bytes of the generic function and overwrites them
//!    with an unconditional `jmp` to the variant, so calls the compiler
//!    never saw (function pointers, foreign code) also reach the committed
//!    variant — the **completeness** argument of §7.4;
//! 5. performs every text write inside an `mprotect(RW)` … `mprotect(RX)`
//!    window and flushes the instruction cache afterwards. The `mvvm`
//!    machine faults on unwritable text and executes stale code when the
//!    flush is forgotten, so both steps are load-bearing.
//!
//! `revert` restores the saved prologues and re-points all call sites at
//! the generic functions.
//!
//! # Table 1 API
//!
//! | paper | here |
//! |---|---|
//! | `multiverse_commit()` | [`Runtime::commit`] |
//! | `multiverse_revert()` | [`Runtime::revert`] |
//! | `multiverse_commit_refs(&var)` | [`Runtime::commit_refs`] |
//! | `multiverse_revert_refs(&var)` | [`Runtime::revert_refs`] |
//! | `multiverse_commit_func(&fn)` | [`Runtime::commit_func`] |
//! | `multiverse_revert_func(&fn)` | [`Runtime::revert_func`] |
//!
//! Each operation is also a [`TxnOp`] value, which
//! [`Runtime::run_quiesced`] runs against a live SMP machine.
//!
//! Function-pointer configuration switches (the §4 extension used by the
//! PV-Ops case study) are handled by the same call-site patcher; see
//! [`fnptr`].

pub mod error;
pub mod fnptr;
pub mod journal;
pub mod mvd;
pub mod patch;
pub mod quiesce;
pub mod runtime;
pub mod stats;
pub mod txn;

pub use error::{CommitPhase, RtError};
pub use journal::{Journal, JournalEntry};
pub use mvd::{
    CommitDaemon, Completion, Lane, MvdConfig, MvdOp, MvdOutcome, MvdStats, QuarantineEntry,
    RequestId,
};
pub use quiesce::{CommitStrategy, QuiesceReport};
pub use runtime::{CommitReport, FnBinding, PatchStrategy, Runtime};
pub use stats::{OpTally, PatchStats, PatchTiming};
pub use txn::{FnHealth, RetryPolicy, SiteHealth, TxnOp, ValidationReport};

// Re-exported so downstream code can consume traces (sinks, span
// reconstruction) and metrics (samples, exporters, residency)
// without naming the crates separately.
pub use mvmetrics;
pub use mvtrace;
