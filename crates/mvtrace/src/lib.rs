#![warn(missing_docs)]
//! mvtrace — the structured observability layer of the multiverse
//! toolchain.
//!
//! The paper's whole argument rests on measurement (§6.1's 1161 patched
//! call sites and ≈16 ms commit latency, §6.2.2's −40 % branch
//! reduction), yet end-of-run counter structs cannot answer *when* a
//! phase ran, *which* site was patched in which attempt, or *why* a
//! commit took as long as it did. This crate provides the missing
//! timeline:
//!
//! * [`Event`]/[`EventKind`] — the typed event taxonomy the runtime
//!   emits: commit and phase boundaries, per-site patch records, and the
//!   failure-path events (fault, rollback, retry) the transactional
//!   engine made possible;
//! * [`TraceRing`] — a bounded ring with process-wide monotonic sequence
//!   numbers and per-event host timestamps; disabled tracing costs one
//!   predictable branch on the emitter's side (see [`enabled`]);
//! * [`span`] — reconstruction of the flat event stream into a span
//!   tree: commits → attempts → phases → point events, including
//!   faulted-then-retried shapes;
//! * [`sink`] — the [`TraceSink`] export trait with
//!   JSONL, Chrome `trace_event` (chrome://tracing / Perfetto) and
//!   human-readable text implementations.
//!
//! The crate is dependency-free and knows nothing about the VM or the
//! runtime; `mvrt` threads events through it, `mvcc trace` and the bench
//! harness consume them. See `docs/OBSERVABILITY.md` for the end-to-end
//! story.

pub mod event;
pub mod ring;
pub mod sink;
pub mod span;

pub use event::{Event, EventKind, Phase};
pub use ring::{TraceRing, MAX_RING_CAP};
pub use sink::{ChromeSink, JsonlSink, TextSink, TraceSink};
pub use span::{build_spans, AttemptSpan, CommitSpan, PhaseSpan, SpanForest};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide enabled flag, lazily initialized. Emitters check it
/// (and their own ring handle) before constructing an event, so disabled
/// tracing compiles down to a branch on this flag — no formatting, no
/// timestamping, no allocation.
fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(false))
}

/// `true` if tracing is globally enabled.
#[inline]
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Globally enables or disables tracing. Emitters that hold a ring only
/// record while this is `true`.
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_toggles() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
