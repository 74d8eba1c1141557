//! Span-tree reconstruction.
//!
//! The ring stores a flat, bounded event stream; analysis wants the
//! hierarchy back: **commit → attempt → phase → point events**. The
//! builder here walks the stream once and rebuilds that tree, tolerating
//! truncation (a bounded ring may have dropped the oldest events, so a
//! stream can open mid-commit — orphaned events before the first
//! `commit_begin` are skipped and reported).

use crate::event::{Event, EventKind, Phase};

/// One phase of one attempt, with the point events recorded inside it.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Timestamp of `phase_begin` (ns since ring epoch).
    pub begin_ns: u64,
    /// Timestamp of `phase_end`; equal to `begin_ns` if the stream was
    /// truncated before the end arrived.
    pub end_ns: u64,
    /// Whether the phase completed successfully.
    pub ok: bool,
    /// Point events (site patches, faults, rollbacks, …) in order.
    pub events: Vec<Event>,
}

impl PhaseSpan {
    /// Phase duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// One plan→validate→apply walk. A commit that retries has several.
#[derive(Clone, Debug, Default)]
pub struct AttemptSpan {
    /// The phases that ran, in order (a validate failure has no apply).
    pub phases: Vec<PhaseSpan>,
    /// Set if this attempt ended in a retry (1-based retry number).
    pub retry: Option<u32>,
}

impl AttemptSpan {
    /// `true` if every phase of the attempt succeeded.
    pub fn ok(&self) -> bool {
        self.phases.iter().all(|p| p.ok)
    }

    /// The span of `phase` within this attempt, if it ran.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

/// One complete transactional operation.
#[derive(Clone, Debug)]
pub struct CommitSpan {
    /// The Table 1 operation name (`commit`, `revert`, …).
    pub op: &'static str,
    /// Sequence number of the `commit_begin` event.
    pub begin_seq: u64,
    /// Timestamp of `commit_begin` (ns since ring epoch).
    pub begin_ns: u64,
    /// Timestamp of `commit_end`; `begin_ns` if truncated.
    pub end_ns: u64,
    /// Overall outcome (after all retries). `false` also for commits
    /// whose `commit_end` was never recorded.
    pub ok: bool,
    /// The attempts, in order. At least one for a well-formed stream.
    pub attempts: Vec<AttemptSpan>,
}

impl CommitSpan {
    /// Total duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    /// Durations of every completed run of `phase` across all attempts.
    pub fn phase_durations_ns(&self, phase: Phase) -> Vec<u64> {
        self.attempts
            .iter()
            .flat_map(|a| a.phase(phase))
            .map(|p| p.duration_ns())
            .collect()
    }
}

/// One compiler pipeline stage (`stage_begin`/`stage_end` pair emitted
/// by `mvc`'s staged pipeline, outside any commit).
#[derive(Clone, Debug, Default)]
pub struct StageSpan {
    /// Stage name (`lower`, `mv-expand`, `optimize`, `merge`, `codegen`).
    pub stage: &'static str,
    /// Timestamp of `stage_begin`.
    pub begin_ns: u64,
    /// Timestamp of `stage_end` (== `begin_ns` when truncated).
    pub end_ns: u64,
    /// Work items the stage reported on `stage_end`.
    pub items: u64,
}

impl StageSpan {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Result of [`build_spans`]: the reconstructed commits plus how many
/// leading events had to be skipped because the ring had already
/// dropped their enclosing `commit_begin`.
#[derive(Clone, Debug, Default)]
pub struct SpanForest {
    /// Reconstructed commit spans, in stream order.
    pub commits: Vec<CommitSpan>,
    /// Compiler pipeline stages, in stream order (empty unless the
    /// stream came from a traced `mvc` pipeline).
    pub stages: Vec<StageSpan>,
    /// Events skipped before the first `commit_begin`.
    pub orphaned: usize,
}

/// Rebuilds the span tree from a flat event stream (oldest first).
///
/// The builder is forgiving by design: streams from a bounded ring may
/// start mid-commit or end mid-phase. A commit without its `commit_end`
/// is closed at its last seen event with `ok = false`; events before the
/// first `commit_begin` are counted in [`SpanForest::orphaned`].
pub fn build_spans(events: &[Event]) -> SpanForest {
    let mut forest = SpanForest::default();
    let mut current: Option<CommitSpan> = None;
    let mut attempt = AttemptSpan::default();
    let mut open_phase: Option<PhaseSpan> = None;
    let mut open_stage: Option<StageSpan> = None;

    let close_phase = |attempt: &mut AttemptSpan, phase: &mut Option<PhaseSpan>, ts: u64| {
        if let Some(mut p) = phase.take() {
            // Truncated phase: close it at the closing timestamp.
            if p.end_ns < p.begin_ns {
                p.end_ns = ts;
            }
            attempt.phases.push(p);
        }
    };

    for &e in events {
        let Some(span) = current.as_mut() else {
            match e.kind {
                EventKind::CommitBegin { op } => {
                    // A commit interrupts any open stage (should not
                    // happen from a well-formed pipeline; close it).
                    if let Some(mut s) = open_stage.take() {
                        s.end_ns = e.ts_ns;
                        forest.stages.push(s);
                    }
                    current = Some(CommitSpan {
                        op,
                        begin_seq: e.seq,
                        begin_ns: e.ts_ns,
                        end_ns: e.ts_ns,
                        ok: false,
                        attempts: Vec::new(),
                    });
                    attempt = AttemptSpan::default();
                    open_phase = None;
                }
                EventKind::StageBegin { stage } => {
                    if let Some(mut s) = open_stage.take() {
                        s.end_ns = e.ts_ns;
                        forest.stages.push(s);
                    }
                    open_stage = Some(StageSpan {
                        stage,
                        begin_ns: e.ts_ns,
                        end_ns: e.ts_ns,
                        items: 0,
                    });
                }
                EventKind::StageEnd { stage, items } => {
                    if let Some(mut s) = open_stage.take() {
                        // A mismatched name still closes the open stage
                        // (truncation tolerance) but keeps its own name.
                        let _ = stage;
                        s.end_ns = e.ts_ns;
                        s.items = items;
                        forest.stages.push(s);
                    } else {
                        forest.orphaned += 1;
                    }
                }
                _ => forest.orphaned += 1,
            }
            continue;
        };
        match e.kind {
            EventKind::CommitBegin { op } => {
                // Missing commit_end (truncated stream): close what we
                // have and start over.
                close_phase(&mut attempt, &mut open_phase, e.ts_ns);
                if !attempt.phases.is_empty() {
                    span.attempts.push(std::mem::take(&mut attempt));
                }
                forest.commits.push(current.take().unwrap());
                current = Some(CommitSpan {
                    op,
                    begin_seq: e.seq,
                    begin_ns: e.ts_ns,
                    end_ns: e.ts_ns,
                    ok: false,
                    attempts: Vec::new(),
                });
            }
            EventKind::CommitEnd { ok } => {
                close_phase(&mut attempt, &mut open_phase, e.ts_ns);
                if !attempt.phases.is_empty() {
                    span.attempts.push(std::mem::take(&mut attempt));
                }
                span.ok = ok;
                span.end_ns = e.ts_ns;
                forest.commits.push(current.take().unwrap());
            }
            EventKind::PhaseBegin { phase } => {
                close_phase(&mut attempt, &mut open_phase, e.ts_ns);
                open_phase = Some(PhaseSpan {
                    phase,
                    begin_ns: e.ts_ns,
                    // Sentinel below begin_ns marks "not yet closed".
                    end_ns: e.ts_ns.wrapping_sub(1),
                    ok: false,
                    events: Vec::new(),
                });
            }
            EventKind::PhaseEnd { phase, ok } => {
                if let Some(mut p) = open_phase.take() {
                    if p.phase == phase {
                        p.end_ns = e.ts_ns;
                        p.ok = ok;
                        attempt.phases.push(p);
                    } else {
                        // Mismatched end: close both defensively.
                        p.end_ns = e.ts_ns;
                        attempt.phases.push(p);
                    }
                }
            }
            EventKind::Retry { attempt: n } => {
                close_phase(&mut attempt, &mut open_phase, e.ts_ns);
                attempt.retry = Some(n);
                span.attempts.push(std::mem::take(&mut attempt));
            }
            _ => match open_phase.as_mut() {
                Some(p) => p.events.push(e),
                // Point event outside a phase (should not happen from
                // the runtime; keep it attached to the attempt anyway
                // by opening a zero-length pseudo record): drop to the
                // orphan counter rather than invent structure.
                None => forest.orphaned += 1,
            },
        }
    }
    // Stream ended mid-stage.
    if let Some(s) = open_stage.take() {
        forest.stages.push(s);
    }
    // Stream ended mid-commit.
    if let Some(mut span) = current.take() {
        let last_ts = events.last().map_or(span.begin_ns, |e| e.ts_ns);
        close_phase(&mut attempt, &mut open_phase, last_ts);
        if !attempt.phases.is_empty() {
            span.attempts.push(attempt);
        }
        span.end_ns = last_ts;
        forest.commits.push(span);
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, ts_ns: u64, kind: EventKind) -> Event {
        Event { seq, ts_ns, kind }
    }

    #[test]
    fn compile_stages_become_top_level_spans() {
        use EventKind::*;
        let events = vec![
            ev(1, 0, StageBegin { stage: "lower" }),
            ev(
                2,
                50,
                StageEnd {
                    stage: "lower",
                    items: 3,
                },
            ),
            ev(3, 60, StageBegin { stage: "mv-expand" }),
            ev(
                4,
                90,
                StageEnd {
                    stage: "mv-expand",
                    items: 8,
                },
            ),
            ev(5, 100, CommitBegin { op: "commit" }),
            ev(6, 200, CommitEnd { ok: true }),
        ];
        let forest = build_spans(&events);
        assert_eq!(forest.orphaned, 0);
        assert_eq!(forest.stages.len(), 2);
        assert_eq!(forest.stages[0].stage, "lower");
        assert_eq!(forest.stages[0].duration_ns(), 50);
        assert_eq!(forest.stages[0].items, 3);
        assert_eq!(forest.stages[1].duration_ns(), 30);
        assert_eq!(forest.commits.len(), 1);
    }

    #[test]
    fn truncated_stage_is_closed_at_stream_end() {
        use EventKind::*;
        let events = vec![ev(1, 0, StageBegin { stage: "codegen" })];
        let forest = build_spans(&events);
        assert_eq!(forest.stages.len(), 1);
        assert_eq!(forest.stages[0].duration_ns(), 0);
    }

    /// The canonical faulted-then-retried commit stream: attempt 1 walks
    /// all three phases, faults in apply, rolls back and retries;
    /// attempt 2 succeeds.
    fn faulted_retry_stream() -> Vec<Event> {
        use EventKind::*;
        let mut t = 0;
        let mut s = 0;
        let mut next = |kind| {
            t += 100;
            s += 1;
            ev(s, t, kind)
        };
        vec![
            next(CommitBegin { op: "commit" }),
            next(PhaseBegin { phase: Phase::Plan }),
            next(PhaseEnd {
                phase: Phase::Plan,
                ok: true,
            }),
            next(PhaseBegin {
                phase: Phase::Validate,
            }),
            next(PhaseEnd {
                phase: Phase::Validate,
                ok: true,
            }),
            next(PhaseBegin {
                phase: Phase::Apply,
            }),
            next(SitePatched {
                site: 0x4000,
                target: 0x5000,
            }),
            next(FaultObserved {
                addr: 0x4005,
                what: "protection-fault",
            }),
            next(Rollback { entries: 1 }),
            next(PhaseEnd {
                phase: Phase::Apply,
                ok: false,
            }),
            next(Retry { attempt: 1 }),
            next(PhaseBegin { phase: Phase::Plan }),
            next(PhaseEnd {
                phase: Phase::Plan,
                ok: true,
            }),
            next(PhaseBegin {
                phase: Phase::Validate,
            }),
            next(PhaseEnd {
                phase: Phase::Validate,
                ok: true,
            }),
            next(PhaseBegin {
                phase: Phase::Apply,
            }),
            next(SitePatched {
                site: 0x4000,
                target: 0x5000,
            }),
            next(EntryJumpWritten {
                function: 0x4100,
                variant: 0x5000,
            }),
            next(PhaseEnd {
                phase: Phase::Apply,
                ok: true,
            }),
            next(CommitEnd { ok: true }),
        ]
    }

    #[test]
    fn faulted_then_retried_commit_reconstructs() {
        let forest = build_spans(&faulted_retry_stream());
        assert_eq!(forest.orphaned, 0);
        assert_eq!(forest.commits.len(), 1);
        let c = &forest.commits[0];
        assert_eq!(c.op, "commit");
        assert!(c.ok);
        assert_eq!(c.attempts.len(), 2);

        let a1 = &c.attempts[0];
        assert_eq!(a1.retry, Some(1));
        assert!(!a1.ok());
        let apply1 = a1.phase(Phase::Apply).unwrap();
        assert!(!apply1.ok);
        let names: Vec<&str> = apply1.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["site_patched", "fault_observed", "rollback"]);

        let a2 = &c.attempts[1];
        assert_eq!(a2.retry, None);
        assert!(a2.ok());
        assert_eq!(a2.phases.len(), 3);
        assert_eq!(a2.phase(Phase::Apply).unwrap().events.len(), 2);

        // Phase durations are the ts deltas of the synthetic stream.
        assert_eq!(c.phase_durations_ns(Phase::Plan), vec![100, 100]);
        assert_eq!(c.phase_durations_ns(Phase::Apply), vec![400, 300]);
        assert_eq!(c.duration_ns(), 1900);
    }

    #[test]
    fn truncated_stream_is_tolerated() {
        let full = faulted_retry_stream();
        // Drop the first 7 events: the stream now opens mid-apply.
        let forest = build_spans(&full[7..]);
        // The commit_begin was dropped, so nothing from that commit can
        // be reconstructed — every survivor is counted as orphaned.
        assert_eq!(forest.commits.len(), 0);
        assert_eq!(forest.orphaned, full.len() - 7);
        // And a stream that ends mid-commit closes it as not-ok.
        let forest = build_spans(&full[..9]);
        assert_eq!(forest.commits.len(), 1);
        assert!(!forest.commits[0].ok);
        assert_eq!(forest.commits[0].attempts.len(), 1);
    }

    #[test]
    fn interleaved_commits_split_cleanly() {
        use EventKind::*;
        let mut events = faulted_retry_stream();
        let base_seq = events.last().unwrap().seq;
        let base_ts = events.last().unwrap().ts_ns;
        events.extend([
            ev(base_seq + 1, base_ts + 100, CommitBegin { op: "revert" }),
            ev(
                base_seq + 2,
                base_ts + 200,
                PhaseBegin { phase: Phase::Plan },
            ),
            ev(
                base_seq + 3,
                base_ts + 300,
                PhaseEnd {
                    phase: Phase::Plan,
                    ok: true,
                },
            ),
            ev(base_seq + 4, base_ts + 400, CommitEnd { ok: true }),
        ]);
        let forest = build_spans(&events);
        assert_eq!(forest.commits.len(), 2);
        assert_eq!(forest.commits[1].op, "revert");
        assert!(forest.commits[1].ok);
    }
}
