//! Trace export.
//!
//! [`TraceSink`] is the one-method export trait; three implementations
//! ship with the crate:
//!
//! * [`JsonlSink`] — one JSON object per line, the machine-readable
//!   interchange format (stable field names, addresses in hex strings);
//! * [`ChromeSink`] — the Chrome `trace_event` JSON format: open the
//!   file in `chrome://tracing` or <https://ui.perfetto.dev> and the
//!   commit/phase spans render as a flame chart with the point events
//!   as instants;
//! * [`TextSink`] — a human-readable span-tree rendering for terminals.
//!
//! All JSON is hand-rolled: every value is a number, a boolean or a
//! `&'static str` identifier from the event taxonomy, so no escaping or
//! serde machinery is needed.

use crate::event::{Event, EventKind};
use crate::span::build_spans;
use std::io::{self, Write};

/// Serializes an event stream into some output format.
pub trait TraceSink {
    /// Writes the whole stream (oldest first) to `w`.
    fn export(&self, events: &[Event], w: &mut dyn Write) -> io::Result<()>;

    /// Convenience: export into a `String`.
    fn export_string(&self, events: &[Event]) -> String {
        let mut buf = Vec::new();
        self.export(events, &mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("exporters emit UTF-8")
    }
}

/// Renders the payload fields of `kind` as JSON object members,
/// starting with a leading comma (appended after the common fields).
fn kind_fields(kind: &EventKind) -> String {
    match *kind {
        EventKind::CommitBegin { op } => format!(r#","op":"{op}""#),
        EventKind::CommitEnd { ok } => format!(r#","ok":{ok}"#),
        EventKind::PhaseBegin { phase } => format!(r#","phase":"{phase}""#),
        EventKind::PhaseEnd { phase, ok } => format!(r#","phase":"{phase}","ok":{ok}"#),
        EventKind::SitePatched { site, target } => {
            format!(r#","site":"{site:#x}","target":"{target:#x}""#)
        }
        EventKind::SiteRestored { site } => format!(r#","site":"{site:#x}""#),
        EventKind::Inlined { site, variant } => {
            format!(r#","site":"{site:#x}","variant":"{variant:#x}""#)
        }
        EventKind::EntryJumpWritten { function, variant } => {
            format!(r#","function":"{function:#x}","variant":"{variant:#x}""#)
        }
        EventKind::PrologueRestored { function } => format!(r#","function":"{function:#x}""#),
        EventKind::FaultObserved { addr, what } => {
            format!(r#","addr":"{addr:#x}","what":"{what}""#)
        }
        EventKind::Rollback { entries } => format!(r#","entries":{entries}"#),
        EventKind::Retry { attempt } => format!(r#","attempt":{attempt}"#),
        EventKind::ActionSkipped { function, sites } => {
            format!(r#","function":"{function:#x}","sites":{sites}"#)
        }
        EventKind::PageBatch { pages, writes } => {
            format!(r#","pages":{pages},"writes":{writes}"#)
        }
        EventKind::StageBegin { stage } => format!(r#","stage":"{stage}""#),
        EventKind::StageEnd { stage, items } => {
            format!(r#","stage":"{stage}","items":{items}"#)
        }
        EventKind::QuiesceBegin { strategy, vcpus } => {
            format!(r#","strategy":"{strategy}","vcpus":{vcpus}"#)
        }
        EventKind::QuiesceEnd { ok, rounds } => format!(r#","ok":{ok},"rounds":{rounds}"#),
        EventKind::VcpuParked { vcpu, pc } => {
            format!(r#","vcpu":{vcpu},"pc":"{pc:#x}""#)
        }
        EventKind::IcacheShootdown { start, end, vcpus } => {
            format!(r#","start":"{start:#x}","end":"{end:#x}","vcpus":{vcpus}"#)
        }
        EventKind::TrapHit { vcpu, addr } => {
            format!(r#","vcpu":{vcpu},"addr":"{addr:#x}""#)
        }
        EventKind::QueueAdmit { lane, key } => {
            format!(r#","lane":"{lane}","key":"{key:#x}""#)
        }
        EventKind::Coalesced { key, waiters } => {
            format!(r#","key":"{key:#x}","waiters":{waiters}"#)
        }
        EventKind::Shed { key } => format!(r#","key":"{key:#x}""#),
        EventKind::Quarantined { key, failures } => {
            format!(r#","key":"{key:#x}","failures":{failures}"#)
        }
        EventKind::StrategyDegraded { from, to } => {
            format!(r#","from":"{from}","to":"{to}""#)
        }
        EventKind::VexecSplit { pc, switch, arms } => {
            format!(r#","pc":"{pc:#x}","switch":"{switch:#x}","arms":{arms}"#)
        }
        EventKind::VexecJoin {
            pc,
            switch,
            parties,
        } => {
            format!(r#","pc":"{pc:#x}","switch":"{switch:#x}","parties":{parties}"#)
        }
        EventKind::VexecLeaf {
            leaf,
            configs,
            exit,
        } => {
            format!(r#","leaf":{leaf},"configs":{configs},"exit":{exit}"#)
        }
    }
}

/// One JSON object per line: `{"seq":…,"ts_ns":…,"ev":"…",…payload…}`.
///
/// With [`JsonlSink::with_dropped`] the stream opens with a header line
/// (`"ev":"trace_header"`) carrying the exported event count and the
/// ring's dropped-event count, so a truncated trace is never silently
/// misread as complete.
#[derive(Clone, Copy, Debug, Default)]
pub struct JsonlSink {
    /// Ring drop count to report in a leading header line; `None`
    /// (the default) emits events only, byte-compatible with older
    /// consumers.
    pub dropped: Option<u64>,
}

impl JsonlSink {
    /// A sink that prefixes the stream with a `trace_header` line
    /// reporting `dropped` ring overflows.
    pub fn with_dropped(dropped: u64) -> JsonlSink {
        JsonlSink {
            dropped: Some(dropped),
        }
    }
}

impl TraceSink for JsonlSink {
    fn export(&self, events: &[Event], w: &mut dyn Write) -> io::Result<()> {
        if let Some(dropped) = self.dropped {
            writeln!(
                w,
                r#"{{"ev":"trace_header","events":{},"dropped":{dropped}}}"#,
                events.len()
            )?;
        }
        for e in events {
            writeln!(
                w,
                r#"{{"seq":{},"ts_ns":{},"ev":"{}"{}}}"#,
                e.seq,
                e.ts_ns,
                e.kind.name(),
                kind_fields(&e.kind)
            )?;
        }
        Ok(())
    }
}

/// Chrome `trace_event` format (the `{"traceEvents":[…]}` flavour,
/// accepted by both chrome://tracing and Perfetto).
///
/// Commits and phases become `B`/`E` duration pairs on one thread, so
/// the span tree renders as nesting; point events become `i` instants
/// scoped to the thread. Timestamps are microseconds with nanosecond
/// precision kept in the fraction.
///
/// With [`ChromeSink::with_dropped`] the trace document closes with a
/// `metadata` object carrying the exported event count and the ring's
/// dropped-event count — the same truncation signal the JSONL header
/// reports, surfaced where `chrome://tracing`/Perfetto show metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChromeSink {
    /// Ring drop count to report in the trailing `metadata` object;
    /// `None` (the default) emits the events array only,
    /// byte-compatible with older consumers.
    pub dropped: Option<u64>,
}

impl ChromeSink {
    /// A sink whose trace document reports `dropped` ring overflows in
    /// its `metadata` object.
    pub fn with_dropped(dropped: u64) -> ChromeSink {
        ChromeSink {
            dropped: Some(dropped),
        }
    }
}

/// Formats nanoseconds as the microsecond float Chrome expects.
fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

impl TraceSink for ChromeSink {
    fn export(&self, events: &[Event], w: &mut dyn Write) -> io::Result<()> {
        write!(w, r#"{{"traceEvents":["#)?;
        let mut first = true;
        for e in events {
            let (ph, name, cat) = match e.kind {
                EventKind::CommitBegin { op } => ("B", op, "commit"),
                EventKind::CommitEnd { .. } => ("E", "", "commit"),
                EventKind::PhaseBegin { phase } => ("B", phase.name(), "phase"),
                EventKind::PhaseEnd { phase, .. } => ("E", phase.name(), "phase"),
                EventKind::StageBegin { stage } => ("B", stage, "compile"),
                EventKind::StageEnd { stage, .. } => ("E", stage, "compile"),
                _ => ("i", e.kind.name(), "point"),
            };
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":1",
                us(e.ts_ns)
            )?;
            if ph == "i" {
                write!(w, r#","s":"t""#)?;
            }
            write!(
                w,
                r#","args":{{"seq":{}{}}}}}"#,
                e.seq,
                kind_fields(&e.kind)
            )?;
        }
        if let Some(dropped) = self.dropped {
            writeln!(
                w,
                "\n],\"metadata\":{{\"events\":{},\"dropped\":{}}}}}",
                events.len(),
                dropped
            )?;
        } else {
            writeln!(w, "\n]}}")?;
        }
        Ok(())
    }
}

/// Human-readable span-tree rendering.
#[derive(Clone, Copy, Debug, Default)]
pub struct TextSink;

/// Formats nanoseconds adaptively (ns / µs / ms).
fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl TraceSink for TextSink {
    fn export(&self, events: &[Event], w: &mut dyn Write) -> io::Result<()> {
        let forest = build_spans(events);
        if forest.orphaned > 0 {
            writeln!(
                w,
                "({} events truncated by the ring before the first complete commit)",
                forest.orphaned
            )?;
        }
        for s in &forest.stages {
            writeln!(
                w,
                "stage {:<10} {:>12}  {} item{}",
                s.stage,
                human_ns(s.duration_ns()),
                s.items,
                if s.items == 1 { "" } else { "s" }
            )?;
        }
        for c in &forest.commits {
            writeln!(
                w,
                "{} [{}] {} in {} ({} attempt{})",
                c.op,
                c.begin_seq,
                if c.ok { "ok" } else { "FAILED" },
                human_ns(c.duration_ns()),
                c.attempts.len(),
                if c.attempts.len() == 1 { "" } else { "s" }
            )?;
            for (i, a) in c.attempts.iter().enumerate() {
                writeln!(w, "  attempt {}", i + 1)?;
                for p in &a.phases {
                    writeln!(
                        w,
                        "    {:<9} {:>12}  {}",
                        p.phase.name(),
                        human_ns(p.duration_ns()),
                        if p.ok { "ok" } else { "FAILED" }
                    )?;
                    for e in &p.events {
                        let detail = match e.kind {
                            EventKind::SitePatched { site, target } => {
                                format!("site {site:#x} -> {target:#x}")
                            }
                            EventKind::SiteRestored { site } => {
                                format!("site {site:#x} restored")
                            }
                            EventKind::Inlined { site, variant } => {
                                format!("variant {variant:#x} inlined at {site:#x}")
                            }
                            EventKind::EntryJumpWritten { function, variant } => {
                                format!("entry jump {function:#x} -> {variant:#x}")
                            }
                            EventKind::PrologueRestored { function } => {
                                format!("prologue restored at {function:#x}")
                            }
                            EventKind::FaultObserved { addr, what } => {
                                format!("!! {what} at {addr:#x}")
                            }
                            EventKind::Rollback { entries } => {
                                format!("rolled back {entries} journal entries")
                            }
                            EventKind::ActionSkipped { function, sites } => {
                                format!("{function:#x} unchanged, {sites} sites skipped")
                            }
                            EventKind::PageBatch { pages, writes } => {
                                format!("{writes} writes batched over {pages} pages")
                            }
                            EventKind::QuiesceBegin { strategy, vcpus } => {
                                format!("quiescing {vcpus} vcpus ({strategy})")
                            }
                            EventKind::QuiesceEnd { ok, rounds } => format!(
                                "released after {rounds} rounds ({})",
                                if ok { "committed" } else { "rolled back" }
                            ),
                            EventKind::VcpuParked { vcpu, pc } => {
                                format!("vcpu {vcpu} parked at {pc:#x}")
                            }
                            EventKind::IcacheShootdown { start, end, vcpus } => {
                                format!("icache shootdown {start:#x}..{end:#x} on {vcpus} vcpus")
                            }
                            EventKind::TrapHit { vcpu, addr } => {
                                format!("vcpu {vcpu} hit trap at {addr:#x}")
                            }
                            EventKind::QueueAdmit { lane, key } => {
                                format!("admitted {key:#x} to the {lane} lane")
                            }
                            EventKind::Coalesced { key, waiters } => {
                                format!("{key:#x} coalesced ({waiters} waiters)")
                            }
                            EventKind::Shed { key } => format!("shed {key:#x}"),
                            EventKind::Quarantined { key, failures } => {
                                format!("{key:#x} quarantined after {failures} failures")
                            }
                            EventKind::StrategyDegraded { from, to } => {
                                format!("degraded {from} -> {to}")
                            }
                            _ => e.kind.name().to_string(),
                        };
                        writeln!(w, "      {:<22} {}", e.kind.name(), detail)?;
                    }
                }
                if let Some(n) = a.retry {
                    writeln!(w, "    retry #{n}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                seq: 1,
                ts_ns: 0,
                kind: EventKind::CommitBegin { op: "commit" },
            },
            Event {
                seq: 2,
                ts_ns: 1_500,
                kind: EventKind::PhaseBegin { phase: Phase::Plan },
            },
            Event {
                seq: 3,
                ts_ns: 2_500,
                kind: EventKind::PhaseEnd {
                    phase: Phase::Plan,
                    ok: true,
                },
            },
            Event {
                seq: 4,
                ts_ns: 9_000,
                kind: EventKind::CommitEnd { ok: true },
            },
        ]
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let s = JsonlSink::default().export_string(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"seq":1,"ts_ns":0,"ev":"commit_begin","op":"commit"}"#
        );
        assert_eq!(
            lines[2],
            r#"{"seq":3,"ts_ns":2500,"ev":"phase_end","phase":"plan","ok":true}"#
        );
    }

    #[test]
    fn jsonl_header_reports_counts() {
        let s = JsonlSink::with_dropped(7).export_string(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "header plus one line per event");
        assert_eq!(lines[0], r#"{"ev":"trace_header","events":4,"dropped":7}"#);
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ts_ns":0,"ev":"commit_begin","op":"commit"}"#
        );
        // The default stays byte-compatible: no header at all.
        assert!(JsonlSink::default()
            .export_string(&sample())
            .starts_with(r#"{"seq":1"#));
    }

    #[test]
    fn control_plane_events_render_in_every_sink() {
        let evs: Vec<Event> = [
            EventKind::QueueAdmit {
                lane: "priority",
                key: 0x5000,
            },
            EventKind::Coalesced {
                key: 0x5000,
                waiters: 3,
            },
            EventKind::Shed { key: 0x5000 },
            EventKind::Quarantined {
                key: 0x5000,
                failures: 4,
            },
            EventKind::StrategyDegraded {
                from: "breakpoint",
                to: "stop-machine",
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: i as u64 + 1,
            ts_ns: i as u64 * 100,
            kind,
        })
        .collect();
        let jsonl = JsonlSink::default().export_string(&evs);
        assert!(jsonl.contains(r#""ev":"queue_admit","lane":"priority","key":"0x5000""#));
        assert!(jsonl.contains(r#""ev":"coalesced","key":"0x5000","waiters":3"#));
        assert!(jsonl.contains(r#""ev":"shed","key":"0x5000""#));
        assert!(jsonl.contains(r#""ev":"quarantined","key":"0x5000","failures":4"#));
        assert!(
            jsonl.contains(r#""ev":"strategy_degraded","from":"breakpoint","to":"stop-machine""#)
        );
        // All five are point events: Chrome renders them as instants.
        let chrome = ChromeSink::default().export_string(&evs);
        assert_eq!(chrome.matches(r#""ph":"i""#).count(), 5);
    }

    #[test]
    fn chrome_pairs_b_and_e() {
        let s = ChromeSink::default().export_string(&sample());
        assert!(s.starts_with(r#"{"traceEvents":["#));
        assert_eq!(s.matches(r#""ph":"B""#).count(), 2);
        assert_eq!(s.matches(r#""ph":"E""#).count(), 2);
        assert!(s.contains(r#""ts":1.500"#));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn chrome_metadata_reports_counts() {
        let s = ChromeSink::with_dropped(7).export_string(&sample());
        assert!(s
            .trim_end()
            .ends_with(r#"],"metadata":{"events":4,"dropped":7}}"#));
        // The default stays byte-compatible: no metadata object.
        assert!(ChromeSink::default()
            .export_string(&sample())
            .trim_end()
            .ends_with("]}"));
    }

    #[test]
    fn text_renders_the_tree() {
        let s = TextSink.export_string(&sample());
        assert!(s.contains("commit [1] ok"), "{s}");
        assert!(s.contains("plan"), "{s}");
    }
}
