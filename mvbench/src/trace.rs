//! Bench-side spans: one around every call into a layer, parented by the
//! phase span that caused it. Kept in memory and written out at exit as
//! a Chrome trace; self times (a span minus its children) give the
//! per-layer split of where the time went.

use multiverse::mvmetrics::json::{array, Obj};
use std::collections::BTreeMap;

/// One recorded interval, nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>` for layer calls, the phase name for phases.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing phase span.
    pub parent: Option<usize>,
    /// Round the span belongs to (its rep id).
    pub rep: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Phase spans belong to the benchmark itself; layer spans to the
    /// module named before the first dot.
    pub fn layer(&self) -> &str {
        match self.parent {
            None => "bench",
            Some(_) => self.name.split('.').next().unwrap_or("bench"),
        }
    }
}

/// Self time of every span: its duration minus the part of it its
/// children cover. Children of one parent never overlap (the benchmark
/// is one thread), so the covered part is the sum of the clipped child
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Total self time per layer, seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Total self time per span name, seconds.
pub fn span_self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Renders `spans` in the Chrome `trace_event` format (complete events,
/// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
pub fn chrome(spans: &[Span], workload: &str) -> String {
    let events = spans.iter().map(|s| {
        let mut args = Obj::new();
        args.u64("rep", s.rep);
        if let Some(p) = s.parent {
            args.str("parent", &spans[p].name);
        }
        let mut e = Obj::new();
        e.str("name", &s.name)
            .str("cat", s.layer())
            .str("ph", "X")
            .f64("ts", s.start_ns as f64 / 1e3)
            .f64("dur", s.dur() as f64 / 1e3)
            .u64("pid", 1)
            .u64("tid", 1)
            .raw("args", args.finish());
        e.finish()
    });
    let mut meta = Obj::new();
    meta.str("workload", workload)
        .u64("spans", spans.len() as u64);
    let mut doc = Obj::new();
    doc.raw("traceEvents", array(events))
        .str("displayTimeUnit", "ms")
        .raw("otherData", meta.finish());
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("mvc.compile_unit", 10, 40, Some(0)),
            span("mvobj.link", 40, 50, Some(0)),
            span("mvc.compile_unit", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
        let layers = layer_self_seconds(&spans);
        assert_eq!(layers["bench"], 50e-9);
        assert_eq!(layers["mvc"], 40e-9);
        assert_eq!(span_self_seconds(&spans)["mvobj.link"], 10e-9);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let spans = vec![
            span("setup", 0, 2000, None),
            span("mvobj.link", 500, 1500, Some(0)),
        ];
        let doc = crate::json::parse(&chrome(&spans, "w")).unwrap();
        let ev = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        assert_eq!(
            ev[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_str()),
            Some("setup")
        );
    }
}
