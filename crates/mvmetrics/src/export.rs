//! Sample exporters: Prometheus text exposition and a versioned JSON
//! document. Both render a `&[Sample]` read at one point, so an export
//! is always a consistent view.

use crate::json::{array, string, Obj};
use crate::{Label, Sample, SampleValue};
use std::fmt::Write as _;

/// Schema version of the JSON snapshot document.
pub const JSON_SNAPSHOT_VERSION: u32 = 1;

/// Renders samples in the Prometheus text exposition format. Each
/// metric family prints as one group — its `# HELP` and `# TYPE` lines,
/// then every sample of that name in input order — and families appear
/// in the order of their first sample.
pub fn prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    for (i, s) in samples.iter().enumerate() {
        if samples[..i].iter().any(|p| p.name == s.name) {
            continue; // its family is already printed
        }
        let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
        let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind());
        for m in samples[i..].iter().filter(|m| m.name == s.name) {
            let value = match m.value {
                SampleValue::Counter(v) => v.to_string(),
                SampleValue::Gauge(v) => prom_f64(v),
            };
            let _ = writeln!(out, "{}{} {}", m.name, label_set(m.labels()), value);
        }
    }
    out
}

/// Renders samples as a versioned JSON snapshot document:
/// `{"version":1,"kind":"mv-metrics-snapshot","metrics":[...]}`.
pub fn json(samples: &[Sample]) -> String {
    let metrics = samples.iter().map(|s| {
        let mut o = Obj::new();
        o.str("name", s.name).str("type", s.value.kind());
        if !s.labels().is_empty() {
            let mut lo = Obj::new();
            for (k, v) in s.labels() {
                lo.str(k, v);
            }
            o.raw("labels", lo.finish());
        }
        match s.value {
            SampleValue::Counter(v) => o.u64("value", v),
            SampleValue::Gauge(v) => o.f64("value", v),
        };
        o.finish()
    });
    let mut doc = Obj::new();
    doc.u64("version", JSON_SNAPSHOT_VERSION as u64)
        .str("kind", "mv-metrics-snapshot")
        .raw("metrics", array(metrics));
    doc.finish()
}

fn label_set(labels: &[Label]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}={}", k, string(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Vec<Sample> {
        vec![
            Sample::counter("mv_ops_total", "Operations", 3).with_labels([("op", "flip".into())]),
            Sample::gauge("mv_depth", "Queue depth", 2.0),
            Sample::counter("mv_ops_total", "Operations", 1).with_labels([("op", "nop".into())]),
        ]
    }

    #[test]
    fn prometheus_families() {
        let text = prometheus(&demo());
        assert!(text.contains("# TYPE mv_ops_total counter"));
        assert!(text.contains("mv_ops_total{op=\"flip\"} 3"));
        assert!(text.contains("mv_depth 2"));
        // The family's second sample joins its group, not the gauge's.
        assert!(text.contains("mv_ops_total{op=\"flip\"} 3\nmv_ops_total{op=\"nop\"} 1\n"));
        assert_eq!(text.matches("# HELP mv_ops_total").count(), 1);
    }

    #[test]
    fn json_snapshot_shape() {
        let doc = json(&demo());
        assert!(doc.starts_with("{\"version\":1,\"kind\":\"mv-metrics-snapshot\""));
        assert!(doc.contains("\"name\":\"mv_ops_total\""));
        assert!(doc.contains("\"labels\":{\"op\":\"flip\"}"));
        assert!(doc.contains("{\"name\":\"mv_depth\",\"type\":\"gauge\",\"value\":2}"));
    }
}
