//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! workloads, metric names, units, directions and bounds. Embedded at
//! build time so the binary and the file can never disagree.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median; `None` for
    /// per-layer metrics, `Some(0.0)` for exact guest quantities.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The embedded `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")? as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every declared metric, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_consistent() {
        let spec = Spec::load();
        let names: Vec<&str> = crate::workloads::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            spec.workloads, names,
            "BENCHMARK.json declares every workload"
        );
        let setup = spec
            .all()
            .find(|m| m.name == "setup_s")
            .expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        let max_bound = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(max_bound),
            "set-up time has the largest bound"
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec.all().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), spec.all().count(), "metric names are unique");
    }
}
