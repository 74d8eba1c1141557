//! `mvbench compare A.json B.json`: B against baseline A, metric by
//! metric. Exact metrics must be equal; an end-to-end metric may worsen
//! by at most its `BENCHMARK.json` bound; per-layer timings are shown
//! without a verdict.

use crate::json::{self, Value};
use crate::spec::Spec;
use std::collections::BTreeMap;

/// The `mv-bench/1` documents of a file (an array, or one document), by
/// workload.
fn load(path: &str) -> Result<BTreeMap<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let docs = match doc {
        Value::Arr(docs) => docs,
        one => vec![one],
    };
    let mut out = BTreeMap::new();
    for d in docs {
        if d.get("schema").and_then(Value::as_str) != Some("mv-bench/1") {
            return Err(format!("{path}: not a mv-bench/1 document"));
        }
        let name = d
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: document without a workload"))?
            .to_string();
        out.insert(name, d);
    }
    Ok(out)
}

/// Prints the comparison; returns the number of violations.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut violations = 0;
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (workload, da) in &a {
        let Some(db) = b.get(workload) else {
            println!("{workload:<14} missing from {b_path}");
            violations += 1;
            continue;
        };
        // Runs of different lengths or sizes do not compare.
        for key in ["quick", "seconds"] {
            if da.get(key) != db.get(key) {
                println!("{workload:<14} `{key}` differs between the runs");
                violations += 1;
            }
        }
        for m in spec.all() {
            let entry = |d: &Value| d.get("metrics").and_then(|ms| ms.get(&m.name)).cloned();
            let (Some(ea), Some(eb)) = (entry(da), entry(db)) else {
                continue; // trace-only metrics appear in traced runs only
            };
            let value = |e: &Value| e.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(&ea), value(&eb));
            let exact = ea.get("kind").and_then(Value::as_str) == Some("exact");
            let ratio = vb / va;
            let worsening = if m.lower_is_better {
                ratio - 1.0
            } else {
                1.0 / ratio - 1.0
            };
            let (verdict, bound) = if exact {
                (
                    if va == vb { "equal" } else { "DIFFERS" },
                    "exact".to_string(),
                )
            } else {
                match m.bound {
                    Some(bound) if worsening.is_nan() || worsening > bound => {
                        ("WORSE", format!("{bound}"))
                    }
                    Some(bound) => ("ok", format!("{bound}")),
                    None => ("", "-".to_string()),
                }
            };
            if matches!(verdict, "DIFFERS" | "WORSE") {
                violations += 1;
            }
            println!(
                "{workload:<14} {:<34} {va:>14.6} {vb:>14.6} {ratio:>8.3} {bound:>7}  {verdict}",
                m.name
            );
        }
    }
    Ok(violations)
}
