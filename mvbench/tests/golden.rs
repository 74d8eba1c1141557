//! Exact-counter golden test: every workload in `--quick` mode with seed
//! 1 must reproduce the exact metrics in `baseline/quick.json` bit for
//! bit, report no failed check, and print every metric `BENCHMARK.json`
//! declares. Regenerate the baseline after an intended change with:
//!
//! ```sh
//! BLESS=1 cargo test --manifest-path mvbench/Cargo.toml --test golden
//! ```

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;

fn obj(v: &Value) -> &BTreeMap<String, Value> {
    match v {
        Value::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}
use std::path::{Path, PathBuf};
use std::process::Command;

fn mvbench(args: &[&str]) -> bool {
    Command::new(env!("CARGO_BIN_EXE_mvbench"))
        .args(args)
        .status()
        .expect("mvbench runs")
        .success()
}

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The exact metrics of every workload document, by workload.
fn exact_metrics(docs: &Value) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for doc in docs.as_arr().expect("an array of documents") {
        let workload = doc.get("workload").and_then(Value::as_str).unwrap();
        let metrics = obj(doc.get("metrics").unwrap());
        let exact = metrics
            .iter()
            .filter(|(_, m)| m.get("kind").and_then(Value::as_str) == Some("exact"))
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        out.insert(workload.to_string(), exact);
    }
    out
}

fn render(baseline: &BTreeMap<String, BTreeMap<String, f64>>) -> String {
    let workloads: Vec<String> = baseline
        .iter()
        .map(|(w, metrics)| {
            let lines: Vec<String> = metrics
                .iter()
                .map(|(name, v)| {
                    format!(
                        "    \"{name}\": {}",
                        multiverse::mvmetrics::json::number(*v)
                    )
                })
                .collect();
            format!("  \"{w}\": {{\n{}\n  }}", lines.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", workloads.join(",\n"))
}

#[test]
fn quick_run_matches_baseline_and_compares_clean() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&tmp).unwrap();
    let out = tmp.join("quick.json");
    let (out_s, tmp_s) = (out.to_str().unwrap(), tmp.to_str().unwrap());
    assert!(mvbench(&[
        "--workload",
        "all",
        "--quick",
        "--seed",
        "1",
        "--trace",
        "1",
        "--dir",
        tmp_s,
        "--out",
        out_s,
    ]));
    let docs = read(&out);
    let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let declared: Vec<&str> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| spec.get(k).and_then(Value::as_arr).unwrap())
        .map(|m| m.get("name").and_then(Value::as_str).unwrap())
        .collect();

    for doc in docs.as_arr().unwrap() {
        let workload = doc.get("workload").and_then(Value::as_str).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("mv-bench/1")
        );
        assert_eq!(
            doc.get("failed_frac").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        let metrics = doc.get("metrics").unwrap();
        for name in &declared {
            assert!(metrics.get(name).is_some(), "{workload}: `{name}` missing");
        }
        assert!(
            doc.get("self_s").and_then(|s| s.get("mvvm")).is_some(),
            "{workload}"
        );
        let trace = read(&tmp.join(format!("mvbench-trace.{workload}.json")));
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        for call in [
            "mvc.compile_unit",
            "mvobj.link",
            "mvvm.load",
            "mvrt.attach",
            "mvvx.vexec_in",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Value::as_str) == Some(call)),
                "{workload}: no `{call}` span"
            );
        }
    }

    let actual = exact_metrics(&docs);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline/quick.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(&actual)).unwrap();
    } else {
        let baseline = read(&path);
        let expected: BTreeMap<String, BTreeMap<String, f64>> = obj(&baseline)
            .iter()
            .map(|(w, metrics)| {
                let values = obj(metrics)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap()));
                (w.clone(), values.collect())
            })
            .collect();
        assert_eq!(
            actual, expected,
            "exact metrics drifted from baseline/quick.json; run with BLESS=1 if intended"
        );
    }

    // A run compares clean against itself; a changed exact metric is a
    // violation.
    assert!(mvbench(&["compare", out_s, out_s]));
    let text = std::fs::read_to_string(&out).unwrap();
    let tampered = text.replacen(
        "\"kind\":\"exact\",\"value\":",
        "\"kind\":\"exact\",\"value\":1",
        1,
    );
    assert_ne!(tampered, text);
    let tampered_path = tmp.join("tampered.json");
    std::fs::write(&tampered_path, tampered).unwrap();
    assert!(!mvbench(&[
        "compare",
        out_s,
        tampered_path.to_str().unwrap()
    ]));
}
