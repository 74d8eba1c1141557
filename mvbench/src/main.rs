//! `mvbench`: one end-to-end, layer-by-layer benchmark of the Multiverse
//! reproduction over four case-study workloads.
//!
//! ```text
//! mvbench [--workload NAME|all] [--seed N] [--trace 0|1] [--dir DIR]
//!         [--out FILE] [--quick] [--seconds S]
//! mvbench compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones — and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. `--out`
//! writes the full `mv-bench/1` document (with `--workload all`, an
//! array of one per workload); `--trace 1` also writes the bench-side
//! spans as a Chrome trace per workload into `--dir` (default: this
//! package's `target/`).
//!
//! The run length is `run_seconds` from `BENCHMARK.json`; `--seconds`
//! is accepted only with that value, so every run of one benchmark
//! version measures for the same time.

mod compare;
mod harness;
mod json;
mod probe;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Outcome, RunOpts};
use json::Value;
use multiverse::mvmetrics::json::{array, Obj};
use spec::Spec;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: mvbench [--workload NAME|all] [--seed N] [--trace 0|1] \
                     [--dir DIR] [--out FILE] [--quick] [--seconds S]\n       \
                     mvbench compare A.json B.json";

struct Args {
    workload: String,
    opts: RunOpts,
    /// Where Chrome traces and the per-workload documents of
    /// `--workload all` go.
    dir: String,
    out: Option<String>,
}

fn parse_args(spec: &Spec, args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        opts: RunOpts {
            seed: 1,
            seconds: spec.run_seconds as f64,
            trace: false,
            quick: false,
        },
        dir: concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s != spec.run_seconds {
                    return Err(format!(
                        "--seconds {s}: the run length is fixed at run_seconds = {} \
                         by BENCHMARK.json",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                a.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--dir" => a.dir = value()?.clone(),
            "--out" => a.out = Some(value()?.clone()),
            "--quick" => a.opts.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload != "all" && workloads::factory(&a.workload).is_none() {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// The metrics a run prints: end-to-end, or per-layer when traced.
fn printed(spec: &Spec, traced: bool) -> &[spec::MetricSpec] {
    if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

fn report(spec: &Spec, o: &Outcome, metrics: &mut Obj) {
    println!(
        "== {} (seed {}, {} rounds, {} checks, {} failed)",
        o.workload, o.opts.seed, o.rounds, o.attempted, o.failed
    );
    for m in printed(spec, o.opts.trace) {
        let v = &o.metrics[&m.name];
        let tail = v
            .summary
            .map(|(s, _)| format!("  (p{} {:.6}, n={})", s.pct, s.pct_value, s.n))
            .unwrap_or_default();
        println!("  {:<34} {:>16.6} {:<6}{tail}", m.name, v.value, v.unit);
        let mut e = Obj::new();
        e.f64("value", v.value).str("unit", &v.unit);
        metrics.raw(&m.name, e.finish());
    }
}

fn run(spec: &Spec, args: &Args) -> Result<(), String> {
    let name = args.workload.as_str();
    let factory = workloads::factory(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let o = harness::run(name, factory, args.opts, spec)?;
    if args.opts.trace {
        std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir))?;
        let path = format!("{}/mvbench-trace.{name}.json", args.dir);
        std::fs::write(&path, trace::chrome(&o.spans, name)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("mvbench: wrote {} spans to {path}", o.spans.len());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, harness::document(&o) + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    let mut metrics = Obj::new();
    report(spec, &o, &mut metrics);
    print_result(o.attempted, o.failed, metrics);
    Ok(())
}

/// Prints the closing JSON line of a run.
fn print_result(attempted: u64, failed: u64, metrics: Obj) {
    let mut last = Obj::new();
    last.bool("correct", failed == 0 && attempted > 0)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", metrics.finish());
    println!("{}", last.finish());
}

/// `--workload all`: every workload in a process of its own, one after
/// the other, so each reports its own peak resident set and starts from
/// a fresh heap. The closing line nests each workload's metrics under
/// its name.
fn run_all(spec: &Spec, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("mvbench executable: {e}"))?;
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir))?;
    let (mut docs, mut metrics) = (Vec::new(), Obj::new());
    let (mut attempted, mut failed) = (0, 0);
    for name in &spec.workloads {
        let path = format!("{}/mvbench-doc.{name}.json", args.dir);
        let seed = args.opts.seed.to_string();
        let trace = if args.opts.trace { "1" } else { "0" };
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &seed, "--trace", trace]);
        child.args(["--dir", &args.dir, "--out", &path]);
        if args.opts.quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: {status}"));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let count = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        let mut own = Obj::new();
        for m in printed(spec, args.opts.trace) {
            let entry = doc.get("metrics").and_then(|ms| ms.get(&m.name));
            let value = entry.and_then(|e| e.get("value")).and_then(Value::as_f64);
            let value = value.ok_or_else(|| format!("{path}: no `{}`", m.name))?;
            let mut e = Obj::new();
            e.f64("value", value).str("unit", &m.unit);
            own.raw(&m.name, e.finish());
        }
        metrics.raw(name, own.finish());
        docs.push(text.trim_end().to_string());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, array(docs) + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    print_result(attempted, failed, metrics);
    Ok(())
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(&spec, a, b).and_then(|violations| match violations {
                0 => Ok(()),
                n => Err(format!("{n} metric(s) outside their bounds")),
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => parse_args(&spec, &args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| match a.workload.as_str() {
                "all" => run_all(&spec, &a),
                _ => run(&spec, &a),
            }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
