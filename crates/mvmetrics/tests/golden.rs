//! Golden-file tests for the metrics exporters.
//!
//! The fixture samples hold fixed values, so both the Prometheus text
//! and the JSON snapshot are byte-deterministic. Regenerate after an
//! intended format change with:
//!
//! ```sh
//! BLESS=1 cargo test -p mvmetrics --test golden
//! ```

use mvmetrics::{export, Sample};
use std::path::PathBuf;

/// A small cross-section of the real metric families: labeled counters
/// and a gauge.
fn fixture() -> Vec<Sample> {
    let commits = |op: &'static str, outcome: &'static str, n| {
        Sample::counter("mv_rt_commits_total", "Commits by operation and outcome", n)
            .with_labels([("op", op.into()), ("outcome", outcome.into())])
    };
    vec![
        commits("commit", "ok", 7),
        commits("revert", "ok", 2),
        commits("commit", "err", 1),
        Sample::counter(
            "mv_rt_bytes_written_total",
            "Text bytes written by the patcher",
            4096,
        ),
        Sample::gauge(
            "mv_mvd_queue_depth",
            "Entries waiting in the daemon queues",
            3.0,
        ),
    ]
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with BLESS=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; run with BLESS=1 if intended"
    );
}

#[test]
fn prometheus_golden() {
    check_golden("snapshot.prom", &export::prometheus(&fixture()));
}

#[test]
fn json_golden() {
    check_golden("snapshot.json", &export::json(&fixture()));
}
