//! End-to-end metrics: the export reads the runtime, daemon and VM
//! counters exactly, prints each family as one group, and the
//! switch-history/residency join reconciles with the profiler and the
//! daemon's own bookkeeping.

use multiverse::mvmetrics::{export, Sample, SampleValue};
use multiverse::mvrt::{CommitDaemon, CommitStrategy, Lane, MvdConfig};
use multiverse::{telemetry, Program};

const SRC: &str = r#"
    multiverse bool fast_path;
    multiverse bool logging;
    i64 sink;

    multiverse i64 step_fast(void) {
        if (fast_path) { return 3; }
        return 5;
    }

    multiverse i64 step_log(void) {
        if (logging) { return 7; }
        return 11;
    }

    i64 worker(i64 iters) {
        i64 i = 0;
        while (i < iters) {
            sink = step_fast() + step_log();
            i = i + 1;
        }
        return i;
    }

    i64 main(void) { return worker(8); }
"#;

fn counter(snap: &[Sample], name: &str) -> u64 {
    snap.iter()
        .find(|s| s.name == name && s.labels().is_empty())
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .unwrap_or_else(|| panic!("{name} not exported"))
}

#[test]
fn registry_mirrors_runtime_and_vm_exactly() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot();

    w.set("fast_path", 1).unwrap();
    w.commit().unwrap();
    w.set("fast_path", 0).unwrap();
    w.commit().unwrap();
    w.call("worker", &[50]).unwrap();

    let snap = w.metrics();
    let rt_stats = w.rt.as_ref().unwrap().stats;
    assert_eq!(
        counter(&snap, "mv_rt_bytes_written_total"),
        rt_stats.bytes_written
    );
    assert_eq!(
        counter(&snap, "mv_rt_sites_patched_total"),
        rt_stats.sites_patched
    );
    assert_eq!(counter(&snap, "mv_rt_mprotects_total"), rt_stats.mprotects);
    assert_eq!(
        counter(&snap, "mv_vm_instructions_total"),
        w.machine.stats.instructions
    );

    // Both exporters render the same snapshot.
    let prom = export::prometheus(&snap);
    assert!(prom.contains("# TYPE mv_rt_commits_total counter"));
    assert!(prom.contains("mv_rt_commits_total{op=\"commit\",outcome=\"ok\"} 2"));
    let json = export::json(&snap);
    assert!(json.starts_with("{\"version\":1,\"kind\":\"mv-metrics-snapshot\""));
    assert!(json.contains("\"name\":\"mv_vm_instructions_total\""));
}

/// The storm acceptance path as a library-level test: a deterministic
/// flip storm through the daemon, then three reconciliations — exported
/// counters against `MvdStats`, recorded flips against the committed
/// counter, and residency cycles against the profiler total.
#[test]
fn storm_metrics_reconcile_with_daemon_and_profiler() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot_smp(4);
    w.smp.set_seed(7);
    w.spawn_all("worker", &[500]).unwrap();

    let mut daemon = CommitDaemon::new(MvdConfig::default());
    daemon.enable_history(w.switch_history());
    let exe = w.exe().clone();
    w.smp.machine.enable_profile(&exe);

    let switches = w.rt.as_ref().unwrap().switch_addrs();
    let mut x = 7u64 | 1;
    for _ in 0..64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let switch = switches[((x >> 8) as usize) % switches.len()];
        let value = ((x >> 32) & 1) as i64;
        let rt = w.rt.as_mut().unwrap();
        daemon.submit(
            rt,
            multiverse::mvrt::MvdOp::Flip { switch, value },
            Lane::Normal,
        );
        for _ in 0..2 {
            if w.smp.any_live() {
                w.smp.step_round();
            }
        }
        let rt = w.rt.as_mut().unwrap();
        while daemon.step(rt, &mut w.smp) {}
    }
    daemon.take_completions();
    let rets = w.run(10_000_000).unwrap();
    assert!(rets.iter().all(|&r| r == 500), "workers stayed exact");

    let s = daemon.stats();
    assert!(s.committed > 0, "the storm landed commits");
    let mut snap = w.metrics();
    snap.extend(telemetry::daemon_metrics(&daemon));
    for (name, want) in [
        ("mv_mvd_submitted_total", s.submitted),
        ("mv_mvd_admitted_total", s.admitted),
        ("mv_mvd_coalesced_total", s.coalesced),
        ("mv_mvd_shed_total", s.shed),
        ("mv_mvd_expired_total", s.expired),
        ("mv_mvd_rejected_total", s.rejected),
        ("mv_mvd_fast_failed_total", s.fast_failed),
        ("mv_mvd_committed_total", s.committed),
        ("mv_mvd_failed_total", s.failed),
        ("mv_mvd_quarantined_total", s.quarantined),
        ("mv_mvd_degraded_total", s.degraded),
        ("mv_mvd_healed_total", s.healed),
        ("mv_mvd_attempts_total", s.attempts),
    ] {
        assert_eq!(counter(&snap, name), want, "{name} diverged from MvdStats");
    }

    // Every committed entry in this workload is a flip, so the timeline
    // reconciles exactly with the committed counter…
    let history = daemon.take_history().unwrap();
    assert_eq!(history.flip_count(), s.committed);
    let last = history.flips().last().unwrap();
    assert_eq!(last.commit_id, s.committed, "commit ids are 1-based");

    // …and the residency rows partition the profiler's attribution.
    let prof = w.smp.machine.take_profile().unwrap();
    let rows = telemetry::residency_rows(&prof);
    let total = telemetry::total_attributed_cycles(&prof);
    assert_eq!(rows.iter().map(|r| r.cycles).sum::<u64>(), total);
    assert!(total > 0, "the profiler saw the workers");

    // The history document carries both, versioned.
    let doc = history.to_json(&rows, total);
    assert!(doc.starts_with("{\"version\":1,\"kind\":\"mv-switch-history\""));
    assert!(doc.contains(&format!("\"total_flips\":{}", s.committed)));
    assert!(doc.contains(&format!("\"total_cycles\":{total}")));
}

/// The Prometheus export prints each metric family as one group. A
/// quiesced commit and then a quiesced revert first count
/// `mv_rt_commits_total{op="commit"}`, then a quiesce window, then
/// `mv_rt_commits_total{op="revert"}`; every sample must still directly
/// follow its own family's `# HELP`/`# TYPE` lines.
#[test]
fn every_family_prints_as_one_group() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot_smp(2);
    w.spawn_all("worker", &[200]).unwrap();
    w.set("fast_path", 1).unwrap();
    w.commit_quiesced(CommitStrategy::StopMachine).unwrap();
    w.revert_quiesced(CommitStrategy::StopMachine).unwrap();
    let prom = export::prometheus(&w.metrics());

    let (mut family, mut seen) = ("", Vec::new());
    for line in prom.lines() {
        if let Some(help) = line.strip_prefix("# HELP ") {
            family = help.split(' ').next().unwrap();
            assert!(!seen.contains(&family), "{family} printed twice:\n{prom}");
            seen.push(family);
        } else if let Some(ty) = line.strip_prefix("# TYPE ") {
            assert_eq!(ty.split(' ').next(), Some(family), "{line}:\n{prom}");
        } else {
            let name = line.split(['{', ' ']).next().unwrap();
            assert_eq!(name, family, "`{line}` is outside its family:\n{prom}");
        }
    }
    for series in [
        "mv_rt_commits_total{op=\"commit\",outcome=\"ok\"} 1",
        "mv_rt_commits_total{op=\"revert\",outcome=\"ok\"} 1",
        "mv_rt_quiesce_total{strategy=\"stop-machine\",outcome=\"ok\"} 2",
    ] {
        assert!(prom.contains(series), "{series} missing:\n{prom}");
    }
}
