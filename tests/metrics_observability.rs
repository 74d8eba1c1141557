//! End-to-end metrics: the export reads the runtime, daemon and VM
//! counters exactly, prints each family as one group, names only the
//! series the machine counts, and the switch-history/residency join
//! reconciles with the profiler and the daemon's own bookkeeping. The
//! daemon's export after a fixed storm is pinned by a golden file;
//! regenerate it after an intended change with:
//!
//! ```sh
//! BLESS=1 cargo test --test metrics_observability
//! ```

use multiverse::mvmetrics::{export, Sample, SampleValue};
use multiverse::mvobj::Executable;
use multiverse::mvrt::{CommitDaemon, CommitStrategy, Lane, MvdConfig, MvdOp};
use multiverse::mvvm::{FaultPlan, Machine, PAGE_SIZE};
use multiverse::{telemetry, Program, SmpWorld};
use mv_workloads::{commit_storm, grep, musl};
use std::collections::BTreeSet;
use std::path::PathBuf;

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

fn gauge(snap: &[Sample], name: &str) -> f64 {
    match snap.iter().find(|s| s.name == name).map(|s| s.value) {
        Some(SampleValue::Gauge(v)) => v,
        other => panic!("{name}: {other:?}"),
    }
}

/// Compares `actual` with `tests/golden/<name>`, or rewrites the file
/// when `BLESS` is set.
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

/// The `mv_vm_*` series only a machine with vCPUs to coordinate counts.
const SMP_ONLY: [&str; 4] = [
    "mv_vm_icache_shootdowns_total",
    "mv_vm_trap_hits_total",
    "mv_vm_sched_rounds_total",
    "mv_vm_stall_cycles_total",
];

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
    // The golden pins every `mv_mvd_*` name, help text, order and
    // value, so a series bound to the wrong `MvdStats` field fails here
    // even though it reconciles above.
    let daemon_prom = export::prometheus(&telemetry::daemon_metrics(&daemon));
    check_golden("daemon_storm.prom", &daemon_prom);

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

/// A fixed daemon script on the `commit_storm` kernel that gives every
/// `MvdStats` counter its own value, so its golden export also fails
/// when two `mv_mvd_*` series swap fields: 8 coalesced, 5 shed, 9
/// rejected, 6 expired, 4 degraded, 3 healed, 2 failed, 1 quarantined
/// and 7 failed fast, with 2 entries left queued.
#[test]
fn daemon_script_export_matches_its_golden() {
    let mut w = commit_storm::boot(2, 1 << 40, 3).unwrap();
    for _ in 0..8 {
        w.smp.step_round();
    }
    let [a, b, c] = commit_storm::SWITCHES.map(|name| w.sym(name).unwrap());
    let fa = w.sym("fa").unwrap();
    let SmpWorld { smp, rt, .. } = &mut w;
    let rt = rt.as_mut().unwrap();
    let mut daemon = CommitDaemon::new(MvdConfig {
        capacity: 2,
        max_attempts: 3,
        quarantine_after: 4,
        degrade_after: 2,
        strategy: CommitStrategy::Breakpoint,
        ..MvdConfig::default()
    });
    let flip = |switch, value| MvdOp::Flip { switch, value };

    // Eight requests merge into the first one's queued entry.
    for i in 0..9 {
        daemon.submit(rt, flip(a, (i + 1) % 2), Lane::Normal);
    }
    daemon.drain(rt, smp);
    // Two entries fill the queue; each request for a third switch
    // sheds the oldest.
    for sw in [a, b, c, a, b, c, a] {
        daemon.submit(rt, flip(sw, 1), Lane::Normal);
    }
    daemon.drain(rt, smp);
    // A queue full of priority work refuses normal requests.
    daemon.submit(rt, flip(a, 0), Lane::Priority);
    daemon.submit(rt, flip(b, 0), Lane::Priority);
    for _ in 0..9 {
        daemon.submit(rt, flip(c, 0), Lane::Normal);
    }
    daemon.drain(rt, smp);
    // Of two one-epoch requests, the second is popped too late.
    for i in 0..6 {
        daemon.submit_with_ttl(rt, flip(a, (i + 1) % 2), Lane::Normal, Some(1));
        daemon.submit_with_ttl(rt, flip(b, 1), Lane::Normal, Some(1));
        daemon.drain(rt, smp);
    }
    // Trap plants fail: two breakpoint attempts, then stop-machine
    // lands the flip and degrades the daemon; once they work again the
    // next flip's breakpoint probe heals it.
    for i in 0..3 {
        smp.machine
            .inject_fault(FaultPlan::fail_nth_trap_plant(1).sticky());
        daemon.submit(rt, flip(c, i % 2), Lane::Normal);
        daemon.drain(rt, smp);
        smp.machine.clear_fault();
        daemon.submit(rt, flip(b, (i + 1) % 2), Lane::Normal);
        daemon.drain(rt, smp);
    }
    // Every text write to `fa`'s entry faults: the first request fails
    // three attempts (the third degraded), the second reaches the
    // quarantine threshold, and later requests fail fast.
    smp.machine
        .inject_fault(FaultPlan::fail_nth_write(1).sticky().in_range(fa, fa + 5));
    for _ in 0..2 {
        daemon.submit(rt, flip(a, 1), Lane::Normal);
        daemon.drain(rt, smp);
    }
    for _ in 0..7 {
        daemon.submit(rt, flip(a, 1), Lane::Normal);
    }
    smp.machine.clear_fault();
    daemon.submit(rt, flip(b, 0), Lane::Normal);
    daemon.submit(rt, flip(c, 1), Lane::Priority);
    daemon.take_completions();

    let prom = export::prometheus(&telemetry::daemon_metrics(&daemon));
    check_golden("daemon_script.prom", &prom);
}

#[test]
fn smp_only_series_are_exported_by_smp_worlds_alone() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let mut w = program.boot();
    w.call("worker", &[20]).unwrap();
    let snap = w.metrics();
    for name in SMP_ONLY {
        assert!(
            snap.iter().all(|s| s.name != name),
            "a unicore world exports {name}"
        );
    }

    let mut w = program.boot_smp(2);
    w.spawn_all("worker", &[200]).unwrap();
    w.set("fast_path", 1).unwrap();
    w.commit_quiesced(CommitStrategy::StopMachine).unwrap();
    w.set("logging", 1).unwrap();
    w.commit_quiesced(CommitStrategy::Breakpoint).unwrap();
    w.run(10_000_000).unwrap();
    let snap = w.metrics();
    let smp = &w.smp;
    let want = [
        smp.shootdowns(),
        smp.trap_hits(),
        smp.rounds(),
        smp.total_stall_cycles(),
    ];
    for (name, want) in SMP_ONLY.into_iter().zip(want) {
        assert_eq!(counter(&snap, name), want, "{name}");
    }
    assert!(smp.shootdowns() > 0 && smp.rounds() > 0);
}

/// The pages of `exe`'s image that hold a non-zero byte.
fn non_zero_image_pages(exe: &Executable) -> BTreeSet<u64> {
    let mut pages = BTreeSet::new();
    for seg in &exe.segments {
        for (i, _) in seg.bytes.iter().enumerate().filter(|&(_, &b)| b != 0) {
            pages.insert((seg.addr + i as u64) / PAGE_SIZE);
        }
    }
    pages
}

/// Guest memory is demand-zero: booting an image gives bytes only to
/// the pages of it that hold a non-zero byte; the stack and every
/// zero-filled page cost none until written.
#[test]
fn boot_makes_only_non_zero_image_pages_resident() {
    for (name, src) in [("grep.c", grep::SRC), ("musl.c", musl::SRC)] {
        let program = Program::build(&[(name, src)]).unwrap();
        let exe = program.exe();
        let image_pages: u64 = exe
            .segments
            .iter()
            .map(|s| (s.bytes.len() as u64).div_ceil(PAGE_SIZE))
            .sum();
        let non_zero = non_zero_image_pages(exe).len();
        let m = Machine::boot(exe);
        println!("{name}: {non_zero} of {image_pages} image pages hold a non-zero byte");
        assert_eq!(m.mem.resident_pages(), non_zero, "{name}");
        assert!((non_zero as u64) < image_pages, "{name}: zero pages exist");

        let w = program.boot();
        let resident = w.machine.mem.resident_pages();
        assert_eq!(gauge(&w.metrics(), "mv_vm_resident_pages"), resident as f64);
    }
}
