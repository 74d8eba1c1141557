//! Metrics and the residency join for booted worlds.
//!
//! This module names every exported series: `mv_rt_*`, `mv_vm_*`
//! ([`World::metrics`], [`SmpWorld::metrics`]) and `mv_mvd_*`
//! ([`daemon_metrics`]). Each is read at export time from the counter
//! that owns it — [`mvrt::Runtime::stats`] and [`mvrt::Runtime::tally`],
//! the machine's [`mvvm::Stats`], block and native counters and
//! [`mvvm::Memory::resident_pages`], and [`CommitDaemon::stats`] — so
//! an exported number is the source counter itself. A family's samples
//! are contiguous, so each prints as one group.
//!
//! `mvmetrics` keeps the flip timeline ([`SwitchHistory`]) and `mvvm`
//! keeps per-symbol cycle attribution ([`mvvm::Profiler`]); this module
//! joins them. Variant bodies are separate text symbols with mangled
//! names (`work.feature=1`), so a profiler report already separates
//! variants — [`residency_rows`] splits each row's symbol into its
//! (function, variant) pair, and because the rows are a partition of
//! the profiler's attribution, the per-variant cycles sum exactly to
//! the profiler's total attributed cycles.

use mvmetrics::residency::{split_variant_symbol, ResidencyRow, SwitchHistory};
use mvmetrics::Sample;
use mvrt::{CommitDaemon, Runtime};
use mvvm::{BlockCacheStats, NativeStats, Profiler};
use std::borrow::Cow;

use crate::program::{SmpWorld, World};

/// Joins a profiler report into per-(function, variant) residency
/// rows, in the report's order (cycles descending, `<other>` last).
/// Generic bodies get variant `"generic"`.
pub fn residency_rows(profiler: &Profiler) -> Vec<ResidencyRow> {
    profiler
        .report()
        .into_iter()
        .map(|row| {
            let (function, variant) = split_variant_symbol(&row.name);
            ResidencyRow {
                function,
                variant,
                cycles: row.counters.cycles,
                instructions: row.counters.stats.instructions,
            }
        })
        .collect()
}

/// Total cycles the profiler attributed (including the `<other>`
/// bucket) — the quantity the residency rows partition.
pub fn total_attributed_cycles(profiler: &Profiler) -> u64 {
    profiler.report().iter().map(|r| r.counters.cycles).sum()
}

/// Renders residency rows as an aligned text table (the `mvcc stats
/// --per-fn` summary).
pub fn render_residency(rows: &[ResidencyRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<20} {:<20} {:>12} {:>12}",
        "function", "variant", "cycles", "insns"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<20} {:<20} {:>12} {:>12}",
            r.function, r.variant, r.cycles, r.instructions
        );
    }
    s
}

/// Room for the series of any one snapshot — a world's `mv_rt_*` and
/// machine-wide `mv_vm_*`, or a daemon's `mv_mvd_*` — so it sizes its
/// vector once.
const SERIES: usize = 64;

/// Pushes one unlabeled sample of `kind` (`counter` or `gauge`) onto
/// `out` per `name, help => value;` row.
macro_rules! series {
    ($out:ident, $kind:ident: $($name:literal, $help:literal => $value:expr;)*) => {
        $($out.push(Sample::$kind($name, $help, $value));)*
    };
}

/// The `mv_rt_*` series: [`Runtime::stats`] and [`Runtime::tally`].
fn rt_samples(rt: &Runtime, out: &mut Vec<Sample>) {
    let (s, t) = (&rt.stats, &rt.tally);
    let outcome = |ok: bool| Cow::Borrowed(if ok { "ok" } else { "err" });
    for (op, ok, n) in t.txns() {
        let help = "Commit/revert operations by op and outcome";
        let sample = Sample::counter("mv_rt_commits_total", help, n);
        out.push(sample.with_labels([("op", op.into()), ("outcome", outcome(ok))]));
    }
    series!(out, counter:
        "mv_rt_bytes_written_total", "Text bytes written by the patcher" => s.bytes_written;
        "mv_rt_pages_touched_total",
            "Distinct text pages opened by page-batched applies" => s.pages_touched;
        "mv_rt_sites_patched_total", "Call sites rewritten" => s.sites_patched;
        "mv_rt_sites_skipped_total",
            "Call sites skipped by delta planning (commit fast path)" => s.sites_skipped;
        "mv_rt_mprotects_total", "mprotect invocations" => s.mprotects;
        "mv_rt_icache_flushes_total", "Instruction-cache flushes" => s.icache_flushes;
        "mv_rt_retries_total",
            "Transactions re-attempted after a transient fault" => s.retries;
        "mv_rt_rollbacks_total", "Apply phases rolled back successfully" => s.rollbacks;
    );
    for (phase, ns) in ["plan", "validate", "apply"].into_iter().zip(t.phase_ns) {
        let help = "Nanoseconds spent per transaction phase";
        let sample = Sample::counter("mv_rt_phase_ns_total", help, ns);
        out.push(sample.with_labels([("phase", phase.into())]));
    }
    series!(out, counter:
        "mv_rt_backoff_ns_total", "Nanoseconds slept in retry backoff" => t.backoff_ns;
    );
    for (strategy, ok, n) in t.quiesces() {
        let help = "Quiesce windows by strategy and outcome";
        let sample = Sample::counter("mv_rt_quiesce_total", help, n);
        out.push(sample.with_labels([("strategy", strategy.into()), ("outcome", outcome(ok))]));
    }
    series!(out, counter:
        "mv_rt_quiesce_rounds_total",
            "Scheduler rounds spent in rendezvous/drain windows" => t.quiesce_rounds;
        "mv_rt_quiesce_parked_total",
            "vCPUs parked by stop-machine rendezvous" => t.quiesce_parked;
        "mv_rt_quiesce_trap_hits_total",
            "Trap-byte hits absorbed during breakpoint drains" => t.quiesce_trap_hits;
        "mv_rt_quiesce_stall_cycles_total",
            "Stall cycles charged to vCPUs inside quiesce windows" => t.quiesce_stall_cycles;
    );
}

/// The machine counters behind the `mv_vm_*` series.
struct VmCounts {
    instructions: u64,
    cycles: u64,
    /// Counters only an SMP machine keeps.
    smp: Option<SmpCounts>,
    blocks: BlockCacheStats,
    native: NativeStats,
    resident_pages: usize,
}

/// Shootdowns, trap hits, scheduler rounds and stalls: what a machine
/// with vCPUs to coordinate counts.
struct SmpCounts {
    shootdowns: u64,
    trap_hits: u64,
    rounds: u64,
    stall_cycles: u64,
}

/// The `mv_vm_*` series of a machine, the SMP-only ones where it has
/// them.
fn vm_samples(c: VmCounts, out: &mut Vec<Sample>) {
    let (b, n) = (c.blocks, c.native);
    series!(out, counter:
        "mv_vm_instructions_total", "Guest instructions retired" => c.instructions;
        "mv_vm_cycles_total", "Guest cycles consumed" => c.cycles;
    );
    if let Some(s) = c.smp {
        series!(out, counter:
            "mv_vm_icache_shootdowns_total",
                "Cross-vCPU instruction cache shootdowns" => s.shootdowns;
            "mv_vm_trap_hits_total",
                "Breakpoint trap-byte hits observed by vCPUs" => s.trap_hits;
            "mv_vm_sched_rounds_total", "SMP scheduler rounds" => s.rounds;
            "mv_vm_stall_cycles_total",
                "Cycles vCPUs spent parked or trapped during quiesce" => s.stall_cycles;
        );
    }
    series!(out, counter:
        "mv_vm_block_hits_total",
            "Decoded-block cache hits (block entries replayed)" => b.hits;
        "mv_vm_block_misses_total", "Decoded-block cache misses (blocks recorded)" => b.misses;
        "mv_vm_block_evictions_total",
            "Decoded blocks evicted by patches or shootdowns" => b.evictions;
        "mv_vm_block_superblock_promotions_total",
            "Hot blocks re-recorded as fused superblocks" => b.promotions;
        "mv_vm_native_regions_total",
            "Function regions lowered for the native tier" => n.regions;
        "mv_vm_native_blocks_total", "Blocks lowered across all native regions" => n.blocks;
        "mv_vm_native_runs_total",
            "Native block executions (one per block entered)" => n.runs;
        "mv_vm_native_insns_total",
            "Guest instructions retired through native segments" => n.insns;
        "mv_vm_native_invalidations_total",
            "Native regions dropped after a code page changed" => n.invalidations;
    );
    series!(out, gauge:
        "mv_vm_resident_pages",
            "Guest pages holding bytes (written a non-zero byte since mapped)"
            => c.resident_pages as f64;
    );
}

/// The `mv_mvd_*` series of a commit daemon: every [`mvrt::MvdStats`]
/// counter, the queue depth and the coalescing ratio.
pub fn daemon_metrics(daemon: &CommitDaemon) -> Vec<Sample> {
    let s = daemon.stats();
    let ratio = if s.submitted == 0 {
        0.0
    } else {
        s.coalesced as f64 / s.submitted as f64
    };
    let mut out = Vec::with_capacity(SERIES);
    series!(out, counter:
        "mv_mvd_submitted_total", "Requests submitted" => s.submitted;
        "mv_mvd_admitted_total", "Requests that created a queue entry" => s.admitted;
        "mv_mvd_coalesced_total", "Requests merged into a queued entry" => s.coalesced;
        "mv_mvd_shed_total", "Entries shed by backpressure" => s.shed;
        "mv_mvd_expired_total", "Entries expired past their deadline" => s.expired;
        "mv_mvd_rejected_total", "Requests rejected by a priority-full queue" => s.rejected;
        "mv_mvd_fast_failed_total",
            "Requests failed fast against quarantine" => s.fast_failed;
        "mv_mvd_committed_total", "Entries committed" => s.committed;
        "mv_mvd_failed_total", "Entries that exhausted their attempts" => s.failed;
        "mv_mvd_quarantined_total", "Operations parked in quarantine" => s.quarantined;
        "mv_mvd_degraded_total", "Breakpoint-to-stop-machine fallbacks" => s.degraded;
        "mv_mvd_healed_total", "Degraded-mode exits by probe success" => s.healed;
        "mv_mvd_attempts_total", "Commit attempts run" => s.attempts;
    );
    series!(out, gauge:
        "mv_mvd_queue_depth",
            "Entries waiting across both daemon lanes" => daemon.pending() as f64;
        "mv_mvd_coalesce_ratio",
            "Fraction of submitted requests merged into queued entries" => ratio;
    );
    out
}

impl World {
    /// Every `mv_rt_*` (with a runtime attached) and `mv_vm_*` series of
    /// this world, read now from the runtime's and the machine's own
    /// counters. A unicore machine keeps no shootdown, trap-hit,
    /// scheduler-round or stall counter, so only [`SmpWorld::metrics`]
    /// exports those four series.
    pub fn metrics(&self) -> Vec<Sample> {
        let m = &self.machine;
        let mut out = Vec::with_capacity(SERIES);
        if let Some(rt) = &self.rt {
            rt_samples(rt, &mut out);
        }
        let counts = VmCounts {
            instructions: m.stats.instructions,
            cycles: m.cycles(),
            smp: None,
            blocks: m.block_stats(),
            native: m.native_stats(),
            resident_pages: m.mem.resident_pages(),
        };
        vm_samples(counts, &mut out);
        out
    }
}

impl SmpWorld {
    /// Every `mv_rt_*` (with a runtime attached) and `mv_vm_*` series of
    /// this world, machine-wide plus `mv_vm_vcpu_cycles_total` per vCPU,
    /// read now from the runtime's and the SMP machine's own counters.
    pub fn metrics(&self) -> Vec<Sample> {
        let smp = &self.smp;
        let mut out = Vec::with_capacity(SERIES);
        if let Some(rt) = &self.rt {
            rt_samples(rt, &mut out);
        }
        let counts = VmCounts {
            instructions: smp.total_stats().instructions,
            cycles: (0..smp.vcpus()).map(|i| smp.cycles_of(i)).sum(),
            smp: Some(SmpCounts {
                shootdowns: smp.shootdowns(),
                trap_hits: smp.trap_hits(),
                rounds: smp.rounds(),
                stall_cycles: smp.total_stall_cycles(),
            }),
            blocks: smp.block_stats(),
            native: smp.machine.native_stats(),
            resident_pages: smp.machine.mem.resident_pages(),
        };
        vm_samples(counts, &mut out);
        for i in 0..smp.vcpus() {
            let sample = Sample::counter(
                "mv_vm_vcpu_cycles_total",
                "Guest cycles per vCPU",
                smp.cycles_of(i),
            );
            out.push(sample.with_labels([("vcpu", i.to_string().into())]));
        }
        out
    }

    /// A [`SwitchHistory`] with every integer switch of this world
    /// registered under its symbol name, at its current value — ready
    /// for [`mvrt::CommitDaemon::enable_history`].
    pub fn switch_history(&self) -> SwitchHistory {
        let mut h = SwitchHistory::new();
        if let Some(rt) = self.rt.as_ref() {
            for addr in rt.switch_addrs() {
                let name = self
                    .exe()
                    .symbolize(addr)
                    .filter(|&(_, off)| off == 0)
                    .map(|(n, _)| n.to_string())
                    .unwrap_or_else(|| format!("{addr:#x}"));
                let initial = rt.read_switch(&self.smp.machine, addr).unwrap_or(0);
                h.register_switch(&name, addr, initial);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    const SRC: &str = r#"
        multiverse bool feature;
        multiverse i64 work(void) {
            if (feature) { return 10; }
            return 20;
        }
        i64 main(void) { return work(); }
    "#;

    #[test]
    fn residency_partitions_profiler_cycles() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        let exe = w.exe().clone();
        w.machine.enable_profile(&exe);
        w.call("work", &[]).unwrap();
        w.set("feature", 1).unwrap();
        w.commit().unwrap();
        w.call("work", &[]).unwrap();
        let prof = w.machine.take_profile().unwrap();
        let rows = residency_rows(&prof);
        let total = total_attributed_cycles(&prof);
        assert_eq!(rows.iter().map(|r| r.cycles).sum::<u64>(), total);
        assert!(
            rows.iter()
                .any(|r| r.function == "work" && r.variant == "generic"),
            "{rows:?}"
        );
        assert!(
            rows.iter()
                .any(|r| r.function == "work" && r.variant.contains("feature=1")),
            "{rows:?}"
        );
    }

    /// The value of the unlabeled counter `name`.
    fn counter(samples: &[Sample], name: &str) -> u64 {
        match samples.iter().find(|s| s.name == name).map(|s| s.value) {
            Some(mvmetrics::SampleValue::Counter(v)) => v,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn world_metrics_sync_matches_machine() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        w.set("feature", 1).unwrap();
        w.commit().unwrap();
        w.call("work", &[]).unwrap();
        let snap = w.metrics();
        assert_eq!(
            counter(&snap, "mv_vm_instructions_total"),
            w.machine.stats.instructions
        );
        assert_eq!(
            counter(&snap, "mv_rt_bytes_written_total"),
            w.rt.as_ref().unwrap().stats.bytes_written
        );
        assert_eq!(
            counter(&snap, "mv_rt_commits_total"),
            1,
            "one commit, outcome ok"
        );
    }

    #[test]
    fn machine_sync_matches_stats() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        let entry = w.exe().entry;
        w.machine.call(entry, &[]).unwrap();
        let snap = w.metrics();
        assert_eq!(snap, w.metrics(), "reading twice changes nothing");
        assert_eq!(
            counter(&snap, "mv_vm_instructions_total"),
            w.machine.stats.instructions
        );
        assert!(w.machine.stats.instructions > 0);
    }

    #[test]
    fn block_counters_mirror_tiered_run() {
        let src = r#"
            i64 main(void) {
                i64 i = 0;
                while (i < 20) { i = i + 1; }
                return i;
            }
        "#;
        let p = Program::build(&[("t", src)]).unwrap();
        let mut w = p.boot();
        w.set_tier(mvvm::ExecTier::Block);
        assert_eq!(w.call("main", &[]).unwrap(), 20);
        let snap = w.metrics();
        assert!(
            counter(&snap, "mv_vm_block_hits_total") > 0,
            "loop re-entries must hit"
        );
        assert!(counter(&snap, "mv_vm_block_misses_total") > 0);
        assert_eq!(
            counter(&snap, "mv_vm_block_hits_total"),
            w.machine.block_stats().hits
        );
    }
}
