#![warn(missing_docs)]
//! The benchmark harness: one data builder per table/figure of the
//! paper's evaluation (§6), shared by the Criterion benches and the
//! `paper_tables` binary.
//!
//! | builder | paper artifact |
//! |---|---|
//! | [`fig1_data`] | Fig. 1 — static/dynamic/multiverse spinlock table |
//! | [`fig4_spinlock_data`] | Fig. 4 left — four kernels × {unicore, multicore} |
//! | [`fig4_pvops_data`] | Fig. 4 right — three kernels × {native, Xen guest} |
//! | [`fig5_data`] | Fig. 5 — musl, four libc functions × thread modes |
//! | [`grep_data`] | §6.2.3 — grep end-to-end |
//! | [`cpython_data`] | §6.2.1 — cPython allocation path |
//! | [`patch_stats_data`] | §6.1/§5 — call sites, patch time, size model |
//! | [`fast_path_data`] | E7 — first commit vs. re-commit (delta planning, page batching) |
//! | [`commit_latency_percentiles`] | E7 — per-phase commit latency from the trace ring |
//! | [`tracing_overhead`] | E7 — cost of the trace ring on the commit path |
//! | [`metrics_overhead`] | E7 — cost of a metrics snapshot next to the commit path |
//! | [`btb_data`] | footnote 1 / E10 — warm vs. cold predictors |
//! | [`inline_ablation_data`] | §7.1 / E11 — inlining and patch strategy |
//! | [`compile_cost_data`] | §7.1 / E14 — staged-pipeline compile cost |
//! | [`smp_commit_data`] | E15 — quiesced commit under SMP contention |
//! | [`commit_storm_data`] | mvd control plane — coalesced flip storms |
//! | [`vm_throughput_data`] | tiered execution — guest-instruction throughput per tier |
//! | [`native_tier_data`] | native tier vs. superblock on a hot register-only loop |
//! | [`vexec_data`] | E16 — variational execution vs. enumerate-and-rerun |
//!
//! Every bench that records a `BENCH_*.json` file renders it with
//! [`bench_json`] and writes it with [`write_bench_file`].
//!
//! All numbers are deterministic VM cycles from the `mvvm` cost model;
//! the Criterion benches additionally measure host-side throughput (and,
//! for the native layer, real dispatch latencies).

use multiverse::bench::Series;
use multiverse::mvmetrics::json::{self, Obj};
use multiverse::mvrt::{CommitStrategy, PatchStrategy};
use multiverse::mvvm::{ExecTier, MachineMode, Platform};
use multiverse::{mvasm, mvobj, Program};
use mv_workloads::{commit_storm, cpython, grep, musl, pvops, smp_contention, spinlock, textgen};

mod probe;

/// Iterations used for cycle-average tables (paper: 100 M; scaled for an
/// interpreted substrate — averages are exact either way because the
/// machine is deterministic).
pub const ITERS: u64 = 20_000;

/// Renders the document every `BENCH_*.json` file holds —
/// `{"bench", "unit", "rows"}` — with one row object per line.
pub fn bench_json(bench: &str, unit: &str, rows: impl IntoIterator<Item = Obj>) -> String {
    let rows = rows.into_iter().map(|r| format!("\n  {}", r.finish()));
    let mut doc = Obj::new();
    doc.str("bench", bench)
        .str("unit", unit)
        .raw("rows", json::array(rows));
    doc.finish() + "\n"
}

/// Writes `json` to `BENCH_<name>.json` at the workspace root, where the
/// perf trajectory is committed, and returns the path written.
pub fn write_bench_file(name: &str, json: &str) -> String {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

/// Fig. 1: `spin_irq_lock` average cycles for bindings A/B/C, in UP and
/// SMP machine state.
pub fn fig1_data() -> Vec<Series> {
    let mut rows = Vec::new();
    let configs = [
        ("A (static #ifdef)", None),
        ("B (dynamic if)", Some(spinlock::KernelBuild::ElisionIf)),
        (
            "C (multiverse)",
            Some(spinlock::KernelBuild::ElisionMultiverse),
        ),
    ];
    for (label, build) in configs {
        let mut s = Series::new(label);
        for (col, mode) in [
            ("SMP=false", MachineMode::Unicore),
            ("SMP=true", MachineMode::Multicore),
        ] {
            // Binding A uses the UP kernel for SMP=false and the mainline
            // kernel for SMP=true (two different compile-time worlds).
            let kind = build.unwrap_or(match mode {
                MachineMode::Unicore => spinlock::KernelBuild::IfdefOff,
                MachineMode::Multicore => spinlock::KernelBuild::NoElision,
            });
            let mut w = spinlock::boot(kind, mode).expect("boot");
            s.point(col, spinlock::measure_lock(&mut w, ITERS).expect("measure"));
        }
        rows.push(s);
    }
    rows
}

/// Fig. 4 (left): lock+unlock cycles for the four kernels.
pub fn fig4_spinlock_data() -> Vec<Series> {
    let mut rows = Vec::new();
    for kind in [
        spinlock::KernelBuild::NoElision,
        spinlock::KernelBuild::ElisionIf,
        spinlock::KernelBuild::ElisionMultiverse,
        spinlock::KernelBuild::IfdefOff,
    ] {
        let mut s = Series::new(kind.label());
        for (col, mode) in [
            ("Unicore", MachineMode::Unicore),
            ("Multicore", MachineMode::Multicore),
        ] {
            if kind == spinlock::KernelBuild::IfdefOff && mode == MachineMode::Multicore {
                continue; // statically determined to UP (Fig. 4)
            }
            let mut w = spinlock::boot(kind, mode).expect("boot");
            s.point(col, spinlock::measure_pair(&mut w, ITERS).expect("measure"));
        }
        rows.push(s);
    }
    rows
}

/// Fig. 4 (right): `sti`+`cli` cycles for the three PV kernels.
pub fn fig4_pvops_data() -> Vec<Series> {
    let mut rows = Vec::new();
    for build in [
        pvops::PvBuild::Current,
        pvops::PvBuild::Multiverse,
        pvops::PvBuild::IfdefDisabled,
    ] {
        let mut s = Series::new(build.label());
        for (col, platform) in [
            ("Native", Platform::Native),
            ("XEN (guest)", Platform::XenGuest),
        ] {
            let mut w = pvops::boot(build, platform).expect("boot");
            s.point(col, pvops::measure(&mut w, ITERS).expect("measure"));
        }
        rows.push(s);
    }
    rows
}

/// Fig. 5: mini-musl accumulated cycles for 4 libc functions ×
/// {single, multi} × {w/o, w/} multiverse. Values are cycles per call.
pub fn fig5_data(n: u64) -> Vec<Series> {
    let mut rows = Vec::new();
    for threads in [musl::ThreadMode::Single, musl::ThreadMode::Multi] {
        for build in [musl::MuslBuild::Without, musl::MuslBuild::With] {
            let mut s = Series::new(&format!("{} | {}", threads.label(), build.label()));
            for f in musl::LibcFn::all() {
                let mut w = musl::boot(build, threads).expect("boot");
                let (cycles, _) = musl::run_bench(&mut w, f, n).expect("bench");
                s.point(f.label(), cycles as f64 / n as f64);
            }
            rows.push(s);
        }
    }
    rows
}

/// §6.2.3: grep end-to-end cycles and the relative improvement.
pub fn grep_data(corpus_size: usize) -> (Vec<Series>, f64) {
    let corpus = textgen::hex_corpus(corpus_size, 2019);
    let mut without = grep::boot(grep::GrepBuild::Without, &corpus, false).expect("boot");
    let (matches_a, c_without) = grep::run(&mut without, corpus.len()).expect("run");
    let mut with = grep::boot(grep::GrepBuild::With, &corpus, false).expect("boot");
    let (matches_b, c_with) = grep::run(&mut with, corpus.len()).expect("run");
    assert_eq!(matches_a, matches_b, "soundness: identical match counts");
    let improvement = 1.0 - c_with as f64 / c_without as f64;
    let mut s = Series::new("grep 'a.a' (end-to-end cycles)");
    s.point("w/o Multiverse", c_without as f64);
    s.point("w/ Multiverse", c_with as f64);
    s.point("matches", matches_a as f64);
    (vec![s], improvement)
}

/// §6.2.1: cPython allocation path, GC disabled.
pub fn cpython_data(n: u64) -> (Vec<Series>, f64) {
    let without = cpython::run(
        &mut cpython::boot(cpython::PyBuild::Without, false).unwrap(),
        n,
    )
    .expect("run");
    let with = cpython::run(
        &mut cpython::boot(cpython::PyBuild::With, false).unwrap(),
        n,
    )
    .expect("run");
    let mut s = Series::new("_PyObject_GC_Alloc (cycles/alloc, gc disabled)");
    s.point("w/o Multiverse", without as f64 / n as f64);
    s.point("w/ Multiverse", with as f64 / n as f64);
    let delta = 1.0 - with as f64 / without as f64;
    (vec![s], delta)
}

/// Synthesizes a program with `n_sites` recorded call sites of one
/// multiversed function — the §6.1 "1161 call sites" experiment.
pub fn many_callsites_src(n_sites: usize) -> String {
    let mut src = String::from(
        "multiverse bool feature;\n\
         multiverse void hot(void) { if (feature) { __out(1); } }\n",
    );
    // Spread the sites over many small callers, like the kernel's 1161
    // spinlock sites spread over the whole text segment.
    let per_fn = 8;
    let n_fns = n_sites.div_ceil(per_fn);
    let mut emitted = 0;
    for i in 0..n_fns {
        src.push_str(&format!("void caller{i}(void) {{\n"));
        for _ in 0..per_fn.min(n_sites - emitted) {
            src.push_str("    hot();\n");
            emitted += 1;
        }
        src.push_str("}\n");
    }
    src.push_str("i64 main(void) { return 0; }\n");
    src
}

/// §6.1 + §5 accounting: call sites patched, host patch time, image-size
/// delta, descriptor-section sizes.
pub struct PatchStatsReport {
    /// Number of recorded call sites.
    pub call_sites: u64,
    /// Host wall time for one full commit.
    pub commit_time: std::time::Duration,
    /// Image size with multiverse (bytes).
    pub mv_image: u64,
    /// Image size of the plain dynamic build (bytes).
    pub dyn_image: u64,
    /// Size of `multiverse.variables`.
    pub sec_vars: u64,
    /// Size of `multiverse.functions`.
    pub sec_funcs: u64,
    /// Size of `multiverse.callsites`.
    pub sec_sites: u64,
}

/// Builds the many-call-sites program and measures one commit.
pub fn patch_stats_data(n_sites: usize) -> PatchStatsReport {
    let src = many_callsites_src(n_sites);
    let mv = Program::build(&[("sites.c", &src)]).expect("build");
    let dynb = Program::build_with(&[("sites.c", &src)], &multiverse::mvc::Options::dynamic())
        .expect("build");
    let mut w = mv.boot();
    w.set("feature", 1).unwrap();
    let t0 = std::time::Instant::now();
    w.commit().unwrap();
    let commit_time = t0.elapsed();
    let rt = w.rt.as_ref().expect("runtime attached");
    let exe = mv.exe();
    PatchStatsReport {
        call_sites: rt.num_callsites() as u64,
        commit_time,
        mv_image: mv.image_size(),
        dyn_image: dynb.image_size(),
        sec_vars: exe.section(multiverse::mvobj::SEC_MV_VARIABLES).1,
        sec_funcs: exe.section(multiverse::mvobj::SEC_MV_FUNCTIONS).1,
        sec_sites: exe.section(multiverse::mvobj::SEC_MV_CALLSITES).1,
    }
}

/// [`fast_path_data`]: the patching-cost profile of a first commit and
/// an immediate re-commit.
#[derive(Clone, Copy, Debug)]
pub struct FastPathRow {
    /// Stats delta of the first (cold) commit.
    pub first: multiverse::mvrt::PatchStats,
    /// Host wall time of the first commit.
    pub first_time: std::time::Duration,
    /// Stats delta of the immediate re-commit (the delta-planning fast
    /// path: should plan zero writes).
    pub recommit: multiverse::mvrt::PatchStats,
    /// Host wall time of the re-commit.
    pub recommit_time: std::time::Duration,
    /// Total recorded call sites in the workload.
    pub call_sites: u64,
}

/// E7's fast-path columns: first commit vs re-commit on the `n_sites`
/// workload. The interesting claims: the first commit's `mprotects` and
/// `icache_flushes` are O(pages), not O(sites), and the re-commit
/// performs zero journal entries and zero byte writes.
pub fn fast_path_data(n_sites: usize) -> FastPathRow {
    let src = many_callsites_src(n_sites);
    let program = Program::build(&[("sites.c", &src)]).expect("build");
    let mut w = program.boot();
    w.set("feature", 1).unwrap();
    let before = w.rt.as_ref().expect("runtime").stats;
    let t0 = std::time::Instant::now();
    w.commit().expect("commit");
    let first_time = t0.elapsed();
    let mid = w.rt.as_ref().unwrap().stats;
    let t0 = std::time::Instant::now();
    w.commit().expect("re-commit");
    let recommit_time = t0.elapsed();
    let rt = w.rt.as_ref().unwrap();
    FastPathRow {
        first: mid.since(&before),
        first_time,
        recommit: rt.stats.since(&mid),
        recommit_time,
        call_sites: rt.num_callsites() as u64,
    }
}

/// One row of [`commit_latency_percentiles`]: the latency distribution
/// of one commit phase (or the whole transaction) in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct PhaseLatency {
    /// `"plan"`, `"validate"`, `"apply"` or `"total"`.
    pub phase: &'static str,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// Maximum.
    pub max_us: f64,
}

/// The `q`-quantile of `sorted` by the `round((n - 1) q)` rank rule
/// (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// §6.1, event-derived: per-phase commit-latency distribution over
/// `rounds` commit+revert pairs on the `n_sites` program. Unlike an
/// outer stopwatch (which only sees the total), the trace ring carries
/// `phase_begin`/`phase_end` pairs, so plan, validate and apply get
/// their own p50/p95/max — the breakdown behind the paper's single
/// "≈16 ms" number. Both commits and reverts contribute samples.
pub fn commit_latency_percentiles(n_sites: usize, rounds: usize) -> Vec<PhaseLatency> {
    use multiverse::mvtrace::{build_spans, Phase};
    let src = many_callsites_src(n_sites);
    let program = Program::build(&[("sites.c", &src)]).expect("build");
    let mut w = program.boot();
    w.set("feature", 1).unwrap();
    let (mut plan, mut validate, mut apply, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        // A fresh ring per round: at kernel scale one commit emits a
        // point event per site, so accumulating rounds in one bounded
        // ring would drop the oldest samples.
        w.rt.as_mut().unwrap().enable_tracing(1 << 16);
        w.commit().expect("commit");
        w.revert().expect("revert");
        let events = w.rt.as_mut().unwrap().take_trace();
        let forest = build_spans(&events);
        for c in &forest.commits {
            plan.extend(c.phase_durations_ns(Phase::Plan));
            validate.extend(c.phase_durations_ns(Phase::Validate));
            apply.extend(c.phase_durations_ns(Phase::Apply));
            total.push(c.duration_ns());
        }
    }
    [
        ("plan", plan),
        ("validate", validate),
        ("apply", apply),
        ("total", total),
    ]
    .into_iter()
    .map(|(phase, mut ns)| {
        ns.sort_unstable();
        PhaseLatency {
            phase,
            p50_us: percentile(&ns, 0.50) / 1e3,
            p95_us: percentile(&ns, 0.95) / 1e3,
            max_us: percentile(&ns, 1.0) / 1e3,
        }
    })
    .collect()
}

/// Renders [`commit_latency_percentiles`] rows as an aligned table.
pub fn render_latency_table(rows: &[PhaseLatency]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>10}",
        "phase", "p50 (µs)", "p95 (µs)", "max (µs)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10.1} {:>10.1} {:>10.1}",
            r.phase, r.p50_us, r.p95_us, r.max_us
        );
    }
    s
}

/// Wall time per pair of a batch of 20 commit+revert pairs on `w`;
/// `after_pair` runs once after each pair, inside the timing.
fn pair_time(
    w: &mut multiverse::World,
    mut after_pair: impl FnMut(&mut multiverse::World),
) -> std::time::Duration {
    let start = std::time::Instant::now();
    for _ in 0..20 {
        w.commit().expect("commit");
        w.revert().expect("revert");
        after_pair(w);
    }
    start.elapsed() / 20
}

/// A world on the `n_sites` program with `feature` set, warmed up by
/// five commit+revert pairs.
fn warm_sites_world(n_sites: usize) -> multiverse::World {
    let src = many_callsites_src(n_sites);
    let program = Program::build(&[("sites.c", &src)]).expect("build");
    let mut w = program.boot();
    w.set("feature", 1).unwrap();
    for _ in 0..5 {
        w.commit().unwrap();
        w.revert().unwrap();
    }
    w
}

/// Best-of-5 batched commit+revert wall times for the tracing overhead
/// column: `(baseline, recording)`.
///
/// * `baseline` — no ring installed (the default every user gets): each
///   would-be event costs one branch;
/// * `recording` — a 2^16-event ring installed, every event recorded.
pub fn tracing_overhead(n_sites: usize) -> (std::time::Duration, std::time::Duration) {
    let mut w = warm_sites_world(n_sites);
    let best = |w: &mut multiverse::World| {
        (0..5)
            .map(|_| pair_time(w, |_| {}))
            .min()
            .expect("five batches")
    };
    let baseline = best(&mut w);
    w.rt.as_mut().unwrap().enable_tracing(1 << 16);
    let recording = best(&mut w);
    (baseline, recording)
}

/// Best-of-5 batched commit+revert wall times for the metrics overhead
/// column: `(baseline, snapshot)`.
///
/// * `baseline` — commit+revert alone;
/// * `snapshot` — commit+revert plus one [`multiverse::World::metrics`]
///   snapshot per pair. The acceptance bar is `snapshot` within ≈5 % of
///   `baseline` (see `metrics_overhead_quick`).
///
/// The two kinds of batch alternate, so a change in host load reaches
/// both columns alike.
pub fn metrics_overhead(n_sites: usize) -> (std::time::Duration, std::time::Duration) {
    let mut w = warm_sites_world(n_sites);
    let (mut baseline, mut snapshot) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..5 {
        baseline = baseline.min(pair_time(&mut w, |_| {}));
        snapshot = snapshot.min(pair_time(&mut w, |w| {
            std::hint::black_box(w.metrics());
        }));
    }
    (baseline, snapshot)
}

/// Synthesizes the compile-cost workload: `n_funcs` multiversed
/// functions, each reading `n_switches` switches with `domain`-value
/// domains — `domain^n_switches` clones per function before merging.
///
/// The bodies are built so the merge stage has real work: each function
/// only distinguishes *whether* a switch is zero, so for `domain > 2`
/// all non-zero values of a switch collapse into one merged variant
/// (Fig. 2 at scale).
pub fn compile_cost_src(n_funcs: usize, n_switches: usize, domain: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for s in 0..n_switches {
        let dom: Vec<String> = (0..domain as i64).map(|v| v.to_string()).collect();
        let _ = writeln!(src, "multiverse({}) i32 s{s};", dom.join(", "));
    }
    for f in 0..n_funcs {
        let _ = writeln!(src, "multiverse i64 f{f}(void) {{\n    i64 acc = {f};");
        for s in 0..n_switches {
            // Scaled powers of two keep every subset sum distinct, so the
            // folded bodies never collide and merging yields exactly
            // 2^n_switches variants per function.
            let _ = writeln!(src, "    if (s{s}) {{ acc = acc + {}; }}", (f + 1) << s);
        }
        let _ = writeln!(src, "    return acc;\n}}");
    }
    src.push_str("i64 main(void) { return ");
    src.push_str(
        &(0..n_funcs)
            .map(|f| format!("f{f}()"))
            .collect::<Vec<_>>()
            .join(" + "),
    );
    src.push_str("; }\n");
    src
}

/// One row of [`compile_cost_data`]: a (switch count, domain width)
/// configuration and what compiling it cost.
#[derive(Clone, Debug)]
pub struct CompileCostRow {
    /// Human label, e.g. `"4 fns × 3^4 assignments"`.
    pub config: String,
    /// Clones materialized.
    pub clones: u64,
    /// Variants emitted post-merge.
    pub variants: u64,
    /// Merge rate (fraction of clones eliminated).
    pub merge_rate: f64,
    /// Wall time of the compile.
    pub wall: std::time::Duration,
}

/// §7.1's build-time table: each `(n_funcs, n_switches, domain)`
/// configuration is compiled once through the staged pipeline.
pub fn compile_cost_data(configs: &[(usize, usize, usize)]) -> Vec<CompileCostRow> {
    use multiverse::mvc::{Options, Pipeline};
    use std::time::Instant;
    let mut rows = Vec::new();
    for &(n_funcs, n_switches, domain) in configs {
        let src = compile_cost_src(n_funcs, n_switches, domain);
        let mut pipeline = Pipeline::new(Options {
            variant_limit: domain.pow(n_switches as u32) * 2,
            ..Options::default()
        });
        let t0 = Instant::now();
        pipeline.compile_unit(&src, "cost.c").expect("build");
        let wall = t0.elapsed();

        let stats = pipeline.stats();
        rows.push(CompileCostRow {
            config: format!("{n_funcs} fns × {domain}^{n_switches} assignments"),
            clones: stats.clones,
            variants: stats.variants,
            merge_rate: stats.merge_rate(),
            wall,
        });
    }
    rows
}

/// Renders [`compile_cost_data`] rows as an aligned table.
pub fn render_compile_cost_table(rows: &[CompileCostRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>7} {:>8} {:>7} {:>10}",
        "configuration", "clones", "variants", "merge%", "wall (ms)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<28} {:>7} {:>8} {:>6.1}% {:>10.3}",
            r.config,
            r.clones,
            r.variants,
            r.merge_rate * 100.0,
            r.wall.as_secs_f64() * 1e3
        );
    }
    s
}

/// E10 — the footnote-1 ablation: dynamic `if` vs. multiverse under warm
/// and cold branch predictors.
///
/// Run in SMP state, where the feature test is a *taken* branch: a cold
/// predictor defaults to not-taken and eats the ≈16-cycle penalty on
/// every invocation — the "real kernel execution paths" situation §1
/// describes, which the tight-loop microbenchmark (warm column) hides.
/// The multiverse kernel has no feature branch left, so only the shared
/// return-stack misses remain.
pub fn btb_data() -> Vec<Series> {
    let n = 4000;
    let mut rows = Vec::new();
    for (label, kind) in [
        ("Lock Elision [if]", spinlock::KernelBuild::ElisionIf),
        (
            "Lock Elision [multiverse]",
            spinlock::KernelBuild::ElisionMultiverse,
        ),
    ] {
        let mut s = Series::new(label);
        for (col, cold) in [("warm BTB", false), ("cold BTB", true)] {
            let mut w = spinlock::boot(kind, MachineMode::Multicore).expect("boot");
            let t = w.time_calls("lock_unlock", &[], n, cold).expect("measure");
            s.point(col, t.avg_cycles);
        }
        rows.push(s);
    }
    rows
}

/// E11 — §7.1 ablations: call-site patching with inlining (the paper's
/// design), without inlining, and entry-only (body-patching-like)
/// redirection. Measured on single-threaded mini-musl `fputc`.
pub fn inline_ablation_data() -> Vec<Series> {
    let n = 4000;
    let configs: [(&str, PatchStrategy, bool); 3] = [
        (
            "call-site patching + inlining",
            PatchStrategy::CallSites,
            true,
        ),
        (
            "call-site patching, no inlining",
            PatchStrategy::CallSites,
            false,
        ),
        ("entry-only redirection", PatchStrategy::EntryOnly, true),
    ];
    let mut rows = Vec::new();
    for (label, strategy, inline) in configs {
        let program = Program::build(&[("musl.c", musl::SRC)]).expect("build");
        let mut w = program.boot();
        w.set("threads_minus_1", 0).unwrap();
        {
            let rt = w.rt.as_mut().expect("runtime");
            rt.strategy = strategy;
            rt.inline_enabled = inline;
        }
        w.commit().unwrap();
        let (cycles, _) = musl::run_bench(&mut w, musl::LibcFn::Fputc, n).expect("bench");
        let patched = w.rt.as_ref().unwrap().stats.sites_patched;
        let mut s = Series::new(label);
        s.point("cycles/call", cycles as f64 / n as f64);
        s.point("sites patched", patched as f64);
        rows.push(s);
    }
    rows
}

/// One (core count × strategy) cell of [`smp_commit_data`]: per-flip
/// quiesce cost on the E15 contention workload.
#[derive(Clone, Copy, Debug)]
pub struct SmpCommitRow {
    /// Quiesce protocol used for every flip.
    pub strategy: CommitStrategy,
    /// Worker vCPUs hammering the lock.
    pub vcpus: usize,
    /// Guest cycles of the quiesce window, per flip (max over vCPUs —
    /// the wall-clock commit latency under the cost model).
    pub commit_latency: f64,
    /// Worker stall cycles charged inside the window, per flip.
    pub stall_cycles: f64,
    /// Scheduler rounds spent in rendezvous/drain, per flip.
    pub rounds: f64,
    /// Breakpoint hits absorbed per flip (0 under stop-machine).
    pub trap_hits: f64,
    /// Steady-state cycles per lock/increment iteration on the worst
    /// vCPU (strategy-independent; the Fig. 1 SMP number re-derived on
    /// real contention).
    pub steady_cycles: f64,
    /// The workload's exactness oracle: `counter == vcpus × iters`.
    pub consistent: bool,
}

/// E15 — quiesced-commit cost vs. core count for both [`CommitStrategy`]
/// protocols, measured on the SMP spinlock-contention workload: workers
/// hammer the lock while the host flips the binding of the lock
/// functions (commit ↔ revert) mid-flight.
pub fn smp_commit_data(vcpu_counts: &[usize], iters: u64, flips: u32) -> Vec<SmpCommitRow> {
    let mut rows = Vec::new();
    for &vcpus in vcpu_counts {
        let steady = smp_contention::steady_state_cycles(vcpus, iters, 0xE15).expect("steady");
        for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
            let r = smp_contention::measure(vcpus, iters, strategy, flips, 0xE15).expect("measure");
            let per_flip = |v: u64| v as f64 / flips as f64;
            rows.push(SmpCommitRow {
                strategy,
                vcpus,
                commit_latency: per_flip(r.commit_latency),
                stall_cycles: per_flip(r.stall_cycles),
                rounds: per_flip(r.rounds),
                trap_hits: per_flip(r.trap_hits),
                steady_cycles: steady,
                consistent: r.lock_consistent,
            });
        }
    }
    rows
}

/// Renders [`smp_commit_data`] rows as table series: one row per
/// (strategy, metric), one column per core count.
pub fn smp_commit_series(rows: &[SmpCommitRow]) -> Vec<Series> {
    let mut out = Vec::new();
    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        let mut lat = Series::new(&format!("{strategy}: commit latency (cycles/flip)"));
        let mut stall = Series::new(&format!("{strategy}: worker stall (cycles/flip)"));
        for r in rows.iter().filter(|r| r.strategy == strategy) {
            let col = format!("{} vCPUs", r.vcpus);
            lat.point(&col, r.commit_latency);
            stall.point(&col, r.stall_cycles);
        }
        out.push(lat);
        out.push(stall);
    }
    let mut steady = Series::new("steady state (cycles/iteration)");
    for r in rows
        .iter()
        .filter(|r| r.strategy == CommitStrategy::StopMachine)
    {
        steady.point(&format!("{} vCPUs", r.vcpus), r.steady_cycles);
    }
    out.push(steady);
    out
}

impl SmpCommitRow {
    /// This row as a [`bench_json`] row (`BENCH_smp.json`).
    pub fn json(&self) -> Obj {
        let mut o = Obj::new();
        o.str("strategy", self.strategy.name())
            .u64("vcpus", self.vcpus as u64)
            .f64("commit_latency", self.commit_latency)
            .f64("stall_cycles", self.stall_cycles)
            .f64("rounds", self.rounds)
            .f64("trap_hits", self.trap_hits)
            .f64("steady_cycles", self.steady_cycles)
            .bool("consistent", self.consistent);
        o
    }
}

/// One strategy row of [`commit_storm_data`]: the mvd commit daemon vs.
/// the naive one-commit-per-request baseline on the same flip stream.
#[derive(Clone, Copy, Debug)]
pub struct CommitStormRow {
    /// Quiesce protocol used for every commit.
    pub strategy: CommitStrategy,
    /// Worker vCPUs running the switched loop.
    pub vcpus: usize,
    /// Flip requests submitted (identical stream for both drivers).
    pub requests: u64,
    /// Quiesced commits the daemon actually ran.
    pub commits: u64,
    /// Requests merged into an already-queued entry.
    pub coalesced: u64,
    /// Baseline commits per daemon commit — the coalescing factor,
    /// strategy-independent.
    pub commit_ratio: f64,
    /// Cycle-throughput ratio over the baseline (meaningful under
    /// stop-machine; breakpoint windows cost ~0 cycles on idle regions).
    pub speedup: f64,
    /// Median per-commit latency, guest cycles.
    pub p50_cycles: f64,
    /// 95th-percentile per-commit latency, guest cycles.
    pub p95_cycles: f64,
    /// The exactness oracle: every worker returned its iteration count
    /// under both drivers.
    pub workers_exact: bool,
}

/// mvd commit-storm sweep: the identical randomized flip stream driven
/// through the commit daemon and through the naive baseline, one row per
/// quiesce protocol.
pub fn commit_storm_data(
    vcpus: usize,
    iters: u64,
    requests: u64,
    burst: u64,
) -> Vec<CommitStormRow> {
    let mut rows = Vec::new();
    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        let daemon =
            commit_storm::run_storm(vcpus, iters, requests, burst, strategy, 0x57).expect("storm");
        let naive = commit_storm::naive_serial(vcpus, iters, requests, burst, strategy, 0x57)
            .expect("baseline");
        let mut lat = daemon.latencies.clone();
        lat.sort_unstable();
        rows.push(CommitStormRow {
            strategy,
            vcpus,
            requests,
            commits: daemon.commits,
            coalesced: daemon.stats.coalesced,
            commit_ratio: commit_storm::commit_ratio(&daemon, &naive),
            speedup: commit_storm::speedup(&daemon, &naive),
            p50_cycles: percentile(&lat, 0.50),
            p95_cycles: percentile(&lat, 0.95),
            workers_exact: daemon.workers_exact && naive.workers_exact,
        });
    }
    rows
}

impl CommitStormRow {
    /// This row as a [`bench_json`] row (`BENCH_commit_storm.json`).
    pub fn json(&self) -> Obj {
        let mut o = Obj::new();
        o.str("strategy", self.strategy.name())
            .u64("vcpus", self.vcpus as u64)
            .u64("requests", self.requests)
            .u64("commits", self.commits)
            .u64("coalesced", self.coalesced)
            .f64("commit_ratio", self.commit_ratio)
            .f64("speedup", self.speedup)
            .f64("p50_cycles", self.p50_cycles)
            .f64("p95_cycles", self.p95_cycles)
            .bool("workers_exact", self.workers_exact);
        o
    }
}

/// One tier row of [`vm_throughput_data`]: host-side interpreter
/// throughput plus the observation-identity verdict against tierless.
#[derive(Clone, Copy, Debug)]
pub struct VmThroughputRow {
    /// Execution tier measured.
    pub tier: ExecTier,
    /// Guest instructions retired by one run of the workload.
    pub instructions: u64,
    /// Best-of-trials host wall time for one warm run, nanoseconds.
    pub nanos: u64,
    /// Guest instructions per host second, from the best trial.
    pub insns_per_sec: f64,
    /// Guest instructions per second on the reference host of
    /// `mvbench`'s host-speed probe (`probe.rs`): each trial is scaled by
    /// the mean of the probe times taken right before and right after it
    /// (each the fastest of three probe runs), and the best scaled trial
    /// is kept.
    pub ref_insns_per_sec: f64,
    /// Host-throughput ratio over the tierless row (tierless = 1.0).
    pub speedup: f64,
    /// `true` iff result, guest cycles and [`multiverse::mvvm::Stats`]
    /// match the tierless run exactly.
    pub identical: bool,
}

/// The tiered-engine throughput workload: a counted loop whose body
/// mixes straight-line ALU runs, a direct-`jmp` block split and a
/// `call` to a tiny helper — enough control-flow structure that tier 0
/// caches several short blocks per iteration and tier 1 fuses them back
/// into one superblock spanning the whole loop body.
pub fn vm_throughput_exe(iters: i64) -> mvobj::Executable {
    use mvasm::{AluOp, Cond, Insn, Reg};
    let mut a = mvasm::Assembler::new();
    a.mov_ri(Reg::R0, 0);
    a.mov_ri(Reg::R1, 0);
    a.label("loop");
    for i in 0..40 {
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: i + 1,
        });
        a.emit(Insn::AluRI {
            op: AluOp::Xor,
            dst: Reg::R0,
            imm: 0x5555,
        });
    }
    a.jmp("mid");
    a.label("mid");
    for i in 0..40 {
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: i + 7,
        });
        a.emit(Insn::AluRI {
            op: AluOp::And,
            dst: Reg::R0,
            imm: 0xffff,
        });
    }
    a.call_sym("bump", false);
    a.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R1,
        imm: 1,
    });
    a.cmp_ri(Reg::R1, iters);
    a.jcc("loop", Cond::Lt);
    a.emit(Insn::Halt);
    let mut bump = mvasm::Assembler::new();
    bump.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R2,
        imm: 1,
    });
    bump.ret();
    let mut o = mvobj::Object::new("vm_throughput");
    o.add_code("main", &a.finish().expect("assemble"));
    o.add_code("bump", &bump.finish().expect("assemble"));
    mvobj::link(&[o], &mvobj::Layout::default()).expect("link")
}

/// Shared tier-throughput harness: one untimed run per tier primes the
/// caches (and promotion / native lowering) and records the observation
/// tuple, then the best of `trials` timed warm runs yields the
/// throughput, raw and scaled to the reference host by the probe runs
/// bracketing each trial. The first tier listed is the identity
/// baseline. For
/// [`ExecTier::Native`] the `native_roots` symbols are lowered into the
/// machine's region registry up front — the role the runtime's
/// post-commit native sync plays when a full runtime is attached.
fn measure_tiers(
    exe: &mvobj::Executable,
    tiers: &[ExecTier],
    trials: u32,
    native_roots: &[&str],
) -> Vec<VmThroughputRow> {
    use multiverse::mvvm::Machine;
    use probe::{Probe, REFERENCE_S};
    use std::time::Instant;
    let mut probe = Probe::new();
    // The fastest of three runs: the first after a guest run finds the
    // probe's tables evicted.
    let mut probe_time = move || (0..3).map(|_| probe.run()).fold(f64::MAX, f64::min);
    let mut measure = |tier: ExecTier| {
        let mut m = Machine::boot(exe);
        m.set_tier(tier);
        if tier == ExecTier::Native {
            for root in native_roots {
                let entry = exe.symbol(root).expect("native root symbol");
                assert!(m.ensure_native(entry), "{root} must lower");
            }
        }
        let r = m.run_entry(exe).expect("workload runs");
        let per_run = m.stats.instructions;
        let obs = (r, m.cycles(), m.stats);
        let mut best = u64::MAX;
        let mut best_ref_s = f64::MAX;
        for _ in 0..trials.max(1) {
            let before = m.stats.instructions;
            let probe_before = probe_time();
            let t = Instant::now();
            let r2 = m.run_entry(exe).expect("workload runs");
            let dt = t.elapsed().as_nanos().max(1) as u64;
            let probe_s = (probe_before + probe_time()) / 2.0;
            assert_eq!(r2, r, "{tier}: rerun must reproduce the result");
            assert_eq!(m.stats.instructions - before, per_run, "{tier}");
            best = best.min(dt);
            best_ref_s = best_ref_s.min(dt as f64 / 1e9 * REFERENCE_S / probe_s);
        }
        (per_run, best, best_ref_s, obs)
    };
    let (base_insns, base_nanos, base_ref_s, base_obs) = measure(tiers[0]);
    let mut rows = Vec::new();
    for (i, &tier) in tiers.iter().enumerate() {
        let (insns, nanos, ref_s, obs) = if i == 0 {
            (base_insns, base_nanos, base_ref_s, base_obs)
        } else {
            measure(tier)
        };
        rows.push(VmThroughputRow {
            tier,
            instructions: insns,
            nanos,
            insns_per_sec: insns as f64 / (nanos as f64 / 1e9),
            ref_insns_per_sec: insns as f64 / ref_s,
            speedup: base_nanos as f64 / nanos as f64,
            identical: obs == base_obs && insns == base_insns,
        });
    }
    rows
}

/// Guest-instruction throughput of each [`ExecTier`] — including the
/// native host-closure tier — on the [`vm_throughput_exe`] workload.
/// Every row carries the identity verdict against tierless: a tier that
/// gets faster by observing differently is a broken tier, not a fast
/// one.
pub fn vm_throughput_data(iters: i64, trials: u32) -> Vec<VmThroughputRow> {
    let exe = vm_throughput_exe(iters);
    measure_tiers(
        &exe,
        &[
            ExecTier::Tierless,
            ExecTier::Block,
            ExecTier::Superblock,
            ExecTier::Native,
        ],
        trials,
        &["main", "bump"],
    )
}

/// The native-tier gate workload: a hot register-only loop — no loads,
/// no stores, no calls — so the whole body lowers into one pre-resolved
/// micro-op region and the comparison isolates dispatch cost: block
/// replay vs. superblock replay vs. native closure runs.
pub fn native_hot_exe(iters: i64) -> mvobj::Executable {
    use mvasm::{AluOp, Cond, Insn, Reg};
    let mut a = mvasm::Assembler::new();
    a.mov_ri(Reg::R0, 0);
    a.mov_ri(Reg::R1, 0);
    a.label("loop");
    for i in 0..64 {
        a.emit(Insn::AluRI {
            op: AluOp::Add,
            dst: Reg::R0,
            imm: i + 1,
        });
        a.emit(Insn::AluRI {
            op: AluOp::Xor,
            dst: Reg::R0,
            imm: 0x5A5A,
        });
        a.emit(Insn::AluRI {
            op: AluOp::And,
            dst: Reg::R0,
            imm: 0xffff,
        });
    }
    a.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R1,
        imm: 1,
    });
    a.cmp_ri(Reg::R1, iters);
    a.jcc("loop", Cond::Lt);
    a.emit(Insn::Halt);
    let mut o = mvobj::Object::new("native_hot");
    o.add_code("main", &a.finish().expect("assemble"));
    mvobj::link(&[o], &mvobj::Layout::default()).expect("link")
}

/// Native-tier gate sweep on [`native_hot_exe`]: tierless baseline,
/// superblock (the best block-engine tier) and native, with identity
/// verdicts against tierless.
pub fn native_tier_data(iters: i64, trials: u32) -> Vec<VmThroughputRow> {
    let exe = native_hot_exe(iters);
    measure_tiers(
        &exe,
        &[ExecTier::Tierless, ExecTier::Superblock, ExecTier::Native],
        trials,
        &["main"],
    )
}

/// Renders [`vm_throughput_data`] rows as table series.
pub fn vm_throughput_series(rows: &[VmThroughputRow]) -> Vec<Series> {
    let mut mips = Series::new("throughput (M guest insns / host s)");
    let mut speedup = Series::new("speedup over tierless");
    for r in rows {
        let col = r.tier.to_string();
        mips.point(&col, r.insns_per_sec / 1e6);
        speedup.point(&col, r.speedup);
    }
    vec![mips, speedup]
}

impl VmThroughputRow {
    /// This row as a [`bench_json`] row (`BENCH_vm_throughput.json`,
    /// `BENCH_native.json`).
    pub fn json(&self) -> Obj {
        let mut o = Obj::new();
        o.str("tier", &self.tier.to_string())
            .u64("instructions", self.instructions)
            .u64("nanos", self.nanos)
            .f64("insns_per_sec", self.insns_per_sec)
            .f64("ref_insns_per_sec", self.ref_insns_per_sec)
            .f64("speedup", self.speedup)
            .bool("identical", self.identical);
        o
    }
}

/// One row of [`vexec_data`]: the E14 grid configuration run through a
/// single variational pass versus leaf-by-leaf enumeration.
#[derive(Clone, Debug)]
pub struct VexecRow {
    /// Human label, e.g. `"4 fns × 3^4 assignments"`.
    pub config: String,
    /// Leaves in the switch cross product (always fully covered).
    pub leaves: usize,
    /// Instructions retired by the single variational pass.
    pub shared_steps: u64,
    /// Instructions retired replaying every leaf via enumerate-and-rerun.
    pub enum_insns: u64,
    /// `enum_insns / shared_steps` — the sharing win.
    pub speedup: f64,
    /// Context splits taken during the pass.
    pub splits: u64,
    /// Context re-joins during the pass.
    pub joins: u64,
    /// Peak simultaneously-live contexts.
    pub max_live: usize,
    /// `true` iff every leaf's full architectural state matched its
    /// enumerated rerun (the leaf-equivalence check).
    pub equivalent: bool,
}

/// E16: variational execution over the E14 compile-cost grid. Each
/// configuration is booted uncommitted, `main` (which calls every
/// multiversed function) runs once under [`multiverse::World::vexec_in`]
/// across the whole recovered cross product, and then every leaf is
/// replayed via [`multiverse::enumerate_check`] — both to certify
/// equivalence and to price the enumeration baseline in the same
/// deterministic instruction currency.
pub fn vexec_data(configs: &[(usize, usize, usize)]) -> Vec<VexecRow> {
    use multiverse::mvc::Options;
    let mut rows = Vec::new();
    for &(n_funcs, n_switches, domain) in configs {
        let src = compile_cost_src(n_funcs, n_switches, domain);
        let opts = Options {
            variant_limit: domain.pow(n_switches as u32) * 2,
            ..Options::default()
        };
        let program = Program::build_with(&[("grid.c", &src)], &opts).expect("build grid");
        let w = program.boot();
        let space = w.config_space().expect("recover space");
        let report = w.vexec_in(&space, "main", &[]).expect("vexec");
        assert_eq!(report.leaves.len(), space.leaf_count(), "full coverage");
        let chk = multiverse::enumerate_check(&program, &space, "main", &[], &report);
        let (equivalent, enum_insns) = match chk {
            Ok(c) => (c.leaves_checked == space.leaf_count(), c.insns),
            Err(_) => (false, 0),
        };
        let s = &report.stats;
        rows.push(VexecRow {
            config: format!("{n_funcs} fns × {domain}^{n_switches} assignments"),
            leaves: space.leaf_count(),
            shared_steps: s.steps,
            enum_insns,
            speedup: if s.steps > 0 {
                enum_insns as f64 / s.steps as f64
            } else {
                0.0
            },
            splits: s.splits,
            joins: s.joins,
            max_live: s.max_live as usize,
            equivalent,
        });
    }
    rows
}

impl VexecRow {
    /// This row as a [`bench_json`] row (`BENCH_vexec.json`).
    pub fn json(&self) -> Obj {
        let mut o = Obj::new();
        o.str("config", &self.config)
            .u64("leaves", self.leaves as u64)
            .u64("shared_steps", self.shared_steps)
            .u64("enum_insns", self.enum_insns)
            .f64("speedup", self.speedup)
            .u64("splits", self.splits)
            .u64("joins", self.joins)
            .u64("max_live", self.max_live as u64)
            .bool("equivalent", self.equivalent);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let rows = fig1_data();
        let get = |r: usize, c: usize| rows[r].points[c].1;
        // SMP=false column: A ≤ C < B.
        assert!(get(0, 0) <= get(2, 0) + 0.5, "A ≤ C");
        assert!(get(2, 0) < get(1, 0), "C < B");
        // SMP=true column: all close together and ≫ UP values.
        let smp: Vec<f64> = (0..3).map(|r| get(r, 1)).collect();
        let max = smp.iter().cloned().fold(f64::MIN, f64::max);
        let min = smp.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.2 * max, "SMP values within 20%: {smp:?}");
        assert!(min > 2.0 * get(2, 0), "SMP ≫ UP");
    }

    #[test]
    fn patch_stats_kernel_scale() {
        // The kernel experiment: 1161 spinlock call sites.
        let r = patch_stats_data(1161);
        assert_eq!(r.call_sites, 1161);
        assert!(r.mv_image > r.dyn_image);
        assert_eq!(r.sec_sites, 1161 * 16, "16 bytes per call site");
        assert_eq!(r.sec_vars, 32, "32 bytes per switch");
        // Patching ~1161 sites is quick (paper: ≈16 ms for the real
        // kernel; the simulated patch is host-side memory writes).
        assert!(r.commit_time.as_millis() < 2000);
    }

    /// CI's quick patch-cost gate (see `.github/workflows/ci.yml`): the
    /// commit does O(pages) protection changes, and the immediate
    /// re-commit is a pure fast path that skips every site.
    #[test]
    fn patch_cost_quick() {
        let row = fast_path_data(256);
        let first = row.first;

        // Page-batched apply: exactly one RW + one RX and one flush per
        // touched page, and fewer pages than patched sites.
        assert!(first.pages_touched >= 1);
        assert_eq!(
            first.mprotects,
            2 * first.pages_touched,
            "{} mprotects for {} pages",
            first.mprotects,
            first.pages_touched
        );
        assert_eq!(first.icache_flushes, first.pages_touched);
        assert!(first.pages_touched < first.sites_patched);

        // Immediate re-commit: delta planning skips every site and
        // writes nothing.
        assert_eq!(row.recommit.sites_skipped, row.call_sites);
        assert_eq!(row.recommit.journal_entries, 0);
        assert_eq!(row.recommit.bytes_written, 0);
        assert_eq!(row.recommit.mprotects, 0);
    }

    /// CI's quick metrics gate (see `.github/workflows/ci.yml`): one
    /// `World::metrics()` snapshot per commit+revert pair stays within
    /// 5 % of the pair alone. Wall-clock ratios are noisy under CI load,
    /// so the bar takes the best of several attempts before giving a
    /// verdict.
    #[test]
    fn metrics_overhead_quick() {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let (baseline, snapshot) = metrics_overhead(128);
            let ratio = snapshot.as_secs_f64() / baseline.as_secs_f64() - 1.0;
            best = best.min(ratio);
            if best <= 0.05 {
                break;
            }
        }
        assert!(best <= 0.05, "metrics overhead {:.1}% > 5%", best * 100.0);
    }

    /// CI's quick compile-pipeline gate (see `.github/workflows/ci.yml`):
    /// the merge stage actually shares clones.
    #[test]
    fn compile_cost_quick() {
        use multiverse::mvc::{Options, Pipeline};
        let src = compile_cost_src(3, 3, 3); // 3 fns × 27 assignments

        // `if (s)` bodies collapse all non-zero values, so 27 clones
        // merge to 2^3 = 8 variants per fn.
        let mut p = Pipeline::new(Options {
            variant_limit: 64,
            ..Options::default()
        });
        p.compile_unit(&src, "cost.c").expect("build");
        assert_eq!(p.stats().clones, 3 * 27);
        assert_eq!(p.stats().variants, 3 * 8);
    }

    /// CI's quick SMP-commit gate (see `.github/workflows/ci.yml`):
    /// both quiesce protocols stay exact under real contention at 2 and
    /// 4 cores, stop-machine plants no breakpoints, and the sweep is
    /// serialized to `BENCH_smp.json` at the workspace root so the perf
    /// trajectory records every CI run.
    #[test]
    fn smp_commit_quick() {
        let rows = smp_commit_data(&[2, 4], 48, 4);
        assert_eq!(rows.len(), 4, "2 core counts × 2 strategies");
        for r in &rows {
            assert!(
                r.consistent,
                "{} @ {} vCPUs lost an increment",
                r.strategy, r.vcpus
            );
            assert!(r.steady_cycles > 0.0);
            match r.strategy {
                // The rendezvous IPIs every CPU: the window always costs
                // at least one full-park round, and the stall grows with
                // the core count.
                CommitStrategy::StopMachine => {
                    assert!(r.commit_latency > 0.0, "rendezvous has a cost");
                    assert!(r.stall_cycles > 0.0, "parked workers stall");
                    assert_eq!(r.trap_hits, 0.0, "stop-machine plants no traps");
                }
                // Breakpoint-first never stops CPUs that are outside the
                // patched regions — the cheap path text_poke_bp exists for.
                CommitStrategy::Breakpoint => {
                    let twin = rows
                        .iter()
                        .find(|t| t.vcpus == r.vcpus && t.strategy == CommitStrategy::StopMachine)
                        .unwrap();
                    assert!(
                        r.stall_cycles < twin.stall_cycles,
                        "breakpoint-first must stall less than stop-machine"
                    );
                }
            }
        }
        let stop: Vec<&SmpCommitRow> = rows
            .iter()
            .filter(|r| r.strategy == CommitStrategy::StopMachine)
            .collect();
        assert!(
            stop[1].stall_cycles > stop[0].stall_cycles,
            "stop-machine stall grows with core count"
        );
        let json = bench_json(
            "smp_commit",
            "guest cycles",
            rows.iter().map(SmpCommitRow::json),
        );
        assert!(json.contains("\"bench\":\"smp_commit\""));
        write_bench_file("smp", &json);
    }

    /// CI's commit-storm gate (see `.github/workflows/ci.yml`): the mvd
    /// control plane coalesces the burst into an order of magnitude
    /// fewer commits than the naive driver under both protocols, the
    /// workers stay exact, and the sweep is serialized to
    /// `BENCH_commit_storm.json` at the workspace root.
    #[test]
    fn commit_storm_quick() {
        let rows = commit_storm_data(4, 6000, 96, 48);
        assert_eq!(rows.len(), 2, "one row per strategy");
        for r in &rows {
            assert!(r.workers_exact, "{}: a worker lost iterations", r.strategy);
            assert!(
                r.commit_ratio >= 10.0,
                "{}: coalescing factor {:.1}x below the 10x gate",
                r.strategy,
                r.commit_ratio
            );
            assert!(r.p50_cycles <= r.p95_cycles);
            // Fault-free run: every request either became a commit or
            // merged into one.
            assert_eq!(r.commits + r.coalesced, r.requests);
        }
        let stop = rows
            .iter()
            .find(|r| r.strategy == CommitStrategy::StopMachine)
            .unwrap();
        assert!(
            stop.speedup >= 10.0,
            "stop-machine throughput speedup {:.1}x below the 10x gate",
            stop.speedup
        );
        let rows = rows.iter().map(CommitStormRow::json);
        let json = bench_json("commit_storm", "guest cycles", rows);
        assert!(json.contains("\"bench\":\"commit_storm\""));
        write_bench_file("commit_storm", &json);
    }

    /// The tierless row's rate on [`vm_throughput_exe`] before the
    /// tierless engine got its software TLB, flush-epoch-checked decodes
    /// and quantum loop (commit bbce3a7), in reference-host guest
    /// instructions per second: the median of 12 release runs of
    /// `vm_throughput_quick`'s measurement on that tree, which ranged
    /// 47.0–58.3 M/s on a 2-vCPU Xeon VM. The superblock gate stays at
    /// 5× this rate, the bar it had as a ratio over that tierless engine.
    const TIERLESS_REF_IPS: f64 = 53.1e6;

    /// CI's tiered-engine gate (see `.github/workflows/ci.yml`): every
    /// tier must be observation-identical to tierless, and — on
    /// optimized builds, which is how CI runs this gate — tier 0 must
    /// beat tierless and the superblock tier must clear 5× the
    /// [`TIERLESS_REF_IPS`] throughput on the reference host
    /// ([`VmThroughputRow::ref_insns_per_sec`]). The rows are serialized
    /// to `BENCH_vm_throughput.json` at the workspace root for the perf
    /// trajectory.
    #[test]
    fn vm_throughput_quick() {
        // Wall-clock ratios are only meaningful on optimized builds;
        // debug runs keep the identity checks but shrink the workload.
        let iters = if cfg!(debug_assertions) {
            2_000
        } else {
            40_000
        };
        let rows = vm_throughput_data(iters, 5);
        assert_eq!(rows.len(), 4, "one row per tier");
        for r in &rows {
            assert!(
                r.identical,
                "{}: diverged from tierless observation",
                r.tier
            );
            assert!(r.insns_per_sec > 0.0);
        }
        assert_eq!(rows[0].tier, ExecTier::Tierless);
        assert_eq!(rows[0].speedup, 1.0);
        let json = bench_json(
            "vm_throughput",
            "guest instructions / host second",
            rows.iter().map(VmThroughputRow::json),
        );
        assert!(json.contains("\"bench\":\"vm_throughput\""));
        if !cfg!(debug_assertions) {
            // Record the trajectory before gating, so a failed gate
            // still leaves the measured rows behind for diagnosis.
            // Debug runs measure the shrunken workload and write nothing.
            write_bench_file("vm_throughput", &json);
            assert!(
                rows[1].speedup > 1.0,
                "tier-0 must beat tierless: {:.2}x",
                rows[1].speedup
            );
            assert_eq!(rows[2].tier, ExecTier::Superblock);
            let floor = 5.0 * TIERLESS_REF_IPS;
            assert!(
                rows[2].ref_insns_per_sec >= floor,
                "superblock {:.1} M insns/s (reference host) below the {:.1} M/s gate",
                rows[2].ref_insns_per_sec / 1e6,
                floor / 1e6
            );
        }
    }

    /// CI's native-tier gate (see `.github/workflows/ci.yml`): on the
    /// hot register-only workload the native tier must be
    /// observation-identical to tierless always, and — on optimized
    /// builds, which is how CI runs this gate — at least 2× the
    /// superblock tier's host throughput. The rows are serialized to
    /// `BENCH_native.json` at the workspace root for the perf
    /// trajectory.
    #[test]
    fn native_tier_quick() {
        let iters = if cfg!(debug_assertions) {
            2_000
        } else {
            40_000
        };
        let rows = native_tier_data(iters, 3);
        assert_eq!(rows.len(), 3, "tierless, superblock, native");
        for r in &rows {
            assert!(
                r.identical,
                "{}: diverged from tierless observation",
                r.tier
            );
            assert!(r.insns_per_sec > 0.0);
        }
        assert_eq!(rows[2].tier, ExecTier::Native);
        let json = bench_json(
            "native_tier",
            "guest instructions / host second",
            rows.iter().map(VmThroughputRow::json),
        );
        assert!(json.contains("\"bench\":\"native_tier\""));
        if !cfg!(debug_assertions) {
            // Record the trajectory before gating, so a failed gate
            // still leaves the measured rows behind for diagnosis.
            // Debug runs measure the shrunken workload and write nothing.
            write_bench_file("native", &json);
            let over_superblock = rows[1].nanos as f64 / rows[2].nanos as f64;
            assert!(
                over_superblock >= 2.0,
                "native {over_superblock:.2}x over superblock, below the 2x gate"
            );
        }
    }

    /// CI's variational-execution gate (see `.github/workflows/ci.yml`):
    /// on the E14 compile-cost grid, the single vexec pass must cover
    /// the whole cross product with full-state leaf equivalence against
    /// enumerate-and-rerun, and on the widest-domain configuration the
    /// shared pass must retire at least 3× fewer instructions than the
    /// enumeration it replaces. The rows are serialized to
    /// `BENCH_vexec.json` at the workspace root for the perf trajectory.
    #[test]
    fn vexec_quick() {
        let configs = [
            (4, 3, 2), // 4 fns × 2^3 =  8 leaves
            (4, 5, 2), // 4 fns × 2^5 = 32 leaves
            (4, 4, 3), // 4 fns × 3^4 = 81 leaves (widest domain)
            (8, 6, 2), // 8 fns × 2^6 = 64 leaves
        ];
        let rows = vexec_data(&configs);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.equivalent, "{}: leaf-equivalence failed", r.config);
            assert!(r.splits > 0 && r.joins > 0, "{}: {r:?}", r.config);
        }
        // Record the trajectory before gating, so a failed gate still
        // leaves the measured rows behind for diagnosis.
        let json = bench_json(
            "vexec",
            "guest instructions",
            rows.iter().map(VexecRow::json),
        );
        assert!(json.contains("\"bench\":\"vexec\""));
        write_bench_file("vexec", &json);
        let widest = rows.iter().max_by_key(|r| r.leaves).unwrap();
        assert_eq!(widest.leaves, 81, "3^4 is the widest E14 domain");
        assert!(
            widest.speedup >= 3.0,
            "shared-prefix speedup {:.2}x below the 3x gate on {}",
            widest.speedup,
            widest.config
        );
    }

    #[test]
    fn latency_percentiles_from_trace() {
        let rows = commit_latency_percentiles(64, 5);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.p50_us <= r.p95_us && r.p95_us <= r.max_us,
                "{}: p50 {} ≤ p95 {} ≤ max {}",
                r.phase,
                r.p50_us,
                r.p95_us,
                r.max_us
            );
            assert!(r.max_us > 0.0, "{} saw samples", r.phase);
        }
        // The transaction total dominates any single phase.
        let total = rows[3];
        assert_eq!(total.phase, "total");
        for r in &rows[..3] {
            assert!(total.p50_us >= r.p50_us, "total ≥ {}", r.phase);
        }
    }

    #[test]
    fn btb_ablation_shows_mispredict_penalty() {
        let rows = btb_data();
        let ifwarm = rows[0].points[0].1;
        let ifcold = rows[0].points[1].1;
        let mvwarm = rows[1].points[0].1;
        let mvcold = rows[1].points[1].1;
        // Cold costs more for both (returns mispredict), but the dynamic
        // kernel pays extra for its feature-test branches.
        let if_delta = ifcold - ifwarm;
        let mv_delta = mvcold - mvwarm;
        assert!(
            if_delta > mv_delta + 8.0,
            "dynamic pays extra cold-BTB penalty: if Δ{if_delta} vs mv Δ{mv_delta}"
        );
    }

    #[test]
    fn inline_ablation_ordering() {
        let rows = inline_ablation_data();
        let inlined = rows[0].points[0].1;
        let no_inline = rows[1].points[0].1;
        let entry_only = rows[2].points[0].1;
        assert!(
            inlined < no_inline,
            "inlining wins: {inlined} < {no_inline}"
        );
        assert!(
            no_inline <= entry_only,
            "direct call beats entry redirection: {no_inline} ≤ {entry_only}"
        );
        // Entry-only patches far fewer locations.
        assert!(rows[2].points[1].1 < rows[0].points[1].1);
    }
}
