//! §6.1 — patching cost: commit wall time as a function of call-site
//! count (the kernel recorded 1161 spinlock sites and patched them in
//! ≈16 ms).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::Program;

fn bench(c: &mut Criterion) {
    let r = mv_bench::patch_stats_data(1161);
    println!("## §6.1 — patch statistics at kernel scale (1161 sites)");
    println!("commit wall time: {:?}", r.commit_time);
    println!(
        "image overhead:   {} B (multiverse {} vs dynamic {})\n",
        r.mv_image - r.dyn_image,
        r.mv_image,
        r.dyn_image
    );

    println!("## tracing overhead on the commit path (commit+revert, batched)");
    for n_sites in [16usize, 128, 1161] {
        let (baseline, recording) = mv_bench::tracing_overhead(n_sites);
        let rec = recording.as_secs_f64() / baseline.as_secs_f64() - 1.0;
        println!(
            "{n_sites:>5} sites: baseline {baseline:>10.2?}  recording {recording:>10.2?} ({:+.1}%)",
            rec * 100.0
        );
    }
    println!();

    println!("## metrics overhead: one snapshot per commit+revert pair (batched; gate ≤5%)");
    for n_sites in [16usize, 128, 1161] {
        let (baseline, snapshot) = mv_bench::metrics_overhead(n_sites);
        let pct = snapshot.as_secs_f64() / baseline.as_secs_f64() - 1.0;
        println!(
            "{n_sites:>5} sites: baseline {baseline:>10.2?}  metrics_overhead {snapshot:>10.2?} ({:+.1}%)",
            pct * 100.0
        );
    }
    println!();

    println!("## first commit vs re-commit (1161 sites)");
    println!(
        "{:>11} {:>9} {:>7} {:>7} | {:>11} {:>7} {:>12}",
        "first", "mprotect", "flush", "pages", "re-commit", "writes", "sites-skip"
    );
    let row = mv_bench::fast_path_data(1161);
    println!(
        "{:>11.2?} {:>9} {:>7} {:>7} | {:>11.2?} {:>7} {:>12}",
        row.first_time,
        row.first.mprotects,
        row.first.icache_flushes,
        row.first.pages_touched,
        row.recommit_time,
        row.recommit.bytes_written,
        format!("{}/{}", row.recommit.sites_skipped, row.call_sites),
    );
    println!();

    println!("## §6.1 — per-phase commit latency from the trace ring (50 rounds, 1161 sites)");
    print!(
        "{}",
        mv_bench::render_latency_table(&mv_bench::commit_latency_percentiles(1161, 50))
    );
    println!();

    let mut g = c.benchmark_group("patch_cost");
    for n_sites in [16usize, 128, 1161] {
        let src = mv_bench::many_callsites_src(n_sites);
        let program = Program::build(&[("sites.c", &src)]).expect("build");
        let mut w = program.boot();
        w.set("feature", 1).unwrap();
        g.bench_with_input(
            BenchmarkId::new("commit+revert", n_sites),
            &n_sites,
            |b, _| {
                b.iter(|| {
                    w.commit().expect("commit");
                    w.revert().expect("revert");
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // Simulated workloads are deterministic; short sampling keeps the
    // full suite fast without changing any conclusion.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
