//! E14 — staged-pipeline compile cost: sequential vs parallel clone+fold
//! as the switch count / domain width scales (§7.1's combinatorial
//! explosion, made measurable). The table printed here backs the
//! EXPERIMENTS.md entry; the Criterion groups measure the same two paths
//! for regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::mvc::{Options, Pipeline};
use mv_bench::{compile_cost_data, compile_cost_src, render_compile_cost_table};

fn bench(c: &mut Criterion) {
    // Floor at 2 so the scoped-thread path is exercised even on a
    // single-CPU host (where parallel ≈ sequential is the honest result).
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);
    println!("## compile cost: sequential vs -j{jobs}");
    let configs = [
        (4usize, 3usize, 2usize), // 4 fns × 2^3  = 32 clones
        (4, 5, 2),                // 4 fns × 2^5  = 128 clones
        (4, 4, 3),                // 4 fns × 3^4  = 324 clones
        (8, 6, 2),                // 8 fns × 2^6  = 512 clones
    ];
    let rows = compile_cost_data(&configs, jobs);
    print!("{}", render_compile_cost_table(&rows, jobs));
    println!();

    let src = compile_cost_src(4, 5, 2);
    let opts = |jobs: usize| Options {
        variant_limit: 64,
        jobs,
        ..Options::default()
    };
    let mut g = c.benchmark_group("compile_cost");
    g.bench_with_input(BenchmarkId::new("sequential", "4x2^5"), &src, |b, s| {
        b.iter(|| {
            Pipeline::new(opts(1))
                .compile_unit(s, "cost.c")
                .expect("build")
        })
    });
    g.bench_with_input(
        BenchmarkId::new(format!("parallel_j{jobs}"), "4x2^5"),
        &src,
        |b, s| {
            b.iter(|| {
                Pipeline::new(opts(jobs))
                    .compile_unit(s, "cost.c")
                    .expect("build")
            })
        },
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
