//! E14 — staged-pipeline compile cost as the switch count / domain
//! width scales (§7.1's combinatorial explosion, made measurable). The
//! table printed here backs the EXPERIMENTS.md entry; the Criterion
//! group measures one configuration for regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::mvc::{Options, Pipeline};
use mv_bench::{compile_cost_data, compile_cost_src, render_compile_cost_table};

fn bench(c: &mut Criterion) {
    println!("## compile cost");
    let configs = [
        (4usize, 3usize, 2usize), // 4 fns × 2^3  = 32 clones
        (4, 5, 2),                // 4 fns × 2^5  = 128 clones
        (4, 4, 3),                // 4 fns × 3^4  = 324 clones
        (8, 6, 2),                // 8 fns × 2^6  = 512 clones
    ];
    print!(
        "{}",
        render_compile_cost_table(&compile_cost_data(&configs))
    );
    println!();

    let src = compile_cost_src(4, 5, 2);
    let mut g = c.benchmark_group("compile_cost");
    g.bench_with_input(BenchmarkId::new("compile", "4x2^5"), &src, |b, s| {
        b.iter(|| {
            Pipeline::new(Options {
                variant_limit: 64,
                ..Options::default()
            })
            .compile_unit(s, "cost.c")
            .expect("build")
        })
    });
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
