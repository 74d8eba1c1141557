//! §7.1 — the cost of the cross product: ahead-of-time compilation time
//! and image size as the number of referenced boolean switches grows
//! (variants double per switch). This is the build-time side of the
//! variant-explosion trade-off the explicit-domain attribute exists to
//! control.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::mvc::Options;
use multiverse::Program;

/// A function referencing `n` boolean switches with distinguishable
/// per-assignment bodies (no merging).
fn source(n_switches: usize) -> String {
    let mut s = String::new();
    for i in 0..n_switches {
        s.push_str(&format!("multiverse bool s{i};\n"));
    }
    s.push_str("multiverse i64 f(void) {\n    i64 acc = 0;\n");
    for i in 0..n_switches {
        s.push_str(&format!("    if (s{i}) {{ acc = acc + {}; }}\n", 1 << i));
    }
    s.push_str("    return acc;\n}\ni64 main(void) { return 0; }\n");
    s
}

fn bench(c: &mut Criterion) {
    println!("## variant generation scaling (2^n variants)");
    for n in 1..=6 {
        let src = source(n);
        let opts = Options {
            variant_limit: 128,
            ..Options::default()
        };
        let t0 = std::time::Instant::now();
        let p = Program::build_with(&[("t.c", &src)], &opts).expect("build");
        let dt = t0.elapsed();
        println!(
            "  {n} switches: {:>3} variants, build {:>8.3} ms, image {:>7} B",
            1 << n,
            dt.as_secs_f64() * 1e3,
            p.image_size()
        );
    }
    println!();

    let mut g = c.benchmark_group("variant_gen");
    for n in [1usize, 3, 6] {
        let src = source(n);
        let opts = Options {
            variant_limit: 128,
            ..Options::default()
        };
        g.bench_with_input(BenchmarkId::new("build", 1usize << n), &n, |b, _| {
            b.iter(|| Program::build_with(&[("t.c", &src)], &opts).expect("build"))
        });
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
