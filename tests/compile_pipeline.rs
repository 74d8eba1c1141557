//! The staged compile pipeline (§3): every object must match its
//! recorded fingerprint, a second build in the same process must
//! re-derive — not replay — every variant, and the content-addressed
//! merge must keep guards covering exactly the assignments it merged.
//!
//! The differential tests serialize whole `.mvo` objects and compare the
//! bytes; the property tests drive random switch domains (contiguous and
//! not) through build → commit and through the merge/guard synthesis
//! directly.

use multiverse::mvc::{CompileError, Options, Pipeline};
use multiverse::mvobj::write_object;
use multiverse::Program;
use proptest::prelude::*;

/// Three units with cross-unit calls, switch extern declarations, merging
/// opportunities (`c` values 1 and 2 collapse) and a non-contiguous
/// domain (`{0, 2, 5}`) that forces point guards.
const CONFIG: &str = r#"
    multiverse bool dbg;
    multiverse(0, 1, 2) i32 c;
    multiverse(0, 2, 5) i32 mode;
"#;
const LIB: &str = r#"
    extern multiverse bool dbg;
    extern multiverse(0, 1, 2) i32 c;
    multiverse i64 get(i64 x) {
        i64 acc = x;
        if (dbg) { acc = acc + 100; }
        if (c) { acc = acc * 2; }
        return acc;
    }
"#;
const MAIN: &str = r#"
    extern multiverse(0, 2, 5) i32 mode;
    extern multiverse i64 get(i64 x);
    multiverse i64 pick(i64 x) {
        if (mode < 3) { return x + 1; }
        return x - 1;
    }
    i64 main(void) { return get(3) + pick(4); }
"#;

fn units() -> Vec<(&'static str, &'static str)> {
    vec![("config.c", CONFIG), ("lib.c", LIB), ("main.c", MAIN)]
}

fn opts() -> Options {
    Options {
        variant_limit: 64,
        ..Options::default()
    }
}

/// A build keeps nothing for the next one: compiling the same units a
/// second time in one process clones every assignment again (`get`:
/// 2 × 3, `pick`: 3) and serializes to the first build's exact bytes —
/// code, descriptors, symbols, relocations — with the same warnings in
/// the same order. The first build reuses one pipeline, and so one
/// `Specializer`, across the three units; the second gives each unit a
/// fresh pipeline.
#[test]
fn second_build_reclones_and_is_byte_identical() {
    let mut first = Pipeline::new(opts());
    let mut first_out = Vec::new();
    for (name, src) in units() {
        let (obj, warn) = first.compile_unit(src, name).expect("first build");
        first_out.push((write_object(&obj), warn));
    }
    assert_eq!(first.stats().clones, 9);

    let (mut clones, mut variants) = (0, 0);
    for ((name, src), (bytes, warn)) in units().into_iter().zip(&first_out) {
        let mut second = Pipeline::new(opts());
        let (obj, w) = second.compile_unit(src, name).expect("second build");
        assert_eq!(&write_object(&obj), bytes, "{name}: second .mvo bytes");
        assert_eq!(&w, warn, "{name}: second warnings");
        clones += second.stats().clones;
        variants += second.stats().variants;
    }
    assert_eq!(clones, 9, "every assignment is cloned again");
    assert_eq!(variants, first.stats().variants);
}

/// The whole-program entry points agree too: `Program` built through an
/// explicit pipeline behaves like the default build.
#[test]
fn program_through_pipeline_matches_default_build() {
    let p_default = Program::build(&units()).expect("default build");
    let mut pl = Pipeline::new(opts());
    let p_pipe = Program::build_with_pipeline(&units(), &mut pl, true).expect("pipeline build");
    let mut wd = p_default.boot();
    let mut wp = p_pipe.boot();
    for (a, b, m) in [(0i64, 0i64, 0i64), (1, 2, 5), (1, 1, 2)] {
        for w in [&mut wd, &mut wp] {
            w.revert().unwrap();
            w.set("dbg", a).unwrap();
            w.set("c", b).unwrap();
            w.set("mode", m).unwrap();
            w.commit().unwrap();
        }
        assert_eq!(
            wd.call("get", &[9]).unwrap(),
            wp.call("get", &[9]).unwrap(),
            "dbg={a} c={b}"
        );
        assert_eq!(
            wd.call("pick", &[9]).unwrap(),
            wp.call("pick", &[9]).unwrap(),
            "mode={m}"
        );
    }
}

/// A pipeline records exactly when it holds a ring: `enable_tracing`
/// alone yields one `stage_begin`/`stage_end` pair per stage, in
/// pipeline order, for a compile in a process that never traced a
/// commit. Each `stage_end` carries the stage's item count: `LIB` is
/// one function (`get`) whose 2 × 3 assignments fold, with its generic
/// body, to 6 + 1 optimize items and merge to 4 variants; codegen
/// counts the object's 6 symbols.
#[test]
fn pipeline_with_a_ring_traces_every_stage() {
    use multiverse::mvtrace::EventKind;
    let mut pl = Pipeline::new(opts());
    pl.enable_tracing(1024);
    pl.compile_unit(LIB, "lib.c").expect("compile");
    let events: Vec<_> = pl
        .take_trace()
        .into_iter()
        .map(|e| match e.kind {
            EventKind::StageBegin { stage } => ("begin", stage, None),
            EventKind::StageEnd { stage, items } => ("end", stage, Some(items)),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    let want: Vec<_> = [
        ("lower", 1),
        ("mv-expand", 6),
        ("optimize", 7),
        ("merge", 4),
        ("codegen", 6),
    ]
    .into_iter()
    .flat_map(|(stage, items)| [("begin", stage, None), ("end", stage, Some(items))])
    .collect();
    assert_eq!(events, want);
}

/// The explosion error names every offending switch with its domain
/// size, so the user knows exactly which factors to restrict.
#[test]
fn explosion_error_names_the_offending_switches() {
    let src = r#"
        multiverse(1, 2, 3, 4, 5, 6, 7, 8) i32 big_a;
        multiverse(1, 2, 3, 4, 5, 6, 7, 8) i32 big_b;
        multiverse void f(void) { if (big_a + big_b) { __out(1); } }
        i64 main(void) { return 0; }
    "#;
    let err = Pipeline::new(Options {
        variant_limit: 32,
        ..Options::default()
    })
    .compile_unit(src, "t.c")
    .expect_err("must explode");
    match &err {
        CompileError::VariantExplosion {
            function,
            variants,
            limit,
            switches,
        } => {
            assert_eq!(function, "f");
            assert_eq!((*variants, *limit), (64, 32));
            assert_eq!(
                switches,
                &vec![("big_a".to_string(), 8), ("big_b".to_string(), 8)]
            );
        }
        other => panic!("wrong error: {other:?}"),
    }
    let msg = err.to_string();
    for needle in [
        "`f`",
        "64 variants",
        "limit 32",
        "`big_a` (8 values)",
        "`big_b` (8 values)",
        "×",
    ] {
        assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
    }
}

/// Writing the same switch twice in one function — or the compiler
/// visiting a function through more than one path — must not duplicate
/// the diagnostic.
#[test]
fn repeated_warnings_are_deduplicated() {
    let src = r#"
        multiverse bool w;
        multiverse void f(void) {
            if (w) { w = 0; }
            w = 1;
        }
        i64 main(void) { return 0; }
    "#;
    let (_, warnings) = Pipeline::new(opts())
        .compile_unit(src, "t.c")
        .expect("build");
    let writes: Vec<_> = warnings
        .iter()
        .filter(|w| matches!(w, multiverse::mvc::Warning::SwitchWrittenInVariant { .. }))
        .collect();
    assert_eq!(writes.len(), 1, "one warning for two writes: {warnings:?}");
    // No exact duplicates anywhere in the unit's diagnostics.
    for (i, a) in warnings.iter().enumerate() {
        assert!(!warnings[i + 1..].contains(a), "duplicated warning: {a:?}");
    }
}

/// A random domain as written in a `multiverse(v1, v2, …)` attribute:
/// 1–4 distinct sorted values in a small range, frequently
/// non-contiguous.
fn arb_domain() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..10, 1..5).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn domain_src(name: &str, dom: &[i64]) -> String {
    let vals: Vec<String> = dom.iter().map(|v| v.to_string()).collect();
    format!("multiverse({}) i32 {name};\n", vals.join(", "))
}

/// Oracle for the generated function body below.
fn oracle(s0: i64, s1: i64, t0: i64, t1: i64, x: i64) -> i64 {
    let mut acc = x;
    if t0 < s0 {
        acc = acc.wrapping_add(3);
    }
    if t1 < s1 {
        acc = acc.wrapping_mul(2);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// End-to-end merge/guard soundness: for random (often
    /// non-contiguous) domains, committing every in-domain assignment
    /// dispatches to a variant that computes exactly what the dynamic
    /// build computes. Thresholded bodies make distinct assignments
    /// collapse, so range guards, point-guard fallbacks and merged
    /// bodies are all on the committed path.
    #[test]
    fn random_domains_commit_to_the_right_variant(
        d0 in arb_domain(),
        d1 in arb_domain(),
        t0 in 0i64..10,
        t1 in 0i64..10,
    ) {
        let src = format!(
            "{}{}multiverse i64 f(i64 x) {{\n\
                 i64 acc = x;\n\
                 if ({t0} < s0) {{ acc = acc + 3; }}\n\
                 if ({t1} < s1) {{ acc = acc * 2; }}\n\
                 return acc;\n\
             }}\n\
             i64 main(void) {{ return 0; }}\n",
            domain_src("s0", &d0),
            domain_src("s1", &d1),
        );
        let dynamic =
            Program::build_with(&[("t.c", &src)], &Options::dynamic()).unwrap();
        let mv = Program::build_with(&[("t.c", &src)], &opts()).unwrap();
        let mut wd = dynamic.boot();
        let mut wm = mv.boot();
        for &a in &d0 {
            for &b in &d1 {
                wm.revert().unwrap();
                for w in [&mut wd, &mut wm] {
                    w.set("s0", a).unwrap();
                    w.set("s1", b).unwrap();
                }
                wm.commit().unwrap();
                for x in [-3i64, 0, 7] {
                    let want = oracle(a, b, t0, t1, x) as u64;
                    prop_assert_eq!(wd.call("f", &[x as u64]).unwrap(), want,
                        "dynamic s0={} s1={} x={}", a, b, x);
                    prop_assert_eq!(wm.call("f", &[x as u64]).unwrap(), want,
                        "committed s0={} s1={} x={}", a, b, x);
                }
            }
        }
    }

    /// Merge/guard synthesis invariants, checked against the descriptor
    /// data itself: variants partition the cross product, and each
    /// variant's guard sets match exactly its own assignments — no
    /// over- or under-covering, for boxes and point-guard fallbacks
    /// alike.
    #[test]
    fn guards_cover_exactly_the_merged_assignments(
        d0 in arb_domain(),
        d1 in arb_domain(),
        t0 in 0i64..10,
        t1 in 0i64..10,
    ) {
        use multiverse::mvc::{lexer::lex, lower::lower_unit, mv, parser::parse};
        let src = format!(
            "{}{}multiverse i64 f(i64 x) {{\n\
                 i64 acc = x;\n\
                 if ({t0} < s0) {{ acc = acc + 3; }}\n\
                 if ({t1} < s1) {{ acc = acc * 2; }}\n\
                 return acc;\n\
             }}\n",
            domain_src("s0", &d0),
            domain_src("s1", &d1),
        );
        let l = lower_unit(&parse(&lex(&src).unwrap()).unwrap()).unwrap();
        let f = l.funcs.iter().find(|f| f.name == "f").unwrap();
        let r = mv::generate_variants(f, &l.ctx, 64).unwrap().unwrap();

        // The variants partition the cross product.
        let mut covered: Vec<Vec<(String, i64)>> = Vec::new();
        for v in &r.variants {
            for a in &v.assignments {
                prop_assert!(!covered.contains(a), "assignment in two variants: {:?}", a);
                covered.push(a.clone());
            }
        }
        prop_assert_eq!(covered.len(), d0.len() * d1.len());

        // Guard sets accept an assignment iff the variant owns it.
        let matches = |guards: &[multiverse::mvobj::descriptor::GuardSym],
                       assign: &[(String, i64)]| {
            guards.iter().all(|g| {
                assign
                    .iter()
                    .any(|(n, v)| *n == g.var_symbol && g.low as i64 <= *v && *v <= g.high as i64)
            })
        };
        for v in &r.variants {
            for assign in &covered {
                let accepted = v.guard_sets.iter().any(|gs| matches(gs, assign));
                let owned = v.assignments.contains(assign);
                prop_assert_eq!(
                    accepted, owned,
                    "variant {} guards {:?} vs assignment {:?}",
                    &v.name, &v.guard_sets, assign
                );
            }
        }
    }
}

/// The E14 compile-cost grids (`(functions, switches, domain width)`),
/// plus mvbench's `variant_grid` shape, 16 × 3^4.
const GOLDEN_GRIDS: [(usize, usize, usize); 5] =
    [(4, 3, 2), (4, 5, 2), (4, 4, 3), (8, 6, 2), (16, 4, 3)];

/// The compile-cost grid source: `n_funcs` multiversed functions, each
/// adding a distinct constant per switch it finds non-zero. A fixed
/// copy of `mv_bench::compile_cost_src`'s shape, so the golden pins the
/// compiler, not the generator.
fn grid_src(n_funcs: usize, n_switches: usize, domain: usize) -> String {
    let mut src = String::new();
    for s in 0..n_switches {
        let dom: Vec<String> = (0..domain).map(|v| v.to_string()).collect();
        src += &format!("multiverse({}) i32 s{s};\n", dom.join(", "));
    }
    for f in 0..n_funcs {
        src += &format!("multiverse i64 f{f}(void) {{\n    i64 acc = {f};\n");
        for s in 0..n_switches {
            src += &format!("    if (s{s}) {{ acc = acc + {}; }}\n", (f + 1) << s);
        }
        src += "    return acc;\n}\n";
    }
    let calls: Vec<String> = (0..n_funcs).map(|f| format!("f{f}()")).collect();
    src + &format!("i64 main(void) {{ return {}; }}\n", calls.join(" + "))
}

/// Every workload source and grid of the golden, as (unit name, source,
/// variant limit).
fn golden_units() -> Vec<(String, String, usize)> {
    use mv_workloads::{
        alternative, commit_storm, cpython, grep, musl, pvops, smp_contention, spinlock,
    };
    let mut units: Vec<(String, String, usize)> = [
        ("musl.c", musl::SRC),
        ("grep.c", grep::SRC),
        ("alternative.c", alternative::SRC),
        ("commit_storm.c", commit_storm::SRC),
        ("cpython.c", cpython::SRC),
        ("pvops_current.c", pvops::SRC_CURRENT),
        ("pvops_multiverse.c", pvops::SRC_MULTIVERSE),
        ("pvops_ifdef.c", pvops::SRC_IFDEF),
        ("smp_contention.c", smp_contention::SRC),
        ("spinlock.c", spinlock::SRC),
    ]
    .into_iter()
    .map(|(name, src)| (name.to_string(), src.to_string(), 64))
    .collect();
    for (n_funcs, n_switches, domain) in GOLDEN_GRIDS {
        units.push((
            format!("grid_{n_funcs}x{domain}^{n_switches}.c"),
            grid_src(n_funcs, n_switches, domain),
            domain.pow(n_switches as u32) * 2,
        ));
    }
    units
}

/// The `#ifdef` build of the golden: every integer switch of `src`
/// fixed at the last value of its domain.
fn static_options(src: &str) -> Options {
    use multiverse::mvc::{lexer::lex, lower::lower_unit, parser::parse, types::Type};
    let ctx = lower_unit(&parse(&lex(src).unwrap()).unwrap()).unwrap().ctx;
    let mut config: Vec<(&str, i64)> = ctx
        .globals
        .iter()
        .filter(|(_, g)| g.is_switch() && g.ty != Type::Fnptr)
        .map(|(name, _)| (name.as_str(), *ctx.switch_domain(name).last().unwrap()))
        .collect();
    config.sort_unstable();
    Options::static_build(&config)
}

/// `Object::fingerprint()` of every golden unit under each binding
/// mode, recorded before the optimizer's allocation-free rewrite. The
/// optimizer must not change a single emitted byte, so a mismatch is an
/// output change, never noise.
const FINGERPRINTS: &[(&str, &str, u64)] = &[
    ("musl.c", "default", 0x26e97010462f4f51),
    ("musl.c", "dynamic", 0xa81d35ad79de8f0a),
    ("musl.c", "static", 0x71b67b5559c7ae5d),
    ("grep.c", "default", 0xb181577a4b057a4f),
    ("grep.c", "dynamic", 0xa5a8fe2f24740db8),
    ("grep.c", "static", 0x5a71838147119633),
    ("alternative.c", "default", 0x127106288b5bf98e),
    ("alternative.c", "dynamic", 0x85e7fc1d9a9cba67),
    ("alternative.c", "static", 0x52ac78d0724c8d62),
    ("commit_storm.c", "default", 0x98288c2883f3954c),
    ("commit_storm.c", "dynamic", 0xdbdd0ddc6d8ab698),
    ("commit_storm.c", "static", 0x2b4f3e3c5f0437dd),
    ("cpython.c", "default", 0x5641633e7ba1d56c),
    ("cpython.c", "dynamic", 0xca0caf5e162f7586),
    ("cpython.c", "static", 0xeb62b93bb2bd68a1),
    ("pvops_current.c", "default", 0xc070251120a9f603),
    ("pvops_current.c", "dynamic", 0x5e00e91f4b070d67),
    ("pvops_current.c", "static", 0x5e00e91f4b070d67),
    ("pvops_multiverse.c", "default", 0x17cc645652034d43),
    ("pvops_multiverse.c", "dynamic", 0x49b33a94bb8824e8),
    ("pvops_multiverse.c", "static", 0xdf49fc565d9c653c),
    ("pvops_ifdef.c", "default", 0x3f46f83bc1f16dee),
    ("pvops_ifdef.c", "dynamic", 0x3f46f83bc1f16dee),
    ("pvops_ifdef.c", "static", 0x3f46f83bc1f16dee),
    ("smp_contention.c", "default", 0x002a22c5d51a76fc),
    ("smp_contention.c", "dynamic", 0x7947547e4b19f619),
    ("smp_contention.c", "static", 0xdf3a7b366f79c5b5),
    ("spinlock.c", "default", 0x8df389ad5027df69),
    ("spinlock.c", "dynamic", 0x24697a14c1c6db93),
    ("spinlock.c", "static", 0x9e288bf2f8b34946),
    ("grid_4x2^3.c", "default", 0xfc7969e1b821bacc),
    ("grid_4x2^3.c", "dynamic", 0xea7ff448ad1c5f3e),
    ("grid_4x2^3.c", "static", 0x71d8c91983e5020d),
    ("grid_4x2^5.c", "default", 0xc0738a0df6d40af4),
    ("grid_4x2^5.c", "dynamic", 0xd8f66d91bfa49b8b),
    ("grid_4x2^5.c", "static", 0xe544e1efd6f1f2aa),
    ("grid_4x3^4.c", "default", 0xcf62f3a7bf0688b5),
    ("grid_4x3^4.c", "dynamic", 0x32716f3756c0af17),
    ("grid_4x3^4.c", "static", 0x2a89960c23b8e72e),
    ("grid_8x2^6.c", "default", 0xc33b02b68fceeb40),
    ("grid_8x2^6.c", "dynamic", 0x71456b9913bab806),
    ("grid_8x2^6.c", "static", 0x153d2c571c1605d6),
    ("grid_16x3^4.c", "default", 0x727a5c64a3cede17),
    ("grid_16x3^4.c", "dynamic", 0xef2057dec6ce353d),
    ("grid_16x3^4.c", "static", 0xea1ed86d44394034),
];

/// Every workload source and E14 grid compiles to the recorded object,
/// under `Options::default()`, `Options::dynamic()` and a static build.
#[test]
fn objects_match_the_fingerprint_golden() {
    let mut got = Vec::new();
    for (unit, src, limit) in golden_units() {
        let modes = [
            ("default", Options::default()),
            ("dynamic", Options::dynamic()),
            ("static", static_options(&src)),
        ];
        for (mode, base) in modes {
            let opts = Options {
                variant_limit: limit,
                ..base
            };
            let (obj, _) = Pipeline::new(opts)
                .compile_unit(&src, &unit)
                .unwrap_or_else(|e| panic!("{unit} ({mode}): {e}"));
            got.push((unit.clone(), mode, obj.fingerprint()));
        }
    }
    let table: String = got
        .iter()
        .map(|(unit, mode, fp)| format!("    (\"{unit}\", \"{mode}\", {fp:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), FINGERPRINTS.len(), "golden rows:\n{table}");
    for ((unit, mode, fp), &(g_unit, g_mode, g_fp)) in got.iter().zip(FINGERPRINTS) {
        assert_eq!(
            (unit.as_str(), *mode),
            (g_unit, g_mode),
            "golden rows:\n{table}"
        );
        assert_eq!(*fp, g_fp, "{unit} ({mode}): object changed; rows:\n{table}");
    }
}
