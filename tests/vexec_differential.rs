//! Differential testing of the variational execution engine: every
//! workload kernel runs under `vexec` (the whole switch cross product in
//! one pass) and the per-leaf observations are replayed through both
//! trusted paths — generic enumeration (full architectural state) and
//! the committed-variant oracle (black-box exit + output).
//!
//! The proptest at the bottom closes the loop from the other side:
//! random straight-line-plus-branch programs over random switch domains
//! must split and re-join to *exactly* |cross product| leaves, each
//! computing what a Rust oracle predicts and reporting exactly the
//! global stores it predicts, byte by byte: the programs also read and
//! write the same global through byte and word pointers, so variational
//! and concrete bytes meet inside one 8-byte slot.

use multiverse::mvvm::{CostModel, MachineConfig, Platform};
use multiverse::mvvx;
use multiverse::{enumerate_check_with, oracle_check_with, BuildError, Program, World};
use mv_workloads::{
    alternative, commit_storm, cpython, grep, musl, pvops, smp_contention, spinlock,
};
use proptest::prelude::*;

/// Runs `func(args...)` variationally on a world produced by `boot`,
/// then replays every leaf through enumeration and the commit oracle.
/// Returns the pass statistics for workload-specific assertions.
fn differential<F>(boot: F, func: &str, args: &[u64]) -> multiverse::mvvx::VexecStats
where
    F: Fn() -> Result<World, BuildError>,
{
    let w = boot().unwrap();
    let space = w.config_space().unwrap();
    let report = w.vexec_in(&space, func, args).unwrap();
    assert_eq!(
        report.leaves.len(),
        space.leaf_count(),
        "{func}: pass must cover the full cross product"
    );
    let chk = enumerate_check_with(&boot, &space, func, args, &report).unwrap();
    assert_eq!(chk.leaves_checked, space.leaf_count());
    assert!(
        chk.insns >= report.stats.steps,
        "{func}: enumeration ({}) cannot be cheaper than the shared pass ({})",
        chk.insns,
        report.stats.steps
    );
    oracle_check_with(&boot, &space, func, args, &report).unwrap();
    report.stats
}

#[test]
fn spinlock_kernel() {
    let p = spinlock::build(spinlock::KernelBuild::ElisionMultiverse).unwrap();
    let stats = differential(|| Ok(p.boot()), "lock_unlock", &[]);
    // `if (config_smp)` forces one split per lock function.
    assert!(stats.splits >= 2, "stats: {stats:?}");
}

#[test]
fn cpython_kernel() {
    let p = Program::build(&[("cpython.c", cpython::SRC)]).unwrap();
    let stats = differential(|| Ok(p.boot()), "bench_alloc", &[40]);
    // The allocation loop is shared; only the GC bookkeeping diverges,
    // so one shared step must stand for well over one leaf on average.
    assert!(stats.shared_prefix_ratio() > 1.5, "stats: {stats:?}");
}

#[test]
fn grep_kernel() {
    let corpus = mv_workloads::textgen::hex_corpus(2048, 7);
    let boot = || {
        grep::boot(grep::GrepBuild::With, &corpus, false).and_then(|mut w| {
            // `grep::boot` commits the matcher; revert so the vexec base
            // image and the enumerate replays run the generic bodies
            // (the oracle path re-commits per leaf on its own).
            w.revert()?;
            Ok(w)
        })
    };
    let stats = differential(boot, "grep_all", &[512]);
    assert!(
        stats.joins > 0,
        "line loop must re-join per call: {stats:?}"
    );
}

#[test]
fn musl_kernel() {
    let p = Program::build(&[("musl.c", musl::SRC)]).unwrap();
    differential(|| Ok(p.boot()), "random_", &[]);
    differential(|| Ok(p.boot()), "malloc_", &[24]);
}

#[test]
fn alternative_kernel() {
    let p = Program::build(&[("alternative.c", alternative::SRC)]).unwrap();
    differential(|| Ok(p.boot()), "copy_from_user", &[16]);
}

#[test]
fn pvops_kernel_on_both_platforms() {
    let p = Program::build(&[("pvops.c", pvops::SRC_MULTIVERSE)]).unwrap();
    for platform in [Platform::Native, Platform::XenGuest] {
        let boot = || {
            Ok(p.boot_with(
                CostModel::default(),
                MachineConfig {
                    platform,
                    ..MachineConfig::default()
                },
            ))
        };
        differential(boot, "irq_toggle", &[]);
    }
}

#[test]
fn smp_contention_kernel_single_core() {
    let p = smp_contention::build().unwrap();
    let stats = differential(|| Ok(p.boot()), "worker", &[8]);
    // The worker's callees split on config_smp and re-join at return;
    // sharing must beat enumeration even at two leaves.
    assert!(stats.joins > 0, "stats: {stats:?}");
    assert!(stats.shared_prefix_ratio() > 1.2, "stats: {stats:?}");
}

#[test]
fn commit_storm_kernel_splits_and_rejoins_per_callee() {
    let p = commit_storm::build().unwrap();
    let stats = differential(|| Ok(p.boot()), "worker", &[4]);
    // Three independent bool switches: 8 leaves, but the splits happen
    // inside fa/fb/fc and re-join at each return, so the pass never
    // holds 8 contexts at once.
    assert_eq!(stats.leaf_count, 8);
    assert!(stats.joins > 0, "stats: {stats:?}");
    assert!(stats.max_live < 8, "stats: {stats:?}");
}

// ---------------------------------------------------------------------------
// Random-program property: exact cross-product coverage.
// ---------------------------------------------------------------------------

/// One statement of a generated straight-line-plus-branch kernel.
#[derive(Clone, Copy, Debug)]
enum S {
    AddConst(i8),
    MulConst(i8),
    AddSwitchA,
    AddSwitchB,
    /// `if (a_ == v) { acc = acc + k; }` with `v` reduced into domain.
    IfA(u8, i8),
    IfB(u8, i8),
    /// `buf[k] = acc;` with `k` reduced to a slot.
    Store(u8),
    /// `acc = acc + buf[k];`
    Load(u8),
    /// `if (a_ == v) { buf[k] = acc; }`
    StoreIfA(u8, u8),
    /// `acc = acc + bytes[k];` through `u8* bytes = &buf`.
    LoadByte(u8),
    /// `acc = acc + words[k];` through `i32* words = &buf`.
    LoadWord(u8),
    /// `bytes[k] = acc;`: the low byte of `acc`, into part of a slot.
    StoreByte(u8),
}

/// Slots of the generated kernel's global `i64 buf[]`.
const SLOTS: usize = 4;

/// Bytes of `buf`.
const BYTES: usize = 8 * SLOTS;

fn arb_stmt() -> impl Strategy<Value = S> {
    prop_oneof![
        any::<i8>().prop_map(S::AddConst),
        (-3i8..4).prop_map(S::MulConst),
        Just(S::AddSwitchA),
        Just(S::AddSwitchB),
        (any::<u8>(), any::<i8>()).prop_map(|(v, k)| S::IfA(v, k)),
        (any::<u8>(), any::<i8>()).prop_map(|(v, k)| S::IfB(v, k)),
        any::<u8>().prop_map(S::Store),
        any::<u8>().prop_map(S::Load),
        (any::<u8>(), any::<u8>()).prop_map(|(v, k)| S::StoreIfA(v, k)),
        any::<u8>().prop_map(S::LoadByte),
        any::<u8>().prop_map(S::LoadWord),
        any::<u8>().prop_map(S::StoreByte),
    ]
}

fn render(stmts: &[S], da: usize, db: usize) -> String {
    let dom = |n: usize| (0..n).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    let mut body = String::new();
    for s in stmts {
        let line = match *s {
            S::AddConst(k) => format!("acc = acc + {k};"),
            S::MulConst(k) => format!("acc = acc * {k};"),
            S::AddSwitchA => "acc = acc + a_;".into(),
            S::AddSwitchB => "acc = acc + b_;".into(),
            S::IfA(v, k) => format!("if (a_ == {}) {{ acc = acc + {k}; }}", v as usize % da),
            S::IfB(v, k) => format!("if (b_ == {}) {{ acc = acc + {k}; }}", v as usize % db),
            S::Store(k) => format!("buf[{}] = acc;", k as usize % SLOTS),
            S::Load(k) => format!("acc = acc + buf[{}];", k as usize % SLOTS),
            S::StoreIfA(v, k) => format!(
                "if (a_ == {}) {{ buf[{}] = acc; }}",
                v as usize % da,
                k as usize % SLOTS
            ),
            S::LoadByte(k) => format!("acc = acc + bytes[{}];", k as usize % BYTES),
            S::LoadWord(k) => format!("acc = acc + words[{}];", k as usize % (BYTES / 4)),
            S::StoreByte(k) => format!("bytes[{}] = acc;", k as usize % BYTES),
        };
        body.push_str(&line);
        body.push('\n');
    }
    format!(
        r#"
        multiverse({}) i32 a_;
        multiverse({}) i32 b_;
        i64 buf[{SLOTS}];
        u8* bytes = &buf;
        i32* words = &buf;
        multiverse i64 kernel(i64 x) {{
            i64 acc = x;
            {body}
            return acc;
        }}
        i64 main(void) {{ return 0; }}
        "#,
        dom(da),
        dom(db)
    )
}

/// The kernel's result and the final value of every `buf` byte it
/// stored (`None`: never stored, so still zero).
fn eval(stmts: &[S], da: usize, db: usize, a: i64, b: i64, x: i64) -> (i64, [Option<u8>; BYTES]) {
    let mut acc = x;
    let mut buf = [None; BYTES];
    let read = |buf: &[Option<u8>; BYTES], at: usize, n: usize| -> u64 {
        (0..n)
            .rev()
            .fold(0, |v, j| (v << 8) | buf[at + j].unwrap_or(0) as u64)
    };
    for s in stmts {
        let slot = |k: u8| 8 * (k as usize % SLOTS);
        let stored = match *s {
            S::Store(k) => Some(k),
            S::StoreIfA(v, k) if a == (v as usize % da) as i64 => Some(k),
            S::StoreByte(k) => {
                buf[k as usize % BYTES] = Some(acc as u8);
                None
            }
            _ => None,
        };
        if let Some(k) = stored {
            buf[slot(k)..slot(k) + 8].copy_from_slice(&acc.to_le_bytes().map(Some));
        }
        acc = match *s {
            S::AddConst(k) => acc.wrapping_add(k as i64),
            S::MulConst(k) => acc.wrapping_mul(k as i64),
            S::AddSwitchA => acc.wrapping_add(a),
            S::AddSwitchB => acc.wrapping_add(b),
            S::IfA(v, k) if a == (v as usize % da) as i64 => acc.wrapping_add(k as i64),
            S::IfB(v, k) if b == (v as usize % db) as i64 => acc.wrapping_add(k as i64),
            S::Load(k) => acc.wrapping_add(read(&buf, slot(k), 8) as i64),
            S::LoadByte(k) => acc.wrapping_add(read(&buf, k as usize % BYTES, 1) as i64),
            S::LoadWord(k) => {
                let at = 4 * (k as usize % (BYTES / 4));
                acc.wrapping_add(read(&buf, at, 4) as u32 as i32 as i64)
            }
            _ => acc,
        };
    }
    (acc, buf)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Splits and joins must multiply out to *exactly* the cross
    /// product: every leaf present once, every exit and every stored
    /// `buf` byte equal to the Rust oracle, no unstored byte reported
    /// written, and the enumeration replay agrees on every reported
    /// component.
    #[test]
    fn random_programs_cover_the_exact_cross_product(
        da in 2usize..4,
        db in 2usize..4,
        stmts in proptest::collection::vec(arb_stmt(), 1..10),
        x in -4i64..5,
    ) {
        let src = render(&stmts, da, db);
        let p = Program::build(&[("gen.c", &src)]).unwrap();
        let w = p.boot();
        // Build the space by hand: the recovered space only covers
        // switches some variant actually guards on, while this property
        // is about the declared cross product — including switches the
        // random program never reads.
        let domain = |name: &str, n: usize| mvvx::SwitchDomain {
            name: name.into(),
            addr: w.sym(name).unwrap(),
            width: 4,
            signed: true,
            values: (0..n as i64).collect(),
        };
        let space = mvvx::ConfigSpace::new(vec![domain("a_", da), domain("b_", db)]).unwrap();
        prop_assert_eq!(space.leaf_count(), da * db, "src:\n{}", src);
        let report = w.vexec_in(&space, "kernel", &[x as u64]).unwrap();
        prop_assert_eq!(report.leaves.len(), da * db);
        let buf = w.sym("buf").unwrap();
        for leaf in &report.leaves {
            let a = leaf.assignment.iter().find(|(n, _)| n == "a_").unwrap().1;
            let b = leaf.assignment.iter().find(|(n, _)| n == "b_").unwrap().1;
            let (exit, bytes) = eval(&stmts, da, db, a, b, x);
            prop_assert_eq!(
                leaf.exit, exit as u64,
                "leaf {} (a_={}, b_={}) of:\n{}", leaf.leaf, a, b, src
            );
            for (k, byte) in bytes.iter().enumerate() {
                let at = buf + k as u64;
                let seen: Vec<(u64, u8)> =
                    leaf.writes.iter().filter(|(addr, _)| *addr == at).copied().collect();
                let want: Vec<(u64, u8)> = byte.iter().map(|&b| (at, b)).collect();
                prop_assert_eq!(
                    seen, want,
                    "leaf {} (a_={}, b_={}), byte {} of buf in:\n{}", leaf.leaf, a, b, k, src
                );
            }
        }
        let chk = multiverse::enumerate_check(&p, &space, "kernel", &[x as u64], &report).unwrap();
        prop_assert_eq!(chk.leaves_checked, da * db);
    }
}
