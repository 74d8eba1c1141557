//! Model-based property test of the run-time library: arbitrary
//! interleavings of switch writes, commits, reverts, per-function and
//! per-switch operations must always leave every function computing what
//! an abstract binding model predicts — and a final universal revert must
//! restore the text segment byte-for-byte.

use multiverse::{mvvx, Program, World};
use proptest::prelude::*;

const SRC: &str = r#"
    multiverse(0, 1, 2) i32 a_;
    multiverse(0, 1) i32 b_;

    multiverse i64 f1(void) { return a_ * 10 + 1; }
    multiverse i64 f2(void) { return b_ * 100 + 2; }
    multiverse i64 f3(void) { return a_ * 1000 + b_ * 10000; }

    i64 main(void) { return 0; }
"#;

/// Operations the fuzzer may apply.
#[derive(Clone, Copy, Debug)]
enum Op {
    SetA(i64),
    SetB(i64),
    Commit,
    Revert,
    CommitFunc(u8),
    RevertFunc(u8),
    CommitRefsA,
    CommitRefsB,
    RevertRefsA,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..5).prop_map(Op::SetA), // 3, 4 are out of domain
        (0i64..4).prop_map(Op::SetB), // 2, 3 are out of domain
        Just(Op::Commit),
        Just(Op::Revert),
        (0u8..3).prop_map(Op::CommitFunc),
        (0u8..3).prop_map(Op::RevertFunc),
        Just(Op::CommitRefsA),
        Just(Op::CommitRefsB),
        Just(Op::RevertRefsA),
    ]
}

/// The abstract model: per function, the switch values it is bound to
/// (`None` = generic, evaluates dynamically).
#[derive(Default)]
struct Model {
    a: i64,
    b: i64,
    /// Bound (a, b) per function, if committed.
    bound: [Option<(i64, i64)>; 3],
}

impl Model {
    fn in_domain_a(&self) -> bool {
        (0..=2).contains(&self.a)
    }
    fn in_domain_b(&self) -> bool {
        (0..=1).contains(&self.b)
    }

    /// Commit semantics for one function: bind if the referenced switches
    /// are in domain, else fall back to generic.
    fn commit_fn(&mut self, i: usize) {
        let ok = match i {
            0 => self.in_domain_a(),
            1 => self.in_domain_b(),
            _ => self.in_domain_a() && self.in_domain_b(),
        };
        self.bound[i] = ok.then_some((self.a, self.b));
    }

    fn expected(&self, i: usize) -> i64 {
        let (a, b) = self.bound[i].unwrap_or((self.a, self.b));
        match i {
            0 => a * 10 + 1,
            1 => b * 100 + 2,
            _ => a * 1000 + b * 10000,
        }
    }
}

const FNS: [&str; 3] = ["f1", "f2", "f3"];
/// Which functions reference which switch (f1: a, f2: b, f3: both).
const REFS_A: [usize; 2] = [0, 2];
const REFS_B: [usize; 2] = [1, 2];

fn apply(world: &mut World, model: &mut Model, op: Op) {
    match op {
        Op::SetA(v) => {
            world.set("a_", v).unwrap();
            model.a = v;
        }
        Op::SetB(v) => {
            world.set("b_", v).unwrap();
            model.b = v;
        }
        Op::Commit => {
            world.commit().unwrap();
            for i in 0..3 {
                model.commit_fn(i);
            }
        }
        Op::Revert => {
            world.revert().unwrap();
            model.bound = [None; 3];
        }
        Op::CommitFunc(i) => {
            world.commit_func(FNS[i as usize]).unwrap();
            model.commit_fn(i as usize);
        }
        Op::RevertFunc(i) => {
            let addr = world.sym(FNS[i as usize]).unwrap();
            let rt = world.rt.as_mut().unwrap();
            rt.revert_func(&mut world.machine, addr).unwrap();
            model.bound[i as usize] = None;
        }
        Op::CommitRefsA => {
            world.commit_refs("a_").unwrap();
            for i in REFS_A {
                model.commit_fn(i);
            }
        }
        Op::CommitRefsB => {
            world.commit_refs("b_").unwrap();
            for i in REFS_B {
                model.commit_fn(i);
            }
        }
        Op::RevertRefsA => {
            let addr = world.sym("a_").unwrap();
            let rt = world.rt.as_mut().unwrap();
            rt.revert_refs(&mut world.machine, addr).unwrap();
            for i in REFS_A {
                model.bound[i] = None;
            }
        }
    }
}

/// The fault-schedule dimension: for **every** position of every fault
/// op in a multi-function commit, an injected fault must surface as
/// `Err` with the text segment byte-identical to its pre-commit state —
/// and once the (one-shot) fault heals, the identical commit succeeds.
#[test]
fn fault_schedule_sweep_preserves_atomicity() {
    use multiverse::mvrt::CommitPhase;
    use multiverse::mvvm::{FaultOp, FaultPlan};

    // Like SRC, but with callers so the commit also patches recorded
    // call sites — more positions for the schedule to hit.
    const SWEEP_SRC: &str = r#"
        multiverse(0, 1, 2) i32 a_;
        multiverse(0, 1) i32 b_;

        multiverse i64 f1(void) { return a_ * 10 + 1; }
        multiverse i64 f2(void) { return b_ * 100 + 2; }
        multiverse i64 f3(void) { return a_ * 1000 + b_ * 10000; }

        i64 g1(void) { return f1(); }
        i64 g2(void) { return f2(); }
        i64 g3(void) { return f1() + f3(); }

        i64 main(void) { return 0; }
    "#;
    let program = Program::build(&[("t.c", SWEEP_SRC)]).unwrap();
    let (taddr, tsize) = program.exe().section(multiverse::mvobj::SEC_TEXT);
    let text = |world: &World| world.machine.mem.read_vec(taddr, tsize as usize).unwrap();
    let boot_configured = || {
        let mut world = program.boot();
        world.set("a_", 1).unwrap();
        world.set("b_", 1).unwrap();
        world
    };

    // Probe: count the ops one clean full commit performs.
    let mut probe = boot_configured();
    probe.commit().unwrap();
    let d = probe.rt.as_ref().unwrap().stats;
    let schedule = [
        (FaultOp::TextWrite, d.journal_entries), // every text write journals
        (FaultOp::Mprotect, d.mprotects),
        (FaultOp::IcacheFlush, d.icache_flushes),
    ];
    assert!(
        d.journal_entries >= 4,
        "need a multi-write commit to sweep meaningfully ({} writes)",
        d.journal_entries
    );

    for (op, count) in schedule {
        for n in 1..=count {
            let mut world = boot_configured();
            let pristine = text(&world);

            world.machine.inject_fault(FaultPlan::new(op, n));
            let err = world
                .commit()
                .expect_err(&format!("{op:?} fault at position {n} must surface"));
            let rt_err = match &err {
                multiverse::BuildError::Rt(e) => e,
                other => panic!("unexpected error {other:?}"),
            };
            assert_eq!(
                rt_err.commit_phase(),
                Some(CommitPhase::Apply),
                "{op:?}@{n}: {rt_err:?}"
            );
            assert!(rt_err.is_transient(), "{op:?}@{n}: {rt_err:?}");
            assert_eq!(
                text(&world),
                pristine,
                "{op:?} fault at position {n} tore the text segment"
            );
            let rt = world.rt.as_ref().unwrap();
            assert_eq!(rt.stats.rollbacks, 1, "{op:?}@{n}");

            // The functions still behave generically (nothing committed).
            assert_eq!(world.call("f1", &[]).unwrap() as i64, 11);
            assert_eq!(world.call("f2", &[]).unwrap() as i64, 102);

            // One-shot fault has fired; the identical commit now succeeds
            // and the committed image behaves identically.
            let report = world.commit().unwrap();
            assert_eq!(report.variants_committed, 3, "{op:?}@{n}");
            assert_ne!(text(&world), pristine);
            assert_eq!(world.call("f1", &[]).unwrap() as i64, 11);
            assert_eq!(world.call("f2", &[]).unwrap() as i64, 102);
            assert_eq!(world.call("f3", &[]).unwrap() as i64, 11000);
        }
    }
}

/// What the model predicts `FNS[i]` returns in the world-as-patched when
/// the switch *cells* hold `(a, b)`: committed functions ignore the
/// cells (their values are burned into the specialist), generics read
/// them dynamically.
fn expected_at(model: &Model, i: usize, a: i64, b: i64) -> i64 {
    let (a, b) = model.bound[i].unwrap_or((a, b));
    match i {
        0 => a * 10 + 1,
        1 => b * 100 + 2,
        _ => a * 1000 + b * 10000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_patching_sequences_match_the_model(
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let program = Program::build(&[("t.c", SRC)]).unwrap();
        let mut world = program.boot();
        let (taddr, tsize) = program.exe().section(multiverse::mvobj::SEC_TEXT);
        let pristine = world.machine.mem.read_vec(taddr, tsize as usize).unwrap();

        // The declared cross product, built by hand: the sequence may
        // park the *cells* out of domain (a_=3), which must not leak
        // into the leaf enumeration.
        let domain = |name: &str, hi: i64| mvvx::SwitchDomain {
            name: name.into(),
            addr: world.sym(name).unwrap(),
            width: 4,
            signed: true,
            values: (0..=hi).collect(),
        };
        let space =
            mvvx::ConfigSpace::new(vec![domain("a_", 2), domain("b_", 1)]).unwrap();
        prop_assert_eq!(space.leaf_count(), 6);

        let mut model = Model::default();
        for (n, &op) in ops.iter().enumerate() {
            apply(&mut world, &mut model, op);

            // Cross-check the patched image against the model over the
            // WHOLE declared cross product in one variational pass per
            // function: committed bindings must be leaf-invariant,
            // generic bodies must track each leaf's cell values.
            #[allow(clippy::needless_range_loop)] // index is shared with the model
            for i in 0..3 {
                let report = world.vexec_in(&space, FNS[i], &[]).unwrap();
                prop_assert_eq!(report.leaves.len(), 6);
                for leaf in &report.leaves {
                    let (la, lb) = (leaf.assignment[0].1, leaf.assignment[1].1);
                    prop_assert_eq!(
                        leaf.exit as i64,
                        expected_at(&model, i, la, lb),
                        "{} at leaf (a_={}, b_={}) after {:?} (history {:?})",
                        FNS[i], la, lb, op, ops
                    );
                }
            }

            // Sampled direct rerun as the fallback oracle: one rotating
            // function per op, run with the *actual* cell values — this
            // is the only path that exercises out-of-domain cells.
            let i = n % 3;
            let got = world.call(FNS[i], &[]).unwrap() as i64;
            prop_assert_eq!(
                got,
                model.expected(i),
                "{} after {:?} (history {:?})",
                FNS[i],
                op,
                ops
            );
        }

        // A final universal revert restores the pristine text segment.
        world.revert().unwrap();
        let restored = world.machine.mem.read_vec(taddr, tsize as usize).unwrap();
        prop_assert_eq!(pristine, restored);
    }
}

/// One full SMP contention run with quiesced flips: returns the final
/// text image, the per-vCPU cycle counters and the shared counter.
fn smp_flip_run(
    program: &Program,
    vcpus: usize,
    seed: u64,
    strategy: multiverse::mvrt::CommitStrategy,
    flips: usize,
    tier: multiverse::mvvm::ExecTier,
) -> (Vec<u8>, Vec<u64>, i64) {
    const ITERS: u64 = 64;
    let (taddr, tsize) = program.exe().section(multiverse::mvobj::SEC_TEXT);
    let mut w = program.boot_smp(vcpus);
    w.smp.set_seed(seed);
    w.set_tier(tier);
    w.set("config_smp", 1).unwrap();
    w.spawn_all("worker", &[ITERS]).unwrap();
    let mut committed = false;
    for _ in 0..flips {
        for _ in 0..4 {
            w.smp.step_round();
        }
        if committed {
            w.revert_quiesced(strategy).unwrap();
        } else {
            w.commit_quiesced(strategy).unwrap();
        }
        committed = !committed;
    }
    w.run(10_000_000).unwrap();
    let text = w.smp.machine.mem.read_vec(taddr, tsize as usize).unwrap();
    let cycles = (0..vcpus).map(|i| w.smp.cycles_of(i)).collect();
    (text, cycles, w.get("counter").unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// SMP extension of the model fuzz: at random vCPU counts (2–8),
    /// random scheduler seeds, random quiesced flip counts and a random
    /// execution tier, under both protocols, the machine must land
    /// byte-identical to a single-core world applying the same
    /// commit/revert sequence, the locked counter must stay exact — and
    /// the same seed must reproduce the same interleaving
    /// cycle-for-cycle, with the tiered run indistinguishable from the
    /// tierless one.
    #[test]
    fn smp_quiesced_flips_match_single_core_image(
        vcpus in 2usize..=8,
        seed in any::<u64>(),
        breakpoint in any::<bool>(),
        flips in 1usize..5,
        tier_idx in 0usize..4,
    ) {
        use multiverse::mvrt::CommitStrategy;
        use multiverse::mvvm::ExecTier;
        use mv_workloads::smp_contention;

        let strategy = if breakpoint {
            CommitStrategy::Breakpoint
        } else {
            CommitStrategy::StopMachine
        };
        let tier = [
            ExecTier::Tierless,
            ExecTier::Block,
            ExecTier::Superblock,
            ExecTier::Native,
        ][tier_idx];
        let program = smp_contention::build().unwrap();
        let (text, cycles, counter) = smp_flip_run(&program, vcpus, seed, strategy, flips, tier);
        prop_assert_eq!(counter, (vcpus as i64) * 64, "lost a locked increment");

        // Single-core twin: same commit/revert sequence on an idle world.
        let (taddr, tsize) = program.exe().section(multiverse::mvobj::SEC_TEXT);
        let mut sw = program.boot();
        sw.set("config_smp", 1).unwrap();
        let mut committed = false;
        for _ in 0..flips {
            if committed {
                sw.revert().unwrap();
            } else {
                sw.commit().unwrap();
            }
            committed = !committed;
        }
        let single = sw.machine.mem.read_vec(taddr, tsize as usize).unwrap();
        prop_assert_eq!(&text, &single, "SMP image diverged from single-core");

        // Determinism: replaying the identical seed reproduces the exact
        // interleaving (identical per-vCPU cycle counters and image) —
        // and the tierless twin of a tiered run must be byte- and
        // cycle-identical, the differential oracle for the block engine.
        let twin = if tier == ExecTier::Tierless { tier } else { ExecTier::Tierless };
        let (text2, cycles2, counter2) = smp_flip_run(&program, vcpus, seed, strategy, flips, twin);
        prop_assert_eq!(text, text2);
        prop_assert_eq!(cycles, cycles2);
        prop_assert_eq!(counter, counter2);
    }
}
