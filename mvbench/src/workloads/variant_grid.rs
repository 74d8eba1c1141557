//! `variant_grid`: the E14/E16 grid — 16 multiversed functions over four
//! switches of domain {0, 1, 2}, 1296 clones merged into 256 variants
//! over 81 leaf configurations. Every round commits a seeded leaf on
//! every tier, checks `main` against a Rust formula, and runs one
//! variational pass over the whole cross product.
//!
//! Why: compile-dominated (cold compile of 1296 clones) and
//! vexec-dominated, with commits that touch many functions with few
//! sites each — the opposite commit shape to `kernel_flip`.

use crate::harness::{
    check_tiers, explore, guest_counters, lower_roots, patch, run_rep, set_all, setup, tier_world,
    Boot, Cfg, Obs, PatchOp, Rec, Workload, TIERS,
};
use multiverse::mvc::Options;
use multiverse::mvvm::ExecTier;
use multiverse::mvvx::ConfigSpace;
use multiverse::{Program, World};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::fmt::Write as _;

const SWITCHES: usize = 4;
const DOMAIN: i64 = 3;
const LEAF_COMMITS: usize = 4;

/// `funcs` multiversed functions, each adding a distinct power-of-two
/// multiple for every non-zero switch (so all non-zero values of a
/// switch merge into one variant), `main` summing them all, and a
/// `main_loop` calling `main` `k` times.
fn grid_src(funcs: usize) -> String {
    let mut src = String::new();
    for s in 0..SWITCHES {
        let _ = writeln!(src, "multiverse(0, 1, 2) i32 s{s};");
    }
    for f in 0..funcs {
        let _ = writeln!(src, "multiverse i64 f{f}(void) {{\n    i64 acc = {f};");
        for s in 0..SWITCHES {
            let _ = writeln!(src, "    if (s{s}) {{ acc = acc + {}; }}", (f + 1) << s);
        }
        let _ = writeln!(src, "    return acc;\n}}");
    }
    let calls: Vec<String> = (0..funcs).map(|f| format!("f{f}()")).collect();
    let _ = writeln!(
        src,
        "i64 main(void) {{ return {}; }}\n\
         i64 main_loop(i64 k) {{\n    i64 acc = 0;\n    while (k > 0) {{\n        \
         acc = acc + main();\n        k = k - 1;\n    }}\n    return acc;\n}}",
        calls.join(" + ")
    );
    src
}

/// What `main` returns under switch values `leaf`.
fn formula(funcs: usize, leaf: &[i64]) -> u64 {
    (0..funcs as u64)
        .map(|f| {
            f + (0..SWITCHES)
                .filter(|&s| leaf[s] != 0)
                .map(|s| (f + 1) << s)
                .sum::<u64>()
        })
        .sum()
}

fn names() -> Vec<String> {
    (0..SWITCHES).map(|s| format!("s{s}")).collect()
}

struct VariantGrid {
    reference: bool,
    src: String,
    opts: Options,
    image: u64,
    funcs: usize,
    calls: u64,
    rng: StdRng,
    worlds: Vec<World>,
    dynamic: Option<World>,
    explore: World,
    space: ConfigSpace,
    program: Program,
}

pub fn build(seed: u64, cfg: Cfg) -> Box<dyn Workload> {
    let (funcs, calls) = if cfg.quick { (4, 4) } else { (16, 256) };
    let src = grid_src(funcs);
    let opts = Options {
        variant_limit: (DOMAIN as usize).pow(SWITCHES as u32) * 2,
        ..Options::default()
    };
    let program = Program::build_with(&[("grid.c", &src)], &opts).expect("grid compiles");
    let worlds = TIERS
        .iter()
        .map(|&t| tier_world(&program, t, |_| {}, &[], &["main_loop"]))
        .collect();
    let dynamic = cfg.reference.then(|| {
        let p = Program::build_with(&[("grid.c", &src)], &Options::dynamic())
            .expect("dynamic grid compiles");
        p.boot()
    });
    let explore = program.boot();
    let space = explore.config_space().expect("switch domains recover");
    Box::new(VariantGrid {
        reference: cfg.reference,
        image: program.image_size(),
        src,
        opts,
        funcs,
        calls,
        rng: StdRng::seed_from_u64(seed),
        worlds,
        dynamic,
        explore,
        space,
        program,
    })
}

impl Workload for VariantGrid {
    fn reference_rounds(&self) -> u64 {
        8
    }

    fn epoch_rounds(&self) -> u64 {
        16
    }

    fn round(&mut self, r: u64, rec: &mut Rec) {
        setup(rec, &self.src, &self.opts, Boot::Uni, &[], self.image);

        // Several leaf commits per round; the run checks the last leaf.
        let leaves: Vec<Vec<i64>> = (0..LEAF_COMMITS)
            .map(|_| {
                (0..SWITCHES)
                    .map(|_| self.rng.gen_range(0..DOMAIN))
                    .collect()
            })
            .collect();
        let names = names();
        let assign = |leaf: &[i64]| -> Vec<(&str, i64)> {
            names
                .iter()
                .map(String::as_str)
                .zip(leaf.iter().copied())
                .collect()
        };
        let leaf = &leaves[LEAF_COMMITS - 1];
        let k = [self.calls];
        let maintain = r % 4 == 1;
        let obs: Vec<Option<Obs>> = TIERS
            .iter()
            .zip(&mut self.worlds)
            .map(|(&t, w)| {
                rec.phase("reconfigure", |rec| {
                    for leaf in &leaves {
                        set_all(rec, w, &assign(leaf));
                        patch(rec, w, PatchOp::Commit);
                    }
                    patch(rec, w, PatchOp::Recommit);
                    if maintain {
                        patch(rec, w, PatchOp::Revert);
                        patch(rec, w, PatchOp::Restore);
                    }
                });
                rec.phase(&format!("run.{t}"), |rec| {
                    lower_roots(w, t, &["main_loop"]);
                    run_rep(rec, w, t, r == 0, "main_loop", &k)
                })
            })
            .collect();
        let expect = self.calls * formula(self.funcs, leaf);
        check_tiers(rec, &obs, |o| o.result == [expect]);
        if let Some(o) = &obs[0] {
            guest_counters(rec, "guest_cycles_per_op", o, self.calls, true);
        }
        if let Some(w) = &mut self.dynamic {
            set_all(rec, w, &assign(leaf));
            if let Some(o) = run_rep(rec, w, ExecTier::Tierless, true, "main_loop", &k) {
                rec.check(o.result == [expect], || "dynamic build diverged".into());
                guest_counters(rec, "guest_cycles_per_op.dynamic", &o, self.calls, false);
            }
        }

        let funcs = self.funcs;
        let leaf_ok = |leaf: &multiverse::mvvx::VexecLeaf| {
            let values: Vec<i64> = names
                .iter()
                .map(|n| {
                    leaf.assignment
                        .iter()
                        .find(|(s, _)| s == n)
                        .map_or(-1, |&(_, v)| v)
                })
                .collect();
            leaf.exit == formula(funcs, &values)
        };
        let program = &self.program;
        let replay = || Ok::<_, multiverse::BuildError>(program.boot());
        explore(
            rec,
            &self.explore,
            &self.space,
            "main",
            &[],
            leaf_ok,
            (self.reference && r == 0).then_some(&replay as _),
        );
    }
}
