//! `grep_scan`: mini-grep (§6.2.3) counting `a.a` over a seeded hex
//! corpus, checked against `textgen::count_a_any_a`.
//!
//! Why: the same `mvvm` layer as `musl_calls` used the other way — one
//! long load-heavy loop in one function with few calls, so superblocks
//! and native regions pay off on loops rather than on calls. Compile and
//! commit are negligible next to the scan.

use crate::harness::{
    check_tiers, explore, flip_cycle, guest_counters, run_rep, setup, tier_world, Boot, Cfg, Obs,
    Rec, Workload, TIERS,
};
use multiverse::mvc::Options;
use multiverse::mvvm::ExecTier;
use multiverse::mvvx::ConfigSpace;
use multiverse::{Program, World};
use mv_workloads::{grep, textgen};

const STEADY: [(&str, i64); 1] = [("mb_mode", 0)];
const MULTIBYTE: [(&str, i64); 1] = [("mb_mode", 1)];

struct GrepScan {
    reference: bool,
    program: Program,
    image: u64,
    corpus: Vec<u8>,
    matches: u64,
    explore_len: usize,
    flips: usize,
    worlds: Vec<World>,
    dynamic: Option<World>,
    reconf: World,
    explore: World,
    space: ConfigSpace,
}

fn write_corpus(w: &mut World, corpus: &[u8]) {
    let addr = w.sym("haystack").expect("grep defines haystack");
    w.machine
        .mem
        .write(addr, corpus)
        .expect("haystack is mapped");
}

pub fn build(seed: u64, cfg: Cfg) -> Box<dyn Workload> {
    let (len, explore_len, flips) = if cfg.quick {
        (1024, 256, 2)
    } else {
        (32 << 10, 2048, 64)
    };
    let corpus = textgen::hex_corpus(len, seed);
    let program = Program::build(&[("grep.c", grep::SRC)]).expect("mini-grep compiles");
    let prepare = |w: &mut World| write_corpus(w, &corpus);
    let worlds = TIERS
        .iter()
        .map(|&t| tier_world(&program, t, prepare, &STEADY, &["grep_all"]))
        .collect();
    let dynamic = cfg.reference.then(|| {
        let p = Program::build_with(&[("grep.c", grep::SRC)], &Options::dynamic())
            .expect("dynamic mini-grep compiles");
        tier_world(&p, ExecTier::Tierless, prepare, &STEADY, &[])
    });
    let reconf = tier_world(&program, ExecTier::Tierless, prepare, &STEADY, &[]);
    let mut explore = program.boot();
    write_corpus(&mut explore, &corpus);
    let space = explore.config_space().expect("switch domains recover");
    Box::new(GrepScan {
        reference: cfg.reference,
        image: program.image_size(),
        program,
        matches: textgen::count_a_any_a(&corpus),
        corpus,
        explore_len,
        flips,
        worlds,
        dynamic,
        reconf,
        explore,
        space,
    })
}

impl Workload for GrepScan {
    fn reference_rounds(&self) -> u64 {
        3
    }

    fn epoch_rounds(&self) -> u64 {
        6
    }

    fn round(&mut self, r: u64, rec: &mut Rec) {
        setup(
            rec,
            grep::SRC,
            &Options::default(),
            Boot::Uni,
            &STEADY,
            self.image,
        );

        // The locale changes to multibyte and back.
        flip_cycle(rec, &mut self.reconf, &MULTIBYTE, &STEADY, self.flips);

        let len = [self.corpus.len() as u64];
        let obs: Vec<Option<Obs>> = TIERS
            .iter()
            .zip(&mut self.worlds)
            .map(|(&t, w)| {
                rec.phase(&format!("run.{t}"), |rec| {
                    run_rep(rec, w, t, r == 0, "grep_all", &len)
                })
            })
            .collect();
        let matches = self.matches;
        check_tiers(rec, &obs, |o| o.result == [matches]);
        if let Some(o) = &obs[0] {
            guest_counters(rec, "guest_cycles_per_op", o, 1, true);
        }
        if let Some(w) = &mut self.dynamic {
            if let Some(o) = run_rep(rec, w, ExecTier::Tierless, true, "grep_all", &len) {
                rec.check(o.result == [matches], || "dynamic build diverged".into());
                guest_counters(rec, "guest_cycles_per_op.dynamic", &o, 1, false);
            }
        }

        let (program, corpus) = (&self.program, &self.corpus);
        let replay = || {
            let mut w = program.boot();
            write_corpus(&mut w, corpus);
            Ok::<_, multiverse::BuildError>(w)
        };
        let prefix = textgen::count_a_any_a(&corpus[..self.explore_len]);
        explore(
            rec,
            &self.explore,
            &self.space,
            "grep_all",
            &[self.explore_len as u64],
            |leaf| leaf.exit == prefix,
            (self.reference && r == 0).then_some(&replay as _),
        );
    }
}
