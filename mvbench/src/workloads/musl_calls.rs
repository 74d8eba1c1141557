//! `musl_calls`: mini-musl (Fig. 5), committed single-threaded, running
//! a seeded mix of `random()`, `malloc(0)`, `malloc(1)` and `fputc()`.
//!
//! Why: a call-dense steady state through patched and inlined call
//! sites (the empty single-threaded lock bodies are erased into NOPs),
//! which loads the `mvvm` block-boundary dispatch with short blocks. Its
//! 400 KB image makes `mvvm.load_s` visible; its commits are tiny.

use crate::harness::{
    check_tiers, explore, flip_cycle, guest_counters, run_rep, setup, tier_world, Boot, Cfg, Obs,
    Rec, Workload, TIERS,
};
use multiverse::mvc::Options;
use multiverse::mvvm::ExecTier;
use multiverse::mvvx::ConfigSpace;
use multiverse::{Program, World};
use mv_workloads::musl;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// The benchmark's entry point, compiled into the same unit as mini-musl: it
/// interprets the op bytes the benchmark writes into `mix_ops`.
const MIX_SRC: &str = r#"
    u8 mix_ops[65536];

    // 0 = random(), 1 = malloc(0) + free, 2 = malloc(1) + free,
    // any other byte = fputc of that byte.
    i64 bench_mix(i64 n) {
        i64 acc = 0;
        for (i64 i = 0; i < n; i++) {
            i64 op = mix_ops[i];
            if (op == 0) {
                acc = acc + random_();
            } else if (op < 3) {
                i64 p = malloc_(op - 1);
                acc = acc + p;
                free_(p, op - 1);
            } else {
                acc = acc + fputc_(op);
            }
        }
        return acc;
    }
"#;

const STEADY: [(&str, i64); 1] = [("threads_minus_1", 0)];
const MULTI: [(&str, i64); 1] = [("threads_minus_1", 1)];

/// The chunk every `malloc(0|1)` of the mix returns: the first
/// allocation takes the arena's first chunk and each `free` hands it
/// straight back.
const FIRST_CHUNK: u64 = 16;

/// The Rust model of the library state the mix touches.
struct Model {
    rand_state: u64,
    file_buf: Vec<u8>,
}

impl Model {
    fn new() -> Model {
        Model {
            rand_state: 1,
            file_buf: Vec::new(),
        }
    }

    /// `bench_mix` over `ops`: its return value and the bytes it flushes.
    fn mix(&mut self, ops: &[u8]) -> (u64, Vec<u8>) {
        let mut acc = 0u64;
        let mut out = Vec::new();
        for &op in ops {
            let v = match op {
                0 => {
                    self.rand_state = self
                        .rand_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    self.rand_state >> 33
                }
                1 | 2 => FIRST_CHUNK,
                c => {
                    self.file_buf.push(c);
                    if self.file_buf.len() == 4096 {
                        out.append(&mut self.file_buf);
                    }
                    c as u64
                }
            };
            acc = acc.wrapping_add(v);
        }
        (acc, out)
    }
}

struct MuslCalls {
    reference: bool,
    src: String,
    program: Program,
    image: u64,
    ops: Vec<u8>,
    explore_ops: usize,
    flips: usize,
    worlds: Vec<World>,
    dynamic: Option<World>,
    reconf: World,
    explore: World,
    space: ConfigSpace,
    explore_exit: u64,
    model: Model,
    dynamic_model: Model,
}

fn write_ops(w: &mut World, ops: &[u8]) {
    let addr = w.sym("mix_ops").expect("bench_mix source defines mix_ops");
    w.machine.mem.write(addr, ops).expect("mix_ops is mapped");
}

pub fn build(seed: u64, cfg: Cfg) -> Box<dyn Workload> {
    // A full-size rep makes 4096 `fputc` calls, exactly one flush of the
    // 4 KiB stdout buffer: with fewer, every few reps would flush and
    // take longer than the others, and a median over the reps would
    // fall between the two.
    let (n_ops, explore_ops, flips) = if cfg.quick {
        (256, 16, 2)
    } else {
        (16384, 64, 64)
    };
    // Every window of `explore_ops` ops holds an equal share of each
    // call in seeded order, so seeds change the sequence and the bytes
    // written but not the amount of work of a rep or of the explored
    // prefix.
    let mut rng = StdRng::seed_from_u64(seed);
    let ops: Vec<u8> = (0..n_ops / explore_ops)
        .flat_map(|_| {
            let mut window: Vec<u8> = (0..explore_ops)
                .map(|i| match i % 4 {
                    3 => rng.gen_range(b'a'..=b'z'),
                    op => op as u8,
                })
                .collect();
            for i in (1..window.len()).rev() {
                window.swap(i, rng.gen_range(0..=i));
            }
            window
        })
        .collect();
    let src = format!("{}{MIX_SRC}", musl::SRC);
    let program = Program::build(&[("musl.c", &src)]).expect("mini-musl compiles");
    let prepare = |w: &mut World| write_ops(w, &ops);
    let worlds = TIERS
        .iter()
        .map(|&t| tier_world(&program, t, prepare, &STEADY, &["bench_mix"]))
        .collect();
    let dynamic = cfg.reference.then(|| {
        let p = Program::build_with(&[("musl.c", &src)], &Options::dynamic())
            .expect("dynamic mini-musl compiles");
        tier_world(&p, ExecTier::Tierless, prepare, &STEADY, &[])
    });
    let reconf = tier_world(&program, ExecTier::Tierless, |_| {}, &STEADY, &[]);
    let mut explore = program.boot();
    write_ops(&mut explore, &ops);
    let space = explore.config_space().expect("switch domains recover");
    let explore_exit = Model::new().mix(&ops[..explore_ops]).0;
    Box::new(MuslCalls {
        reference: cfg.reference,
        image: program.image_size(),
        src,
        program,
        ops,
        explore_ops,
        flips,
        worlds,
        dynamic,
        reconf,
        explore,
        space,
        explore_exit,
        model: Model::new(),
        dynamic_model: Model::new(),
    })
}

impl Workload for MuslCalls {
    fn reference_rounds(&self) -> u64 {
        4
    }

    fn epoch_rounds(&self) -> u64 {
        8
    }

    fn round(&mut self, r: u64, rec: &mut Rec) {
        setup(
            rec,
            &self.src,
            &Options::default(),
            Boot::Uni,
            &STEADY,
            self.image,
        );

        // A second thread comes and goes: lock variants in, then out.
        flip_cycle(rec, &mut self.reconf, &MULTI, &STEADY, self.flips);

        let n = [self.ops.len() as u64];
        let (exit, out) = self.model.mix(&self.ops);
        let obs: Vec<Option<Obs>> = TIERS
            .iter()
            .zip(&mut self.worlds)
            .map(|(&t, w)| {
                rec.phase(&format!("run.{t}"), |rec| {
                    run_rep(rec, w, t, r == 0, "bench_mix", &n)
                })
            })
            .collect();
        let expect = |o: &Obs| o.result == [exit] && o.out == out;
        check_tiers(rec, &obs, expect);
        if let Some(o) = &obs[0] {
            guest_counters(rec, "guest_cycles_per_op", o, n[0], true);
        }
        if let Some(w) = &mut self.dynamic {
            let (exit, out) = self.dynamic_model.mix(&self.ops);
            if let Some(o) = run_rep(rec, w, ExecTier::Tierless, true, "bench_mix", &n) {
                rec.check(o.result == [exit] && o.out == out, || {
                    "dynamic build diverged".into()
                });
                guest_counters(rec, "guest_cycles_per_op.dynamic", &o, n[0], false);
            }
        }

        let (program, ops) = (&self.program, &self.ops);
        let replay = || {
            let mut w = program.boot();
            write_ops(&mut w, ops);
            Ok::<_, multiverse::BuildError>(w)
        };
        let exit = self.explore_exit;
        explore(
            rec,
            &self.explore,
            &self.space,
            "bench_mix",
            &[self.explore_ops as u64],
            |leaf| leaf.exit == exit,
            (self.reference && r == 0).then_some(&replay as _),
        );
    }
}
