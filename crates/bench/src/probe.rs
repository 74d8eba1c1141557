//! The host-speed probe of `mvbench` (`mvbench/src/probe.rs`), with its
//! constants unchanged, so a rate scaled here is in the same
//! reference-host units as an `mvbench` timing.
//!
//! On a shared host the speed of one core drifts by 30–70 % for seconds
//! at a time, which moves a whole measurement at once. The probe is a
//! fixed workload shaped like an interpreter — table-driven dispatch, a
//! hashed decode cache, scattered loads and stores — timed right before
//! and right after a measurement; the measurement is then reported as
//! if taken on a host on which the probe takes exactly [`REFERENCE_S`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Probe time of the reference host, in seconds.
pub const REFERENCE_S: f64 = 0.25e-3;

const STEPS: usize = 12_500;
const CODE: u64 = 4096;

/// The probe's state, allocated and warmed once so a run measures only
/// the dispatch loop.
pub struct Probe {
    mem: Vec<u64>,
    decode: HashMap<u64, (u8, u64), BuildHasherDefault<DefaultHasher>>,
}

impl Probe {
    /// Builds the probe's decode table and memory.
    pub fn new() -> Probe {
        let decode = (0..CODE)
            .map(|pc| {
                let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                (pc, ((h % 6) as u8, h))
            })
            .collect();
        Probe {
            mem: vec![0; 1 << 15],
            decode,
        }
    }

    /// Runs the probe once; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mask = self.mem.len() - 1;
        let mut regs = [1u64; 16];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut pc = 0;
        for _ in 0..STEPS {
            let (op, imm) = self.decode[&pc];
            let r = (imm % 16) as usize;
            match op {
                0 => regs[r] = regs[r].wrapping_add(imm),
                1 => regs[r] = self.mem[regs[r] as usize & mask],
                2 => self.mem[regs[(r + 1) % 16] as usize & mask] = regs[r],
                3 => regs[r] ^= regs[(r + 3) % 16].rotate_left(7),
                4 => {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    regs[r] = regs[r].wrapping_mul(x | 1);
                }
                _ => {
                    if regs[r] & 1 == 0 {
                        pc += imm % 64;
                    }
                }
            }
            pc = (pc + 1) % CODE;
        }
        std::hint::black_box(regs);
        t0.elapsed().as_secs_f64()
    }
}
