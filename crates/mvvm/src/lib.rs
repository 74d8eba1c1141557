#![warn(missing_docs)]
//! MVVM — the MV64 virtual machine.
//!
//! The Multiverse paper's evaluation quantities are *microarchitectural*
//! relative effects: the cost of a conditional branch that may mispredict
//! (footnote 1: ≈16–20 cycles on Skylake), of a bus-locked atomic exchange
//! in UP vs. SMP mode, of an indirect call through a function pointer, of a
//! privileged instruction trapping inside a paravirtualized guest versus an
//! explicit hypercall, and of plain call/return overhead. This crate
//! executes MV64 binaries under an explicit cycle [`cost`] model that
//! reproduces those mechanisms:
//!
//! * a 2-bit-counter conditional-branch predictor, BTB for indirect calls
//!   and a return-stack buffer ([`pred`]), with a configurable
//!   misprediction penalty;
//! * cmp+jcc macro-fusion, so a *predicted* feature test costs what it
//!   costs on real hardware — almost nothing in a tight microbenchmark
//!   loop, which is exactly the warm-BTB effect §6.1 discusses;
//! * demand-zero paged memory with R/W/X protection and an explicitly
//!   flushed instruction cache ([`mem`]): patching a page that was not
//!   made writable faults, and patched bytes are not *executed* until
//!   the icache is flushed — both observable, both tested;
//! * machine modes: unicore/multicore ([`MachineMode`]) switching the
//!   atomic-operation cost, and native/Xen-guest ([`Platform`]) making
//!   `sti`/`cli` trap while `hypercall` stays cheap.
//!
//! The [`Machine`] loads a linked [`mvobj::Executable`] and interprets it,
//! keeping per-run [`Stats`] (instructions, branches, mispredictions,
//! atomics, …) that the benchmark harness reports alongside cycle counts.

pub mod block;
pub mod cost;
pub mod cpu;
pub mod fault;
pub mod fx;
pub mod machine;
pub mod mem;
pub mod native;
pub mod pred;
pub mod profile;
pub mod smp;
pub mod stats;
pub mod tier0;
pub mod trace;

pub use block::{BlockCacheStats, DecodedBlock, ExecTier};
pub use cost::CostModel;
pub use fault::{FaultMode, FaultOp, FaultPlan};
pub use machine::{CpuContext, Fault, Machine, MachineConfig, MachineMode, Platform};
pub use mem::{MemError, Memory, PAGE_SIZE};
pub use native::NativeStats;
pub use profile::{FnCounters, FnProfile, FnRange, Profiler};
pub use smp::{SmpMachine, TrapDisposition, VcpuState};
pub use stats::Stats;
pub use tier0::BlockCache;
pub use trace::Trace;
