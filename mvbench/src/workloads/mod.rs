//! The four case-study workloads. Each stresses a different layer, and
//! for every per-layer metric one of them exercises the mechanism while
//! another bypasses it (see the README's metric table).

use crate::harness::Factory;

mod grep_scan;
mod kernel_flip;
mod musl_calls;
mod variant_grid;

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [(&str, Factory); 4] = [
    ("musl_calls", musl_calls::build),
    ("grep_scan", grep_scan::build),
    ("kernel_flip", kernel_flip::build),
    ("variant_grid", variant_grid::build),
];

/// The workload called `name`.
pub fn factory(name: &str) -> Option<Factory> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}
