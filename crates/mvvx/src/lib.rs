#![warn(missing_docs)]
//! MVVX — variational execution over MV64 programs.
//!
//! The enumerate-and-rerun proof of the Multiverse correctness story
//! costs one full run per configuration: linear in the (exponential)
//! switch cross product. Variational execution (Wong et al., "Faster
//! Variational Execution with Transparent Bytecode Transformation")
//! runs *all* configurations in a single pass instead: machine state is
//! shared until it provably depends on a switch, execution **splits**
//! when a switch-derived value reaches a conditional branch, and the
//! split contexts **re-join** at the call boundary once their residual
//! differences can be folded back into per-switch values.
//!
//! The moving parts:
//!
//! * [`config`] — the configuration space: per-switch domains recovered
//!   from the loaded image's guard descriptors, mixed-radix leaf
//!   indexing, and the compact [`config::LeafSet`] bitmask every
//!   context is keyed by.
//! * [`value`] — the semi-symbolic value lattice: a register or memory
//!   byte is either [`value::Val::Concrete`] or a tabulated function of
//!   exactly **one** switch ([`value::Val::PerValue`]). Values that
//!   would depend on two switches at once force a materializing split
//!   first, so the invariant is cheap to maintain and joins stay
//!   decidable.
//! * [`engine`] — the interpreter: a shared base [`mvvm::Memory`] image
//!   plus per-context register/overlay deltas, branch-outcome splitting
//!   (contexts split into at most two arms, grouping domain values by
//!   outcome), and sibling re-join when split contexts return to their
//!   common caller with differences expressible over the split switch.
//! * `overlay` (private) — a context's memory writes: page-sized,
//!   copy-on-write chunks of concrete bytes with one written and one
//!   variational bit per byte, variational values in a side map. An
//!   access to concrete bytes inside one page costs one check, so code
//!   that touches no variational data pays no per-byte overhead.
//!
//! What is *not* modeled — and why bailing out is sound: cycle costs,
//! predictor state and `rdtsc` values are configuration-dependent in
//! ways the shared pass deliberately does not track ([`engine`] refuses
//! `rdtsc` with [`engine::VexecError::Unsupported`]). Any question
//! about timing must fall back to enumeration; questions about
//! architectural results (registers, memory, output bytes, exit values)
//! are answered exactly, per leaf configuration.

pub mod config;
pub mod engine;
mod overlay;
pub mod value;

pub use config::{ConfigSpace, LeafSet, SpaceError, SwitchDomain};
pub use engine::{Vexec, VexecError, VexecLeaf, VexecReport, VexecStats};
pub use value::Val;
