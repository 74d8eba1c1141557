//! Function-pointer configuration switches — the §4 extension and the
//! PV-Ops boot-time patching model.
//!
//! The Linux kernel dispatches paravirtualized operations through a table
//! of function pointers (`pv_ops`) and patches the indirect call sites at
//! boot: an indirect `call *pv_ops.op` becomes a direct call to the bound
//! implementation, or — for single-instruction bodies like `sti`/`cli` —
//! the body is inlined straight into the call site. Multiverse subsumes
//! this mechanism by allowing the `multiverse` attribute on function
//! pointers: the compiler records every indirect call site through the
//! pointer, and a commit re-binds them with the ordinary call-site patcher.
//!
//! [`Runtime::commit_refs`] on a pointer switch is exactly that operation;
//! this module adds the bind-then-commit convenience the kernel
//! work-flow uses.

use crate::error::RtError;
use crate::runtime::{CommitReport, Runtime};
use mvvm::Machine;

/// Stores `target` into the function pointer at `ptr_addr` and commits its
/// call sites — the "assign the op, then patch" sequence of the kernel's
/// paravirt setup.
pub fn bind_and_commit(
    rt: &mut Runtime,
    m: &mut Machine,
    ptr_addr: u64,
    target: u64,
) -> Result<CommitReport, RtError> {
    m.mem.write_int(ptr_addr, target, 8)?;
    rt.commit_refs(m, ptr_addr)
}
