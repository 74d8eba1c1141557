//! Calling conventions.
//!
//! §6.1 of the paper traces a measurable PV-Ops slowdown to the kernel's
//! *custom* PV-Ops calling convention, which "has no volatile (or scratch)
//! registers, i.e. all registers have to be saved and restored by the
//! callee". Multiverse variants instead use the standard convention, where
//! registers the caller does not live across the call cost nothing. Both
//! conventions are modelled here; the compiler selects one per function.

use crate::reg::Reg;

/// A calling convention for MV64 functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallConv {
    /// The standard System-V-like convention: `r0`..`r5` argument registers
    /// (caller-saved, `r0` returns), `r12`/`r13` caller-saved scratch,
    /// `r6`..`r11` and `bp` callee-saved.
    Standard,
    /// The PV-Ops convention: **every** register except the return register
    /// is callee-saved. The callee must save/restore each register it
    /// clobbers, even when the caller holds nothing live — the source of
    /// the overhead the paper measured in the Xen guest.
    PvOps,
}

impl CallConv {
    /// `true` if the callee must preserve `r` when clobbering it.
    pub fn is_callee_saved(self, r: Reg) -> bool {
        match self {
            CallConv::Standard => matches!(r.index(), 6..=11) || r == Reg::BP,
            // Everything but the return register (and sp, which is always
            // preserved structurally) must survive the call.
            CallConv::PvOps => r != Reg::R0 && r != Reg::SP,
        }
    }

    /// Registers a *caller* must assume clobbered across a call.
    pub fn caller_clobbered(self) -> Vec<Reg> {
        Reg::all()
            .filter(|&r| r != Reg::SP && !self.is_callee_saved(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_callee_saved_set() {
        let cc = CallConv::Standard;
        assert!(!cc.is_callee_saved(Reg::R0));
        assert!(!cc.is_callee_saved(Reg::R5));
        assert!(cc.is_callee_saved(Reg::R6));
        assert!(cc.is_callee_saved(Reg::R11));
        assert!(!cc.is_callee_saved(Reg::R12));
        assert!(cc.is_callee_saved(Reg::BP));
        assert!(!cc.is_callee_saved(Reg::SP));
    }

    #[test]
    fn pvops_saves_everything_but_ret() {
        let cc = CallConv::PvOps;
        assert!(!cc.is_callee_saved(Reg::R0));
        for i in 1..15 {
            assert!(cc.is_callee_saved(Reg::new(i).unwrap()), "r{i}");
        }
    }

    #[test]
    fn pvops_caller_sees_almost_nothing_clobbered() {
        assert_eq!(CallConv::PvOps.caller_clobbered(), vec![Reg::R0]);
        let std = CallConv::Standard.caller_clobbered();
        assert!(std.contains(&Reg::R1));
        assert!(std.contains(&Reg::R12));
        assert!(!std.contains(&Reg::R6));
    }
}
