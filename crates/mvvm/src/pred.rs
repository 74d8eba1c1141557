//! Branch prediction: 2-bit-counter conditional predictor, branch target
//! buffer for indirect calls, and a return-stack buffer.
//!
//! The paper's motivating observation (§1, §6.1) is that a dynamic feature
//! test is nearly free in a warm tight loop — the predictor learns it — but
//! costs 16–20 cycles whenever it mispredicts on real execution paths. The
//! predictors here make that observable: benchmarks can run warm, or call
//! [`Predictors::flush`] between iterations to model a cold BTB (the E10
//! ablation).

use crate::fx::FxHashMap;

/// Depth of the return-stack buffer (16, as on Skylake-class cores).
pub const RSB_DEPTH: usize = 16;

/// All predictor state of the core.
#[derive(Default)]
pub struct Predictors {
    /// 2-bit saturating counters, keyed by branch address.
    /// 0,1 = predict not-taken; 2,3 = predict taken.
    cond: FxHashMap<u64, u8>,
    /// Last observed target per indirect call/jump site.
    btb: FxHashMap<u64, u64>,
    /// Return-stack buffer.
    rsb: Vec<u64>,
}

impl Predictors {
    /// Creates empty (cold) predictor state.
    pub fn new() -> Predictors {
        Predictors::default()
    }

    /// Predicts and trains the conditional predictor for the branch at
    /// `pc` with actual outcome `taken`. Returns `true` if the prediction
    /// was correct.
    ///
    /// A branch never seen before predicts not-taken (counter 1), as on a
    /// cold BHT.
    pub fn cond_branch(&mut self, pc: u64, taken: bool) -> bool {
        let ctr = self.cond.entry(pc).or_insert(1);
        let predicted = *ctr >= 2;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        predicted == taken
    }

    /// Predicts and trains the BTB for the indirect transfer at `pc` with
    /// actual target `target`. Returns `true` on a correct prediction.
    pub fn indirect(&mut self, pc: u64, target: u64) -> bool {
        self.btb.insert(pc, target) == Some(target)
    }

    /// Records a call's return address on the RSB.
    pub fn push_ret(&mut self, ret_addr: u64) {
        if self.rsb.len() == RSB_DEPTH {
            self.rsb.remove(0);
        }
        self.rsb.push(ret_addr);
    }

    /// Pops the RSB for a `ret` to `actual`. Returns `true` if predicted
    /// correctly.
    pub fn pop_ret(&mut self, actual: u64) -> bool {
        self.rsb.pop() == Some(actual)
    }

    /// Flushes all predictor state (cold-BTB ablation, context-switch
    /// model).
    pub fn flush(&mut self) {
        self.cond.clear();
        self.btb.clear();
        self.rsb.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_predictor_warms_up() {
        let mut p = Predictors::new();
        // Cold: predicts not-taken (counter 1), so a taken branch
        // mispredicts once and is learned immediately.
        assert!(!p.cond_branch(0x40, true));
        for _ in 0..100 {
            assert!(p.cond_branch(0x40, true));
        }
        // One glitch does not untrain a saturated counter.
        assert!(!p.cond_branch(0x40, false));
        assert!(p.cond_branch(0x40, true));
    }

    #[test]
    fn cold_not_taken_is_free() {
        let mut p = Predictors::new();
        assert!(p.cond_branch(0x40, false));
    }

    #[test]
    fn btb_learns_single_target() {
        let mut p = Predictors::new();
        assert!(!p.indirect(0x80, 0x1000));
        assert!(p.indirect(0x80, 0x1000));
        // Target change (e.g. a function-pointer reconfiguration)
        // mispredicts once.
        assert!(!p.indirect(0x80, 0x2000));
        assert!(p.indirect(0x80, 0x2000));
    }

    #[test]
    fn rsb_matches_nested_calls() {
        let mut p = Predictors::new();
        p.push_ret(0xA);
        p.push_ret(0xB);
        assert!(p.pop_ret(0xB));
        assert!(p.pop_ret(0xA));
        assert!(!p.pop_ret(0xC)); // empty RSB mispredicts
    }

    #[test]
    fn rsb_overflow_drops_oldest() {
        let mut p = Predictors::new();
        for i in 0..(RSB_DEPTH as u64 + 1) {
            p.push_ret(i);
        }
        for i in (1..=RSB_DEPTH as u64).rev() {
            assert!(p.pop_ret(i));
        }
        assert!(!p.pop_ret(0)); // overwritten entry
    }

    #[test]
    fn flush_forgets_everything() {
        let mut p = Predictors::new();
        for _ in 0..4 {
            p.cond_branch(0x40, true);
        }
        p.indirect(0x80, 0x1000);
        p.flush();
        assert!(!p.cond_branch(0x40, true));
        assert!(!p.indirect(0x80, 0x1000));
    }
}
