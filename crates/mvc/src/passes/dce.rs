//! Dead-code elimination: unused pure temps and stores to never-read
//! local slots.

use crate::ir::{FuncIr, Inst, Operand, Scratch, Term};

/// Runs the pass; returns `true` if anything changed.
pub fn run(f: &mut FuncIr, s: &mut Scratch) -> bool {
    let mut changed = false;

    // Collect all used temps and all loaded slots, function-wide.
    let (used_temps, loaded_slots) = (&mut s.temps, &mut s.slots);
    used_temps.clear();
    loaded_slots.clear();
    for b in &f.blocks {
        for inst in &b.insts {
            for op in inst.operands() {
                if let Operand::Temp(t) = op {
                    used_temps.insert(t, 0);
                }
            }
            if let Inst::LoadLocal { slot, .. } = inst {
                loaded_slots.insert(*slot, 0);
            }
        }
        if let Term::Br {
            cond: Operand::Temp(t),
            ..
        }
        | Term::Ret(Some(Operand::Temp(t))) = b.term
        {
            used_temps.insert(t, 0);
        }
    }

    // Dropping an instruction can make its inputs dead; the caller's
    // fixpoint loop runs the pass again for those.
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            // Stores to a slot no load ever reads are dead even though
            // they are nominally effectful.
            if let Inst::StoreLocal { slot, .. } = inst {
                return loaded_slots.contains(*slot);
            }
            if inst.has_side_effect() {
                return true;
            }
            match inst.dst() {
                Some(d) => used_temps.contains(d),
                None => true,
            }
        });
        changed |= b.insts.len() != before;
    }

    // A call whose result is unused keeps the call but drops the dst so
    // canonical keys of "call used" vs "call ignored" differ correctly.
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            if let Inst::Call { dst, .. } = inst {
                if dst.is_some_and(|d| !used_temps.contains(d)) {
                    *dst = None;
                    changed = true;
                }
            }
        }
    }
    changed
}
