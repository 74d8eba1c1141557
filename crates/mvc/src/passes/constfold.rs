//! Block-local constant propagation and folding.
//!
//! Temps are block-local and single-assignment, so a forward scan per block
//! with a constant environment is exact for temps. Local slots are
//! propagated within a block only (no join analysis), which is all the
//! multiverse pipeline needs: switch reads are already constants when the
//! variant clone reaches this pass.
//!
//! The environment is two [`crate::ir::IdMap`]s of the worker's scratch,
//! emptied per block, and folded instructions are dropped in place.

use crate::ir::{FuncIr, Inst, Operand, Scratch, Term};

/// Runs the pass; returns `true` if anything changed.
pub fn run(f: &mut FuncIr, s: &mut Scratch) -> bool {
    let mut changed = false;
    let (temps, slots) = (&mut s.temps, &mut s.slots);
    for b in &mut f.blocks {
        temps.clear();
        slots.clear();
        b.insts.retain_mut(|inst| {
            // Substitute known-constant temps in operands.
            inst.map_operands(|op| {
                if let Operand::Temp(t) = *op {
                    if let Some(c) = temps.get(t) {
                        *op = Operand::Const(c);
                        changed = true;
                    }
                }
            });
            match inst {
                Inst::Bin {
                    op,
                    dst,
                    a: Operand::Const(a),
                    b: Operand::Const(bb),
                } => match op.eval(*a, *bb) {
                    // The instruction dissolves into the environment.
                    Some(v) => {
                        temps.insert(*dst, v);
                        changed = true;
                        false
                    }
                    // Division by constant zero: keep it to fault at run
                    // time.
                    None => true,
                },
                Inst::Un {
                    op,
                    dst,
                    a: Operand::Const(a),
                } => {
                    temps.insert(*dst, op.eval(*a));
                    changed = true;
                    false
                }
                Inst::StoreLocal {
                    slot,
                    src: Operand::Const(c),
                } => {
                    slots.insert(*slot, *c);
                    true
                }
                Inst::StoreLocal { slot, .. } => {
                    slots.remove(*slot);
                    true
                }
                Inst::LoadLocal { dst, slot } => match slots.get(*slot) {
                    Some(c) => {
                        temps.insert(*dst, c);
                        changed = true;
                        false
                    }
                    None => true,
                },
                _ => true,
            }
        });
        // Substitute in the terminator.
        if let Term::Br { cond: v, .. } | Term::Ret(Some(v)) = &mut b.term {
            if let Operand::Temp(t) = *v {
                if let Some(c) = temps.get(t) {
                    *v = Operand::Const(c);
                    changed = true;
                }
            }
        }
        // Fold constant branches.
        if let Term::Br {
            cond: Operand::Const(c),
            t,
            f: fb,
        } = b.term
        {
            b.term = Term::Jmp(if c != 0 { t } else { fb });
            changed = true;
        }
    }
    changed
}
