//! CFG cleanup: unreachable-block removal, jump threading through empty
//! blocks, and straight-line block merging.
//!
//! Block ids are dense, so jump targets, visited sets, predecessor
//! counts and new ids live in the worker's [`Scratch`] tables. Removed
//! blocks go to [`Scratch`]'s spares with their instruction buffers, for
//! the next function the worker fills.

use crate::ir::{BlockId, FuncIr, Scratch, Term};

/// Runs the pass; returns `true` if anything changed.
pub fn run(f: &mut FuncIr, s: &mut Scratch) -> bool {
    let mut changed = false;
    changed |= thread_jumps(f, s);
    changed |= merge_chains(f, s);
    changed |= drop_unreachable(f, s);
    changed
}

/// Redirects edges that point at an empty block whose only content is a
/// `jmp` to another block.
fn thread_jumps(f: &mut FuncIr, s: &mut Scratch) -> bool {
    let (target, seen) = (&mut s.blocks, &mut s.seen);
    target.clear();
    let mut any = false;
    for (i, b) in f.blocks.iter().enumerate() {
        if b.insts.is_empty() {
            if let Term::Jmp(t) = b.term {
                if t != i as BlockId {
                    target.insert(i as BlockId, t);
                    any = true;
                }
            }
        }
    }
    if !any {
        return false;
    }
    // Resolve chains; a cycle of empty blocks resolves to the first
    // block met twice.
    let mut resolve = |mut b: BlockId| {
        seen.clear();
        while let Some(t) = target.get(b) {
            if !seen.insert(b, ()) {
                break;
            }
            b = t;
        }
        b
    };
    let mut changed = false;
    for b in &mut f.blocks {
        match &mut b.term {
            Term::Jmp(t) => {
                let r = resolve(*t);
                if r != *t {
                    *t = r;
                    changed = true;
                }
            }
            Term::Br { t, f: fb, .. } => {
                let (rt, rf) = (resolve(*t), resolve(*fb));
                if rt != *t || rf != *fb {
                    *t = rt;
                    *fb = rf;
                    changed = true;
                }
            }
            Term::Ret(_) => {}
        }
    }
    changed
}

/// Merges `a -> jmp b` where `b` has exactly one predecessor edge (from
/// a reachable block), in one pass: absorbing `b` into `a` hands `b`'s
/// out-edges to `a` and leaves `b` unreachable, so no other block's
/// predecessor count changes, and merging in any order reaches the same
/// blocks.
fn merge_chains(f: &mut FuncIr, s: &mut Scratch) -> bool {
    f.walk_blocks(s);
    let preds = &mut s.blocks;
    preds.clear();
    for &b in &s.order {
        for succ in f.blocks[b as usize].term.succs() {
            let n = preds.get(succ).unwrap_or(0);
            preds.insert(succ, n + 1);
        }
    }
    let mut changed = false;
    for &a in &s.order {
        // Never merge the entry away.
        while let Term::Jmp(b) = f.blocks[a as usize].term {
            if b == a || b == 0 || preds.get(b) != Some(1) {
                break;
            }
            // Move b's contents into a. b is left empty with a `ret`: it
            // is unreachable and dropped later.
            let donor = &mut f.blocks[b as usize];
            let term = std::mem::take(&mut donor.term);
            let mut insts = std::mem::take(&mut donor.insts);
            let a_blk = &mut f.blocks[a as usize];
            a_blk.insts.append(&mut insts);
            a_blk.term = term;
            f.blocks[b as usize].insts = insts;
            changed = true;
        }
    }
    changed
}

/// Removes unreachable blocks, compacting ids in order.
fn drop_unreachable(f: &mut FuncIr, s: &mut Scratch) -> bool {
    f.walk_blocks(s);
    if s.order.len() == f.blocks.len() {
        return false;
    }
    // Slide each reachable block down to its new id; the unreachable
    // ones collect behind them.
    let remap = &mut s.blocks;
    remap.clear();
    let mut kept = 0;
    for old in 0..f.blocks.len() {
        if s.seen.contains(old as BlockId) {
            remap.insert(old as BlockId, kept as BlockId);
            f.blocks.swap(kept, old);
            kept += 1;
        }
    }
    s.spare.extend(f.blocks.drain(kept..));
    let new_id = |b: BlockId| remap.get(b).expect("successors are reachable");
    for b in &mut f.blocks {
        match &mut b.term {
            Term::Jmp(t) => *t = new_id(*t),
            Term::Br { t, f: fb, .. } => {
                *t = new_id(*t);
                *fb = new_id(*fb);
            }
            Term::Ret(_) => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, Inst, Operand};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The merge as it was before the one-pass version: merge one chain,
    /// then recompute reachability and predecessors from scratch.
    fn merge_chains_reference(f: &mut FuncIr) -> bool {
        let mut changed = false;
        loop {
            let (mut order, mut seen, mut stack) = (Vec::new(), HashSet::new(), vec![0]);
            while let Some(b) = stack.pop() {
                if seen.insert(b) {
                    order.push(b);
                    stack.extend(f.blocks[b as usize].term.succs());
                }
            }
            let mut preds: HashMap<BlockId, usize> = HashMap::new();
            for &b in &order {
                for succ in f.blocks[b as usize].term.succs() {
                    *preds.entry(succ).or_default() += 1;
                }
            }
            let merge = order.iter().find_map(|&a| match f.blocks[a as usize].term {
                Term::Jmp(b) if b != a && b != 0 && preds.get(&b) == Some(&1) => Some((a, b)),
                _ => None,
            });
            let Some((a, b)) = merge else {
                return changed;
            };
            let donor = std::mem::take(&mut f.blocks[b as usize]);
            f.blocks[a as usize].insts.extend(donor.insts);
            f.blocks[a as usize].term = donor.term;
            changed = true;
        }
    }

    /// A random CFG: each block optionally holds one store naming it,
    /// and ends in a jump, a branch or a return to random blocks.
    fn arb_cfg() -> impl Strategy<Value = FuncIr> {
        proptest::collection::vec((any::<bool>(), 0u8..3, 0u32..8, 0u32..8), 1..9).prop_map(
            |spec| {
                let n = spec.len() as u32;
                let mut f = FuncIr::new("f", 0, false);
                f.blocks = spec
                    .iter()
                    .enumerate()
                    .map(|(i, &(store, kind, t, fb))| Block {
                        insts: if store {
                            vec![Inst::StoreLocal {
                                slot: i as u32,
                                src: Operand::Const(i as i64),
                            }]
                        } else {
                            Vec::new()
                        },
                        term: match kind {
                            0 => Term::Jmp(t % n),
                            1 => Term::Br {
                                cond: Operand::Const(1),
                                t: t % n,
                                f: fb % n,
                            },
                            _ => Term::Ret(None),
                        },
                    })
                    .collect();
                f
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Merging every chain in one pass leaves exactly the blocks the
        /// merge-and-recompute loop leaves.
        #[test]
        fn one_pass_merge_matches_the_recomputing_merge(f in arb_cfg()) {
            let mut want = f.clone();
            let want_changed = merge_chains_reference(&mut want);
            let mut got = f;
            let got_changed = merge_chains(&mut got, &mut Scratch::default());
            prop_assert_eq!(got_changed, want_changed);
            prop_assert_eq!(got.blocks, want.blocks);
        }
    }
}
