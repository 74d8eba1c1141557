//! The optimizer — constant propagation/folding, branch folding, dead-code
//! elimination and CFG cleanup.
//!
//! These are the passes §3 of the paper leans on: the multiverse pass
//! replaces switch reads with constants *before* optimization, and "of
//! special effectiveness are the constant propagation, constant folding,
//! and dead-code elimination as they directly benefit from the introduced
//! constants". [`optimize`] runs the pipeline to a fixpoint, after which
//! variants whose bodies collapsed to the same shape compare equal under
//! [`crate::ir::FuncIr::canonical_key`].
//!
//! The passes keep their facts in the dense tables of a
//! [`crate::ir::Scratch`], which a worker reuses across every function
//! it optimizes.

pub mod cfg;
pub mod constfold;
pub mod dce;
pub mod inline;

use crate::ir::{FuncIr, Scratch};

/// Runs all passes to a (bounded) fixpoint, keeping their tables in
/// `s`. Folded instructions are dropped in place, so `f`'s blocks keep
/// their capacity.
pub fn optimize(f: &mut FuncIr, s: &mut Scratch) {
    for _ in 0..16 {
        let mut changed = false;
        changed |= constfold::run(f, s);
        changed |= cfg::run(f, s);
        changed |= dce::run(f, s);
        if !changed {
            break;
        }
    }
    f.validate_in(&mut s.defined);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Inst, IrBin, Operand, Term};
    use crate::lexer::lex;
    use crate::lower::lower_unit;
    use crate::parser::parse;

    fn optimized(src: &str, name: &str) -> FuncIr {
        let mut l = lower_unit(&parse(&lex(src).unwrap()).unwrap()).unwrap();
        let mut f = l.funcs.remove(
            l.funcs
                .iter()
                .position(|f| f.name == name)
                .expect("function present"),
        );
        optimize(&mut f, &mut Scratch::default());
        f
    }

    #[test]
    fn constant_expression_folds_to_return() {
        let f = optimized("i64 f(void) { return (2 + 3) * 4 - 6 / 2; }", "f");
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].insts.is_empty());
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Operand::Const(17))));
    }

    #[test]
    fn dead_branch_is_eliminated() {
        // if (0) { work(); } collapses away entirely.
        let f = optimized(
            "void work(void) {} void f(void) { if (0) { work(); } }",
            "f",
        );
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].insts.is_empty());
        assert!(!f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. }))));
    }

    #[test]
    fn taken_branch_is_flattened() {
        let f = optimized(
            "i64 g; void f(void) { if (1) { g = 7; } else { g = 9; } }",
            "f",
        );
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert!(matches!(
            &f.blocks[0].insts[0],
            Inst::StoreGlobal {
                src: Operand::Const(7),
                ..
            }
        ));
    }

    #[test]
    fn local_constants_propagate_within_block() {
        let f = optimized(
            "i64 f(void) { i64 x = 5; i64 y = x + 2; return y * x; }",
            "f",
        );
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Operand::Const(35))));
    }

    #[test]
    fn constant_while_false_disappears() {
        let f = optimized("void w(void) {} void f(void) { while (0) { w(); } }", "f");
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn side_effects_survive_dce() {
        let f = optimized("void f(void) { __out(65); }", "f");
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn unused_pure_results_are_dropped() {
        let f = optimized("i64 f(i64 a) { i64 unused = a * 3; return a; }", "f");
        assert!(
            !f.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: IrBin::Mul, .. })),
            "multiply feeding only a dead slot must vanish"
        );
    }

    #[test]
    fn division_by_zero_is_not_folded_away() {
        // The fault must still happen at run time.
        let f = optimized("i64 f(void) { i64 x = 1 / 0; return 2; }", "f");
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Bin {
                op: IrBin::Divs,
                ..
            }
        )));
    }

    #[test]
    fn straightline_blocks_merge() {
        let f = optimized(
            "i64 g; i64 f(i64 x) { if (x) { g = 1; } else { g = 2; } return g; }",
            "f",
        );
        // if/else with dynamic condition: entry + 2 arms + join at most.
        assert!(f.blocks.len() <= 4, "{} blocks", f.blocks.len());
    }

    #[test]
    fn fig1_specialized_smp_false_collapses() {
        // The SMP=false variant of the paper's spinlock: with the switch
        // constant-folded to 0, only the cli remains.
        let src = r#"
            i64 lock_word;
            void spin_lock_irq(void) {
                __cli();
                if (0) {
                    while (__xchg(&lock_word, 1) != 0) { __pause(); }
                }
            }
        "#;
        let f = optimized(src, "spin_lock_irq");
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1, "only __cli survives");
    }
}
