//! Differential testing of the whole tool-chain: random statement-level
//! MVC programs (locals, assignments, nested ifs, bounded loops) are
//! compiled, linked and executed on the machine, and the result is
//! compared against a direct Rust interpretation of the same AST.
//!
//! Expressions reach every MV64 ALU op and every condition code: all
//! binary operators, with divisors forced odd (so never zero) and a
//! `u64` operand that makes MVC pick the unsigned division, remainder,
//! right shift and comparisons. Compiling with and without the
//! optimizer checks both the constant folder and the VM against the
//! oracle's wrapping semantics.

use multiverse::mvc::Options;
use multiverse::Program;
use proptest::prelude::*;
use std::fmt::Write as _;

const N_VARS: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    /// `l / (r | 1)`: the divisor is odd, so never zero.
    Div,
    /// `l % (r | 1)`.
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

const OPS: [Op; 16] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::Div,
    Op::Rem,
    Op::Lt,
    Op::Le,
    Op::Gt,
    Op::Ge,
    Op::Eq,
    Op::Ne,
];

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::And => "&",
            Op::Or => "|",
            Op::Xor => "^",
            Op::Shl => "<<",
            Op::Shr => ">>",
            Op::Div => "/",
            Op::Rem => "%",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "==",
            Op::Ne => "!=",
        }
    }
}

#[derive(Clone, Debug)]
enum SExpr {
    Const(i8),
    Var(u8),
    Param,
    /// The parameter held in a `u64` local: any operator with an
    /// unsigned operand takes the unsigned MV64 op.
    UParam,
    Bin(Op, Box<SExpr>, Box<SExpr>),
}

#[derive(Clone, Debug)]
enum SStmt {
    Assign(u8, SExpr),
    If(SExpr, Vec<SStmt>, Vec<SStmt>),
    /// `for (i = 0; i < n; i++) body` with a dedicated counter the body
    /// cannot touch — termination by construction.
    Loop(u8, Vec<SStmt>),
}

fn arb_expr() -> impl Strategy<Value = SExpr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(SExpr::Const),
        (0u8..N_VARS as u8).prop_map(SExpr::Var),
        Just(SExpr::Param),
        Just(SExpr::UParam),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (0..OPS.len(), inner.clone(), inner)
            .prop_map(|(i, l, r)| SExpr::Bin(OPS[i], Box::new(l), Box::new(r)))
    })
}

fn arb_stmts(depth: u32) -> BoxedStrategy<Vec<SStmt>> {
    let stmt = if depth == 0 {
        prop_oneof![(0u8..N_VARS as u8, arb_expr()).prop_map(|(v, e)| SStmt::Assign(v, e))].boxed()
    } else {
        prop_oneof![
            3 => (0u8..N_VARS as u8, arb_expr()).prop_map(|(v, e)| SStmt::Assign(v, e)),
            1 => (arb_expr(), arb_stmts(depth - 1), arb_stmts(depth - 1))
                .prop_map(|(c, t, f)| SStmt::If(c, t, f)),
            1 => (1u8..6, arb_stmts(depth - 1)).prop_map(|(n, b)| SStmt::Loop(n, b)),
        ]
        .boxed()
    };
    proptest::collection::vec(stmt, 1..5).boxed()
}

// ---- MVC emission ---------------------------------------------------------

fn emit_expr(e: &SExpr, out: &mut String) {
    match e {
        SExpr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        SExpr::Var(v) => {
            let _ = write!(out, "v{v}");
        }
        SExpr::Param => out.push('x'),
        SExpr::UParam => out.push('u'),
        SExpr::Bin(op, l, r) => {
            out.push('(');
            emit_expr(l, out);
            let _ = write!(out, " {} ", op.symbol());
            if matches!(op, Op::Div | Op::Rem) {
                out.push('(');
                emit_expr(r, out);
                out.push_str(" | 1)");
            } else {
                emit_expr(r, out);
            }
            out.push(')');
        }
    }
}

fn emit_stmts(stmts: &[SStmt], out: &mut String, loop_counter: &mut u32) {
    for s in stmts {
        match s {
            SStmt::Assign(v, e) => {
                let _ = write!(out, "v{v} = ");
                emit_expr(e, out);
                out.push_str(";\n");
            }
            SStmt::If(c, t, f) => {
                out.push_str("if (");
                emit_expr(c, out);
                out.push_str(") {\n");
                emit_stmts(t, out, loop_counter);
                out.push_str("} else {\n");
                emit_stmts(f, out, loop_counter);
                out.push_str("}\n");
            }
            SStmt::Loop(n, b) => {
                let li = *loop_counter;
                *loop_counter += 1;
                let _ = writeln!(out, "for (i64 li{li} = 0; li{li} < {n}; li{li}++) {{");
                emit_stmts(b, out, loop_counter);
                out.push_str("}\n");
            }
        }
    }
}

fn emit_program(stmts: &[SStmt]) -> String {
    let mut body = String::from("u64 u = x;\n");
    for v in 0..N_VARS {
        let _ = writeln!(body, "i64 v{v} = {};", v as i64);
    }
    let mut counter = 0;
    emit_stmts(stmts, &mut body, &mut counter);
    body.push_str("return v0 + v1 * 31 + v2 * 977 + v3 * 83;\n");
    format!("i64 f(i64 x) {{\n{body}}}\ni64 main(void) {{ return 0; }}\n")
}

// ---- Rust oracle ----------------------------------------------------------

/// Value and unsignedness of `e`, following MVC's typing: an operator
/// with a `u64` operand computes unsigned and yields `u64`; comparisons
/// yield a (signed) `bool`. Arithmetic wraps and shift counts are taken
/// mod 64, as on MV64.
fn eval_expr(e: &SExpr, vars: &[i64; N_VARS], x: i64) -> (i64, bool) {
    let (l, r, op) = match e {
        SExpr::Const(c) => return (*c as i64, false),
        SExpr::Var(v) => return (vars[*v as usize], false),
        SExpr::Param => return (x, false),
        SExpr::UParam => return (x, true),
        SExpr::Bin(op, l, r) => (l, r, *op),
    };
    let (a, ua) = eval_expr(l, vars, x);
    let (b, ub) = eval_expr(r, vars, x);
    let unsigned = ua || ub;
    let (ua, ub, odd) = (a as u64, b as u64, b | 1);
    let ord = if unsigned { ua.cmp(&ub) } else { a.cmp(&b) };
    let v = match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Shl => a.wrapping_shl(b as u32),
        Op::Shr if unsigned => ua.wrapping_shr(b as u32) as i64,
        Op::Shr => a.wrapping_shr(b as u32),
        Op::Div if unsigned => (ua / odd as u64) as i64,
        Op::Div => a.wrapping_div(odd),
        Op::Rem if unsigned => (ua % odd as u64) as i64,
        Op::Rem => a.wrapping_rem(odd),
        Op::Lt => ord.is_lt() as i64,
        Op::Le => ord.is_le() as i64,
        Op::Gt => ord.is_gt() as i64,
        Op::Ge => ord.is_ge() as i64,
        Op::Eq => (a == b) as i64,
        Op::Ne => (a != b) as i64,
    };
    let compare = matches!(op, Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne);
    (v, unsigned && !compare)
}

fn eval_stmts(stmts: &[SStmt], vars: &mut [i64; N_VARS], x: i64) {
    for s in stmts {
        match s {
            SStmt::Assign(v, e) => vars[*v as usize] = eval_expr(e, vars, x).0,
            SStmt::If(c, t, f) => {
                if eval_expr(c, vars, x).0 != 0 {
                    eval_stmts(t, vars, x);
                } else {
                    eval_stmts(f, vars, x);
                }
            }
            SStmt::Loop(n, b) => {
                for _ in 0..*n {
                    eval_stmts(b, vars, x);
                }
            }
        }
    }
}

fn oracle(stmts: &[SStmt], x: i64) -> i64 {
    let mut vars = [0i64, 1, 2, 3];
    eval_stmts(stmts, &mut vars, x);
    vars[0]
        .wrapping_add(vars[1].wrapping_mul(31))
        .wrapping_add(vars[2].wrapping_mul(977))
        .wrapping_add(vars[3].wrapping_mul(83))
}

// ---- The differential property --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn compiled_programs_match_the_interpreter(
        stmts in arb_stmts(2),
        xs in proptest::collection::vec(-6i64..6, 1..3),
    ) {
        let src = emit_program(&stmts);
        for opts in [Options::dynamic(), Options { optimize: false, ..Options::dynamic() }] {
            let program = Program::build_with(&[("fuzz.c", &src)], &opts)
                .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
            let mut w = program.boot();
            for &x in &xs {
                let expect = oracle(&stmts, x) as u64;
                let got = w.call("f", &[x as u64]).unwrap();
                prop_assert_eq!(got, expect, "optimize={:?} x={}\n{}", opts.optimize, x, src);
            }
        }
    }
}
