//! Semantic analysis and AST → IR lowering.

use crate::ast::*;
use crate::error::CompileError;
use crate::ir::{self, Callee, FuncIr, Inst, Intrinsic, IrBin, IrUn, Operand, Term};
use crate::types::{EnumDef, Type};
use std::collections::HashMap;

/// Information about a global variable.
#[derive(Clone, Debug)]
pub struct GlobalInfo {
    /// Element type.
    pub ty: Type,
    /// Array length for arrays.
    pub array: Option<u64>,
    /// Attributes.
    pub attrs: Attrs,
    /// Constant initializer value (scalars).
    pub init_const: Option<i64>,
    /// Initializer referencing a function/global address.
    pub init_addr_of: Option<String>,
}

impl GlobalInfo {
    /// Total storage size in bytes.
    pub fn size(&self) -> u64 {
        self.ty.size() * self.array.unwrap_or(1)
    }

    /// `true` if this global is a multiverse configuration switch.
    pub fn is_switch(&self) -> bool {
        self.attrs.multiverse && self.array.is_none()
    }
}

/// A function signature.
#[derive(Clone, Debug)]
pub struct FnSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Attributes.
    pub attrs: Attrs,
    /// Defined (has a body) in this unit.
    pub defined: bool,
}

/// Per-translation-unit semantic context.
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    /// Global variables by name.
    pub globals: HashMap<String, GlobalInfo>,
    /// Functions by name.
    pub funcs: HashMap<String, FnSig>,
    /// Enum definitions by name.
    pub enums: HashMap<String, EnumDef>,
    /// Enumerator constants by name.
    pub enumerators: HashMap<String, i64>,
}

impl Ctx {
    /// Domain of the configuration switch `name` (§3): the explicit
    /// `multiverse(values…)` list, all enumerators for enum-typed switches,
    /// `{0, 1}` otherwise.
    pub fn switch_domain(&self, name: &str) -> Vec<i64> {
        let Some(g) = self.globals.get(name) else {
            return vec![];
        };
        if let Some(dom) = &g.attrs.domain {
            return dom.clone();
        }
        if let Type::Enum(e) = &g.ty {
            if let Some(def) = self.enums.get(e) {
                return def.items.iter().map(|(_, v)| *v).collect();
            }
        }
        vec![0, 1]
    }
}

/// Output of lowering one unit.
pub struct Lowered {
    /// Function bodies in IR (defined functions only).
    pub funcs: Vec<FuncIr>,
    /// Semantic context (globals, signatures, enums).
    pub ctx: Ctx,
}

fn sema_err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError::Sema { msg: msg.into() })
}

/// Rejects a value of switch `g`'s domain (explicit, or its enum's
/// enumerators) that `g` cannot hold or a descriptor guard's `i32`
/// bounds cannot express: the variant specialized for it could never be
/// selected, and two such values can even collide in one variant name.
fn check_domain(g: &Global, ctx: &Ctx) -> Result<(), CompileError> {
    let (lo, hi) = match &g.ty {
        Type::Bool => (0, 1),
        Type::Int { width, signed } => {
            let bits = u32::from(*width) * 8;
            if *signed {
                (i64::MIN >> (64 - bits), i64::MAX >> (64 - bits))
            } else {
                (0, (u64::MAX >> (64 - bits)).min(i64::MAX as u64) as i64)
            }
        }
        Type::Enum(_) => (i32::MIN.into(), i32::MAX.into()),
        // Function-pointer switches have no value domain.
        _ => return Ok(()),
    };
    let range = (lo.max(i32::MIN.into()), hi.min(i32::MAX.into()));
    // The domain `Ctx::switch_domain` will give it.
    let enumerators = match (&g.attrs.domain, &g.ty) {
        (None, Type::Enum(e)) => ctx.enums.get(e).map_or(&[][..], |def| &def.items[..]),
        _ => &[],
    };
    let domain = g.attrs.domain.iter().flatten().copied();
    for value in domain.chain(enumerators.iter().map(|&(_, v)| v)) {
        if !(range.0..=range.1).contains(&value) {
            return Err(CompileError::SwitchDomain {
                switch: g.name.clone(),
                ty: g.ty.to_string(),
                value,
                range,
            });
        }
    }
    Ok(())
}

/// Evaluates a constant initializer expression.
fn const_eval(e: &Expr, ctx: &Ctx) -> Result<ConstInit, CompileError> {
    match e {
        Expr::Int(v, _) => Ok(ConstInit::Int(*v)),
        Expr::Un(UnOp::Neg, inner, _) => match const_eval(inner, ctx)? {
            ConstInit::Int(v) => Ok(ConstInit::Int(v.wrapping_neg())),
            _ => sema_err("cannot negate an address initializer"),
        },
        Expr::Ident(name, _) => ctx
            .enumerators
            .get(name)
            .map(|&v| ConstInit::Int(v))
            .ok_or_else(|| CompileError::Sema {
                msg: format!("initializer `{name}` is not a constant"),
            }),
        Expr::AddrOf(name, _) => Ok(ConstInit::AddrOf(name.clone())),
        _ => sema_err("global initializers must be constant expressions"),
    }
}

enum ConstInit {
    Int(i64),
    AddrOf(String),
}

/// Builds the semantic context and lowers every defined function.
pub fn lower_unit(unit: &Unit) -> Result<Lowered, CompileError> {
    let mut ctx = Ctx::default();

    // Pass 1: collect enums first (types may reference them).
    for item in &unit.items {
        if let Item::Enum(e) = item {
            for (n, v) in &e.items {
                if ctx.enumerators.insert(n.clone(), *v).is_some() {
                    return sema_err(format!("duplicate enumerator `{n}`"));
                }
            }
            if ctx.enums.insert(e.name.clone(), e.clone()).is_some() {
                return sema_err(format!("duplicate enum `{}`", e.name));
            }
        }
    }

    // Pass 2: collect globals and function signatures.
    for item in &unit.items {
        match item {
            Item::Global(g) => {
                if let Type::Enum(e) = &g.ty {
                    if !ctx.enums.contains_key(e) {
                        return sema_err(format!("unknown type `{e}` for global `{}`", g.name));
                    }
                }
                if g.attrs.multiverse {
                    if g.array.is_some() {
                        return sema_err(format!(
                            "array `{}` cannot be a configuration switch",
                            g.name
                        ));
                    }
                    if !g.ty.switchable() {
                        return sema_err(format!(
                            "`{}` has type {}, not usable as a configuration switch \
                             (integer, bool, enum or fnptr required)",
                            g.name, g.ty
                        ));
                    }
                    check_domain(g, &ctx)?;
                }
                let (mut init_const, mut init_addr_of) = (None, None);
                if let Some(init) = &g.init {
                    match const_eval(init, &ctx)? {
                        ConstInit::Int(v) => init_const = Some(v),
                        ConstInit::AddrOf(s) => init_addr_of = Some(s),
                    }
                }
                let info = GlobalInfo {
                    ty: g.ty.clone(),
                    array: g.array,
                    attrs: g.attrs.clone(),
                    init_const,
                    init_addr_of,
                };
                if ctx.globals.insert(g.name.clone(), info).is_some() {
                    return sema_err(format!("duplicate global `{}`", g.name));
                }
            }
            Item::Func(f) => {
                let sig = FnSig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|(_, t)| t.clone()).collect(),
                    attrs: f.attrs.clone(),
                    defined: f.body.is_some(),
                };
                match ctx.funcs.get(&f.name) {
                    Some(prev) if prev.defined && f.body.is_some() => {
                        return sema_err(format!("duplicate function `{}`", f.name));
                    }
                    Some(prev) if prev.defined => {} // definition then decl: keep
                    _ => {
                        ctx.funcs.insert(f.name.clone(), sig);
                    }
                }
            }
            Item::Enum(_) => {}
        }
    }

    // Pass 3: lower bodies.
    let mut funcs = Vec::new();
    for item in &unit.items {
        if let Item::Func(f) = item {
            if let Some(body) = &f.body {
                funcs.push(lower_fn(f, body, &ctx)?);
            }
        }
    }
    Ok(Lowered { funcs, ctx })
}

struct FnLower<'a> {
    ir: FuncIr,
    ctx: &'a Ctx,
    cur: ir::BlockId,
    scopes: Vec<HashMap<String, (ir::SlotId, Type)>>,
    loop_stack: Vec<(ir::BlockId, ir::BlockId)>, // (continue target, break target)
    terminated: bool,
}

fn lower_fn(f: &Func, body: &Block, ctx: &Ctx) -> Result<FuncIr, CompileError> {
    let mut ir = FuncIr::new(&f.name, f.params.len() as u32, f.ret != Type::Void);
    ir.attrs.multiverse = f.attrs.multiverse;
    ir.attrs.pvop_cc = f.attrs.pvop_cc;
    ir.attrs.bind = f.attrs.bind.clone();
    let mut lw = FnLower {
        ir,
        ctx,
        cur: 0,
        scopes: vec![HashMap::new()],
        loop_stack: Vec::new(),
        terminated: false,
    };
    for (i, (name, ty)) in f.params.iter().enumerate() {
        lw.scopes[0].insert(name.clone(), (i as u32, ty.clone()));
    }
    lw.block(body)?;
    if !lw.terminated {
        let ret = if f.ret == Type::Void {
            Term::Ret(None)
        } else {
            Term::Ret(Some(Operand::Const(0)))
        };
        lw.ir.blocks[lw.cur as usize].term = ret;
    }
    lw.ir.validate();
    Ok(lw.ir)
}

impl<'a> FnLower<'a> {
    fn emit(&mut self, inst: Inst) {
        if !self.terminated {
            self.ir.blocks[self.cur as usize].insts.push(inst);
        }
    }

    fn set_term(&mut self, term: Term) {
        if !self.terminated {
            self.ir.blocks[self.cur as usize].term = term;
            self.terminated = true;
        }
    }

    fn switch_to(&mut self, b: ir::BlockId) {
        self.cur = b;
        self.terminated = false;
    }

    fn lookup_local(&self, name: &str) -> Option<(ir::SlotId, Type)> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn block(&mut self, b: &Block) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Local { name, ty, init, .. } => {
                let slot = self.ir.slot();
                self.scopes
                    .last_mut()
                    .expect("scope stack non-empty")
                    .insert(name.clone(), (slot, ty.clone()));
                if let Some(e) = init {
                    let (v, _) = self.expr(e)?;
                    self.emit(Inst::StoreLocal { slot, src: v });
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let (c, _) = self.expr(cond)?;
                let then_bb = self.ir.new_block();
                let exit_bb = self.ir.new_block();
                let else_bb = if els.is_some() {
                    self.ir.new_block()
                } else {
                    exit_bb
                };
                self.set_term(Term::Br {
                    cond: c,
                    t: then_bb,
                    f: else_bb,
                });
                self.switch_to(then_bb);
                self.block(then)?;
                self.set_term(Term::Jmp(exit_bb));
                if let Some(e) = els {
                    self.switch_to(else_bb);
                    self.block(e)?;
                    self.set_term(Term::Jmp(exit_bb));
                }
                self.switch_to(exit_bb);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond_bb = self.ir.new_block();
                let body_bb = self.ir.new_block();
                let exit_bb = self.ir.new_block();
                self.set_term(Term::Jmp(cond_bb));
                self.switch_to(cond_bb);
                let (c, _) = self.expr(cond)?;
                self.set_term(Term::Br {
                    cond: c,
                    t: body_bb,
                    f: exit_bb,
                });
                self.loop_stack.push((cond_bb, exit_bb));
                self.switch_to(body_bb);
                self.block(body)?;
                self.set_term(Term::Jmp(cond_bb));
                self.loop_stack.pop();
                self.switch_to(exit_bb);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let cond_bb = self.ir.new_block();
                let body_bb = self.ir.new_block();
                let step_bb = self.ir.new_block();
                let exit_bb = self.ir.new_block();
                self.set_term(Term::Jmp(cond_bb));
                self.switch_to(cond_bb);
                match cond {
                    Some(c) => {
                        let (v, _) = self.expr(c)?;
                        self.set_term(Term::Br {
                            cond: v,
                            t: body_bb,
                            f: exit_bb,
                        });
                    }
                    None => self.set_term(Term::Jmp(body_bb)),
                }
                self.loop_stack.push((step_bb, exit_bb));
                self.switch_to(body_bb);
                self.block(body)?;
                self.set_term(Term::Jmp(step_bb));
                self.loop_stack.pop();
                self.switch_to(step_bb);
                if let Some(e) = step {
                    self.expr(e)?;
                }
                self.set_term(Term::Jmp(cond_bb));
                self.switch_to(exit_bb);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.expr(e)?.0),
                    None => None,
                };
                self.set_term(Term::Ret(v));
                // Statements after a return land in a fresh unreachable
                // block (dropped by CFG cleanup).
                let dead = self.ir.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Break(pos) => {
                let Some(&(_, brk)) = self.loop_stack.last() else {
                    return sema_err(format!("`break` outside a loop at {pos}"));
                };
                self.set_term(Term::Jmp(brk));
                let dead = self.ir.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Continue(pos) => {
                let Some(&(cont, _)) = self.loop_stack.last() else {
                    return sema_err(format!("`continue` outside a loop at {pos}"));
                };
                self.set_term(Term::Jmp(cont));
                let dead = self.ir.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Block(b) => self.block(b),
        }
    }

    /// Lowers an expression; returns its value operand and (approximate)
    /// type for signedness decisions.
    fn expr(&mut self, e: &Expr) -> Result<(Operand, Type), CompileError> {
        match e {
            Expr::Int(v, _) => Ok((Operand::Const(*v), Type::I64)),
            Expr::Ident(name, pos) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    let dst = self.ir.temp();
                    self.emit(Inst::LoadLocal { dst, slot });
                    return Ok((Operand::Temp(dst), ty));
                }
                if let Some(&v) = self.ctx.enumerators.get(name) {
                    return Ok((Operand::Const(v), Type::I32));
                }
                if let Some(g) = self.ctx.globals.get(name) {
                    if g.array.is_some() {
                        // Arrays decay to their address.
                        let dst = self.ir.temp();
                        self.emit(Inst::AddrOf {
                            dst,
                            symbol: name.clone(),
                        });
                        return Ok((Operand::Temp(dst), Type::Ptr(Box::new(g.ty.clone()))));
                    }
                    let dst = self.ir.temp();
                    self.emit(Inst::LoadGlobal {
                        dst,
                        global: name.clone(),
                        width: g.ty.size() as u8,
                        signed: g.ty.signed(),
                    });
                    return Ok((Operand::Temp(dst), g.ty.clone()));
                }
                sema_err(format!("undefined name `{name}` at {pos}"))
            }
            Expr::Un(op, inner, _) => {
                let (a, ty) = self.expr(inner)?;
                let irop = match op {
                    UnOp::Neg => IrUn::Neg,
                    UnOp::Not => IrUn::Not,
                    UnOp::BitNot => IrUn::BitNot,
                };
                let dst = self.ir.temp();
                self.emit(Inst::Un { op: irop, dst, a });
                Ok((Operand::Temp(dst), ty))
            }
            Expr::Bin(op, l, r, _) => self.bin(*op, l, r),
            Expr::Assign(lhs, rhs, pos) => {
                let (v, vty) = self.expr(rhs)?;
                match &**lhs {
                    Expr::Ident(name, _) => {
                        if let Some((slot, _)) = self.lookup_local(name) {
                            self.emit(Inst::StoreLocal { slot, src: v });
                        } else if let Some(g) = self.ctx.globals.get(name) {
                            if g.array.is_some() {
                                return sema_err(format!("cannot assign to array `{name}`"));
                            }
                            self.emit(Inst::StoreGlobal {
                                global: name.clone(),
                                src: v,
                                width: g.ty.size() as u8,
                            });
                        } else {
                            return sema_err(format!("undefined name `{name}` at {pos}"));
                        }
                    }
                    Expr::Index(base, idx, _) => {
                        let (addr, elem) = self.element_addr(base, idx)?;
                        self.emit(Inst::StoreMem {
                            addr,
                            src: v,
                            width: elem.size() as u8,
                        });
                    }
                    other => {
                        return sema_err(format!("invalid assignment target at {:?}", other.pos()))
                    }
                }
                Ok((v, vty))
            }
            Expr::Call { callee, args, pos } => {
                let mut ops = Vec::new();
                for a in args {
                    ops.push(self.expr(a)?.0);
                }
                if ops.len() > 6 {
                    return sema_err(format!("more than six arguments at {pos}"));
                }
                // Direct function, or a fnptr global.
                if let Some(sig) = self.ctx.funcs.get(callee) {
                    if sig.params.len() != ops.len() {
                        return sema_err(format!(
                            "`{callee}` expects {} arguments, got {} at {pos}",
                            sig.params.len(),
                            ops.len()
                        ));
                    }
                    let ret = sig.ret.clone();
                    let dst = (ret != Type::Void).then(|| self.ir.temp());
                    self.emit(Inst::Call {
                        dst,
                        callee: Callee::Direct(callee.clone()),
                        args: ops,
                    });
                    return Ok((
                        dst.map(Operand::Temp).unwrap_or(Operand::Const(0)),
                        if ret == Type::Void { Type::I64 } else { ret },
                    ));
                }
                if let Some(g) = self.ctx.globals.get(callee) {
                    if g.ty != Type::Fnptr {
                        return sema_err(format!("`{callee}` is not callable at {pos}"));
                    }
                    let dst = self.ir.temp();
                    self.emit(Inst::Call {
                        dst: Some(dst),
                        callee: Callee::Ptr(callee.clone()),
                        args: ops,
                    });
                    return Ok((Operand::Temp(dst), Type::I64));
                }
                sema_err(format!("call to undefined `{callee}` at {pos}"))
            }
            Expr::Intrinsic { name, args, pos } => self.intrinsic(name, args, *pos),
            Expr::Index(base, idx, _) => {
                let (addr, elem) = self.element_addr(base, idx)?;
                let dst = self.ir.temp();
                self.emit(Inst::LoadMem {
                    dst,
                    addr,
                    width: elem.size() as u8,
                    signed: elem.signed(),
                });
                Ok((Operand::Temp(dst), elem))
            }
            Expr::AddrOf(name, pos) => {
                if self.ctx.funcs.contains_key(name) || self.ctx.globals.contains_key(name) {
                    let dst = self.ir.temp();
                    self.emit(Inst::AddrOf {
                        dst,
                        symbol: name.clone(),
                    });
                    Ok((Operand::Temp(dst), Type::Ptr(Box::new(Type::U8))))
                } else {
                    sema_err(format!("cannot take address of `{name}` at {pos}"))
                }
            }
        }
    }

    /// Computes the element address and element type for `base[idx]`.
    fn element_addr(&mut self, base: &Expr, idx: &Expr) -> Result<(Operand, Type), CompileError> {
        let (b, bty) = self.expr(base)?;
        let elem = match bty.pointee() {
            Some(t) => t.clone(),
            None => {
                return sema_err(format!(
                    "indexing non-pointer type {bty} at {:?}",
                    base.pos()
                ))
            }
        };
        let (i, _) = self.expr(idx)?;
        let scaled = if elem.size() == 1 {
            i
        } else {
            let t = self.ir.temp();
            self.emit(Inst::Bin {
                op: IrBin::Mul,
                dst: t,
                a: i,
                b: Operand::Const(elem.size() as i64),
            });
            Operand::Temp(t)
        };
        let addr = self.ir.temp();
        self.emit(Inst::Bin {
            op: IrBin::Add,
            dst: addr,
            a: b,
            b: scaled,
        });
        Ok((Operand::Temp(addr), elem))
    }

    fn bin(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<(Operand, Type), CompileError> {
        // Short-circuit operators with potentially effectful right side.
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) && !is_pure(r) {
            return self.short_circuit(op, l, r);
        }
        let (a, lty) = self.expr(l)?;
        let (b, rty) = self.expr(r)?;
        let unsigned = !lty.signed() && lty.size() >= 1 && matches!(lty, Type::Int { .. })
            || !rty.signed() && matches!(rty, Type::Int { .. })
            || matches!(lty, Type::Ptr(_))
            || matches!(rty, Type::Ptr(_));
        let irop = match op {
            BinOp::Add => IrBin::Add,
            BinOp::Sub => IrBin::Sub,
            BinOp::Mul => IrBin::Mul,
            BinOp::Div => {
                if unsigned {
                    IrBin::Divu
                } else {
                    IrBin::Divs
                }
            }
            BinOp::Rem => {
                if unsigned {
                    IrBin::Remu
                } else {
                    IrBin::Rems
                }
            }
            BinOp::And => IrBin::And,
            BinOp::Or => IrBin::Or,
            BinOp::Xor => IrBin::Xor,
            BinOp::Shl => IrBin::Shl,
            BinOp::Shr => {
                if unsigned {
                    IrBin::Shru
                } else {
                    IrBin::Shrs
                }
            }
            BinOp::Lt => {
                if unsigned {
                    IrBin::CmpLtu
                } else {
                    IrBin::CmpLts
                }
            }
            BinOp::Le => {
                if unsigned {
                    IrBin::CmpLeu
                } else {
                    IrBin::CmpLes
                }
            }
            BinOp::Gt => {
                if unsigned {
                    IrBin::CmpGtu
                } else {
                    IrBin::CmpGts
                }
            }
            BinOp::Ge => {
                if unsigned {
                    IrBin::CmpGeu
                } else {
                    IrBin::CmpGes
                }
            }
            BinOp::Eq => IrBin::CmpEq,
            BinOp::Ne => IrBin::CmpNe,
            BinOp::LogAnd | BinOp::LogOr => {
                // Both sides pure: evaluate eagerly as (l != 0) op (r != 0).
                let ta = self.ir.temp();
                self.emit(Inst::Bin {
                    op: IrBin::CmpNe,
                    dst: ta,
                    a,
                    b: Operand::Const(0),
                });
                let tb = self.ir.temp();
                self.emit(Inst::Bin {
                    op: IrBin::CmpNe,
                    dst: tb,
                    a: b,
                    b: Operand::Const(0),
                });
                let dst = self.ir.temp();
                self.emit(Inst::Bin {
                    op: if op == BinOp::LogAnd {
                        IrBin::And
                    } else {
                        IrBin::Or
                    },
                    dst,
                    a: Operand::Temp(ta),
                    b: Operand::Temp(tb),
                });
                return Ok((Operand::Temp(dst), Type::Bool));
            }
        };
        let dst = self.ir.temp();
        self.emit(Inst::Bin {
            op: irop,
            dst,
            a,
            b,
        });
        let ty = match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => Type::Bool,
            _ => {
                if unsigned {
                    Type::Int {
                        width: 8,
                        signed: false,
                    }
                } else {
                    lty
                }
            }
        };
        Ok((Operand::Temp(dst), ty))
    }

    fn short_circuit(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
    ) -> Result<(Operand, Type), CompileError> {
        let result = self.ir.slot();
        let (a, _) = self.expr(l)?;
        let rhs_bb = self.ir.new_block();
        let skip_bb = self.ir.new_block();
        let join_bb = self.ir.new_block();
        let (t, f, skip_val) = if op == BinOp::LogAnd {
            (rhs_bb, skip_bb, 0)
        } else {
            (skip_bb, rhs_bb, 1)
        };
        self.set_term(Term::Br { cond: a, t, f });
        self.switch_to(rhs_bb);
        let (b, _) = self.expr(r)?;
        let tb = self.ir.temp();
        self.emit(Inst::Bin {
            op: IrBin::CmpNe,
            dst: tb,
            a: b,
            b: Operand::Const(0),
        });
        self.emit(Inst::StoreLocal {
            slot: result,
            src: Operand::Temp(tb),
        });
        self.set_term(Term::Jmp(join_bb));
        self.switch_to(skip_bb);
        self.emit(Inst::StoreLocal {
            slot: result,
            src: Operand::Const(skip_val),
        });
        self.set_term(Term::Jmp(join_bb));
        self.switch_to(join_bb);
        let dst = self.ir.temp();
        self.emit(Inst::LoadLocal { dst, slot: result });
        Ok((Operand::Temp(dst), Type::Bool))
    }

    fn intrinsic(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: crate::token::Pos,
    ) -> Result<(Operand, Type), CompileError> {
        let mut ops = Vec::new();
        for a in args {
            ops.push(self.expr(a)?.0);
        }
        let (kind, n_args, has_ret) = match name {
            "__xchg" => (Intrinsic::Xchg, 2, true),
            "__cli" => (Intrinsic::Cli, 0, false),
            "__sti" => (Intrinsic::Sti, 0, false),
            "__hypercall" => (Intrinsic::Hypercall, 1, false),
            "__rdtsc" => (Intrinsic::Rdtsc, 0, true),
            "__out" => (Intrinsic::Out, 1, false),
            "__pause" => (Intrinsic::Pause, 0, false),
            "__mfence" => (Intrinsic::Mfence, 0, false),
            "__halt" => (Intrinsic::Halt, 0, false),
            other => return sema_err(format!("unknown intrinsic `{other}` at {pos}")),
        };
        if ops.len() != n_args {
            return sema_err(format!(
                "`{name}` expects {n_args} argument(s), got {} at {pos}",
                ops.len()
            ));
        }
        let dst = has_ret.then(|| self.ir.temp());
        self.emit(Inst::Intr {
            dst,
            kind,
            args: ops,
        });
        Ok((
            dst.map(Operand::Temp).unwrap_or(Operand::Const(0)),
            Type::I64,
        ))
    }
}

/// `true` if evaluating `e` has no side effects (safe to evaluate eagerly).
fn is_pure(e: &Expr) -> bool {
    match e {
        Expr::Int(..) | Expr::Ident(..) | Expr::AddrOf(..) => true,
        Expr::Un(_, x, _) => is_pure(x),
        Expr::Bin(_, a, b, _) => is_pure(a) && is_pure(b),
        Expr::Index(a, b, _) => is_pure(a) && is_pure(b),
        Expr::Assign(..) | Expr::Call { .. } | Expr::Intrinsic { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Lowered {
        lower_unit(&parse(&lex(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn lowers_simple_function() {
        let l = lower_src("i64 add(i64 a, i64 b) { return a + b; }");
        assert_eq!(l.funcs.len(), 1);
        let f = &l.funcs[0];
        assert_eq!(f.n_params, 2);
        assert!(f.has_ret);
        f.validate();
    }

    #[test]
    fn switch_domain_rules() {
        let l = lower_src(
            "multiverse bool a; multiverse(2,4,6) i32 b; \
             enum m { X, Y = 7 }; multiverse enum m c;",
        );
        assert_eq!(l.ctx.switch_domain("a"), vec![0, 1]);
        assert_eq!(l.ctx.switch_domain("b"), vec![2, 4, 6]);
        assert_eq!(l.ctx.switch_domain("c"), vec![0, 7]);
    }

    /// Builds `decl` plus a multiversed reader of switch `s` and returns
    /// the domain error it must fail with.
    fn domain_error(decl: &str) -> (String, String, i64) {
        let src = format!("{decl} multiverse i64 f(void) {{ if (s) {{ return 1; }} return 0; }}");
        match crate::driver::compile(&src, "t.c", &crate::driver::Options::default()) {
            Err(CompileError::SwitchDomain {
                switch, ty, value, ..
            }) => (switch, ty, value),
            other => panic!("{decl}: expected a domain error, got {other:?}"),
        }
    }

    #[test]
    fn i64_domain_beyond_guard_range_is_rejected() {
        // Used to fail at link: 0 and 2^32 both named the variant `f.s=0`.
        let e = domain_error("multiverse(0, 4294967296) i64 s;");
        assert_eq!(e, ("s".into(), "i64".into(), 4294967296));
    }

    #[test]
    fn u32_domain_beyond_guard_range_is_rejected() {
        let e = domain_error("multiverse(0, 3000000000) u32 s;");
        assert_eq!(e, ("s".into(), "u32".into(), 3000000000));
    }

    #[test]
    fn u8_domain_beyond_its_width_is_rejected() {
        let e = domain_error("multiverse(0, 300) u8 s;");
        assert_eq!(e, ("s".into(), "u8".into(), 300));
    }

    #[test]
    fn i8_domain_beyond_its_width_is_rejected() {
        let e = domain_error("multiverse(0, 200) i8 s;");
        assert_eq!(e, ("s".into(), "i8".into(), 200));
    }

    #[test]
    fn negative_domain_of_unsigned_switch_is_rejected() {
        let e = domain_error("multiverse(0, -1) u16 s;");
        assert_eq!(e, ("s".into(), "u16".into(), -1));
        let msg = CompileError::SwitchDomain {
            switch: "s".into(),
            ty: "u16".into(),
            value: -1,
            range: (0, 65535),
        }
        .to_string();
        assert!(
            msg.contains("`s` (u16) cannot hold domain value -1"),
            "{msg}"
        );
    }

    #[test]
    fn domains_at_the_limits_compile() {
        for decl in [
            "multiverse(0, 255) u8 s;",
            "multiverse(-128, 127) i8 s;",
            "multiverse(0, 65535) u16 s;",
            "multiverse(-2147483648, 2147483647) i64 s;",
            "multiverse(0, 2147483647) u32 s;",
            "multiverse(0, 1) bool s;",
        ] {
            let src =
                format!("{decl} multiverse i64 f(void) {{ if (s) {{ return 1; }} return 0; }}");
            crate::driver::compile(&src, "t.c", &crate::driver::Options::default())
                .unwrap_or_else(|e| panic!("{decl}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_switch_types() {
        let bad = parse(&lex("multiverse u8* p;").unwrap()).unwrap();
        assert!(lower_unit(&bad).is_err());
        let arr = parse(&lex("multiverse i32 a[4];").unwrap()).unwrap();
        assert!(lower_unit(&arr).is_err());
    }

    #[test]
    fn fnptr_global_is_switchable() {
        let l = lower_src("multiverse fnptr op;");
        assert!(l.ctx.globals["op"].is_switch());
    }

    #[test]
    fn rejects_undefined_names() {
        let u = parse(&lex("void f(void) { x = 1; }").unwrap()).unwrap();
        assert!(lower_unit(&u).is_err());
        let u = parse(&lex("void f(void) { g(); }").unwrap()).unwrap();
        assert!(lower_unit(&u).is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let u = parse(&lex("void g(i64 x) {} void f(void) { g(); }").unwrap()).unwrap();
        assert!(lower_unit(&u).is_err());
    }

    #[test]
    fn break_outside_loop_is_error() {
        let u = parse(&lex("void f(void) { break; }").unwrap()).unwrap();
        assert!(lower_unit(&u).is_err());
    }

    #[test]
    fn loops_and_branches_validate() {
        let l = lower_src(
            r#"
            i64 acc;
            void f(i64 n) {
                for (i64 i = 0; i < n; i++) {
                    if (i % 2 == 0) { continue; }
                    if (i > 100) { break; }
                    acc = acc + i;
                }
                while (acc > 10) { acc = acc - 1; }
            }
            "#,
        );
        l.funcs[0].validate();
        assert!(l.funcs[0].blocks.len() > 5);
    }

    #[test]
    fn short_circuit_generates_blocks() {
        let l = lower_src(
            "i64 g(void) { return 1; } \
             i64 f(i64 x) { if (x && g()) { return 1; } return 0; }",
        );
        let f = l.funcs.iter().find(|f| f.name == "f").unwrap();
        f.validate();
        // Call to g must be in a separate block, reachable only when x != 0.
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn global_initializers_are_recorded() {
        let l = lower_src("i64 x = -5; fnptr op = &f; void f(void) {}");
        assert_eq!(l.ctx.globals["x"].init_const, Some(-5));
        assert_eq!(l.ctx.globals["op"].init_addr_of.as_deref(), Some("f"));
    }

    #[test]
    fn enum_constants_fold() {
        let l = lower_src("enum e { A = 3 }; i64 f(void) { return A; }");
        let f = &l.funcs[0];
        // The enumerator lowers to a constant return.
        let has_const_ret = f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Term::Ret(Some(Operand::Const(3)))));
        assert!(has_const_ret);
    }

    #[test]
    fn array_indexing_scales() {
        let l = lower_src("u64 tab[8]; u64 f(i64 i) { return tab[i]; }");
        let f = &l.funcs[0];
        f.validate();
        let has_mul = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        op: IrBin::Mul,
                        b: Operand::Const(8),
                        ..
                    }
                )
            })
        });
        assert!(has_mul, "index must scale by element size 8");
    }

    #[test]
    fn intrinsics_lower() {
        let l = lower_src(
            "i64 lock_word; void f(void) { __cli(); \
             while (__xchg(&lock_word, 1) != 0) { __pause(); } __sti(); }",
        );
        l.funcs[0].validate();
    }
}
