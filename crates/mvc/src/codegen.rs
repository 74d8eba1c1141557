//! MV64 code generation.
//!
//! A deliberately simple backend: temporaries live in a pool of
//! caller-saved registers (`r1`–`r5`, `r12`, `r13`) with greedy last-use
//! allocation, locals and spill homes live in a `bp`-based frame, and leaf
//! functions without locals skip the frame entirely so the paper's tiny
//! hot functions (`spin_lock`, `cli` wrappers, …) carry no prologue
//! overhead.
//!
//! Responsibilities beyond instruction selection:
//!
//! * **Call-site labelling** (§3): every `call rel32` to a multiversed
//!   function and every `call *[ptr]` through a multiverse function
//!   pointer is recorded with its exact byte offset — these become
//!   `multiverse.callsites` descriptors.
//! * **Calling conventions** (§6.1): functions marked `pvop_cc` are
//!   emitted with the PV-Ops convention — the callee saves and restores
//!   the *entire* caller-saved register file, reproducing the overhead
//!   the paper measured in the Xen guest.
//! * **Inline metadata** (§4): after assembly each body is analysed for
//!   run-time inlinability — a straight-line prefix followed by a single
//!   `ret`, free of relative control transfers.

use crate::error::CompileError;
use crate::ir::{Callee, FuncIr, Inst, Intrinsic, IrUn, Operand, Term};
use crate::lower::Ctx;
use mvasm::{AluOp, Assembler, Cond, Insn, Reg, Width};
use mvobj::descriptor::NOT_INLINABLE;
use std::collections::HashMap;

/// Register pool for temporaries (all caller-saved).
const POOL: [Reg; 7] = [
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R12,
    Reg::R13,
];

/// Generated machine code for one function.
pub struct GenFn {
    /// Assembled bytes (padded to at least 5 bytes so the runtime can
    /// always place an entry jump).
    pub blob: mvasm::asm::CodeBlob,
    /// `(offset, callee)` of recorded direct call sites to multiversed
    /// functions.
    pub mv_callsites: Vec<(u32, String)>,
    /// `(offset, pointer-global)` of recorded indirect call sites through
    /// multiverse function pointers.
    pub ptr_callsites: Vec<(u32, String)>,
    /// Run-time inlinable prefix length, or [`NOT_INLINABLE`].
    pub inline_len: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    Reg(Reg),
    Slot(u32),
}

struct Gen<'a> {
    f: &'a FuncIr,
    ctx: &'a Ctx,
    record_sites: bool,
    a: Assembler,
    /// temp → current location.
    loc: HashMap<u32, Loc>,
    free: Vec<Reg>,
    /// temp → home spill slot (lazily assigned after `n_slots`).
    home: HashMap<u32, u32>,
    next_home: u32,
    has_frame: bool,
    n_pushes: u32,
    frame_bytes: i64,
    /// Registers the PV-Ops prologue/epilogue saves.
    pvop_save: Vec<Reg>,
    /// Pool registers the body actually allocated (for the PV-Ops
    /// clobber set).
    used: std::collections::HashSet<Reg>,
    mv_callsites: Vec<(u32, String)>,
    ptr_callsites: Vec<(u32, String)>,
}

/// Generates code for `f`.
///
/// `record_sites` controls call-site descriptor recording (off for the
/// plain dynamic baseline build).
pub fn gen_function(f: &FuncIr, ctx: &Ctx, record_sites: bool) -> Result<GenFn, CompileError> {
    f.validate();
    // PV-Ops functions save exactly the registers they clobber, as the
    // kernel's clobber annotations do. The set is discovered with a dry
    // run (allocation is offset-independent, so both passes allocate
    // identically).
    let save = if f.attrs.pvop_cc {
        let dry = gen_once(f, ctx, record_sites, POOL.to_vec())?;
        let mut regs: Vec<Reg> = dry.1.into_iter().collect();
        regs.sort_by_key(|r| r.index());
        regs
    } else {
        Vec::new()
    };
    let (g, _) = gen_once(f, ctx, record_sites, save)?;
    Ok(g)
}

fn gen_once(
    f: &FuncIr,
    ctx: &Ctx,
    record_sites: bool,
    pvop_save: Vec<Reg>,
) -> Result<(GenFn, std::collections::HashSet<Reg>), CompileError> {
    let max_block_temps = f
        .blocks
        .iter()
        .map(|b| b.insts.iter().filter(|i| i.dst().is_some()).count())
        .max()
        .unwrap_or(0);
    // A call needs the frame when an argument is a temporary (staged via
    // home slots) or when a temporary is live across it (spilled).
    let call_needs_frame = f.blocks.iter().any(|b| {
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        let mut def_at: HashMap<u32, usize> = HashMap::new();
        for (i, inst) in b.insts.iter().enumerate() {
            for op in inst.operands() {
                if let Operand::Temp(t) = op {
                    last_use.insert(t, i);
                }
            }
            if let Some(d) = inst.dst() {
                def_at.insert(d, i);
            }
        }
        let term_idx = b.insts.len();
        match &b.term {
            Term::Br {
                cond: Operand::Temp(t),
                ..
            } => {
                last_use.insert(*t, term_idx);
            }
            Term::Ret(Some(Operand::Temp(t))) => {
                last_use.insert(*t, term_idx);
            }
            _ => {}
        }
        b.insts.iter().enumerate().any(|(i, inst)| {
            let Inst::Call { args, .. } = inst else {
                return false;
            };
            if args.iter().any(|a| matches!(a, Operand::Temp(_))) {
                return true;
            }
            def_at
                .iter()
                .any(|(t, &d)| d < i && last_use.get(t).copied().unwrap_or(d) > i)
        })
    });
    // Slots matter only if the optimized body still touches one (dead
    // locals — e.g. after full specialization — must not force a frame).
    let uses_slots = f.blocks.iter().any(|b| {
        b.insts
            .iter()
            .any(|i| matches!(i, Inst::LoadLocal { .. } | Inst::StoreLocal { .. }))
    });
    // Constant staging can hold up to two extra registers beyond the
    // block's temporaries; stay clear of the pool limit.
    let has_frame = uses_slots || call_needs_frame || max_block_temps + 2 > POOL.len();
    let pvop_pushes = pvop_save.len() as u32;
    // Home slots: locals first, then (worst case) one per temp.
    let frame_bytes = 8 * (f.n_slots as i64 + f.n_temps as i64);

    let mut g = Gen {
        f,
        ctx,
        record_sites,
        a: Assembler::new(),
        loc: HashMap::new(),
        free: Vec::new(),
        home: HashMap::new(),
        next_home: f.n_slots,
        has_frame,
        n_pushes: pvop_pushes,
        frame_bytes,
        pvop_save,
        used: std::collections::HashSet::new(),
        mv_callsites: Vec::new(),
        ptr_callsites: Vec::new(),
    };

    g.prologue();
    for bi in 0..f.blocks.len() {
        g.block(bi)?;
    }
    let used = g.used.clone();

    let blob =
        g.a.finish()
            .map_err(|e| CompileError::Asm(format!("{}: {e}", f.name)))?;
    let mut blob = blob;
    // Pad to at least one call-site width so an entry jump always fits.
    mvasm::MV64.pad_entry(&mut blob.bytes);
    let inline_len = compute_inline_len(&blob);
    Ok((
        GenFn {
            blob,
            mv_callsites: g.mv_callsites,
            ptr_callsites: g.ptr_callsites,
            inline_len,
        },
        used,
    ))
}

/// A body is run-time inlinable if it is a straight-line instruction
/// sequence followed by a single final `ret`, with no relative control
/// transfers (their displacement would break at the copy destination).
/// Absolute references (globals) copy fine. Returns the prefix length.
fn compute_inline_len(blob: &mvasm::asm::CodeBlob) -> u32 {
    let bytes = &blob.bytes;
    // Any rel32 fixup in the body makes it position-dependent.
    if blob
        .fixups
        .iter()
        .any(|fx| matches!(fx.kind, mvasm::FixupKind::Rel32 { .. }))
    {
        return NOT_INLINABLE;
    }
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Ok((insn, len)) = mvasm::decode(&bytes[pos..]) else {
            return NOT_INLINABLE;
        };
        match insn {
            Insn::Ret => {
                // Must be the final instruction (ignoring padding NOPs).
                let mut rest = pos + len;
                while rest < bytes.len() {
                    match mvasm::decode(&bytes[rest..]) {
                        Ok((i, l)) if i.is_nop() => rest += l,
                        _ => return NOT_INLINABLE,
                    }
                }
                return pos as u32;
            }
            i if i.is_control() => return NOT_INLINABLE,
            // Stack-relative code (frames, pushes) is position-independent
            // but changes `sp` expectations; push/pop pairs inline fine.
            _ => pos += len,
        }
    }
    NOT_INLINABLE
}

impl<'a> Gen<'a> {
    fn prologue(&mut self) {
        if self.has_frame {
            self.a.push(Reg::BP);
            self.a.mov_rr(Reg::BP, Reg::SP);
        }
        if self.f.attrs.pvop_cc {
            // PV-Ops convention: no volatile registers (§6.1) — the
            // callee saves every register it clobbers.
            let save = self.pvop_save.clone();
            for r in save {
                self.a.push(r);
            }
        }
        if self.has_frame {
            self.a.emit(Insn::AluRI {
                op: AluOp::Sub,
                dst: Reg::SP,
                imm: self.frame_bytes,
            });
            // Park incoming parameters in their slots.
            for p in 0..self.f.n_params {
                let src = Reg::new(p as u8).expect("≤ 6 params");
                self.a.emit(Insn::Store {
                    src,
                    base: Reg::BP,
                    off: self.slot_off(p),
                    width: Width::W64,
                });
            }
        }
        self.reset_block_state();
    }

    fn epilogue(&mut self) {
        if self.has_frame {
            self.a.emit(Insn::AluRI {
                op: AluOp::Add,
                dst: Reg::SP,
                imm: self.frame_bytes,
            });
        }
        if self.f.attrs.pvop_cc {
            let save = self.pvop_save.clone();
            for r in save.iter().rev() {
                self.a.pop(*r);
            }
        }
        if self.has_frame {
            self.a.pop(Reg::BP);
        }
        self.a.ret();
    }

    fn slot_off(&self, slot: u32) -> i32 {
        -(((self.n_pushes + slot + 1) * 8) as i32)
    }

    fn reset_block_state(&mut self) {
        self.loc.clear();
        self.free = POOL.to_vec();
    }

    fn alloc_reg(&mut self) -> Reg {
        if let Some(r) = self.free.pop() {
            self.used.insert(r);
            return r;
        }
        // Spill the register whose temp was defined earliest (any victim
        // is correct; temps reload from their home slot on next use).
        let (&victim, &Loc::Reg(r)) = self
            .loc
            .iter()
            .filter(|(_, l)| matches!(l, Loc::Reg(_)))
            .min_by_key(|(t, _)| **t)
            .expect("pool exhausted implies a register-resident temp")
        else {
            unreachable!("filtered to registers");
        };
        let home = self.home_of(victim);
        self.a.emit(Insn::Store {
            src: r,
            base: Reg::BP,
            off: self.slot_off(home),
            width: Width::W64,
        });
        self.loc.insert(victim, Loc::Slot(home));
        r
    }

    fn home_of(&mut self, temp: u32) -> u32 {
        if let Some(&h) = self.home.get(&temp) {
            return h;
        }
        let h = self.next_home;
        self.next_home += 1;
        assert!(
            h < self.f.n_slots + self.f.n_temps,
            "home slots exceed frame reservation"
        );
        self.home.insert(temp, h);
        h
    }

    /// Materializes a temp in a register (reloading from its home slot if
    /// it was spilled).
    fn temp_reg(&mut self, t: u32) -> Reg {
        match self.loc.get(&t).copied() {
            Some(Loc::Reg(r)) => r,
            Some(Loc::Slot(s)) => {
                let r = self.alloc_reg();
                self.a.emit(Insn::Load {
                    dst: r,
                    base: Reg::BP,
                    off: self.slot_off(s),
                    width: Width::W64,
                    signed: false,
                });
                self.loc.insert(t, Loc::Reg(r));
                r
            }
            None => panic!("{}: temp t{t} has no location", self.f.name),
        }
    }

    /// Materializes any operand in a register.
    fn operand_reg(&mut self, op: Operand) -> Reg {
        match op {
            Operand::Temp(t) => self.temp_reg(t),
            Operand::Const(c) => {
                let r = self.alloc_reg();
                self.a.mov_ri(r, c);
                // Constants are not tracked; caller must free via
                // free_scratch when done.
                r
            }
        }
    }

    fn define(&mut self, t: u32) -> Reg {
        let r = self.alloc_reg();
        self.loc.insert(t, Loc::Reg(r));
        r
    }

    fn kill(&mut self, t: u32) {
        if let Some(Loc::Reg(r)) = self.loc.remove(&t) {
            self.free.push(r);
        }
    }

    fn free_scratch(&mut self, op: Operand, r: Reg) {
        if matches!(op, Operand::Const(_)) {
            self.free.push(r);
        }
    }

    fn block(&mut self, bi: usize) -> Result<(), CompileError> {
        self.a.label(&format!(".b{bi}"));
        self.reset_block_state();
        let block = &self.f.blocks[bi];

        // Last use index per temp (terminator = insts.len()).
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        for (i, inst) in block.insts.iter().enumerate() {
            for op in inst.operands() {
                if let Operand::Temp(t) = op {
                    last_use.insert(t, i);
                }
            }
        }
        let term_idx = block.insts.len();
        match &block.term {
            Term::Br {
                cond: Operand::Temp(t),
                ..
            } => {
                last_use.insert(*t, term_idx);
            }
            Term::Ret(Some(Operand::Temp(t))) => {
                last_use.insert(*t, term_idx);
            }
            _ => {}
        }

        // Detect the cmp+branch fusion opportunity: last inst is a
        // comparison whose only consumer is the branch condition.
        let fuse = matches!(
            (&block.term, block.insts.last()),
            (
                Term::Br { cond: Operand::Temp(ct), .. },
                Some(Inst::Bin { op, dst, .. }),
            ) if dst == ct && op.cmp_cond().is_some()
        );

        let n = block.insts.len();
        for (i, inst) in block.insts.iter().enumerate() {
            if fuse && i == n - 1 {
                // Emit only the flag-setting compare; Jcc follows in the
                // terminator.
                let Inst::Bin { op, a, b, .. } = inst else {
                    unreachable!("fusion requires a compare")
                };
                self.emit_cmp(*a, *b);
                let _ = op;
                break;
            }
            self.inst(i, inst)?;
            // Free temps whose last use has passed.
            for op in inst.operands() {
                if let Operand::Temp(t) = op {
                    if last_use.get(&t) == Some(&i) {
                        self.kill(t);
                    }
                }
            }
            // A result that is never used (e.g. call in statement
            // position) frees immediately.
            if let Some(d) = inst.dst() {
                if !last_use.contains_key(&d) {
                    self.kill(d);
                }
            }
        }

        // Terminator.
        let next_bi = bi + 1;
        match &block.term {
            Term::Jmp(t) => {
                if *t as usize != next_bi {
                    self.a.jmp(&format!(".b{t}"));
                }
            }
            Term::Br { cond, t, f } => {
                let cc = if fuse {
                    let Some(Inst::Bin { op, .. }) = block.insts.last() else {
                        unreachable!()
                    };
                    op.cmp_cond().expect("fusion checked")
                } else {
                    match cond {
                        Operand::Temp(tt) => {
                            let r = self.temp_reg(*tt);
                            self.a.cmp_ri(r, 0);
                            Cond::Ne
                        }
                        Operand::Const(c) => {
                            // Should have been folded; emit correct code
                            // anyway.
                            if *c != 0 {
                                if *t as usize != next_bi {
                                    self.a.jmp(&format!(".b{t}"));
                                }
                            } else if *f as usize != next_bi {
                                self.a.jmp(&format!(".b{f}"));
                            }
                            return Ok(());
                        }
                    }
                };
                if *t as usize == next_bi {
                    // Fall through into the taken arm by negating the
                    // condition; at most one branch instruction emitted.
                    self.a.jcc(&format!(".b{f}"), cc.negate());
                } else {
                    self.a.jcc(&format!(".b{t}"), cc);
                    if *f as usize != next_bi {
                        self.a.jmp(&format!(".b{f}"));
                    }
                }
            }
            Term::Ret(v) => {
                match v {
                    Some(Operand::Const(c)) => self.a.mov_ri(Reg::R0, *c),
                    Some(Operand::Temp(t)) => {
                        let r = self.temp_reg(*t);
                        if r != Reg::R0 {
                            self.a.mov_rr(Reg::R0, r);
                        }
                    }
                    None => {}
                }
                self.epilogue();
            }
        }
        Ok(())
    }

    fn emit_cmp(&mut self, a: Operand, b: Operand) {
        let ra = self.operand_reg(a);
        match b {
            Operand::Const(c) => self.a.cmp_ri(ra, c),
            Operand::Temp(t) => {
                let rb = self.temp_reg(t);
                self.a.cmp_rr(ra, rb);
            }
        }
        self.free_scratch(a, ra);
    }

    fn inst(&mut self, _i: usize, inst: &Inst) -> Result<(), CompileError> {
        match inst {
            Inst::Bin { op, dst, a, b } => {
                if let Some(cc) = op.cmp_cond() {
                    self.emit_cmp(*a, *b);
                    let rd = self.define(*dst);
                    self.a.emit(Insn::Setcc { cc, dst: rd });
                    return Ok(());
                }
                let aluop = op.alu_op().expect("non-compare IR op maps to ALU");
                // dst ← a; dst ←op b.
                let rd = self.define(*dst);
                match a {
                    Operand::Const(c) => self.a.mov_ri(rd, *c),
                    Operand::Temp(t) => {
                        let ra = self.temp_reg(*t);
                        self.a.mov_rr(rd, ra);
                    }
                }
                match b {
                    Operand::Const(c) => self.a.emit(Insn::AluRI {
                        op: aluop,
                        dst: rd,
                        imm: *c,
                    }),
                    Operand::Temp(t) => {
                        let rb = self.temp_reg(*t);
                        self.a.emit(Insn::AluRR {
                            op: aluop,
                            dst: rd,
                            src: rb,
                        });
                    }
                }
            }
            Inst::Un { op, dst, a } => match op {
                IrUn::Neg => {
                    let rd = self.define(*dst);
                    self.a.mov_ri(rd, 0);
                    let ra = self.operand_reg(*a);
                    self.a.emit(Insn::AluRR {
                        op: AluOp::Sub,
                        dst: rd,
                        src: ra,
                    });
                    self.free_scratch(*a, ra);
                }
                IrUn::Not => {
                    self.emit_cmp(*a, Operand::Const(0));
                    let rd = self.define(*dst);
                    self.a.emit(Insn::Setcc {
                        cc: Cond::Eq,
                        dst: rd,
                    });
                }
                IrUn::BitNot => {
                    let rd = self.define(*dst);
                    match a {
                        Operand::Const(c) => self.a.mov_ri(rd, *c),
                        Operand::Temp(t) => {
                            let ra = self.temp_reg(*t);
                            self.a.mov_rr(rd, ra);
                        }
                    }
                    self.a.emit(Insn::AluRI {
                        op: AluOp::Xor,
                        dst: rd,
                        imm: -1,
                    });
                }
            },
            Inst::LoadGlobal {
                dst,
                global,
                width,
                signed,
            } => {
                let rd = self.define(*dst);
                let w = Width::from_bytes(*width as usize).expect("validated width");
                self.a.load_sym(rd, global, 0, w, *signed);
            }
            Inst::StoreGlobal { global, src, width } => {
                let rs = self.operand_reg(*src);
                let w = Width::from_bytes(*width as usize).expect("validated width");
                self.a.store_sym(rs, global, 0, w);
                self.free_scratch(*src, rs);
            }
            Inst::AddrOf { dst, symbol } => {
                let rd = self.define(*dst);
                self.a.lea_sym(rd, symbol);
            }
            Inst::LoadLocal { dst, slot } => {
                let rd = self.define(*dst);
                self.a.emit(Insn::Load {
                    dst: rd,
                    base: Reg::BP,
                    off: self.slot_off(*slot),
                    width: Width::W64,
                    signed: false,
                });
            }
            Inst::StoreLocal { slot, src } => {
                let rs = self.operand_reg(*src);
                self.a.emit(Insn::Store {
                    src: rs,
                    base: Reg::BP,
                    off: self.slot_off(*slot),
                    width: Width::W64,
                });
                self.free_scratch(*src, rs);
            }
            Inst::LoadMem {
                dst,
                addr,
                width,
                signed,
            } => {
                let ra = self.operand_reg(*addr);
                let rd = self.define(*dst);
                let w = Width::from_bytes(*width as usize).expect("validated width");
                self.a.emit(Insn::Load {
                    dst: rd,
                    base: ra,
                    off: 0,
                    width: w,
                    signed: *signed,
                });
                self.free_scratch(*addr, ra);
            }
            Inst::StoreMem { addr, src, width } => {
                let ra = self.operand_reg(*addr);
                let rs = self.operand_reg(*src);
                let w = Width::from_bytes(*width as usize).expect("validated width");
                self.a.emit(Insn::Store {
                    src: rs,
                    base: ra,
                    off: 0,
                    width: w,
                });
                self.free_scratch(*addr, ra);
                self.free_scratch(*src, rs);
            }
            Inst::Call { dst, callee, args } => {
                self.call(*dst, callee, args)?;
            }
            Inst::Intr { dst, kind, args } => self.intrinsic(*dst, *kind, args)?,
        }
        Ok(())
    }

    fn call(
        &mut self,
        dst: Option<u32>,
        callee: &Callee,
        args: &[Operand],
    ) -> Result<(), CompileError> {
        // Does the callee preserve our registers? (With more than one
        // argument the argument registers overlap the temp pool, so fall
        // back to the spilling path for simplicity.)
        let callee_preserves = args.len() <= 1
            && match callee {
                Callee::Direct(name) => self
                    .ctx
                    .funcs
                    .get(name)
                    .is_some_and(|sig| sig.attrs.pvop_cc),
                Callee::Ptr(_) => false,
            };

        // Spill every register-resident temp to its home slot (unless the
        // callee preserves registers). Constants in args need no spilling.
        if !callee_preserves {
            // Sorted by temp id: `loc` is a HashMap, and both the store
            // sequence and the free-list refill order below must not
            // depend on its iteration order — identical sources must
            // compile to identical bytes.
            let mut resident: Vec<(u32, Reg)> = self
                .loc
                .iter()
                .filter_map(|(&t, &l)| match l {
                    Loc::Reg(r) => Some((t, r)),
                    Loc::Slot(_) => None,
                })
                .collect();
            resident.sort_unstable_by_key(|&(t, _)| t);
            for (t, r) in resident {
                let home = self.home_of(t);
                self.a.emit(Insn::Store {
                    src: r,
                    base: Reg::BP,
                    off: self.slot_off(home),
                    width: Width::W64,
                });
                self.loc.insert(t, Loc::Slot(home));
                self.free.push(r);
            }
        }

        // Load arguments into r0..r5 straight from homes/constants.
        for (j, arg) in args.iter().enumerate() {
            let target = Reg::new(j as u8).expect("≤ 6 args");
            match arg {
                Operand::Const(c) => self.a.mov_ri(target, *c),
                Operand::Temp(t) => match self.loc.get(t).copied() {
                    Some(Loc::Slot(s)) => {
                        let off = self.slot_off(s);
                        self.a.emit(Insn::Load {
                            dst: target,
                            base: Reg::BP,
                            off,
                            width: Width::W64,
                            signed: false,
                        });
                    }
                    Some(Loc::Reg(r)) => {
                        // Callee-preserving path: temp still in a pool
                        // register (pool regs never alias r0..r5? They do:
                        // r1..r5 are in the pool). Move directly — safe
                        // because with a preserving callee we never loaded
                        // args over pool registers... to stay safe, go
                        // through the home slot instead when target is a
                        // pool register holding a live temp.
                        if self.loc.values().any(|l| *l == Loc::Reg(target)) && r != target {
                            let home = self.home_of(*t);
                            let off = self.slot_off(home);
                            self.a.emit(Insn::Store {
                                src: r,
                                base: Reg::BP,
                                off,
                                width: Width::W64,
                            });
                            self.a.emit(Insn::Load {
                                dst: target,
                                base: Reg::BP,
                                off,
                                width: Width::W64,
                                signed: false,
                            });
                        } else if r != target {
                            self.a.mov_rr(target, r);
                        }
                    }
                    None => panic!("arg temp without location"),
                },
            }
        }

        // Emit the call, recording descriptor-worthy sites.
        match callee {
            Callee::Direct(name) => {
                let is_mv = self
                    .ctx
                    .funcs
                    .get(name)
                    .is_some_and(|sig| sig.attrs.multiverse);
                let off = self.a.len() as u32;
                if is_mv && self.record_sites {
                    self.mv_callsites.push((off, name.clone()));
                }
                self.a.call_sym(name, false);
            }
            Callee::Ptr(global) => {
                let is_mv_ptr = self.ctx.globals.get(global).is_some_and(|g| g.is_switch());
                let off = self.a.len() as u32;
                if is_mv_ptr && self.record_sites {
                    self.ptr_callsites.push((off, global.clone()));
                }
                self.a.call_mem_sym(global);
            }
        }

        if let Some(d) = dst {
            let rd = self.define(d);
            if rd != Reg::R0 {
                self.a.mov_rr(rd, Reg::R0);
            }
        }
        Ok(())
    }

    fn intrinsic(
        &mut self,
        dst: Option<u32>,
        kind: Intrinsic,
        args: &[Operand],
    ) -> Result<(), CompileError> {
        match kind {
            Intrinsic::Xchg => {
                let base = self.operand_reg(args[0]);
                // The exchanged register is clobbered; copy the value into
                // the destination first.
                let rd = match dst {
                    Some(d) => self.define(d),
                    None => self.alloc_reg(),
                };
                match args[1] {
                    Operand::Const(c) => self.a.mov_ri(rd, c),
                    Operand::Temp(t) => {
                        let rv = self.temp_reg(t);
                        self.a.mov_rr(rd, rv);
                    }
                }
                self.a.emit(Insn::XchgLock { val: rd, base });
                self.free_scratch(args[0], base);
                if dst.is_none() {
                    self.free.push(rd);
                }
            }
            Intrinsic::Cli => self.a.emit(Insn::Cli),
            Intrinsic::Sti => self.a.emit(Insn::Sti),
            Intrinsic::Hypercall => {
                let Operand::Const(nr) = args[0] else {
                    return Err(CompileError::Sema {
                        msg: format!("{}: __hypercall number must be a constant", self.f.name),
                    });
                };
                self.a.emit(Insn::Hypercall { nr: nr as u8 });
            }
            Intrinsic::Rdtsc => {
                let rd = match dst {
                    Some(d) => self.define(d),
                    None => self.alloc_reg(),
                };
                self.a.emit(Insn::Rdtsc { dst: rd });
                if dst.is_none() {
                    self.free.push(rd);
                }
            }
            Intrinsic::Out => {
                let rs = self.operand_reg(args[0]);
                self.a.emit(Insn::Out { src: rs });
                self.free_scratch(args[0], rs);
            }
            Intrinsic::Pause => self.a.emit(Insn::Pause),
            Intrinsic::Mfence => self.a.emit(Insn::Mfence),
            Intrinsic::Halt => self.a.emit(Insn::Halt),
            Intrinsic::_Reserved => {}
        }
        Ok(())
    }
}
