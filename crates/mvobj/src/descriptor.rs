//! Binary descriptor formats for the multiverse run-time library.
//!
//! The compiler emits three kinds of descriptors into dedicated sections
//! (Fig. 2 of the paper); the run-time library parses them back out of the
//! loaded image. Record sizes follow §5 of the paper exactly:
//!
//! * configuration switch — **32 bytes** ([`VAR_DESC_SIZE`]),
//! * call site — **16 bytes** ([`CALLSITE_DESC_SIZE`]),
//! * multiversed function — **48 + #variants·(32 + #guards·16) bytes**
//!   ([`FN_DESC_HEADER_SIZE`], [`VARIANT_DESC_SIZE`], [`GUARD_SIZE`]).
//!
//! Address fields are written as zero placeholders with `Abs64` relocations
//! against the referenced symbols, so the linker (or a future dynamic
//! loader) injects the numeric addresses — descriptor emission itself is
//! position independent.

use crate::object::Object;
use crate::reloc::{Reloc, RelocKind};
use crate::section::SectionKind;
use crate::{SEC_MV_CALLSITES, SEC_MV_FUNCTIONS, SEC_MV_VARIABLES};

/// Size of one configuration-switch descriptor.
pub const VAR_DESC_SIZE: usize = 32;
/// Size of one call-site descriptor.
pub const CALLSITE_DESC_SIZE: usize = 16;
/// Size of a function-descriptor header (excluding variants).
pub const FN_DESC_HEADER_SIZE: usize = 48;
/// Size of one variant record (excluding guards).
pub const VARIANT_DESC_SIZE: usize = 32;
/// Size of one guard record.
pub const GUARD_SIZE: usize = 16;

/// Total encoded size of a function descriptor — the §5 formula.
pub const fn fn_desc_size(variants: usize, guards_total: usize) -> usize {
    FN_DESC_HEADER_SIZE + variants * VARIANT_DESC_SIZE + guards_total * GUARD_SIZE
}

/// Marker for a variant body that must not be inlined into call sites.
pub const NOT_INLINABLE: u32 = u32::MAX;

/// Flag bit: the switch has a signed integer type.
pub const VAR_FLAG_SIGNED: u32 = 1 << 0;
/// Flag bit: the switch is an attributed function pointer (§4 extension).
pub const VAR_FLAG_FN_PTR: u32 = 1 << 1;

// ---------------------------------------------------------------------------
// Compiler-side (symbolic) descriptor emission.
// ---------------------------------------------------------------------------

/// Symbolic configuration-switch descriptor, as known to the compiler.
#[derive(Clone, Debug)]
pub struct VarDescSym {
    /// Symbol of the global variable.
    pub symbol: String,
    /// Width of the variable in bytes (1, 2, 4 or 8).
    pub width: u32,
    /// Signed integer type.
    pub signed: bool,
    /// The switch is a function pointer rather than an integer.
    pub fn_ptr: bool,
    /// Optional symbol of an interned NUL-terminated name string.
    pub name_sym: Option<String>,
}

/// Symbolic guard: the switch must lie in `[low, high]` (Fig. 2 uses ranges
/// so merged variants stay representable, e.g. `multi.A=1.B=01`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardSym {
    /// Symbol of the guarded configuration switch.
    pub var_symbol: String,
    /// Inclusive lower bound.
    pub low: i32,
    /// Inclusive upper bound.
    pub high: i32,
}

/// Symbolic variant record.
#[derive(Clone, Debug)]
pub struct VariantDescSym {
    /// Symbol of the specialized function body.
    pub symbol: String,
    /// Encoded body size in bytes (including the final `ret`).
    pub body_size: u32,
    /// Bytes to copy when inlining into a call site (body without the
    /// final `ret`), or [`NOT_INLINABLE`].
    pub inline_len: u32,
    /// Guard conjunction over the referenced switches.
    pub guards: Vec<GuardSym>,
}

/// Symbolic function descriptor.
#[derive(Clone, Debug)]
pub struct FnDescSym {
    /// Symbol of the generic function.
    pub symbol: String,
    /// Encoded size of the generic body.
    pub generic_size: u32,
    /// Inlinable prefix of the *generic* body (body without the final
    /// `ret`), or [`NOT_INLINABLE`]. Used when the function is the target
    /// of a committed function-pointer switch (PV-Ops style inlining).
    pub generic_inline_len: u32,
    /// Optional symbol of an interned name string.
    pub name_sym: Option<String>,
    /// Specialized variants.
    pub variants: Vec<VariantDescSym>,
}

/// Symbolic call-site descriptor.
#[derive(Clone, Debug)]
pub struct CallsiteDescSym {
    /// Symbol of the called multiversed function.
    pub callee: String,
    /// Symbol of the containing (caller) function.
    pub caller: String,
    /// Byte offset of the `call rel32` instruction inside the caller.
    pub offset: u32,
}

fn emit_addr_field(obj: &mut Object, section: &str, at: u64, symbol: &str, addend: i64) {
    obj.relocate(Reloc {
        section: section.to_string(),
        offset: at,
        kind: RelocKind::Abs64,
        symbol: symbol.to_string(),
        addend,
    });
}

/// Appends a 32-byte variable descriptor to `multiverse.variables`.
pub fn emit_variable(obj: &mut Object, d: &VarDescSym) {
    let mut rec = [0u8; VAR_DESC_SIZE];
    rec[8..12].copy_from_slice(&d.width.to_le_bytes());
    let mut flags = 0u32;
    if d.signed {
        flags |= VAR_FLAG_SIGNED;
    }
    if d.fn_ptr {
        flags |= VAR_FLAG_FN_PTR;
    }
    rec[12..16].copy_from_slice(&flags.to_le_bytes());
    let base = obj.append(SEC_MV_VARIABLES, SectionKind::Rodata, &rec);
    emit_addr_field(obj, SEC_MV_VARIABLES, base, &d.symbol, 0);
    if let Some(name) = &d.name_sym {
        emit_addr_field(obj, SEC_MV_VARIABLES, base + 16, name, 0);
    }
}

/// Appends a 16-byte call-site descriptor to `multiverse.callsites`.
pub fn emit_callsite(obj: &mut Object, d: &CallsiteDescSym) {
    let rec = [0u8; CALLSITE_DESC_SIZE];
    let base = obj.append(SEC_MV_CALLSITES, SectionKind::Rodata, &rec);
    emit_addr_field(obj, SEC_MV_CALLSITES, base, &d.callee, 0);
    emit_addr_field(obj, SEC_MV_CALLSITES, base + 8, &d.caller, d.offset as i64);
}

/// Appends a variable-length function descriptor to `multiverse.functions`.
pub fn emit_function(obj: &mut Object, d: &FnDescSym) {
    let guards_total: usize = d.variants.iter().map(|v| v.guards.len()).sum();
    let total = fn_desc_size(d.variants.len(), guards_total);
    let mut rec = vec![0u8; total];
    rec[16..20].copy_from_slice(&(d.variants.len() as u32).to_le_bytes());
    rec[20..24].copy_from_slice(&d.generic_size.to_le_bytes());
    rec[24..28].copy_from_slice(&d.generic_inline_len.to_le_bytes());
    // rec[28..48] reserved.
    let mut at = FN_DESC_HEADER_SIZE;
    let mut addr_fields: Vec<(u64, String, i64)> = vec![(0, d.symbol.clone(), 0)];
    if let Some(name) = &d.name_sym {
        addr_fields.push((8, name.clone(), 0));
    }
    for v in &d.variants {
        addr_fields.push((at as u64, v.symbol.clone(), 0));
        rec[at + 8..at + 12].copy_from_slice(&v.body_size.to_le_bytes());
        rec[at + 12..at + 16].copy_from_slice(&(v.guards.len() as u32).to_le_bytes());
        rec[at + 16..at + 20].copy_from_slice(&v.inline_len.to_le_bytes());
        at += VARIANT_DESC_SIZE;
        for g in &v.guards {
            addr_fields.push((at as u64, g.var_symbol.clone(), 0));
            rec[at + 8..at + 12].copy_from_slice(&g.low.to_le_bytes());
            rec[at + 12..at + 16].copy_from_slice(&g.high.to_le_bytes());
            at += GUARD_SIZE;
        }
    }
    debug_assert_eq!(at, total);
    let base = obj.append(SEC_MV_FUNCTIONS, SectionKind::Rodata, &rec);
    for (off, sym, addend) in addr_fields {
        emit_addr_field(obj, SEC_MV_FUNCTIONS, base + off, &sym, addend);
    }
}

// ---------------------------------------------------------------------------
// Runtime-side (resolved) descriptor parsing.
// ---------------------------------------------------------------------------

/// A resolved configuration-switch descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarDesc {
    /// Address of the variable.
    pub addr: u64,
    /// Width in bytes.
    pub width: u32,
    /// Signed integer type.
    pub signed: bool,
    /// Function-pointer switch.
    pub fn_ptr: bool,
    /// Address of the NUL-terminated name string (0 if absent).
    pub name_addr: u64,
}

/// A resolved guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Guard {
    /// Address of the guarded switch.
    pub var_addr: u64,
    /// Inclusive lower bound.
    pub low: i32,
    /// Inclusive upper bound.
    pub high: i32,
}

impl Guard {
    /// `true` if the current `value` of the switch satisfies this guard.
    pub fn admits(&self, value: i64) -> bool {
        (self.low as i64..=self.high as i64).contains(&value)
    }
}

/// A resolved variant record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantDesc {
    /// Entry address of the specialized body.
    pub addr: u64,
    /// Encoded body size (including final `ret`).
    pub body_size: u32,
    /// Inlinable prefix length, or [`NOT_INLINABLE`].
    pub inline_len: u32,
    /// Guard conjunction.
    pub guards: Vec<Guard>,
}

/// A resolved function descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnDesc {
    /// Entry address of the generic function.
    pub generic: u64,
    /// Address of the name string (0 if absent).
    pub name_addr: u64,
    /// Encoded size of the generic body.
    pub generic_size: u32,
    /// Inlinable prefix of the generic body, or [`NOT_INLINABLE`].
    pub generic_inline_len: u32,
    /// Specialized variants.
    pub variants: Vec<VariantDesc>,
}

/// A resolved call-site descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallsiteDesc {
    /// Generic entry address of the callee.
    pub callee: u64,
    /// Address of the `call rel32` instruction.
    pub site: u64,
}

/// Error from descriptor parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DescError {
    /// Section size is not a multiple of the record size, or a
    /// variable-length record is truncated.
    Malformed,
    /// A switch descriptor claims a width other than 1, 2, 4 or 8 bytes.
    BadWidth {
        /// Address of the switch.
        addr: u64,
        /// The claimed width in bytes.
        width: u32,
    },
}

impl std::fmt::Display for DescError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescError::Malformed => write!(f, "malformed descriptor section"),
            DescError::BadWidth { addr, width } => write!(
                f,
                "switch at {addr:#x} is {width} bytes wide; switches are 1, 2, 4 or 8"
            ),
        }
    }
}

impl std::error::Error for DescError {}

fn u64le(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked"))
}

fn u32le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

fn i32le(b: &[u8], at: usize) -> i32 {
    i32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

/// Parses the `multiverse.variables` section.
pub fn parse_variables(bytes: &[u8]) -> Result<Vec<VarDesc>, DescError> {
    if !bytes.len().is_multiple_of(VAR_DESC_SIZE) {
        return Err(DescError::Malformed);
    }
    bytes
        .chunks_exact(VAR_DESC_SIZE)
        .map(|rec| {
            let flags = u32le(rec, 12);
            let (addr, width) = (u64le(rec, 0), u32le(rec, 8));
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(DescError::BadWidth { addr, width });
            }
            Ok(VarDesc {
                addr,
                width,
                signed: flags & VAR_FLAG_SIGNED != 0,
                fn_ptr: flags & VAR_FLAG_FN_PTR != 0,
                name_addr: u64le(rec, 16),
            })
        })
        .collect()
}

/// Parses the `multiverse.callsites` section.
pub fn parse_callsites(bytes: &[u8]) -> Result<Vec<CallsiteDesc>, DescError> {
    if !bytes.len().is_multiple_of(CALLSITE_DESC_SIZE) {
        return Err(DescError::Malformed);
    }
    Ok(bytes
        .chunks_exact(CALLSITE_DESC_SIZE)
        .map(|rec| CallsiteDesc {
            callee: u64le(rec, 0),
            site: u64le(rec, 8),
        })
        .collect())
}

/// Parses the `multiverse.functions` section (variable-length records).
pub fn parse_functions(bytes: &[u8]) -> Result<Vec<FnDesc>, DescError> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < FN_DESC_HEADER_SIZE {
            return Err(DescError::Malformed);
        }
        let generic = u64le(bytes, at);
        let name_addr = u64le(bytes, at + 8);
        let n_variants = u32le(bytes, at + 16) as usize;
        let generic_size = u32le(bytes, at + 20);
        let generic_inline_len = u32le(bytes, at + 24);
        let mut pos = at + FN_DESC_HEADER_SIZE;
        let mut variants = Vec::with_capacity(n_variants);
        for _ in 0..n_variants {
            if bytes.len() - pos < VARIANT_DESC_SIZE {
                return Err(DescError::Malformed);
            }
            let addr = u64le(bytes, pos);
            let body_size = u32le(bytes, pos + 8);
            let n_guards = u32le(bytes, pos + 12) as usize;
            let inline_len = u32le(bytes, pos + 16);
            pos += VARIANT_DESC_SIZE;
            if bytes.len() - pos < n_guards * GUARD_SIZE {
                return Err(DescError::Malformed);
            }
            let mut guards = Vec::with_capacity(n_guards);
            for _ in 0..n_guards {
                guards.push(Guard {
                    var_addr: u64le(bytes, pos),
                    low: i32le(bytes, pos + 8),
                    high: i32le(bytes, pos + 12),
                });
                pos += GUARD_SIZE;
            }
            variants.push(VariantDesc {
                addr,
                body_size,
                inline_len,
                guards,
            });
        }
        out.push(FnDesc {
            generic,
            name_addr,
            generic_size,
            generic_inline_len,
            variants,
        });
        at = pos;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{link, Layout};
    use crate::symbol::Symbol;
    use crate::SEC_TEXT;
    use mvasm::Insn;

    fn base_obj() -> Object {
        let mut o = Object::new("tu0");
        let mut code = mvasm::encode(&Insn::Halt);
        code.extend(mvasm::encode(&Insn::Ret)); // "generic" at offset 1
        code.extend(mvasm::encode(&Insn::Ret)); // "variant" at offset 2
        o.append(SEC_TEXT, SectionKind::Text, &code);
        o.define(Symbol::func("main", SEC_TEXT, 0, 1));
        o.define(Symbol::func("multi", SEC_TEXT, 1, 1));
        o.define(Symbol::func("multi.A=1", SEC_TEXT, 2, 1));
        o.define_bss("A", 4);
        o
    }

    #[test]
    fn variable_descriptor_roundtrip() {
        let mut o = base_obj();
        emit_variable(
            &mut o,
            &VarDescSym {
                symbol: "A".into(),
                width: 4,
                signed: true,
                fn_ptr: false,
                name_sym: None,
            },
        );
        let exe = link(&[o], &Layout::default()).unwrap();
        let seg = exe
            .segments
            .iter()
            .find(|s| s.name == SEC_MV_VARIABLES)
            .unwrap();
        let vars = parse_variables(&seg.bytes).unwrap();
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].addr, exe.symbol("A").unwrap());
        assert_eq!(vars[0].width, 4);
        assert!(vars[0].signed);
        assert!(!vars[0].fn_ptr);
    }

    #[test]
    fn function_descriptor_roundtrip_with_merged_guard() {
        let mut o = base_obj();
        emit_function(
            &mut o,
            &FnDescSym {
                symbol: "multi".into(),
                generic_size: 1,
                generic_inline_len: NOT_INLINABLE,
                name_sym: None,
                variants: vec![VariantDescSym {
                    symbol: "multi.A=1".into(),
                    body_size: 1,
                    inline_len: 0,
                    guards: vec![GuardSym {
                        var_symbol: "A".into(),
                        low: 0,
                        high: 1,
                    }],
                }],
            },
        );
        let exe = link(&[o], &Layout::default()).unwrap();
        let seg = exe
            .segments
            .iter()
            .find(|s| s.name == SEC_MV_FUNCTIONS)
            .unwrap();
        assert_eq!(seg.bytes.len(), fn_desc_size(1, 1));
        let fns = parse_functions(&seg.bytes).unwrap();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].generic, exe.symbol("multi").unwrap());
        let v = &fns[0].variants[0];
        assert_eq!(v.addr, exe.symbol("multi.A=1").unwrap());
        assert_eq!(v.guards[0].var_addr, exe.symbol("A").unwrap());
        assert!(v.guards[0].admits(0));
        assert!(v.guards[0].admits(1));
        assert!(!v.guards[0].admits(2));
    }

    #[test]
    fn callsite_descriptor_roundtrip() {
        let mut o = base_obj();
        emit_callsite(
            &mut o,
            &CallsiteDescSym {
                callee: "multi".into(),
                caller: "main".into(),
                offset: 0,
            },
        );
        let exe = link(&[o], &Layout::default()).unwrap();
        let seg = exe
            .segments
            .iter()
            .find(|s| s.name == SEC_MV_CALLSITES)
            .unwrap();
        let sites = parse_callsites(&seg.bytes).unwrap();
        assert_eq!(sites[0].callee, exe.symbol("multi").unwrap());
        assert_eq!(sites[0].site, exe.symbol("main").unwrap());
    }

    #[test]
    fn sizes_follow_paper_formula() {
        assert_eq!(VAR_DESC_SIZE, 32);
        assert_eq!(CALLSITE_DESC_SIZE, 16);
        assert_eq!(fn_desc_size(0, 0), 48);
        assert_eq!(fn_desc_size(3, 5), 48 + 3 * 32 + 5 * 16);
    }

    #[test]
    fn malformed_sections_rejected() {
        assert_eq!(parse_variables(&[0u8; 31]), Err(DescError::Malformed));
        assert_eq!(
            parse_variables(&[0u8; 32]),
            Err(DescError::BadWidth { addr: 0, width: 0 })
        );
        assert_eq!(parse_callsites(&[0u8; 17]), Err(DescError::Malformed));
        assert!(parse_functions(&[0u8; 47]).is_err());
        // Header claiming one variant but no variant bytes.
        let mut bad = vec![0u8; 48];
        bad[16..20].copy_from_slice(&1u32.to_le_bytes());
        assert!(parse_functions(&bad).is_err());
    }

    #[test]
    fn empty_sections_parse_to_empty() {
        assert!(parse_variables(&[]).unwrap().is_empty());
        assert!(parse_callsites(&[]).unwrap().is_empty());
        assert!(parse_functions(&[]).unwrap().is_empty());
    }
}
