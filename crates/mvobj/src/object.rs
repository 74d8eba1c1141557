//! Relocatable object files — one per translation unit.

use crate::reloc::{Reloc, RelocKind};
use crate::section::{Section, SectionKind};
use crate::symbol::Symbol;

/// A relocatable object file, as produced by the `mvc` compiler for one
/// translation unit.
#[derive(Clone, Debug, Default)]
pub struct Object {
    /// Translation-unit name (for diagnostics).
    pub name: String,
    /// Sections in definition order.
    pub sections: Vec<Section>,
    /// Defined symbols.
    pub symbols: Vec<Symbol>,
    /// Relocations against local or external symbols.
    pub relocs: Vec<Reloc>,
}

impl Object {
    /// Creates an empty object named after its translation unit.
    pub fn new(name: &str) -> Object {
        Object {
            name: name.to_string(),
            ..Object::default()
        }
    }

    /// Returns the section with `name`, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Returns a mutable reference to the section with `name`, creating it
    /// with the given kind if absent.
    pub fn section_mut(&mut self, name: &str, kind: SectionKind) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|s| s.name == name) {
            &mut self.sections[i]
        } else {
            self.sections
                .push(Section::with_bytes(name, kind, Vec::new()));
            self.sections.last_mut().expect("just pushed")
        }
    }

    /// Appends `bytes` to the section, creating it if needed, and returns
    /// the offset the bytes were placed at.
    pub fn append(&mut self, section: &str, kind: SectionKind, bytes: &[u8]) -> u64 {
        let s = self.section_mut(section, kind);
        let off = s.bytes.len() as u64;
        s.bytes.extend_from_slice(bytes);
        s.size = s.bytes.len() as u64;
        off
    }

    /// Defines a symbol.
    pub fn define(&mut self, sym: Symbol) {
        self.symbols.push(sym);
    }

    /// Adds a relocation.
    pub fn relocate(&mut self, reloc: Reloc) {
        self.relocs.push(reloc);
    }

    /// Convenience: appends a NUL-terminated string to `.rodata` and
    /// returns a unique local symbol naming it.
    pub fn intern_string(&mut self, s: &str) -> String {
        let sym_name = format!("{}.str.{}", self.name, self.symbols.len());
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let off = self.append(crate::SEC_RODATA, SectionKind::Rodata, &bytes);
        self.define(Symbol::object(&sym_name, crate::SEC_RODATA, off, bytes.len() as u64).local());
        sym_name
    }

    /// Convenience: reserves `size` zeroed bytes in `.bss` under a global
    /// symbol.
    pub fn define_bss(&mut self, name: &str, size: u64) {
        let s = self.section_mut(crate::SEC_BSS, SectionKind::Bss);
        // Keep 8-byte alignment for every object so mixed-width globals
        // never straddle unaligned addresses.
        let aligned = s.size.next_multiple_of(8);
        s.size = aligned + size;
        self.symbols
            .push(Symbol::object(name, crate::SEC_BSS, aligned, size));
    }

    /// Convenience: places initialized data in `.data` under a global
    /// symbol and returns its offset.
    pub fn define_data(&mut self, name: &str, bytes: &[u8]) -> u64 {
        let s = self.section_mut(crate::SEC_DATA, SectionKind::Data);
        while !s.bytes.len().is_multiple_of(8) {
            s.bytes.push(0);
        }
        let off = s.bytes.len() as u64;
        s.bytes.extend_from_slice(bytes);
        s.size = s.bytes.len() as u64;
        self.symbols.push(Symbol::object(
            name,
            crate::SEC_DATA,
            off,
            bytes.len() as u64,
        ));
        off
    }

    /// Convenience: places a 64-bit pointer in `.data` that is relocated to
    /// the address of `target` (used for function-pointer initializers such
    /// as the PV-Ops table).
    pub fn define_data_ptr(&mut self, name: &str, target: &str) {
        let off = self.define_data(name, &0u64.to_le_bytes());
        self.relocs.push(Reloc {
            section: crate::SEC_DATA.to_string(),
            offset: off,
            kind: RelocKind::Abs64,
            symbol: target.to_string(),
            addend: 0,
        });
    }

    /// A stable 64-bit content fingerprint (FNV-1a) of the whole object:
    /// unit name, every section's kind, size and bytes, and every symbol
    /// and relocation, in emission order.
    ///
    /// Emission order is part of the fingerprint on purpose: a build
    /// must be reproducible byte for byte, so the compiler's golden and
    /// differential tests compare fingerprints (and the full
    /// structures) rather than some order-insensitive digest that could
    /// mask a reordering.
    pub fn fingerprint(&self) -> u64 {
        fn feed(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Separator so field boundaries cannot alias.
            h ^= 0xff;
            h.wrapping_mul(0x0000_0100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = feed(h, self.name.as_bytes());
        for s in &self.sections {
            h = feed(h, s.name.as_bytes());
            h = feed(h, format!("{:?}:{}", s.kind, s.size).as_bytes());
            h = feed(h, &s.bytes);
        }
        for s in &self.symbols {
            h = feed(h, format!("{s:?}").as_bytes());
        }
        for r in &self.relocs {
            h = feed(h, format!("{r:?}").as_bytes());
        }
        h
    }

    /// Appends assembled code to `.text` under a global function symbol,
    /// converting the assembler's fixups into relocations.
    ///
    /// Returns the function's offset within this object's `.text` chunk.
    /// The blob's recorded call-site offsets can be turned into
    /// `multiverse.callsites` descriptors by the caller.
    pub fn add_code(&mut self, name: &str, blob: &mvasm::asm::CodeBlob) -> u64 {
        let off = self.append(crate::SEC_TEXT, SectionKind::Text, &blob.bytes);
        self.define(Symbol::func(
            name,
            crate::SEC_TEXT,
            off,
            blob.bytes.len() as u64,
        ));
        for f in &blob.fixups {
            let kind = match f.kind {
                mvasm::FixupKind::Rel32 { next_insn } => RelocKind::Rel32 {
                    next_insn: off + next_insn as u64,
                },
                mvasm::FixupKind::Abs64 => RelocKind::Abs64,
            };
            self.relocs.push(Reloc {
                section: crate::SEC_TEXT.to_string(),
                offset: off + f.offset as u64,
                kind,
                symbol: f.symbol.clone(),
                addend: f.addend,
            });
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_creates_and_extends() {
        let mut o = Object::new("tu0");
        let a = o.append(".text", SectionKind::Text, &[1, 2, 3]);
        let b = o.append(".text", SectionKind::Text, &[4]);
        assert_eq!((a, b), (0, 3));
        assert_eq!(o.section(".text").unwrap().bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn bss_keeps_eight_byte_alignment() {
        let mut o = Object::new("tu0");
        o.define_bss("a", 1);
        o.define_bss("b", 8);
        let syms: Vec<_> = o.symbols.iter().map(|s| s.offset).collect();
        assert_eq!(syms, vec![0, 8]);
        assert_eq!(o.section(".bss").unwrap().mem_size(), 16);
    }

    #[test]
    fn intern_string_is_nul_terminated() {
        let mut o = Object::new("tu0");
        let sym = o.intern_string("hi");
        let sec = o.section(crate::SEC_RODATA).unwrap();
        assert_eq!(sec.bytes, b"hi\0");
        assert!(o.symbols.iter().any(|s| s.name == sym && !s.global));
    }

    #[test]
    fn fingerprint_tracks_content_and_order() {
        let build = |tag: &str| {
            let mut o = Object::new("tu0");
            o.append(".text", SectionKind::Text, tag.as_bytes());
            o.define_bss("g", 8);
            o.intern_string("name");
            o
        };
        assert_eq!(build("aa").fingerprint(), build("aa").fingerprint());
        assert_ne!(build("aa").fingerprint(), build("ab").fingerprint());
        // Symbol order matters: a reordered but equal-content object is
        // a different (non-deterministic) emission and must not compare
        // equal.
        let mut reordered = build("aa");
        reordered.symbols.swap(0, 1);
        assert_ne!(build("aa").fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn data_ptr_emits_reloc() {
        let mut o = Object::new("tu0");
        o.define_data_ptr("pv_cli", "native_cli");
        assert_eq!(o.relocs.len(), 1);
        assert_eq!(o.relocs[0].symbol, "native_cli");
        assert!(matches!(o.relocs[0].kind, RelocKind::Abs64));
    }
}
