//! Low-level text-segment patching primitives.
//!
//! Every write follows the §4 discipline: make the affected pages writable,
//! write, restore the original protection, flush the instruction cache.
//! The machine enforces both halves — unwritable text faults, and stale
//! decoded instructions keep executing until the flush.
//!
//! Everything ISA-specific — call/jmp encodings, their widths, NOP fill,
//! inline images, displacement reach — lives behind
//! [`mvasm::abi::Backend`]; this module keeps only the memory-discipline
//! primitives (transient protection windows, page math) and the
//! byte-level site inspection helpers that need a machine to read from.

use crate::error::RtError;
use crate::stats::PatchStats;
use mvasm::{Backend, Insn};
use mvobj::Prot;
use mvvm::{Machine, PAGE_SIZE};

/// Writes `bytes` into the text segment at `addr` under a transient-RW
/// window, restores RX and flushes the icache for the range.
pub fn patch_bytes(
    m: &mut Machine,
    addr: u64,
    bytes: &[u8],
    stats: &mut PatchStats,
) -> Result<(), RtError> {
    let len = bytes.len() as u64;
    m.mem.mprotect(addr, len, Prot::RW)?;
    stats.mprotects += 1;
    m.mem.write(addr, bytes)?;
    stats.bytes_written += len;
    m.mem.mprotect(addr, len, Prot::RX)?;
    stats.mprotects += 1;
    m.mem.flush_icache(addr, len);
    stats.icache_flushes += 1;
    Ok(())
}

/// Decodes the instruction currently at `addr`, reading the longest
/// available byte prefix up to the backend's maximum instruction length
/// — near the end of a mapping fewer bytes may be readable, and an
/// instruction is decodable from exactly its own encoding.
pub fn insn_at(m: &Machine, abi: &dyn Backend, addr: u64) -> Result<Insn, RtError> {
    let mut bytes = None;
    for n in (1..=abi.max_insn_len()).rev() {
        match m.mem.read_vec(addr, n) {
            Ok(v) => {
                bytes = Some(v);
                break;
            }
            // Nothing readable at all: surface the memory error.
            Err(e) if n == 1 => return Err(e.into()),
            Err(_) => {}
        }
    }
    let bytes = bytes.expect("loop either sets bytes or returns");
    let (insn, _) = mvasm::decode(&bytes).map_err(|e| RtError::SiteVerifyFailed {
        site: addr,
        what: format!("undecodable bytes: {e}"),
    })?;
    Ok(insn)
}

/// Page base addresses covered by the `len` bytes at `addr`.
pub fn pages_of(addr: u64, len: usize) -> impl Iterator<Item = u64> {
    let first = addr & !(PAGE_SIZE - 1);
    let last = addr.saturating_add(len.saturating_sub(1) as u64) & !(PAGE_SIZE - 1);
    (first..=last).step_by(PAGE_SIZE as usize)
}

/// Bookkeeping of one page-batched apply phase: the pages currently
/// behind a transient RW window, in open order, plus how many journaled
/// writes landed inside the batch.
#[derive(Clone, Debug, Default)]
pub struct PageBatch {
    /// Page base addresses with an open RW window, in open order.
    pub open: Vec<u64>,
    /// Journaled writes performed inside the batch.
    pub writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasm::{Reg, MV64};
    use mvobj::{link, Layout, Object, SectionKind, Symbol};
    use mvvm::{CostModel, MachineConfig};

    fn machine_with_text(code: &[u8]) -> (Machine, u64) {
        let mut o = Object::new("t");
        o.append(mvobj::SEC_TEXT, SectionKind::Text, code);
        o.define(Symbol::func("main", mvobj::SEC_TEXT, 0, code.len() as u64));
        let exe = link(&[o], &Layout::default()).unwrap();
        let mut m = Machine::new(CostModel::default(), MachineConfig::default());
        m.load(&exe);
        (m, exe.entry)
    }

    #[test]
    fn patch_respects_wxorx() {
        let code = mvasm::encode(&Insn::Ret);
        let (mut m, text) = machine_with_text(&code);
        // A raw write faults; patch_bytes succeeds and restores RX.
        assert!(m.mem.write(text, &[0x90]).is_err());
        let mut stats = PatchStats::default();
        patch_bytes(&mut m, text, &[0x90], &mut stats).unwrap();
        assert!(m.mem.write(text, &[0x90]).is_err());
        assert_eq!(stats.mprotects, 2);
        assert_eq!(stats.icache_flushes, 1);
        assert_eq!(stats.bytes_written, 1);
    }

    #[test]
    fn abi_errors_convert_to_rt_errors() {
        // The runtime's own error vocabulary survives the move of the
        // encoders into mvasm::abi.
        let site = 4u64 << 30;
        let target = site + (4 << 30);
        let err: RtError = MV64.encode_call(site, target).unwrap_err().into();
        assert!(
            matches!(
                err,
                RtError::DisplacementOutOfRange { site: s, target: t }
                    if s == site && t == target
            ),
            "{err:?}"
        );
        let err: RtError = MV64.inline_image(&[0x90u8; 6], 5).unwrap_err().into();
        assert!(
            matches!(
                err,
                RtError::InlineTooLarge {
                    body: 6,
                    site_len: 5
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn pages_of_covers_straddles() {
        assert_eq!(pages_of(0x1000, 5).collect::<Vec<_>>(), vec![0x1000]);
        assert_eq!(pages_of(0x1ffe, 2).collect::<Vec<_>>(), vec![0x1000]);
        assert_eq!(
            pages_of(0x1ffe, 5).collect::<Vec<_>>(),
            vec![0x1000, 0x2000]
        );
        assert_eq!(
            pages_of(0x1fff, 4098).collect::<Vec<_>>(),
            vec![0x1000, 0x2000, 0x3000]
        );
    }

    #[test]
    fn patch_bytes_straddling_a_page_boundary_fixes_both_pages() {
        // A 5-byte call site spanning a page boundary: the RW window,
        // the RX restore and the icache flush must cover *both* pages.
        let code = vec![0u8; 2 * PAGE_SIZE as usize];
        let (mut m, text) = machine_with_text(&code);
        // 2 bytes before the next page boundary, 3 after it.
        let site = ((text + PAGE_SIZE) & !(PAGE_SIZE - 1)) - 2;
        let v0 = (m.mem.code_version(site), m.mem.code_version(site + 4));
        let mut stats = PatchStats::default();
        patch_bytes(&mut m, site, &[1, 2, 3, 4, 5], &mut stats).unwrap();
        assert_eq!(m.mem.read_vec(site, 5).unwrap(), vec![1, 2, 3, 4, 5]);
        // Both pages relocked…
        assert!(m.mem.write(site, &[0]).is_err(), "first page writable");
        assert!(m.mem.write(site + 4, &[0]).is_err(), "second page writable");
        // …and both pages' decode caches invalidated.
        let v1 = (m.mem.code_version(site), m.mem.code_version(site + 4));
        assert!(v1.0 > v0.0 && v1.1 > v0.1, "{v0:?} -> {v1:?}");
        assert_eq!(stats.mprotects, 2, "one RW and one RX call for the range");
    }

    #[test]
    fn insn_at_reads_current_bytes() {
        let code = mvasm::encode(&Insn::MovRI {
            dst: Reg::R3,
            imm: 9,
        });
        let (m, text) = machine_with_text(&code);
        assert_eq!(
            insn_at(&m, MV64, text).unwrap(),
            Insn::MovRI {
                dst: Reg::R3,
                imm: 9
            }
        );
    }

    #[test]
    fn insn_at_decodes_a_long_instruction_ending_at_the_mapping_boundary() {
        // Regression: the old fallback jumped from a 16-byte read
        // straight to a call-site-wide one, so a long instruction whose
        // encoding ended exactly at the end of a mapping decoded from a
        // truncated prefix and failed verification.
        let insn = Insn::MovRI {
            dst: Reg::R3,
            imm: 0x1122_3344_5566_7788,
        };
        let code = mvasm::encode(&insn);
        let len = code.len() as u64;
        assert!(
            code.len() > MV64.call_site_len(),
            "need an encoding longer than a call site"
        );
        // Map exactly one page; the instruction's last byte is the last
        // mapped byte, so every read longer than `len` fails.
        let mut m = Machine::new(CostModel::default(), MachineConfig::default());
        m.mem.map(0x1000, PAGE_SIZE, Prot::RX);
        let addr = 0x1000 + PAGE_SIZE - len;
        m.mem.write_unchecked(addr, &code);
        m.mem.mprotect(0x1000, PAGE_SIZE, Prot::RX).unwrap();
        assert!(
            m.mem.read_vec(addr, MV64.max_insn_len()).is_err(),
            "a max-length read must not fit, or the test proves nothing"
        );
        assert_eq!(insn_at(&m, MV64, addr).unwrap(), insn);
    }

    #[test]
    fn insn_at_surfaces_the_memory_error_on_unmapped_addresses() {
        let m = Machine::new(CostModel::default(), MachineConfig::default());
        let err = insn_at(&m, MV64, 0xdead_0000).unwrap_err();
        assert!(matches!(err, RtError::Mem(_)), "{err:?}");
    }
}
