//! Paged guest memory with R/W/X protection and icache versioning.
//!
//! Pages are demand-zero, as a Linux process's stack and zero-filled
//! data are: mapping a page costs its page-table entry and no bytes. A
//! page reads as zeros from one shared immutable zero page until the
//! first write of a non-zero byte gives it its own 4 KiB. Protection,
//! fault plans, code versions and text generations do not depend on
//! whether a page holds bytes.

use crate::fault::{FaultOp, FaultPlan};
use crate::fx::FxHashMap;
use crate::machine::Fault;
use mvasm::Insn;
use mvobj::{Executable, Prot};
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;

/// Page size of the guest address space. Matches the linker's default so
/// each section's protection can be changed independently.
pub const PAGE_SIZE: u64 = 4096;

/// Memory access classes, for fault reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A memory fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemError {
    /// Faulting guest address.
    pub addr: u64,
    /// The attempted access.
    pub access: Access,
    /// `true` if the page is mapped but the protection forbids the access
    /// (e.g. a write to the R-X text segment); `false` if unmapped.
    pub mapped: bool,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.access {
            Access::Read => "read",
            Access::Write => "write",
            Access::Exec => "execute",
        };
        if self.mapped {
            write!(f, "protection fault: {what} at {:#x}", self.addr)
        } else {
            write!(f, "unmapped {what} at {:#x}", self.addr)
        }
    }
}

impl std::error::Error for MemError {}

/// The bytes of every page that holds none of its own.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

struct Page {
    /// The page's own bytes, `None` until its first write of a
    /// non-zero byte; until then it reads as [`ZERO_PAGE`].
    bytes: Option<Box<[u8]>>,
    prot: Prot,
    /// Bumped by [`Memory::flush_icache`]; the CPU's decode cache keys on
    /// it. Writing patched bytes without flushing leaves stale decoded
    /// instructions visible — exactly the hazard the paper's run-time
    /// library avoids by flushing after patching (§4).
    code_version: u64,
    /// Bumped by every flush *and* every write while the page is text:
    /// the generation a translation of the page's bytes (a decoded block
    /// or a lowered native region) keys on (see [`Memory::text_gen`]).
    text_gen: u64,
    /// Set once the page has ever been mapped or mprotected executable,
    /// never cleared. Distinguishes patching-path writes (which fault
    /// plans target) from ordinary guest data stores even while the
    /// W^X dance has the page temporarily RW.
    text: bool,
}

impl Page {
    fn new(prot: Prot) -> Page {
        Page {
            bytes: None,
            prot,
            code_version: 0,
            text_gen: 0,
            text: prot.exec,
        }
    }

    /// The page's bytes: its own, or the zero page.
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.bytes.as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Copies `data` to offset `po`. A page without bytes of its own
    /// gets them only when `data` holds a non-zero byte; returns whether
    /// this store gave them.
    #[inline]
    fn store(&mut self, po: usize, data: &[u8]) -> bool {
        match &mut self.bytes {
            Some(bytes) => {
                bytes[po..po + data.len()].copy_from_slice(data);
                false
            }
            None if data == &ZERO_PAGE[..data.len()] => false,
            None => {
                self.populate(po, data);
                true
            }
        }
    }

    /// Gives the page its own bytes: zeros, with `data` at offset `po`.
    #[cold]
    fn populate(&mut self, po: usize, data: &[u8]) {
        let mut bytes = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        bytes[po..po + data.len()].copy_from_slice(data);
        self.bytes = Some(bytes);
    }
}

/// Entries of the software TLB in front of the page table: a power of
/// two, direct-mapped on the low bits of the page number.
const TLB_ENTRIES: usize = 256;

/// The tag of an empty TLB entry: no page number (`addr / PAGE_SIZE`)
/// reaches it.
const NO_PAGE: u64 = u64::MAX;

/// The guest physical/virtual memory: flat, demand-zero pages.
///
/// Mapping a page costs a slot in the page slab and a page-table entry;
/// its 4 KiB of bytes are allocated at its first write of a non-zero
/// byte (see [`Memory::resident_pages`]). Until then reads, fetches and
/// zero writes are served by one shared zero page.
pub struct Memory {
    /// Every mapped page, in mapping order. Pages are never unmapped,
    /// so a page keeps its slot for the life of the memory.
    pages: Vec<Page>,
    /// How many of `pages` hold bytes of their own. A page never gives
    /// its bytes back, so this only grows.
    resident: usize,
    /// Page number → slot in `pages`: the page table.
    slots: FxHashMap<u64, usize>,
    /// A direct-mapped software TLB of `(page number, slot)` pairs in
    /// front of `slots`, so an access to a recently used page costs no
    /// hash probe. Filled on a miss, also by `&self` reads; an entry
    /// never goes stale because a slot never changes.
    tlb: [Cell<(u64, usize)>; TLB_ENTRIES],
    fault: Option<FaultPlan>,
    /// Bumped by every icache flush that takes effect (see
    /// [`Memory::flush_epoch`]).
    flush_epoch: u64,
    /// Bumped whenever any page's `text_gen` moves (see
    /// [`Memory::text_epoch`]).
    text_epoch: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Vec::new(),
            resident: 0,
            slots: FxHashMap::default(),
            tlb: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
            fault: None,
            flush_epoch: 0,
            text_epoch: 0,
        }
    }
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_no(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// The slot of page number `page` if it is mapped: a TLB hit, or
    /// one page-table probe that refills the entry.
    #[inline]
    fn slot(&self, page: u64) -> Option<usize> {
        let entry = &self.tlb[page as usize % TLB_ENTRIES];
        match entry.get() {
            (tag, slot) if tag == page => Some(slot),
            _ => {
                let slot = *self.slots.get(&page)?;
                entry.set((page, slot));
                Some(slot)
            }
        }
    }

    /// Page number `page`, if mapped.
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        self.slot(page).map(|s| &self.pages[s])
    }

    /// Page number `page`, if mapped, for writing.
    #[inline]
    fn page_mut(&mut self, page: u64) -> Option<&mut Page> {
        let s = self.slot(page)?;
        Some(&mut self.pages[s])
    }

    /// Offset of `addr` in its page, when `[addr, addr+len)` is
    /// non-empty and lies inside that one page (such a range never
    /// wraps).
    fn in_one_page(addr: u64, len: usize) -> Option<usize> {
        let po = (addr % PAGE_SIZE) as usize;
        (len > 0 && po + len <= PAGE_SIZE as usize).then_some(po)
    }

    /// `page` if it is mapped and `allowed` admits its protection, else
    /// the fault `access` takes at `addr`.
    fn permit<P: Deref<Target = Page>>(
        page: Option<P>,
        addr: u64,
        access: Access,
        allowed: impl Fn(Prot) -> bool,
    ) -> Result<P, MemError> {
        match page {
            Some(page) if allowed(page.prot) => Ok(page),
            page => Err(MemError {
                addr,
                access,
                mapped: page.is_some(),
            }),
        }
    }

    /// Maps `len` bytes at `addr` with protection `prot`, zero-filled.
    /// Extends/overwrites protection of already-mapped pages in the range.
    /// A range running past the end of the address space is mapped up
    /// to the end. A new page costs one slab slot and one page-table
    /// entry, both reserved once per call, and no bytes.
    pub fn map(&mut self, addr: u64, len: u64, prot: Prot) {
        if len == 0 {
            return;
        }
        let first = Self::page_no(addr);
        let last = Self::page_no(addr.saturating_add(len - 1));
        let n = (last - first + 1) as usize;
        self.pages.reserve(n);
        self.slots.reserve(n);
        for p in first..=last {
            let page = self.page_or_map(p, prot);
            page.prot = prot;
            page.text |= prot.exec;
        }
    }

    /// Page number `p`, mapped zero-filled with `prot` if it was not.
    fn page_or_map(&mut self, p: u64, prot: Prot) -> &mut Page {
        let pages = &mut self.pages;
        let slot = *self.slots.entry(p).or_insert_with(|| {
            pages.push(Page::new(prot));
            pages.len() - 1
        });
        &mut self.pages[slot]
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]).
    /// Replaces any existing plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Removes the fault schedule, returning it (with its counters) so
    /// tests can assert how far it got.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Consults the installed fault schedule for one operation of class
    /// `op` at `addr`, counting it and reporting whether it must fail.
    ///
    /// Memory's own primitives call this internally; it is public so
    /// higher layers can put *their* operation classes (trap plants,
    /// remote shootdowns) under the same deterministic schedule — the
    /// plan lives here because `Memory` is the one object every layer
    /// of the stack can reach. Address-less operations report `0`.
    pub fn trip_fault(&mut self, op: FaultOp, addr: u64) -> bool {
        match &mut self.fault {
            Some(plan) => plan.trips(op, addr),
            None => false,
        }
    }

    /// Whether any page in `[addr, addr+len)` is (or ever was) text.
    fn touches_text(&self, addr: u64, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let first = Self::page_no(addr);
        let last = Self::page_no(addr.saturating_add(len as u64 - 1));
        (first..=last).any(|p| self.page(p).is_some_and(|pg| pg.text))
    }

    /// Loads all segments of a linked executable.
    pub fn load(&mut self, exe: &Executable) {
        for seg in &exe.segments {
            self.map(seg.addr, seg.bytes.len().max(1) as u64, seg.prot);
            self.write_unchecked(seg.addr, &seg.bytes);
        }
    }

    /// Changes the protection of every page overlapping `[addr, addr+len)`
    /// — the guest-side `mprotect`.
    ///
    /// Returns the number of pages affected. Unmapped pages in the range
    /// fault, and so does a range running past the end of the address
    /// space (as unmapped, at `addr`).
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<u64, MemError> {
        if len == 0 {
            return Ok(0);
        }
        let Some(end) = addr.checked_add(len - 1) else {
            return Err(MemError {
                addr,
                access: Access::Write,
                mapped: false,
            });
        };
        let first = Self::page_no(addr);
        let last = Self::page_no(end);
        for p in first..=last {
            if self.slot(p).is_none() {
                return Err(MemError {
                    addr: p * PAGE_SIZE,
                    access: Access::Write,
                    mapped: false,
                });
            }
        }
        if self.trip_fault(FaultOp::Mprotect, addr) {
            // Injected transient protection-change failure (indistinguishable
            // from a real one: the range is mapped, nothing was changed).
            return Err(MemError {
                addr,
                access: Access::Write,
                mapped: true,
            });
        }
        for p in first..=last {
            let page = self.page_mut(p).expect("checked above");
            page.prot = prot;
            page.text |= prot.exec;
        }
        Ok(last - first + 1)
    }

    /// Current protection of the page containing `addr`.
    pub fn prot_of(&self, addr: u64) -> Option<Prot> {
        self.page(Self::page_no(addr)).map(|p| p.prot)
    }

    /// Invalidates cached decoded instructions for `[addr, addr+len)`.
    ///
    /// An installed [`FaultPlan`] targeting flushes makes this silently
    /// drop the request — versions are not bumped and stale decoded
    /// instructions keep executing, the classic missing-flush hazard.
    pub fn flush_icache(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        if self.trip_fault(FaultOp::IcacheFlush, addr) {
            return;
        }
        self.flush_epoch += 1;
        self.text_epoch += 1;
        let first = Self::page_no(addr);
        let last = Self::page_no(addr.saturating_add(len - 1));
        for p in first..=last {
            if let Some(page) = self.page_mut(p) {
                page.code_version += 1;
                page.text_gen += 1;
            }
        }
    }

    /// Monotonic count of icache flushes that took effect. A caller who
    /// requested a flush and sees the epoch unchanged knows the flush
    /// was lost (e.g. dropped by a [`FaultPlan`]) and that stale decoded
    /// instructions may keep executing.
    pub fn flush_epoch(&self) -> u64 {
        self.flush_epoch
    }

    /// Code version of the page containing `addr` (0 for unmapped).
    pub fn code_version(&self, addr: u64) -> u64 {
        self.page(Self::page_no(addr)).map_or(0, |p| p.code_version)
    }

    /// Text generation of the page containing `addr` (0 for unmapped):
    /// moves on every flush of the page and every write to it while it
    /// is text. The decode cache models an icache and keys on
    /// [`Memory::code_version`], so an unflushed patch leaves its decodes
    /// stale; translations built from those decodes key on this, so the
    /// same patch sends them back through the decode cache.
    pub fn text_gen(&self, addr: u64) -> u64 {
        self.page(Self::page_no(addr)).map_or(0, |p| p.text_gen)
    }

    /// Monotonic count of [`Memory::text_gen`] moves anywhere: while it
    /// stands still, no page's text generation can have changed.
    pub fn text_epoch(&self) -> u64 {
        self.text_epoch
    }

    /// Pages holding bytes of their own: those written a non-zero byte
    /// since they were mapped. Every other mapped page reads as zeros
    /// and costs no page of host memory.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Checks every page of `[addr, addr+len)` before anything is
    /// copied, so a faulting multi-page access has no effect. A range
    /// running past the end of the address space faults as unmapped at
    /// `addr`.
    fn access(
        &self,
        addr: u64,
        len: usize,
        access: Access,
        allowed: impl Fn(Prot) -> bool,
    ) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let Some(end) = addr.checked_add(len as u64 - 1) else {
            return Err(MemError {
                addr,
                access,
                mapped: false,
            });
        };
        let first = Self::page_no(addr);
        for p in first..=Self::page_no(end) {
            let at = if p == first { addr } else { p * PAGE_SIZE };
            Self::permit(self.page(p), at, access, &allowed)?;
        }
        Ok(())
    }

    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let page = self.page(Self::page_no(a)).expect("checked");
            let po = (a % PAGE_SIZE) as usize;
            let n = (buf.len() - done).min(PAGE_SIZE as usize - po);
            buf[done..done + n].copy_from_slice(&page.bytes()[po..po + n]);
            done += n;
        }
    }

    fn copy_in(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr + done as u64;
            let s = self.slot(Self::page_no(a)).expect("checked");
            let page = &mut self.pages[s];
            if page.text {
                page.text_gen += 1;
                self.text_epoch += 1;
            }
            let po = (a % PAGE_SIZE) as usize;
            let n = (data.len() - done).min(PAGE_SIZE as usize - po);
            self.resident += usize::from(page.store(po, &data[done..done + n]));
            done += n;
        }
    }

    /// Reads `buf.len()` bytes at `addr` (data access).
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        if let Some(po) = Self::in_one_page(addr, buf.len()) {
            let page = self.page(Self::page_no(addr));
            let page = Self::permit(page, addr, Access::Read, |p| p.read)?;
            buf.copy_from_slice(&page.bytes()[po..po + buf.len()]);
            return Ok(());
        }
        self.access(addr, buf.len(), Access::Read, |p| p.read)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Fails exactly as [`Memory::read`] of `len` bytes at `addr` would,
    /// copying nothing: a readability check that needs no buffer.
    pub fn check_read(&self, addr: u64, len: usize) -> Result<(), MemError> {
        self.access(addr, len, Access::Read, |p| p.read)
    }

    /// Fails exactly as [`Memory::write`] of `len` bytes at `addr` would
    /// for protection, writing nothing: the first page of the range that
    /// is unmapped or not writable faults, at `addr` or at that page's
    /// first byte. An installed [`FaultPlan`] is not consulted.
    pub fn check_write(&self, addr: u64, len: usize) -> Result<(), MemError> {
        self.access(addr, len, Access::Write, |p| p.write)
    }

    /// Reads into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Writes `data` at `addr` (data access, respects protection).
    ///
    /// A [`FaultPlan`] targeting text writes can fail the call even
    /// though protection allows it — modelling a transient fault in the
    /// middle of a patching sequence. Only writes touching a text page
    /// consume the plan's counter; guest data stores are never affected.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        // An injected fault looks like a protection fault.
        let injected = MemError {
            addr,
            access: Access::Write,
            mapped: true,
        };
        if let Some(po) = Self::in_one_page(addr, data.len()) {
            let page = self.slot(Self::page_no(addr)).map(|s| &mut self.pages[s]);
            let page = Self::permit(page, addr, Access::Write, |p| p.write)?;
            if page.text {
                if self
                    .fault
                    .as_mut()
                    .is_some_and(|plan| plan.trips(FaultOp::TextWrite, addr))
                {
                    return Err(injected);
                }
                page.text_gen += 1;
                self.text_epoch += 1;
            }
            self.resident += usize::from(page.store(po, data));
            return Ok(());
        }
        self.access(addr, data.len(), Access::Write, |p| p.write)?;
        if self.touches_text(addr, data.len()) && self.trip_fault(FaultOp::TextWrite, addr) {
            return Err(injected);
        }
        self.copy_in(addr, data);
        Ok(())
    }

    /// Writes ignoring protection — loader use only. Bytes past the end
    /// of the address space are dropped, as [`Memory::map`] drops them.
    pub fn write_unchecked(&mut self, addr: u64, data: &[u8]) {
        // Ensure pages exist (loader may write into fresh mappings only).
        if data.is_empty() {
            return;
        }
        let end = addr.saturating_add(data.len() as u64 - 1);
        let data = &data[..=(end - addr) as usize];
        let first = Self::page_no(addr);
        let last = Self::page_no(end);
        for p in first..=last {
            self.page_or_map(p, Prot::RW);
        }
        self.copy_in(addr, data);
    }

    /// Fetches up to `len` bytes for execution at `addr`.
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<usize, MemError> {
        let page = self.page(Self::page_no(addr));
        let page = Self::permit(page, addr, Access::Exec, |p| p.exec)?;
        // Fetch as many bytes as are executable and mapped; decode decides
        // whether that is enough.
        let po = (addr % PAGE_SIZE) as usize;
        let mut n = buf.len().min(PAGE_SIZE as usize - po);
        buf[..n].copy_from_slice(&page.bytes()[po..po + n]);
        while n < buf.len() {
            let Some(a) = addr.checked_add(n as u64) else {
                break;
            };
            match self.page(Self::page_no(a)) {
                Some(p) if p.prot.exec => {
                    let take = (buf.len() - n).min(PAGE_SIZE as usize);
                    buf[n..n + take].copy_from_slice(&p.bytes()[..take]);
                    n += take;
                }
                _ => break,
            }
        }
        Ok(n)
    }

    /// Fetches and decodes the instruction at `pc` — the one
    /// fetch-then-decode path shared by the interpreter's decode cache,
    /// native lowering and variational execution.
    pub fn fetch_insn(&self, pc: u64) -> Result<Insn, Fault> {
        let mut buf = [0u8; 16];
        let n = self.fetch(pc, &mut buf)?;
        mvasm::decode(&buf[..n])
            .map(|(insn, _)| insn)
            .map_err(|err| Fault::Decode { addr: pc, err })
    }

    /// Reads a little-endian unsigned integer of `width` bytes.
    pub fn read_uint(&self, addr: u64, width: usize) -> Result<u64, MemError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..width])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian integer of `width` bytes, sign-extending if
    /// `signed`.
    pub fn read_int(&self, addr: u64, width: usize, signed: bool) -> Result<i64, MemError> {
        let raw = self.read_uint(addr, width)?;
        Ok(extend(raw, width, signed))
    }

    /// Writes the low `width` bytes of `value`, little-endian.
    pub fn write_int(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemError> {
        self.write(addr, &value.to_le_bytes()[..width])
    }
}

/// Sign- or zero-extends the low `width` bytes of `raw` to 64 bits.
pub fn extend(raw: u64, width: usize, signed: bool) -> i64 {
    let bits = width * 8;
    if bits >= 64 {
        return raw as i64;
    }
    let masked = raw & ((1u64 << bits) - 1);
    if signed {
        let shift = 64 - bits;
        ((masked << shift) as i64) >> shift
    } else {
        masked as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = Memory::new();
        m.map(0x1000, 100, Prot::RW);
        m.write(0x1010, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_vec(0x1010, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn write_to_text_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 100, Prot::RX);
        let e = m.write(0x1000, &[0x90]).unwrap_err();
        assert!(e.mapped);
        assert_eq!(e.access, Access::Write);
        // After mprotect the write succeeds (the patching dance).
        m.mprotect(0x1000, 100, Prot::RW).unwrap();
        m.write(0x1000, &[0x90]).unwrap();
        m.mprotect(0x1000, 100, Prot::RX).unwrap();
        assert!(m.write(0x1000, &[0x90]).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        let e = m.read_vec(0xdead_0000, 1).unwrap_err();
        assert!(!e.mapped);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Prot::RW);
        let data: Vec<u8> = (0..=255).collect();
        let addr = 0x1000 + PAGE_SIZE - 100;
        m.write(addr, &data).unwrap();
        assert_eq!(m.read_vec(addr, 256).unwrap(), data);
    }

    #[test]
    fn cross_page_fault_is_atomic() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW); // second page unmapped
        let addr = 0x1000 + PAGE_SIZE - 2;
        let before = m.read_vec(addr, 2).unwrap();
        assert!(m.write(addr, &[7, 7, 7, 7]).is_err());
        // Nothing was partially written.
        assert_eq!(m.read_vec(addr, 2).unwrap(), before);
    }

    #[test]
    fn wrapping_ranges_fault_unmapped() {
        let mut m = Memory::new();
        let top = u64::MAX - 3;
        let unmapped = |access| MemError {
            addr: top,
            access,
            mapped: false,
        };
        assert_eq!(m.read_uint(top, 8), Err(unmapped(Access::Read)));
        assert_eq!(m.write_int(top, 7, 8), Err(unmapped(Access::Write)));
        assert_eq!(m.mprotect(top, 8, Prot::RW), Err(unmapped(Access::Write)));
        // Mapping the last page does not map what lies past it.
        m.map(top, 8, Prot::RW);
        m.write_unchecked(top, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_uint(top, 4), Ok(0x0403_0201));
        assert_eq!(m.read_uint(top, 8), Err(unmapped(Access::Read)));
        assert_eq!(m.write_int(top, 7, 8), Err(unmapped(Access::Write)));
        m.mprotect(top, 4, Prot::RX).unwrap();
        m.flush_icache(top, 8);
        assert_eq!(m.code_version(top), 1);
        let mut buf = [0u8; 16];
        assert_eq!(m.fetch(top, &mut buf), Ok(4), "fetch stops at the end");
    }

    #[test]
    fn icache_version_bumps_only_on_flush() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW);
        assert_eq!(m.code_version(0x1000), 0);
        m.write(0x1000, &[1]).unwrap();
        assert_eq!(m.code_version(0x1000), 0);
        m.flush_icache(0x1000, 1);
        assert_eq!(m.code_version(0x1000), 1);
        assert_eq!(m.code_version(0x1000 + PAGE_SIZE), 0);
    }

    #[test]
    fn text_gen_moves_on_text_writes_and_flushes() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW); // data: never text
        m.map(0x2000, 2 * PAGE_SIZE, Prot::RX);
        m.write(0x1000, &[1]).unwrap();
        assert_eq!((m.text_gen(0x1000), m.text_epoch()), (0, 0));
        m.mprotect(0x2000, 2 * PAGE_SIZE, Prot::RW).unwrap();
        m.write(0x2000, &[1]).unwrap();
        assert_eq!(m.text_gen(0x2000), 1, "an unflushed text write");
        assert_eq!(m.code_version(0x2000), 0, "the icache still sees none");
        m.write(0x3000 - 1, &[1, 2]).unwrap(); // straddles both text pages
        assert_eq!((m.text_gen(0x2000), m.text_gen(0x3000)), (2, 1));
        m.flush_icache(0x3000, 1);
        assert_eq!(m.text_gen(0x3000), 2);
        assert_eq!(m.text_epoch(), 4);
        assert_eq!(m.flush_epoch(), 1, "only the flush counts as one");
    }

    /// Whether the page holding `addr` has bytes of its own.
    fn populated(m: &Memory, addr: u64) -> bool {
        m.page(Memory::page_no(addr)).unwrap().bytes.is_some()
    }

    /// A one-segment executable of `bytes` at `addr`.
    fn image(addr: u64, prot: Prot, bytes: Vec<u8>) -> Executable {
        Executable {
            segments: vec![mvobj::Segment {
                addr,
                prot,
                bytes,
                name: ".data".into(),
            }],
            ..Executable::default()
        }
    }

    #[test]
    fn mapped_pages_read_as_zeros_and_hold_no_bytes() {
        let mut m = Memory::new();
        m.map(0x1000, 16 * PAGE_SIZE, Prot::RW);
        assert_eq!(
            m.read_vec(0x1000, 16 * PAGE_SIZE as usize).unwrap(),
            vec![0; 16 * PAGE_SIZE as usize]
        );
        assert_eq!(m.resident_pages(), 0);
        assert!(!populated(&m, 0x1000) && !populated(&m, 0x10fff));
        m.write(0x3000, &[0, 5]).unwrap();
        assert_eq!((m.resident_pages(), populated(&m, 0x3000)), (1, true));
        assert_eq!(m.read_vec(0x2fff, 3).unwrap(), [0, 0, 5]);
    }

    #[test]
    fn zero_writes_keep_pages_unpopulated_but_still_count_as_text_writes() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW);
        m.map(0x2000, PAGE_SIZE, Prot::RX);
        m.mprotect(0x2000, PAGE_SIZE, Prot::RW).unwrap();
        m.write(0x1000, &[0; 8]).unwrap();
        m.write(0x2000, &[0; 8]).unwrap();
        assert_eq!(m.resident_pages(), 0, "zeros leave both pages unpopulated");
        assert_eq!((m.text_gen(0x1000), m.text_gen(0x2000)), (0, 1));
        assert_eq!(m.text_epoch(), 1, "a zero text write moves the epoch");

        m.set_fault_plan(FaultPlan::fail_nth_write(1));
        let e = m.write(0x2010, &[0; 4]).unwrap_err();
        assert_eq!((e.addr, e.access, e.mapped), (0x2010, Access::Write, true));
        assert_eq!(m.clear_fault_plan().unwrap().fired(), 1);
        assert_eq!(m.text_gen(0x2000), 1, "a tripped write moves nothing");
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn cross_page_write_populates_only_the_page_given_non_zero_bytes() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Prot::RW);
        m.write(0x2000 - 4, &[0, 0, 0, 0, 9, 9]).unwrap();
        assert!(!populated(&m, 0x1000) && populated(&m, 0x2000));
        m.write(0x2000 - 2, &[7, 7, 0, 0]).unwrap();
        assert!(populated(&m, 0x1000));
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_vec(0x2000 - 4, 6).unwrap(), [0, 0, 7, 7, 0, 0]);
    }

    #[test]
    fn fetch_from_an_unpopulated_text_page_reads_zeros() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Prot::RX);
        let mut buf = [0xAA; 16];
        assert_eq!(m.fetch(0x2000 - 8, &mut buf), Ok(16));
        assert_eq!(buf, [0; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn loading_zeros_over_a_populated_page_overwrites_its_bytes() {
        let mut m = Memory::new();
        m.load(&image(0x1000, Prot::RW, vec![3; 64]));
        assert_eq!(m.resident_pages(), 1);
        m.load(&image(0x1000, Prot::RW, vec![0; 64]));
        assert_eq!(m.read_vec(0x1000, 64).unwrap(), vec![0; 64]);
        assert_eq!(m.resident_pages(), 1, "the page keeps its bytes");
        m.load(&image(0x4000, Prot::RX, vec![0; 3 * PAGE_SIZE as usize]));
        assert_eq!(m.resident_pages(), 1, "an all-zero image stays unpopulated");
        assert_eq!(
            m.text_gen(0x5000),
            1,
            "loading text still moves its generation"
        );
    }

    #[test]
    fn extend_signs_correctly() {
        assert_eq!(extend(0xFF, 1, true), -1);
        assert_eq!(extend(0xFF, 1, false), 255);
        assert_eq!(extend(0x8000, 2, true), -32768);
        assert_eq!(extend(0x7FFF_FFFF, 4, true), i32::MAX as i64);
        assert_eq!(extend(0xFFFF_FFFF, 4, true), -1);
        assert_eq!(extend(u64::MAX, 8, false), -1);
    }

    #[test]
    fn read_int_widths() {
        let mut m = Memory::new();
        m.map(0, 16, Prot::RW);
        m.write_int(0, 0xFFFF_FFFF_FFFF_FFFE, 4).unwrap();
        assert_eq!(m.read_int(0, 4, true).unwrap(), -2);
        assert_eq!(m.read_int(0, 4, false).unwrap(), 0xFFFF_FFFE);
        assert_eq!(m.read_int(0, 8, false).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn mprotect_unmapped_fails() {
        let mut m = Memory::new();
        assert!(m.mprotect(0x5000, 10, Prot::RW).is_err());
    }
}
