//! Model-based property tests of the guest memory: reads, writes,
//! fetches, protection changes and icache flushes are checked against a
//! simple byte-map reference model, over two groups of pages that share
//! the entries of `Memory`'s direct-mapped software TLB.

use mvobj::Prot;
use mvvm::mem::Access;
use mvvm::{MemError, Memory, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;

const BASE: u64 = 0x10000;
/// Mapped pages of each group; the page after them stays unmapped.
const PAGES: u64 = 4;
const SPAN: u64 = (PAGES + 1) * PAGE_SIZE;
/// The two groups of pages. The second starts 2^20 + 1 pages after the
/// first, so in any direct-mapped TLB of up to 2^20 entries its page
/// `k` shares an entry with the first group's page `k + 1` — and the
/// first group's unmapped page with the second group's last mapped one.
const GROUPS: [u64; 2] = [BASE, BASE + ((1 << 20) + 1) * PAGE_SIZE];

#[derive(Clone, Debug)]
enum MemOp {
    Write {
        addr: u64,
        data: Vec<u8>,
    },
    Read {
        addr: u64,
        len: usize,
    },
    Fetch {
        addr: u64,
        len: usize,
    },
    /// Changes the protection of the page starting at `page`.
    Protect {
        page: u64,
        prot: u8,
    },
    /// Flushes the page starting at `page`.
    Flush {
        page: u64,
    },
}

/// Addresses anywhere in either group's span, or just before a page
/// boundary so that ranges often straddle two pages.
fn arb_addr() -> impl Strategy<Value = u64> {
    let off = prop_oneof![
        0..SPAN - 64,
        (1..PAGES + 1, 1u64..64).prop_map(|(page, back)| page * PAGE_SIZE - back),
    ];
    (0..GROUPS.len(), off).prop_map(|(g, off)| GROUPS[g] + off)
}

/// The start of a mapped page of either group.
fn arb_page() -> impl Strategy<Value = u64> {
    (0..GROUPS.len(), 0..PAGES).prop_map(|(g, page)| GROUPS[g] + page * PAGE_SIZE)
}

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (arb_addr(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(addr, data)| MemOp::Write { addr, data }),
        (arb_addr(), 1usize..64).prop_map(|(addr, len)| MemOp::Read { addr, len }),
        (arb_addr(), 1usize..64).prop_map(|(addr, len)| MemOp::Fetch { addr, len }),
        (arb_page(), 0u8..4).prop_map(|(page, prot)| MemOp::Protect { page, prot }),
        arb_page().prop_map(|page| MemOp::Flush { page }),
    ]
}

fn prot_of(code: u8) -> Prot {
    match code {
        0 => Prot::R,
        1 => Prot::RW,
        2 => Prot::RX,
        _ => Prot {
            read: false,
            write: false,
            exec: false,
        },
    }
}

/// Initial content of the mapped bytes, varied enough that a copy from
/// the wrong offset, or from the other group's page, shows.
fn fill(addr: u64) -> u8 {
    (addr ^ (addr >> 8) ^ (addr >> 32).wrapping_mul(0x5B)) as u8
}

/// The model's page table, per group and page from the group's base:
/// protection (`None` where unmapped), whether the page ever was
/// executable, and its `(code_version, text_gen)`.
struct Model {
    prot: [[Option<Prot>; PAGES as usize + 1]; GROUPS.len()],
    text: [[bool; PAGES as usize]; GROUPS.len()],
    gens: [[(u64, u64); PAGES as usize]; GROUPS.len()],
    bytes: HashMap<u64, u8>,
}

impl Model {
    /// `(group, page)` of `addr`, which lies in a group's span.
    fn locate(addr: u64) -> (usize, usize) {
        let g = GROUPS.iter().rposition(|&b| addr >= b).expect("in a group");
        (g, ((addr - GROUPS[g]) / PAGE_SIZE) as usize)
    }

    fn prot(&self, addr: u64) -> Option<Prot> {
        let (g, p) = Self::locate(addr);
        self.prot[g][p]
    }

    fn byte(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(fill(addr))
    }

    /// The first byte of `[addr, addr+len)` whose page denies the access,
    /// as the fault `Memory` must report: at the access's own address in
    /// its first page, at the page start in a later one.
    fn denied(
        &self,
        addr: u64,
        len: usize,
        access: Access,
        allowed: fn(Prot) -> bool,
    ) -> Result<(), MemError> {
        match (addr..addr + len as u64).find(|&a| !self.prot(a).is_some_and(allowed)) {
            Some(a) => Err(MemError {
                addr: a,
                access,
                mapped: self.prot(a).is_some(),
            }),
            None => Ok(()),
        }
    }
}

/// Every page of both groups has the protection, `code_version` and
/// `text_gen` the model holds.
fn check_pages(mem: &Memory, model: &Model) -> Result<(), TestCaseError> {
    for (g, base) in GROUPS.into_iter().enumerate() {
        for p in 0..=PAGES as usize {
            let addr = base + p as u64 * PAGE_SIZE;
            prop_assert_eq!(mem.prot_of(addr), model.prot[g][p], "prot at {:#x}", addr);
            let gens = model.gens[g].get(p).copied().unwrap_or((0, 0));
            prop_assert_eq!(
                (mem.code_version(addr), mem.text_gen(addr)),
                gens,
                "at {:#x}",
                addr
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every successful write is visible to every later read and fetch;
    /// writes that fault leave memory untouched; every read, write and
    /// fetch returns exactly the bytes or the fault the model predicts.
    ///
    /// The two page groups alias in the TLB, and after every protection
    /// change and flush every page's protection, `code_version` and
    /// `text_gen` must match the model: a TLB that served the other
    /// group's page would show there or in the bytes.
    #[test]
    fn memory_matches_byte_map_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut mem = Memory::new();
        for base in GROUPS {
            mem.map(base, PAGES * PAGE_SIZE, Prot::RW);
            let init: Vec<u8> = (base..base + PAGES * PAGE_SIZE).map(fill).collect();
            mem.write_unchecked(base, &init);
        }
        let mapped = [Some(Prot::RW), Some(Prot::RW), Some(Prot::RW), Some(Prot::RW), None];
        let mut model = Model {
            prot: [mapped; GROUPS.len()],
            text: [[false; PAGES as usize]; GROUPS.len()],
            gens: [[(0, 0); PAGES as usize]; GROUPS.len()],
            bytes: HashMap::new(),
        };

        for op in &ops {
            match op {
                MemOp::Write { addr, data } => {
                    let addr = *addr;
                    let expect = model.denied(addr, data.len(), Access::Write, |p| p.write);
                    prop_assert_eq!(mem.write(addr, data), expect, "write at {:#x}", addr);
                    if expect.is_ok() {
                        for (i, &b) in data.iter().enumerate() {
                            model.bytes.insert(addr + i as u64, b);
                        }
                        // A write moves the text generation of each
                        // text page it touches, once.
                        let (g, first) = Model::locate(addr);
                        let (_, last) = Model::locate(addr + data.len() as u64 - 1);
                        for p in first..=last {
                            if model.text[g][p] {
                                model.gens[g][p].1 += 1;
                            }
                        }
                    }
                }
                MemOp::Read { addr, len } => {
                    let addr = *addr;
                    let expect = model
                        .denied(addr, *len, Access::Read, |p| p.read)
                        .map(|()| (addr..addr + *len as u64).map(|a| model.byte(a)).collect());
                    prop_assert_eq!(mem.read_vec(addr, *len), expect, "read at {:#x}", addr);
                }
                MemOp::Fetch { addr, len } => {
                    let addr = *addr;
                    let mut buf = vec![0u8; *len];
                    let got = mem.fetch(addr, &mut buf).map(|n| buf[..n].to_vec());
                    // As many leading bytes as are mapped executable; a
                    // fault only when not even the first one is.
                    let n = (addr..addr + *len as u64)
                        .take_while(|&a| model.prot(a).is_some_and(|p| p.exec))
                        .count();
                    let expect = if n == 0 {
                        model.denied(addr, 1, Access::Exec, |p| p.exec).map(|()| vec![])
                    } else {
                        Ok((addr..addr + n as u64).map(|a| model.byte(a)).collect())
                    };
                    prop_assert_eq!(got, expect, "fetch at {:#x}", addr);
                }
                MemOp::Protect { page, prot: p } => {
                    let pr = prot_of(*p);
                    mem.mprotect(*page, PAGE_SIZE, pr).unwrap();
                    let (g, p) = Model::locate(*page);
                    model.prot[g][p] = Some(pr);
                    model.text[g][p] |= pr.exec;
                    check_pages(&mem, &model)?;
                }
                MemOp::Flush { page } => {
                    mem.flush_icache(*page, 1);
                    let (g, p) = Model::locate(*page);
                    let gens = &mut model.gens[g][p];
                    *gens = (gens.0 + 1, gens.1 + 1);
                    check_pages(&mem, &model)?;
                }
            }
        }
    }

    /// Failed cross-page writes are atomic: no partial bytes land.
    #[test]
    fn failed_writes_are_atomic(
        data in proptest::collection::vec(any::<u8>(), 2..32),
        tail in 1u64..16,
    ) {
        let mut mem = Memory::new();
        mem.map(BASE, 2 * PAGE_SIZE, Prot::RW);
        mem.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, Prot::R).unwrap();
        // Straddle the boundary so the second page faults.
        let addr = BASE + PAGE_SIZE - tail.min(data.len() as u64 - 1);
        let before = mem.read_vec(addr, data.len()).unwrap();
        prop_assert!(mem.write(addr, &data).is_err());
        prop_assert_eq!(mem.read_vec(addr, data.len()).unwrap(), before);
    }
}
