//! Model-based property tests of the guest memory: reads, writes,
//! fetches, protection changes and icache flushes are checked against a
//! simple byte-map reference model.

use mvobj::Prot;
use mvvm::mem::Access;
use mvvm::{MemError, Memory, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;

const BASE: u64 = 0x10000;
/// Mapped pages at `BASE`; the page after them stays unmapped.
const PAGES: u64 = 4;
const SPAN: u64 = (PAGES + 1) * PAGE_SIZE;

#[derive(Clone, Debug)]
enum MemOp {
    Write { off: u64, data: Vec<u8> },
    Read { off: u64, len: usize },
    Fetch { off: u64, len: usize },
    Protect { page: u64, prot: u8 },
    Flush { page: u64 },
}

/// Offsets anywhere in the span, or just before a page boundary so
/// that ranges often straddle two pages.
fn arb_off() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..SPAN - 64,
        (1..PAGES + 1, 1u64..64).prop_map(|(page, back)| page * PAGE_SIZE - back),
    ]
}

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (arb_off(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(off, data)| MemOp::Write { off, data }),
        (arb_off(), 1usize..64).prop_map(|(off, len)| MemOp::Read { off, len }),
        (arb_off(), 1usize..64).prop_map(|(off, len)| MemOp::Fetch { off, len }),
        (0..PAGES, 0u8..4).prop_map(|(page, prot)| MemOp::Protect { page, prot }),
        (0..PAGES).prop_map(|page| MemOp::Flush { page }),
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
/// the wrong offset shows.
fn fill(addr: u64) -> u8 {
    (addr ^ (addr >> 8)) as u8
}

/// The model's page table: protection per page from `BASE`, `None`
/// where unmapped.
struct Model {
    prot: [Option<Prot>; PAGES as usize + 1],
    bytes: HashMap<u64, u8>,
}

impl Model {
    fn prot(&self, addr: u64) -> Option<Prot> {
        self.prot[((addr - BASE) / PAGE_SIZE) as usize]
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every successful write is visible to every later read and fetch;
    /// writes that fault leave memory untouched; every read, write and
    /// fetch returns exactly the bytes or the fault the model predicts.
    #[test]
    fn memory_matches_byte_map_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut mem = Memory::new();
        mem.map(BASE, PAGES * PAGE_SIZE, Prot::RW);
        let init: Vec<u8> = (BASE..BASE + PAGES * PAGE_SIZE).map(fill).collect();
        mem.write_unchecked(BASE, &init);
        let mut model = Model {
            prot: [Some(Prot::RW), Some(Prot::RW), Some(Prot::RW), Some(Prot::RW), None],
            bytes: HashMap::new(),
        };

        for op in &ops {
            match op {
                MemOp::Write { off, data } => {
                    let addr = BASE + off;
                    let expect = model.denied(addr, data.len(), Access::Write, |p| p.write);
                    prop_assert_eq!(mem.write(addr, data), expect, "write at {:#x}", addr);
                    if expect.is_ok() {
                        for (i, &b) in data.iter().enumerate() {
                            model.bytes.insert(addr + i as u64, b);
                        }
                    }
                }
                MemOp::Read { off, len } => {
                    let addr = BASE + off;
                    let expect = model
                        .denied(addr, *len, Access::Read, |p| p.read)
                        .map(|()| (addr..addr + *len as u64).map(|a| model.byte(a)).collect());
                    prop_assert_eq!(mem.read_vec(addr, *len), expect, "read at {:#x}", addr);
                }
                MemOp::Fetch { off, len } => {
                    let addr = BASE + off;
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
                    mem.mprotect(BASE + page * PAGE_SIZE, PAGE_SIZE, pr).unwrap();
                    model.prot[*page as usize] = Some(pr);
                }
                MemOp::Flush { page } => {
                    let addr = BASE + page * PAGE_SIZE;
                    let before = mem.code_version(addr);
                    mem.flush_icache(addr, 1);
                    prop_assert_eq!(mem.code_version(addr), before + 1);
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
