//! The memory overlay of a variational context: every byte it wrote
//! over the shared base image.
//!
//! An [`Overlay`] has two parts. The *frozen* part is shared, by
//! reference count, with the siblings of the context's last split; the
//! *own* part holds only the bytes written since that split and shadows
//! the frozen one. Each part keeps its bytes in page-sized chunks
//! ([`CHUNK`]), ascending by chunk number. A chunk holds the concrete
//! bytes inline plus one *written* and one *variational* bit per byte;
//! a variational byte's [`Val`] lives in the chunk's side map. Chunks
//! are copy-on-write, so freezing the own part into a frozen part that
//! siblings still hold copies only the chunks the own part touches.
//!
//! An access inside one chunk costs one chunk probe per part:
//! [`Overlay::load`] answers a load whose bytes are all written and
//! concrete in the own part, or none in the own part and all concrete
//! in the frozen one, or none in either, and [`Overlay::store`] writes a
//! concrete value in place. Any other access — variational bytes, bytes
//! split between the parts or between written and unwritten, an access
//! straddling two chunks — goes byte by byte through
//! [`Overlay::own_byte`], [`Overlay::frozen_byte`] and [`Overlay::set`].
//! Walks ([`Overlay::written`], [`Overlay::join_addrs`]) visit written
//! bytes in ascending address order.

use std::collections::BTreeMap;
use std::rc::Rc;

use mvvm::mem::PAGE_SIZE;

use crate::value::Val;

/// Bytes per chunk: one guest page, so an access inside one chunk lies
/// inside one page, and a single read of the base image for it faults
/// where the VM's read faults.
pub(crate) const CHUNK: u64 = PAGE_SIZE;

/// Bitmap words per chunk.
const WORDS: usize = CHUNK as usize / 64;

// A side-map key (`u16`) holds any offset in a chunk.
const _: () = assert!(CHUNK <= 1 << 16 && CHUNK.is_multiple_of(64));

/// A word with its low `len` bits set, `len <= 64`.
fn low(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Bits `off..off + len` of `map`, as the low bits of a word; `len <= 64`.
fn bits(map: &[u64; WORDS], off: usize, len: usize) -> u64 {
    let (w, b) = (off / 64, off % 64);
    let mut v = map[w] >> b;
    if b + len > 64 {
        v |= map[w + 1] << (64 - b);
    }
    v & low(len)
}

/// Sets (`on`) or clears bits `off..off + len` of `map`; `len <= 64`.
fn put_bits(map: &mut [u64; WORDS], off: usize, len: usize, on: bool) {
    let (w, b) = (off / 64, off % 64);
    let m = low(len);
    let mut apply = |w: usize, m: u64| {
        if on {
            map[w] |= m;
        } else {
            map[w] &= !m;
        }
    };
    apply(w, m << b);
    if b + len > 64 {
        apply(w + 1, m >> (64 - b));
    }
}

/// Calls `f` with the bit offset of every set bit of word `w` of a
/// bitmap, ascending.
fn each_bit(w: usize, mut m: u64, mut f: impl FnMut(usize)) {
    while m != 0 {
        f(w * 64 + m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

/// One written byte.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Byte<'a> {
    /// The same byte in every configuration.
    Concrete(u8),
    /// A byte that differs across configurations.
    Var(&'a Val),
}

impl Byte<'_> {
    /// The byte as a value.
    pub(crate) fn to_val(self) -> Val {
        match self {
            Byte::Concrete(b) => Val::Concrete(b as u64),
            Byte::Var(v) => v.clone(),
        }
    }
}

/// How [`Overlay::load`] answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Load {
    /// Every byte is written and concrete in one part; the little-endian
    /// value.
    Concrete(u64),
    /// Neither part wrote a byte of the access, and it lies in one chunk.
    Untouched,
    /// Anything else: read the access byte by byte.
    Bytes,
}

/// One chunk's written bytes.
#[derive(Clone)]
struct Chunk {
    /// The concrete bytes; meaningful where `written` is set and `var`
    /// is clear.
    bytes: [u8; CHUNK as usize],
    /// One bit per written byte.
    written: [u64; WORDS],
    /// One bit per written byte whose value is variational.
    var: [u64; WORDS],
    /// The value of every variational byte, by offset in the chunk.
    vals: BTreeMap<u16, Val>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            bytes: [0; CHUNK as usize],
            written: [0; WORDS],
            var: [0; WORDS],
            vals: BTreeMap::new(),
        }
    }

    /// The byte at offset `off`, if written.
    fn get(&self, off: usize) -> Option<Byte<'_>> {
        if bits(&self.written, off, 1) == 0 {
            None
        } else if bits(&self.var, off, 1) == 0 {
            Some(Byte::Concrete(self.bytes[off]))
        } else {
            Some(Byte::Var(&self.vals[&(off as u16)]))
        }
    }

    /// Writes one byte's value at offset `off`.
    fn set(&mut self, off: usize, v: Val) {
        put_bits(&mut self.written, off, 1, true);
        match v {
            Val::Concrete(b) => {
                debug_assert!(b <= 0xFF, "a byte's value");
                self.bytes[off] = b as u8;
                self.unvar(off, 1);
            }
            v => {
                put_bits(&mut self.var, off, 1, true);
                self.vals.insert(off as u16, v);
            }
        }
    }

    /// Writes concrete `data` at offset `off`; `data.len() <= 64`.
    fn put(&mut self, off: usize, data: &[u8]) {
        self.bytes[off..off + data.len()].copy_from_slice(data);
        put_bits(&mut self.written, off, data.len(), true);
        self.unvar(off, data.len());
    }

    /// Clears the variational bits of `off..off + len`, dropping their
    /// values; `len <= 64`.
    fn unvar(&mut self, off: usize, len: usize) {
        let v = bits(&self.var, off, len);
        if v == 0 {
            return;
        }
        put_bits(&mut self.var, off, len, false);
        each_bit(0, v, |j| {
            self.vals.remove(&((off + j) as u16));
        });
    }

    /// Lays `top`'s written bytes over this chunk's, taking its values.
    fn absorb(&mut self, top: &mut Chunk) {
        for w in 0..WORDS {
            let m = top.written[w];
            if m == 0 {
                continue;
            }
            each_bit(w, self.var[w] & m, |off| {
                self.vals.remove(&(off as u16));
            });
            each_bit(w, m, |off| self.bytes[off] = top.bytes[off]);
            self.written[w] |= m;
            self.var[w] = (self.var[w] & !m) | top.var[w];
        }
        self.vals.append(&mut top.vals);
    }

    /// `true` if a byte in `off..end` is written.
    fn any_written(&self, mut off: usize, end: usize) -> bool {
        while off < end {
            let n = (64 - off % 64).min(end - off);
            if bits(&self.written, off, n) != 0 {
                return true;
            }
            off += n;
        }
        false
    }
}

/// One part of an overlay: its chunks, ascending by chunk number
/// (`addr / CHUNK`), and the closed range of addresses it wrote, so an
/// access outside that range costs no chunk lookup.
#[derive(Clone)]
struct Part {
    chunks: Vec<(u64, Rc<Chunk>)>,
    /// Every written byte lies in `lo..=hi`; `lo > hi` while empty.
    lo: u64,
    hi: u64,
}

impl Default for Part {
    fn default() -> Part {
        Part {
            chunks: Vec::new(),
            lo: u64::MAX,
            hi: 0,
        }
    }
}

impl Part {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Chunk number `n`, if the part holds it.
    fn find(&self, n: u64) -> Option<&Chunk> {
        self.chunks
            .binary_search_by_key(&n, |&(k, _)| k)
            .ok()
            .map(|i| &*self.chunks[i].1)
    }

    /// `false` if the part wrote no byte of `addr..=last`.
    #[inline]
    fn spans(&self, addr: u64, last: u64) -> bool {
        addr <= self.hi && self.lo <= last
    }

    /// The chunk holding `addr`, if the part may have written a byte of
    /// `addr..=last`.
    fn chunk(&self, addr: u64, last: u64) -> Option<&Chunk> {
        if !self.spans(addr, last) {
            return None;
        }
        self.find(addr / CHUNK)
    }

    /// The chunk holding `addr..=last` for writing, created empty if the
    /// part holds none there; the range must lie in one chunk.
    fn chunk_mut(&mut self, addr: u64, last: u64) -> &mut Chunk {
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(last);
        let n = addr / CHUNK;
        let i = match self.chunks.binary_search_by_key(&n, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.chunks.insert(i, (n, Rc::new(Chunk::new())));
                i
            }
        };
        Rc::make_mut(&mut self.chunks[i].1)
    }

    fn get(&self, addr: u64) -> Option<Byte<'_>> {
        self.chunk(addr, addr)?.get((addr % CHUNK) as usize)
    }

    fn set(&mut self, addr: u64, v: Val) {
        self.chunk_mut(addr, addr).set((addr % CHUNK) as usize, v);
    }

    /// `true` if a byte in `from..to` is written. Inlined, so a decode
    /// outside the part's range costs two compares.
    #[inline]
    fn any_written(&self, from: u64, to: u64) -> bool {
        from < to && self.spans(from, to - 1) && self.any_written_in(from, to)
    }

    /// [`Part::any_written`] past the range test: chunk by chunk.
    fn any_written_in(&self, from: u64, to: u64) -> bool {
        let mut at = from;
        while at < to {
            let off = (at % CHUNK) as usize;
            let n = (to - at).min(CHUNK - off as u64);
            if self
                .find(at / CHUNK)
                .is_some_and(|c| c.any_written(off, off + n as usize))
            {
                return true;
            }
            at += n;
        }
        false
    }

    /// Lays `top`'s bytes over this part's. A chunk only `top` holds
    /// moves over; a chunk both hold is copied first if another part
    /// still shares it.
    fn absorb(&mut self, top: Part) {
        self.lo = self.lo.min(top.lo);
        self.hi = self.hi.max(top.hi);
        for (n, mut chunk) in top.chunks {
            match self.chunks.binary_search_by_key(&n, |&(k, _)| k) {
                Ok(i) => Rc::make_mut(&mut self.chunks[i].1).absorb(Rc::make_mut(&mut chunk)),
                Err(i) => self.chunks.insert(i, (n, chunk)),
            }
        }
    }
}

/// Every address some part of `parts` wrote, ascending, each once.
fn addrs(parts: &[&Part]) -> Vec<u64> {
    let mut ns: Vec<u64> = parts
        .iter()
        .flat_map(|p| p.chunks.iter().map(|&(n, _)| n))
        .collect();
    ns.sort_unstable();
    ns.dedup();
    let mut out = Vec::new();
    for n in ns {
        let chunks: Vec<&Chunk> = parts.iter().filter_map(|p| p.find(n)).collect();
        for w in 0..WORDS {
            let m = chunks.iter().fold(0, |m, c| m | c.written[w]);
            each_bit(w, m, |off| out.push(n * CHUNK + off as u64));
        }
    }
    out
}

/// A context's memory overlay (see the module docs).
#[derive(Default)]
pub(crate) struct Overlay {
    /// The part shared with the siblings of the context's last split:
    /// every byte written before it, tabulated over the splitting
    /// context's leaves. Never mutated while another overlay holds it.
    frozen: Rc<Part>,
    /// The bytes written since the last split; they shadow `frozen`.
    own: Part,
}

impl Overlay {
    /// Folds the own part into the frozen part, so a split hands every
    /// child the whole overlay without copying a byte. The fold is in
    /// place unless a sibling still holds the frozen part; then only the
    /// chunks the own part touches are copied.
    pub(crate) fn freeze(&mut self) {
        if self.own.is_empty() {
            return;
        }
        let own = std::mem::take(&mut self.own);
        if self.frozen.is_empty() {
            self.frozen = Rc::new(own);
        } else {
            Rc::make_mut(&mut self.frozen).absorb(own);
        }
    }

    /// An overlay over this one's frozen part with nothing of its own:
    /// a split child's, or a join's of two contexts sharing that part.
    pub(crate) fn child(&self) -> Overlay {
        Overlay {
            frozen: Rc::clone(&self.frozen),
            own: Part::default(),
        }
    }

    /// `true` if nothing was written since the last freeze.
    pub(crate) fn is_frozen(&self) -> bool {
        self.own.is_empty()
    }

    /// `true` if both overlays hold the same frozen part.
    pub(crate) fn shares_frozen(&self, other: &Overlay) -> bool {
        Rc::ptr_eq(&self.frozen, &other.frozen)
    }

    /// The byte at `addr` in the own part, if written since the split.
    pub(crate) fn own_byte(&self, addr: u64) -> Option<Byte<'_>> {
        self.own.get(addr)
    }

    /// The byte at `addr` in the frozen part, if written before the split.
    pub(crate) fn frozen_byte(&self, addr: u64) -> Option<Byte<'_>> {
        self.frozen.get(addr)
    }

    /// The `width`-byte load at `addr` (`1..=8` bytes, not wrapping), if
    /// one check per part answers it.
    pub(crate) fn load(&self, addr: u64, width: usize) -> Load {
        debug_assert!((1..=8).contains(&width));
        let off = (addr % CHUNK) as usize;
        if off + width > CHUNK as usize {
            return Load::Bytes;
        }
        let last = addr + width as u64 - 1;
        for part in [&self.own, &*self.frozen] {
            let Some(c) = part.chunk(addr, last) else {
                continue;
            };
            let w = bits(&c.written, off, width);
            if w == low(width) && bits(&c.var, off, width) == 0 {
                let mut buf = [0u8; 8];
                buf[..width].copy_from_slice(&c.bytes[off..off + width]);
                return Load::Concrete(u64::from_le_bytes(buf));
            }
            if w != 0 {
                return Load::Bytes;
            }
        }
        Load::Untouched
    }

    /// Writes one byte's value into the own part.
    pub(crate) fn set(&mut self, addr: u64, v: Val) {
        self.own.set(addr, v);
    }

    /// Stores the low `width` bytes of `val` at `addr`, little-endian
    /// (`1..=8` bytes, not wrapping): a concrete value inside one chunk
    /// in place, anything else byte by byte.
    pub(crate) fn store(&mut self, addr: u64, val: &Val, width: usize) {
        debug_assert!((1..=8).contains(&width));
        let off = (addr % CHUNK) as usize;
        match val {
            Val::Concrete(v) if off + width <= CHUNK as usize => {
                let last = addr + width as u64 - 1;
                self.own
                    .chunk_mut(addr, last)
                    .put(off, &v.to_le_bytes()[..width]);
            }
            _ => {
                for j in 0..width {
                    let shift = 8 * j as u32;
                    self.own
                        .set(addr + j as u64, val.map(|v| (v >> shift) & 0xFF));
                }
            }
        }
    }

    /// `true` if either part wrote a byte in `from..to`.
    #[inline]
    pub(crate) fn any_written(&self, from: u64, to: u64) -> bool {
        self.own.any_written(from, to) || self.frozen.any_written(from, to)
    }

    /// Every written byte, the own part's over the frozen part's,
    /// ascending by address.
    pub(crate) fn written(&self) -> Vec<(u64, Byte<'_>)> {
        addrs(&[&self.own, &self.frozen])
            .into_iter()
            .map(|a| {
                let b = self.own.get(a).or_else(|| self.frozen.get(a));
                (a, b.expect("a written bit has a byte"))
            })
            .collect()
    }

    /// The addresses a join of `a` and `b` must merge, ascending: what
    /// either wrote since its split, and, unless they hold the same
    /// frozen part, what either wrote before it. A byte neither wrote
    /// since a shared part froze is that part's byte on both sides.
    pub(crate) fn join_addrs(a: &Overlay, b: &Overlay) -> Vec<u64> {
        if a.shares_frozen(b) {
            addrs(&[&a.own, &b.own])
        } else {
            addrs(&[&a.own, &b.own, &a.frozen, &b.frozen])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference semantics: a per-byte map for each part, the own
    /// part shadowing the frozen one.
    #[derive(Clone, Default)]
    struct Model {
        frozen: BTreeMap<u64, Val>,
        own: BTreeMap<u64, Val>,
        /// Tells frozen parts apart: equal ids are one shared part.
        id: u32,
    }

    impl Model {
        fn get(&self, addr: u64) -> Option<&Val> {
            self.own.get(&addr).or_else(|| self.frozen.get(&addr))
        }

        fn written(&self) -> Vec<(u64, Val)> {
            let mut all = self.frozen.clone();
            all.extend(self.own.iter().map(|(a, v)| (*a, v.clone())));
            all.into_iter().collect()
        }

        /// The answer one check per part gives, from the per-byte maps.
        fn load(&self, addr: u64, width: usize) -> Load {
            if addr % CHUNK + width as u64 > CHUNK {
                return Load::Bytes;
            }
            let range = addr..addr + width as u64;
            let concrete = |m: &BTreeMap<u64, Val>| -> Option<u64> {
                range
                    .clone()
                    .rev()
                    .try_fold(0u64, |acc, a| Some((acc << 8) | m.get(&a)?.as_concrete()?))
            };
            let none_in = |m: &BTreeMap<u64, Val>| m.range(range.clone()).next().is_none();
            if let Some(v) = concrete(&self.own) {
                Load::Concrete(v)
            } else if !none_in(&self.own) {
                Load::Bytes
            } else if let Some(v) = concrete(&self.frozen) {
                Load::Concrete(v)
            } else if none_in(&self.frozen) {
                Load::Untouched
            } else {
                Load::Bytes
            }
        }
    }

    /// Where the test's accesses start: `SPAN`-byte windows around the
    /// boundary between chunks 4 and 5, and around the boundary between
    /// two bitmap words inside chunk 5.
    const WINDOWS: [u64; 2] = [5 * CHUNK - 12, 5 * CHUNK + 64 - 12];
    const SPAN: u64 = 24;

    fn arb_addr() -> impl Strategy<Value = u64> {
        (0..WINDOWS.len(), 0..SPAN).prop_map(|(w, off)| WINDOWS[w] + off)
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Store `width` bytes at `at`, of a concrete value or of one
        /// tabulated over switch 0.
        Store { at: u64, width: usize, val: Val },
        /// Freeze and keep a split sibling, which later stores must not
        /// reach.
        Split,
        /// Load at `at` at every width.
        Load { at: u64 },
    }

    fn arb_val() -> impl Strategy<Value = Val> {
        prop_oneof![
            any::<u64>().prop_map(Val::Concrete),
            (any::<u64>(), any::<u64>()).prop_map(|(x, y)| Val::per_value(0, vec![(0, x), (1, y)])),
            // Tables equal in their low bytes: some stored bytes collapse
            // to concrete ones.
            (any::<u32>(), any::<u16>()).prop_map(|(x, y)| Val::per_value(
                0,
                vec![(0, x as u64), (1, ((y as u64) << 32) | x as u64)]
            )),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_addr(), 0usize..4, arb_val()).prop_map(|(at, w, val)| Op::Store {
                at,
                width: 1 << w,
                val
            }),
            Just(Op::Split),
            arb_addr().prop_map(|at| Op::Load { at }),
        ]
    }

    fn byte(b: Option<Byte<'_>>) -> Option<Val> {
        b.map(Byte::to_val)
    }

    /// Checks every byte, every load and both walks of `ov` against `m`.
    fn check(ov: &Overlay, m: &Model) -> Result<(), TestCaseError> {
        for a in WINDOWS.iter().flat_map(|&w| w - 8..w + SPAN + 8) {
            prop_assert_eq!(
                byte(ov.own_byte(a)),
                m.own.get(&a).cloned(),
                "own byte {:#x}",
                a
            );
            prop_assert_eq!(
                byte(ov.frozen_byte(a)),
                m.frozen.get(&a).cloned(),
                "frozen byte {:#x}",
                a
            );
            for width in [1, 2, 4, 8] {
                check_load(ov, m, a, width)?;
            }
        }
        let walk: Vec<(u64, Val)> = ov
            .written()
            .into_iter()
            .map(|(a, b)| (a, b.to_val()))
            .collect();
        prop_assert_eq!(walk, m.written());
        Ok(())
    }

    fn check_load(ov: &Overlay, m: &Model, addr: u64, width: usize) -> Result<(), TestCaseError> {
        let got = ov.load(addr, width);
        prop_assert_eq!(got, m.load(addr, width), "load {:#x}/{}", addr, width);
        if let Load::Concrete(v) = got {
            for j in 0..width as u64 {
                prop_assert_eq!(m.get(addr + j), Some(&Val::Concrete((v >> (8 * j)) & 0xFF)));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Chunks with written and variational bits read, walk and join
        /// exactly as per-byte maps do, and a store after a split never
        /// reaches a sibling.
        #[test]
        fn overlay_matches_per_byte_maps(ops in proptest::collection::vec(arb_op(), 1..40)) {
            let (mut ov, mut m) = (Overlay::default(), Model::default());
            let mut siblings: Vec<(Overlay, Model)> = Vec::new();
            let mut ids = 0;
            for op in &ops {
                match op {
                    Op::Store { at, width, val } => {
                        let addr = *at;
                        ov.store(addr, val, *width);
                        for j in 0..*width {
                            let shift = 8 * j as u32;
                            m.own.insert(addr + j as u64, val.map(|v| (v >> shift) & 0xFF));
                        }
                    }
                    Op::Split => {
                        ov.freeze();
                        if !m.own.is_empty() {
                            let own = std::mem::take(&mut m.own);
                            m.frozen.extend(own);
                            ids += 1;
                            m.id = ids;
                        }
                        prop_assert!(ov.is_frozen());
                        siblings.push((ov.child(), m.clone()));
                    }
                    Op::Load { at } => {
                        for width in [1, 2, 4, 8] {
                            check_load(&ov, &m, *at, width)?;
                        }
                    }
                }
            }
            check(&ov, &m)?;
            for (sib, sm) in &siblings {
                check(sib, sm)?;
                prop_assert_eq!(ov.shares_frozen(sib), m.id == sm.id);
                let mut want: Vec<u64> = m.own.keys().chain(sm.own.keys()).copied().collect();
                if m.id != sm.id {
                    want.extend(m.frozen.keys().chain(sm.frozen.keys()));
                }
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(Overlay::join_addrs(&ov, sib), want);
            }
        }
    }

    #[test]
    fn decode_check_sees_written_bytes_across_chunks() {
        let mut ov = Overlay::default();
        ov.store(2 * CHUNK + 3, &Val::Concrete(0x90), 1);
        ov.freeze();
        ov.store(CHUNK - 1, &Val::Concrete(0x90), 1);
        assert!(ov.any_written(2 * CHUNK - 8, 2 * CHUNK + 8));
        assert!(!ov.any_written(2 * CHUNK - 8, 2 * CHUNK + 3));
        assert!(ov.any_written(CHUNK - 4, CHUNK + 12));
        assert!(!ov.any_written(CHUNK, CHUNK + 16));
        assert!(!ov.any_written(u64::MAX - 15, u64::MAX));
    }
}
