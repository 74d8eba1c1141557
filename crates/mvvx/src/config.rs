//! The configuration space: switch domains, mixed-radix leaf indexing and
//! the [`LeafSet`] bitmask that keys every variational context.
//!
//! A *leaf* is one full assignment of every switch — one corner of the
//! cross product. Leaves are numbered mixed-radix: switch 0 is the
//! fastest-varying digit, so `leaf = Σ digit(sw) · stride(sw)` with
//! `stride(0) = 1` and `stride(k+1) = stride(k) · |domain(k)|`. The
//! encoding makes the two operations the engine leans on cheap:
//!
//! * `mask(sw, idx)` — the set of leaves where switch `sw` takes its
//!   `idx`-th domain value (precomputed once per space), and
//! * [`ConfigSpace::project_digit0`] — "forget switch `sw`": map every
//!   leaf to its twin with digit 0 in position `sw`, which is how the
//!   join rule decides whether two contexts differ *only* in that switch.

use std::fmt;

/// Hard cap on the cross-product size. Wider spaces must bail to
/// enumeration (or sampling) — the bitmask representation is dense.
pub const MAX_LEAVES: usize = 1 << 16;

/// One switch and its value domain.
#[derive(Clone, Debug)]
pub struct SwitchDomain {
    /// Symbol name of the switch variable (for reports; may be synthetic).
    pub name: String,
    /// Guest address of the switch cell.
    pub addr: u64,
    /// Cell width in bytes (1, 2, 4 or 8).
    pub width: usize,
    /// Whether loads of the cell sign-extend.
    pub signed: bool,
    /// Domain values, sorted and deduplicated. Never empty: at minimum it
    /// holds the cell's current value.
    pub values: Vec<i64>,
}

/// Why a [`ConfigSpace`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpaceError {
    /// The cross product exceeds [`MAX_LEAVES`].
    TooWide {
        /// The offending product (may overflow usize, hence u128).
        leaves: u128,
        /// The cap that was exceeded.
        cap: usize,
    },
    /// A switch arrived with an empty domain.
    EmptyDomain {
        /// Name of the offending switch.
        switch: String,
    },
    /// A switch cell is not 1, 2, 4 or 8 bytes wide, or wraps past the
    /// end of the address space.
    BadCell {
        /// Name of the offending switch.
        switch: String,
        /// Guest address of the cell.
        addr: u64,
        /// Claimed width in bytes.
        width: usize,
    },
    /// Two switches overlap in memory — per-switch values would alias.
    Overlap {
        /// Names of the overlapping switches.
        a: String,
        /// Second switch.
        b: String,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::TooWide { leaves, cap } => {
                write!(f, "config space has {leaves} leaves, cap is {cap}")
            }
            SpaceError::EmptyDomain { switch } => {
                write!(f, "switch {switch} has an empty domain")
            }
            SpaceError::BadCell {
                switch,
                addr,
                width,
            } => write!(
                f,
                "switch {switch} is a {width}-byte cell at {addr:#x}; cells are 1, 2, 4 or 8 \
                 bytes inside the address space"
            ),
            SpaceError::Overlap { a, b } => {
                write!(f, "switches {a} and {b} overlap in memory")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// A dense set of leaves, one bit per leaf.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LeafSet {
    bits: usize,
    words: Vec<u64>,
}

impl LeafSet {
    /// The empty set over `bits` leaves.
    pub fn empty(bits: usize) -> LeafSet {
        LeafSet {
            bits,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// The full set over `bits` leaves.
    pub fn full(bits: usize) -> LeafSet {
        let mut s = LeafSet::empty(bits);
        for i in 0..bits {
            s.insert(i);
        }
        s
    }

    /// Number of leaves the set ranges over (not its cardinality).
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// Adds leaf `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.bits && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Cardinality.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no leaf is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &LeafSet) -> LeafSet {
        debug_assert_eq!(self.bits, other.bits);
        LeafSet {
            bits: self.bits,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Set union.
    pub fn union(&self, other: &LeafSet) -> LeafSet {
        debug_assert_eq!(self.bits, other.bits);
        LeafSet {
            bits: self.bits,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// `true` if the sets share no leaf.
    pub fn is_disjoint(&self, other: &LeafSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates the member leaves in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits).filter(move |&i| self.contains(i))
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

/// The full configuration space of a program: every integer switch with
/// its recovered domain, plus the mixed-radix leaf indexing over them.
#[derive(Clone, Debug)]
pub struct ConfigSpace {
    switches: Vec<SwitchDomain>,
    strides: Vec<usize>,
    leaves: usize,
    /// `masks[sw][idx]` = leaves where switch `sw` has its `idx`-th value.
    masks: Vec<Vec<LeafSet>>,
}

impl ConfigSpace {
    /// Builds the space, precomputing per-value leaf masks. Fails if the
    /// cross product exceeds [`MAX_LEAVES`], if a domain is empty, if a
    /// switch cell is not a 1, 2, 4 or 8-byte range inside the address
    /// space, or if two switch cells alias.
    pub fn new(mut switches: Vec<SwitchDomain>) -> Result<ConfigSpace, SpaceError> {
        for sw in &mut switches {
            sw.values.sort_unstable();
            sw.values.dedup();
            if sw.values.is_empty() {
                return Err(SpaceError::EmptyDomain {
                    switch: sw.name.clone(),
                });
            }
            if !matches!(sw.width, 1 | 2 | 4 | 8) || sw.addr.checked_add(sw.width as u64).is_none()
            {
                return Err(SpaceError::BadCell {
                    switch: sw.name.clone(),
                    addr: sw.addr,
                    width: sw.width,
                });
            }
        }
        for i in 0..switches.len() {
            for j in i + 1..switches.len() {
                let (a, b) = (&switches[i], &switches[j]);
                if a.addr < b.addr + b.width as u64 && b.addr < a.addr + a.width as u64 {
                    return Err(SpaceError::Overlap {
                        a: a.name.clone(),
                        b: b.name.clone(),
                    });
                }
            }
        }
        let mut product: u128 = 1;
        for sw in &switches {
            product *= sw.values.len() as u128;
        }
        if product > MAX_LEAVES as u128 {
            return Err(SpaceError::TooWide {
                leaves: product,
                cap: MAX_LEAVES,
            });
        }
        let leaves = product as usize;
        let mut strides = Vec::with_capacity(switches.len());
        let mut stride = 1usize;
        for sw in &switches {
            strides.push(stride);
            stride *= sw.values.len();
        }
        let mut masks = Vec::with_capacity(switches.len());
        for (s, sw) in switches.iter().enumerate() {
            let mut per_value = vec![LeafSet::empty(leaves); sw.values.len()];
            for leaf in 0..leaves {
                per_value[leaf / strides[s] % sw.values.len()].insert(leaf);
            }
            masks.push(per_value);
        }
        Ok(ConfigSpace {
            switches,
            strides,
            leaves,
            masks,
        })
    }

    /// The switches, in digit order.
    pub fn switches(&self) -> &[SwitchDomain] {
        &self.switches
    }

    /// Total number of leaves (the cross-product size, ≥ 1).
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The value *index* switch `sw` takes at `leaf`.
    #[inline]
    pub fn digit(&self, leaf: usize, sw: usize) -> usize {
        leaf / self.strides[sw] % self.switches[sw].values.len()
    }

    /// The domain *value* switch `sw` takes at `leaf`.
    #[inline]
    pub fn value(&self, leaf: usize, sw: usize) -> i64 {
        self.switches[sw].values[self.digit(leaf, sw)]
    }

    /// The full assignment at `leaf`, in switch order.
    pub fn assignment(&self, leaf: usize) -> Vec<(String, i64)> {
        (0..self.switches.len())
            .map(|s| (self.switches[s].name.clone(), self.value(leaf, s)))
            .collect()
    }

    /// Compact `name=value,...` label for `leaf`.
    pub fn label(&self, leaf: usize) -> String {
        self.assignment(leaf)
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// All leaves.
    pub fn full_set(&self) -> LeafSet {
        LeafSet::full(self.leaves)
    }

    /// Leaves where switch `sw` takes its `idx`-th domain value.
    pub fn mask(&self, sw: usize, idx: usize) -> &LeafSet {
        &self.masks[sw][idx]
    }

    /// Value indices of switch `sw` that occur in `set`.
    pub fn live_digits(&self, set: &LeafSet, sw: usize) -> Vec<usize> {
        (0..self.switches[sw].values.len())
            .filter(|&idx| !self.masks[sw][idx].is_disjoint(set))
            .collect()
    }

    /// Maps every leaf in `set` to its twin with digit 0 for switch `sw`
    /// ("forget switch `sw`"). Two contexts are joinable over `sw` iff
    /// their projections are equal: they then agree on every other digit.
    pub fn project_digit0(&self, set: &LeafSet, sw: usize) -> LeafSet {
        let mut out = LeafSet::empty(self.leaves);
        for leaf in set.iter() {
            out.insert(leaf - self.digit(leaf, sw) * self.strides[sw]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(name: &str, addr: u64, values: &[i64]) -> SwitchDomain {
        SwitchDomain {
            name: name.into(),
            addr,
            width: 4,
            signed: true,
            values: values.to_vec(),
        }
    }

    fn space2() -> ConfigSpace {
        ConfigSpace::new(vec![sw("a", 0x100, &[0, 3, 7]), sw("b", 0x200, &[0, 1])]).unwrap()
    }

    #[test]
    fn mixed_radix_indexing() {
        let s = space2();
        assert_eq!(s.leaf_count(), 6);
        // Switch 0 is the fastest digit.
        assert_eq!(s.value(0, 0), 0);
        assert_eq!(s.value(1, 0), 3);
        assert_eq!(s.value(2, 0), 7);
        assert_eq!(s.value(3, 0), 0);
        assert_eq!(s.value(0, 1), 0);
        assert_eq!(s.value(3, 1), 1);
        assert_eq!(s.label(5), "a=7,b=1");
    }

    #[test]
    fn masks_partition_the_space() {
        let s = space2();
        for d in 0..2 {
            let mut union = LeafSet::empty(s.leaf_count());
            for idx in 0..s.switches()[d].values.len() {
                assert!(union.is_disjoint(s.mask(d, idx)));
                union = union.union(s.mask(d, idx));
            }
            assert_eq!(union, s.full_set());
        }
    }

    #[test]
    fn projection_detects_single_switch_difference() {
        let s = space2();
        // a=0 arm vs a∈{3,7} arm at fixed b: joinable over a.
        let arm0 = s.mask(0, 0).clone();
        let arm1 = s.mask(0, 1).union(s.mask(0, 2));
        assert_eq!(s.project_digit0(&arm0, 0), s.project_digit0(&arm1, 0));
        // But not joinable over b.
        assert_ne!(s.project_digit0(&arm0, 1), s.project_digit0(&arm1, 1));
    }

    #[test]
    fn too_wide_is_rejected() {
        let wide: Vec<SwitchDomain> = (0..17)
            .map(|i| sw(&format!("s{i}"), 0x100 + 8 * i as u64, &[0, 1]))
            .collect();
        let err = ConfigSpace::new(wide).unwrap_err();
        assert!(matches!(err, SpaceError::TooWide { .. }));
    }

    #[test]
    fn overlap_is_rejected() {
        let err =
            ConfigSpace::new(vec![sw("a", 0x100, &[0, 1]), sw("b", 0x102, &[0, 1])]).unwrap_err();
        assert!(matches!(err, SpaceError::Overlap { .. }));
    }

    #[test]
    fn bad_cells_are_rejected() {
        let cell = |addr, width| SwitchDomain {
            width,
            ..sw("a", addr, &[0, 1])
        };
        for (addr, width) in [
            (0x100, 0),
            (0x100, 3),
            (0x100, 16),
            (u64::MAX - 3, 4),
            (u64::MAX, 1),
        ] {
            let err = ConfigSpace::new(vec![cell(addr, width)]).unwrap_err();
            assert!(
                matches!(err, SpaceError::BadCell { .. }),
                "{addr:#x}+{width}: {err:?}"
            );
        }
        // Checked before the overlap test, whose range ends would wrap.
        let err = ConfigSpace::new(vec![cell(0x100, 4), cell(u64::MAX - 3, 4)]).unwrap_err();
        assert!(matches!(err, SpaceError::BadCell { .. }), "{err:?}");
        assert!(ConfigSpace::new(vec![cell(u64::MAX - 8, 8)]).is_ok());
    }

    #[test]
    fn domains_are_sorted_and_deduped() {
        let s = ConfigSpace::new(vec![sw("a", 0x100, &[7, 0, 3, 7])]).unwrap();
        assert_eq!(s.switches()[0].values, vec![0, 3, 7]);
    }

    #[test]
    fn leafset_ops() {
        let mut a = LeafSet::empty(70);
        a.insert(0);
        a.insert(65);
        let mut b = LeafSet::empty(70);
        b.insert(65);
        assert_eq!(a.count(), 2);
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![65]);
        assert_eq!(a.union(&b).count(), 2);
        assert_eq!(a.first(), Some(0));
        assert!(LeafSet::empty(70).is_empty());
        assert_eq!(LeafSet::full(70).count(), 70);
    }
}
