//! The one hasher of every guest-address-keyed map in the VM.
//!
//! Page tables, decode caches, block caches, native regions and branch
//! predictors are all probed on the per-instruction path, keyed by a
//! page number or a `pc`. SipHash's per-lookup cost is exactly the
//! overhead those maps exist to avoid, and its flooding resistance buys
//! nothing here: the keys are pages the host mapped and addresses
//! inside them, so the guest cannot grow a map at will.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A paranoia-free multiply-xor hasher for `u64` keys (the Fx shape),
/// std-only.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_distributes_u64_keys() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..1000 {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000, "no collisions on small sequential keys");
    }
}
