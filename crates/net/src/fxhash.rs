//! FxHash, the multiply-rotate hasher of Firefox and rustc, for the
//! QNP's per-circuit maps.
//!
//! Their keys are identifiers the simulation mints itself (link-pair
//! correlators, request ids), never input crafted to collide, so the
//! seeded SipHash of `std` buys nothing there and costs a large share of
//! every pair's host time. The hash is a pure function of the key.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's 64-bit FxHash multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds each word into the state: rotate, xor, multiply.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;
