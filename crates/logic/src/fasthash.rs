//! A fast, deterministic hasher for the evaluation hot paths.
//!
//! Fact storage hashes every tuple several times per insert (dedup set
//! plus one index per column), and `std`'s default SipHash is the single
//! largest constant factor in bottom-up rounds. This is the classic
//! multiply-rotate hash used by rustc ("Fx"): not DoS-resistant, which is
//! fine for derived-fact working sets, and seed-free, so map iteration
//! order is reproducible across runs — evaluation diagnostics don't
//! depend on a per-process hash seed.
//!
//! Fx leaves the low bits of a one-word key's hash as zero as the key's
//! own low bits: an `f64`-encoded integer or an aligned address hashes to
//! a multiple of a large power of two. [`FxMixHasher`] finishes with
//! [`mix`], an avalanche, for the maps and hash-keyed shards whose keys
//! are that shape and whose iteration order nothing observes.
//!
//! Built with `--cfg qdk_hash_seed="1"` (or `"2"`), every Fx hash starts
//! from a fixed non-zero state instead of zero, which reorders every Fx
//! map. Output that must not depend on hash order is checked under both
//! seeds; the default build is unchanged.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// `HashMap` keyed with [`FxMixHasher`].
pub type FxMixHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxMixHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The state every [`FxHasher`] starts from: zero, unless the build
/// perturbs hash order (see the module docs).
#[cfg(not(any(qdk_hash_seed = "1", qdk_hash_seed = "2")))]
const START: u64 = 0;
#[cfg(qdk_hash_seed = "1")]
const START: u64 = 0x9e37_79b9_7f4a_7c15;
#[cfg(qdk_hash_seed = "2")]
const START: u64 = 0xd1b5_4a32_d192_ed03;

/// The 64-bit finalizer of MurmurHash3 (`fmix64`): every input bit
/// flips each output bit with probability about ½, so keys that differ
/// only in their high bits land in different buckets and shards.
#[inline]
pub fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Multiply-rotate hasher over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    #[inline]
    fn default() -> Self {
        FxHasher { hash: START }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "a" and "a\0" hash differently.
            w[7] = w[7].wrapping_add(rest.len() as u8);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`FxHasher`] finished with [`mix`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FxMixHasher(FxHasher);

impl Hasher for FxMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix(self.0.finish())
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0.write_u8(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0.write_u32(n);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0.write_usize(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"prereq"), hash_of(b"prereq"));
    }

    #[test]
    fn distinguishes_tail_lengths() {
        assert_ne!(hash_of(b"a"), hash_of(b"a\0"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn only_a_seeded_build_starts_a_hash_away_from_zero() {
        let seeded = cfg!(any(qdk_hash_seed = "1", qdk_hash_seed = "2"));
        assert_eq!(FxHasher::default().finish() != 0, seeded);
    }

    #[test]
    fn mix_spreads_keys_that_differ_in_high_bits_only() {
        // Small integers as `f64` bits: Fx alone leaves the low 38 bits
        // of every hash zero.
        let fx = |k: u64| {
            let mut h = FxHasher::default();
            h.write_u64((k as f64).to_bits());
            h.finish()
        };
        assert!((1..64).all(|k| fx(k) & 0xff == fx(0) & 0xff));
        let low: std::collections::HashSet<u64> = (0..64).map(|k| mix(fx(k)) & 0xff).collect();
        assert!(low.len() > 32, "{} distinct low bytes", low.len());
    }

    #[test]
    fn maps_work_with_composite_keys() {
        let mut m: FxHashMap<(String, i64), usize> = FxHashMap::default();
        m.insert(("x".into(), 1), 10);
        m.insert(("x".into(), 2), 20);
        assert_eq!(m.get(&("x".to_string(), 2)), Some(&20));
        assert_eq!(m.len(), 2);
    }
}
