//! A fast non-cryptographic hasher for cache shard selection and map keys.
//!
//! The standard library's SipHash is collision-resistant but slow for the
//! short string keys (file names) that dominate workflow metadata. This is
//! an FxHash-style multiply-rotate hasher: quality adequate for in-process
//! tables, several times faster than SipHash on short keys. HashDoS is not
//! a concern — keys come from the workflow itself, not untrusted clients.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style 64-bit hasher.
#[derive(Default, Clone)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits are usable for shard masks.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "a" and "a\0" differ.
            buf[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`], for use with `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// The map every ordered crate uses: unseeded, so iteration order is a
/// function of insertion history and reproducible across processes.
#[expect(
    clippy::disallowed_types,
    reason = "the ordered crates name the std map only through this alias"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// The set counterpart of [`FxHashMap`].
#[expect(
    clippy::disallowed_types,
    reason = "the ordered crates name the std set only through this alias"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// A pass-through hasher for keys that carry a precomputed 64-bit hash
/// (see [`crate::Key`]): `write_u64` stores the value verbatim and
/// `finish` returns it, so map probes do no hashing work at all.
///
/// Falls back to real FxHash mixing if raw bytes are written, so the
/// hasher stays correct (if pointless) for non-prehashed keys.
#[derive(Default, Clone)]
pub struct PrehashedHasher {
    hash: u64,
    mixed: bool,
}

impl Hasher for PrehashedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        if self.mixed {
            // Already carrying state: keep mixing so multi-field keys
            // depend on every written word, not just the last one.
            self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
        } else {
            self.hash = i;
            self.mixed = true;
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut fx = FxHasher64 { hash: self.hash };
        fx.write(bytes);
        self.hash = fx.finish();
        self.mixed = true;
    }
}

/// `BuildHasher` for [`PrehashedHasher`].
pub type PrehashedBuildHasher = BuildHasherDefault<PrehashedHasher>;

/// Hash raw bytes to a 64-bit value.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher64::default();
    h.write(bytes);
    h.finish()
}

/// Hash a string to a 64-bit value.
#[inline]
pub fn fx_hash_str(s: &str) -> u64 {
    fx_hash_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            fx_hash_str("montage_0001.fits"),
            fx_hash_str("montage_0001.fits")
        );
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(fx_hash_str("file1"), fx_hash_str("file2"));
        assert_ne!(fx_hash_str("a"), fx_hash_str("a\0"));
        assert_ne!(fx_hash_str(""), fx_hash_str("\0"));
    }

    #[test]
    fn low_bits_spread_for_shard_masks() {
        // Sequential file names (the paper's writers post file1, file2, ...)
        // must spread across shards.
        let shards = 16u64;
        let mut counts = vec![0u32; shards as usize];
        let n = 16_000;
        for i in 0..n {
            let h = fx_hash_str(&format!("file{i}"));
            counts[(h % shards) as usize] += 1;
        }
        let expect = n / shards as u32;
        for &c in &counts {
            assert!(
                c > expect / 2 && c < expect * 2,
                "shard count {c} far from expected {expect}"
            );
        }
    }

    #[test]
    fn prehashed_hasher_mixes_multi_word_keys() {
        use std::hash::BuildHasher;
        let bh = PrehashedBuildHasher::default();
        let h = |k: (u64, u64)| bh.hash_one(k);
        // Both words must influence the hash — (0, x) and (1, x) differ.
        assert_ne!(h((0, 42)), h((1, 42)));
        assert_ne!(h((7, 0)), h((7, 1)));
        assert_eq!(h((3, 4)), h((3, 4)));
    }

    #[test]
    fn usable_in_std_hashmap() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("k500"), Some(&500));
    }
}
