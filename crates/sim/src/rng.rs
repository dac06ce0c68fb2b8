//! Deterministic, splittable pseudo-random number generation.
//!
//! The simulator needs randomness (jitter, workload key selection) that is
//! (a) fully reproducible from a single seed and (b) *splittable* so each
//! actor gets an independent stream — adding an actor must not perturb the
//! draws every other actor sees. We implement SplitMix64, a tiny, fast,
//! well-tested generator that is a common seeding primitive; per-actor
//! streams are derived by hashing the parent seed with the stream index.

/// A SplitMix64 pseudo-random number generator.
///
/// Not cryptographically secure; perfectly adequate for simulation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream: generator `i` from this seed.
    ///
    /// Streams derived with different indices are de-correlated because the
    /// index is diffused through the SplitMix64 finalizer before use.
    pub fn split(&self, index: u64) -> SplitMix64 {
        let mixed = mix(self.state ^ mix(index.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        SplitMix64 { state: mixed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    #[inline]
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be non-zero");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only retry when in the biased tail.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for service-time and inter-arrival jitter models.
    #[inline]
    pub(crate) fn sample_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        let u = 1.0 - self.uniform_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Sample from a symmetric uniform jitter in `[-spread, +spread]`.
    #[inline]
    pub fn jitter(&mut self, spread: f64) -> f64 {
        (self.uniform_f64() * 2.0 - 1.0) * spread
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }
}

/// The SplitMix64 finalizer (also a strong 64-bit hash).
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_sibling_count() {
        let root = SplitMix64::new(99);
        let mut s3_before = root.split(3);
        // Creating other splits must not affect stream 3.
        let _ = root.split(0);
        let _ = root.split(1);
        let mut s3_after = root.split(3);
        for _ in 0..32 {
            assert_eq!(s3_before.next_u64(), s3_after.next_u64());
        }
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_unbiased_enough() {
        let mut rng = SplitMix64::new(11);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.range_usize(10)] += 1;
        }
        for &c in &counts {
            // Expect 10_000 per bucket; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SplitMix64::new(17);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.sample_exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle should change order with overwhelming probability"
        );
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).range_u64(0);
    }
}
