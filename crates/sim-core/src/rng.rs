//! Deterministic randomness helpers.
//!
//! Every stochastic component of the simulation (rotational latency, workload
//! file sizes, request jitter) derives its stream from an explicit seed, so a
//! given configuration always reproduces the same run. This module provides a
//! tiny, allocation-free SplitMix64 generator for hot paths plus a helper for
//! deriving independent substreams.

/// SplitMix64: tiny, fast, decent-quality deterministic generator.
///
/// Not cryptographic; used only for simulation noise.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent substream labelled by `salt` (e.g. one per
    /// disk). Streams with different salts are uncorrelated in practice.
    pub fn substream(&self, salt: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(self.state ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64(); // decorrelate from the parent's next output
        g
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// 64-bit FNV-1a over the concatenation of `chunks`: the workspace's one
/// fingerprint hash (stream, aggregate and analysis fingerprints, and the
/// name-derived seeds of [`crate::check`]). Stable across platforms and
/// builds; not a defence against crafted collisions.
pub fn fnv1a<B: AsRef<[u8]>>(chunks: impl IntoIterator<Item = B>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk.as_ref() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_differ() {
        let root = SplitMix64::new(7);
        let mut s1 = root.substream(1);
        let mut s2 = root.substream(2);
        let same = (0..64).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fnv1a_matches_the_published_vectors_and_ignores_chunking() {
        assert_eq!(fnv1a([""; 0]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(["a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(["foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(["foo", "bar"]), fnv1a(["foobar"]));
    }

    #[test]
    fn below_respects_bound() {
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(g.next_below(13) < 13);
        }
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut g = SplitMix64::new(9);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
