//! A small seeded generator for the benchmark's own inputs (SplitMix64).

/// Deterministic stream of 64-bit values from a seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_permutations_are_complete() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut p = SplitMix::new(3).permutation(12);
        assert_eq!(p, SplitMix::new(3).permutation(12));
        p.sort_unstable();
        assert_eq!(p, (0..12).collect::<Vec<_>>());
        let u = SplitMix::new(1).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
