//! A small, fast, deterministic pseudo-random number generator.
//!
//! Every stochastic decision in the framework — fault activation, workload
//! generation, environment perturbation — flows through [`SplitMix64`], so
//! that a single `u64` seed reproduces an entire experiment bit-for-bit.
//! The generator is the SplitMix64 algorithm of Steele, Lea and Flood, which
//! passes BigCrush and is trivially splittable: [`SplitMix64::split`] derives
//! an independent stream, which the pattern engines use to give each variant
//! its own stream regardless of execution order (sequential or threaded).
//!
//! # Examples
//!
//! ```
//! use redundancy_core::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//!
//! // Same seed, same sequence.
//! let mut rng2 = SplitMix64::new(42);
//! assert_eq!(rng2.next_u64(), a);
//! ```

/// Deterministic, splittable 64-bit PRNG (SplitMix64).
///
/// Not cryptographically secure; used only for reproducible simulation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds produce
    /// independent-looking streams.
    #[must_use]
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next pseudo-random `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns the next pseudo-random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits, the standard trick.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Returns a uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire-style rejection-free enough for simulation purposes:
        // widening multiply maps next_u64 into [0, span).
        let x = self.next_u64();
        lo + ((u128::from(x) * u128::from(span)) >> 64) as u64
    }

    /// Returns a uniformly distributed index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty collection");
        self.range_u64(0, len as u64) as usize
    }

    /// Returns a uniformly distributed `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi as i128 - lo as i128) as u64;
        let off = self.range_u64(0, span);
        (lo as i128 + i128::from(off)) as i64
    }

    /// Returns a sample from the exponential distribution with the given
    /// `rate` (λ). Used for failure inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -u.ln() / rate
    }

    /// Returns an approximately normally distributed sample
    /// (Irwin–Hall sum of 12 uniforms; adequate for latency jitter).
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        mean + (acc - 6.0) * stddev
    }

    /// Derives an independent generator. The derived stream does not overlap
    /// with this one for any practical sample count.
    #[must_use]
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x6a09_e667_f3bc_c909)
    }

    /// Derives an independent generator keyed by `stream`: the same
    /// `(seed, stream)` pair always yields the same derived generator,
    /// regardless of how many values were drawn in between.
    #[must_use]
    #[inline]
    pub fn fork(&self, stream: u64) -> SplitMix64 {
        let mut mix = SplitMix64::new(self.state ^ stream.wrapping_mul(GOLDEN_GAMMA));
        // burn one output so consecutive streams decorrelate
        let _ = mix.next_u64();
        mix
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0x5eed_5eed_5eed_5eed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SplitMix64::new(6);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let w = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.range_u64(0, 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).range_u64(5, 5);
    }

    #[test]
    fn fork_is_stable() {
        let rng = SplitMix64::new(9);
        let mut f1 = rng.fork(3);
        let mut f2 = rng.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g = rng.fork(4);
        assert_ne!(f1.next_u64(), g.next_u64());
    }

    #[test]
    fn split_diverges_from_parent() {
        let mut parent = SplitMix64::new(10);
        let mut child = parent.split();
        assert_ne!(parent.next_u64(), child.next_u64());
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SplitMix64::new(11);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "observed mean {mean}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SplitMix64::new(12);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "observed mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(13);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SplitMix64::new(14);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
