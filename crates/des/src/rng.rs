//! Deterministic random numbers for reproducible simulations.
//!
//! The kernel ships its own small generator (Xoshiro256++) instead of pulling
//! in an external RNG crate: runs must be bit-reproducible across platforms
//! and dependency upgrades. Independent substreams are derived with
//! SplitMix64 so each simulated component can own its own stream without
//! cross-contamination when component counts change.

/// Xoshiro256++ pseudo-random generator with convenience samplers for the
/// distributions the simulator needs.
///
/// # Examples
///
/// ```
/// use holdcsim_des::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(42);
/// let u = rng.uniform_f64();
/// assert!((0.0..1.0).contains(&u));
/// // Same seed, same sequence:
/// assert_eq!(SimRng::seed_from(42).next_u64(), SimRng::seed_from(42).next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent substream for component `stream`.
    ///
    /// Streams derived from the same generator with different ids are
    /// statistically independent; the parent is not advanced.
    pub fn substream(&self, stream: u64) -> SimRng {
        // Mix the current state with the stream id through SplitMix64.
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent substream along a whole `path` of ids by
    /// folding [`SimRng::substream`] over it.
    ///
    /// This is the hierarchical form used by the experiment harness: a
    /// sweep derives `root.substream_path(&[point, replicate])` so every
    /// trial owns a stream that depends only on its grid coordinates —
    /// never on scheduling order or thread count.
    pub fn substream_path(&self, path: &[u64]) -> SimRng {
        path.iter().fold(self.clone(), |rng, &id| rng.substream(id))
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform range"
        );
        lo + (hi - lo) * self.uniform_f64()
    }

    /// A uniform integer in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling (unbiased).
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// An exponentially distributed sample with the given `rate` (λ), i.e.
    /// mean `1/rate`, via inverse-CDF.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "exp rate must be positive");
        // 1 - U in (0, 1] avoids ln(0).
        let u = 1.0 - self.uniform_f64();
        -u.ln() / rate
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A standard normal sample (Box–Muller; one value per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<u64> = {
            let mut r = SimRng::seed_from(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::seed_from(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            SimRng::seed_from(1).next_u64(),
            SimRng::seed_from(2).next_u64()
        );
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        let root = SimRng::seed_from(99);
        let mut a = root.substream(0);
        let mut b = root.substream(1);
        assert_ne!(a.next_u64(), b.next_u64());
        // Re-deriving yields the same stream.
        let mut a2 = root.substream(0);
        assert_eq!(SimRng::seed_from(99).substream(0).next_u64(), a2.next_u64());
    }

    #[test]
    fn substream_path_folds_and_is_order_sensitive() {
        let root = SimRng::seed_from(1234);
        // Path derivation is the fold of single substream steps.
        assert_eq!(root.substream_path(&[3, 7]), root.substream(3).substream(7));
        // Empty path is the identity.
        assert_eq!(root.substream_path(&[]), root);
        // Coordinates are not interchangeable.
        assert_ne!(
            root.substream_path(&[3, 7]).next_u64(),
            root.substream_path(&[7, 3]).next_u64()
        );
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let u = r.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::seed_from(5);
        let n = 200_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| r.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = SimRng::seed_from(17);
        assert_eq!(r.choose::<u8>(&[]), None);
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
