//! A small, deterministic pseudo-random number generator.
//!
//! Simulations must be bit-reproducible across runs and platforms, so we
//! implement the well-known `SplitMix64` (for seeding and stream splitting)
//! and `Xoshiro256**` (for generation) algorithms by Blackman & Vigna rather
//! than depending on an external RNG whose stream might change between
//! versions.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used both as a simple standalone generator and to expand a `u64` seed
/// into the 256-bit Xoshiro state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic `Xoshiro256**` random number generator.
///
/// # Examples
///
/// ```
/// use trix_sim::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.f64_in(0.5, 1.5);
/// assert!((0.5..1.5).contains(&x));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forking by distinct `stream` values yields statistically independent
    /// sequences, letting experiments assign one stream per concern (delays,
    /// clock rates, fault placement, ...) so that changing how much
    /// randomness one concern consumes does not perturb the others.
    pub fn fork(&self, stream: u64) -> Self {
        let mut sm = self.s[0]
            .wrapping_mul(0x9E6D)
            .wrapping_add(self.s[2])
            .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty interval");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from empty range");
        // Multiply-shift reduction; bias is negligible for n << 2^64 and
        // irrelevant for simulation workloads.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // First output for state 0 — standard published test value.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn forked_streams_differ_and_are_stable() {
        let root = Rng::seed_from(1);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let mut f1b = root.fork(1);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn f64_in_bounds_and_roughly_uniform() {
        let mut rng = Rng::seed_from(99);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64_in(2.0, 4.0);
            assert!((2.0..4.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean} too far from 3.0");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits}");
    }

    #[test]
    fn usize_below_covers_range() {
        let mut rng = Rng::seed_from(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.usize_below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
