//! Deterministic, splittable random number generation.
//!
//! Sharing one generator between components makes the draw order (and
//! thus the whole simulation) fragile to refactoring, and a third-party
//! generator need not keep its stream stable across versions. This module
//! provides [`SimRng`], a xoshiro256++ generator seeded through SplitMix64,
//! with a [`SimRng::split`] operation so each component of the simulation
//! owns an independent deterministic stream.

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ random number generator. The workspace
/// derives the distributions it samples from these raw draws (e.g.
/// [`SimRng::exp`] by inverse transform).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through SplitMix64 as recommended by the
    /// xoshiro authors, so nearby seeds produce unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator identified by `stream`.
    ///
    /// Two children with different stream ids, or the same stream id from
    /// generators with different seeds, produce unrelated sequences. The
    /// parent generator is not advanced, so adding a new `split` call never
    /// perturbs existing streams.
    pub fn split(&self, stream: u64) -> SimRng {
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xA24BAED4963EE407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed draw with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 2, "streams from different seeds should be unrelated");
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::seed_from_u64(7);
        let mut c1 = root.split(0);
        let mut c2 = root.split(1);
        let mut c1_again = root.split(0);
        let first = c1.next_raw();
        assert_eq!(first, c1_again.next_raw(), "split is a pure function");
        assert_ne!(first, c2.next_raw(), "different streams differ");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} not uniform");
        }
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.5)).sum::<f64>() / n as f64;
        assert!(
            (mean - 2.5).abs() < 0.05,
            "exp mean {mean} too far from 2.5"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(17);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
