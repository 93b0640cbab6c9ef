//! # fdc-rng — deterministic pseudo-random numbers, std-only
//!
//! Every stochastic component of the workspace (synthetic data
//! generation, simulated annealing, multi-source proposal sampling,
//! benchmark workloads) needs reproducible randomness. This crate
//! provides a single small generator — xoshiro256\*\* seeded through
//! splitmix64 — so runs are bit-for-bit repeatable across platforms and
//! the workspace stays free of external dependencies.
//!
//! The generator is *not* cryptographically secure and must never be
//! used for anything security-sensitive.

use fdc_codec::hash::splitmix64;

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// State is seeded via splitmix64 so that any `u64` seed (including 0)
/// produces a well-mixed initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce
    /// identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent generator for a parallel sub-task. The
    /// child stream is decorrelated from the parent by re-mixing the
    /// parent's next output with the salt.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::seed_from_u64(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output (xoshiro256\*\* scrambler).
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
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. `lo` must be `<= hi`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is
    /// negligible for the small ranges used in this workspace but the
    /// widening multiply avoids it almost entirely anyway.
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize_below(0)");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.usize_below(hi - lo)
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Standard normal deviate via the Box–Muller transform (polar-free
    /// form; two uniforms per pair, the spare is discarded for
    /// simplicity — callers that need pairs can cache their own).
    pub fn standard_normal(&mut self) -> f64 {
        // Guard against ln(0).
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_produce_equal_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = Rng::seed_from_u64(0);
        // A naive xoshiro seeded with all zeros would emit only zeros.
        assert!((0..16).any(|_| r.next_u64() != 0));
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.f64_range(-3.5, 11.25);
            assert!((-3.5..11.25).contains(&v));
        }
    }

    #[test]
    fn usize_below_covers_all_residues() {
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.usize_below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn usize_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v = r.usize_range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn fork_decorrelates_from_parent() {
        let mut parent = Rng::seed_from_u64(17);
        let mut child = parent.fork(1);
        let matches = (0..128)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn standard_normal_has_sane_moments() {
        let mut r = Rng::seed_from_u64(19);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
