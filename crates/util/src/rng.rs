//! Deterministic pseudo-random number generation.
//!
//! The data generator must produce byte-identical datasets for a given seed on
//! every platform, so we avoid external RNG crates (whose algorithms shift
//! across major versions) and implement PCG-XSL-RR 128/64 ("PCG64") directly.
//! The generator passes PractRand/TestU01 in the literature and is more than
//! adequate for synthetic benchmark data.

/// PCG-XSL-RR 128/64 pseudo-random generator.
///
/// 128-bit LCG state, 64-bit output via xorshift-low + random rotation.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64 {
    /// Create a generator from a 64-bit seed (stream constant fixed).
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Create a generator with an explicit stream selector; distinct streams
    /// yield independent sequences for the same seed.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let inc = ((stream as u128) << 1) | 1;
        let mut rng = Self { state: 0, inc };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(seed as u128);
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Derive a child generator; used to give each dataset column or cluster
    /// node its own independent stream while staying reproducible.
    pub fn fork(&mut self, salt: u64) -> Pcg64 {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Pcg64::with_stream(seed, salt.wrapping_add(0x41c6_4e6d))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift with
    /// rejection to remove modulo bias.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.next_below(span) as i64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal deviate via the Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (Floyd's algorithm), returned
    /// in ascending order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.next_below(j as u64 + 1) as usize;
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Pcg64::new(42);
        let mut b = Pcg64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = Pcg64::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_support() {
        let mut rng = Pcg64::new(9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            // each bucket expects 10_000; allow 10% slack
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_i64_inclusive_bounds() {
        let mut rng = Pcg64::new(4);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg64::new(5);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg64::new(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut rng = Pcg64::new(8);
        let s = rng.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_full_range() {
        let mut rng = Pcg64::new(8);
        let s = rng.sample_indices(10, 10);
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg64::new(10);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
