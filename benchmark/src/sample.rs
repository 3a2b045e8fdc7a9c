//! Seeded input generation: the per-pass cell shuffle and the Zipf request
//! sampler. Both are pure functions of their seeds, so the same `--seed`
//! always produces the same sequence of calls into the program.

use genbase_util::Pcg64;

/// The order in which pass number `pass` runs `n` cells: a Fisher–Yates
/// shuffle seeded by `(seed, pass)`.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Pcg64::with_stream(seed, pass).shuffle(&mut order);
    order
}

/// Zipf(s = 1) over `n` items: the item at popularity rank `r` (1-based)
/// is drawn with probability proportional to `1 / r`. Which item holds
/// which rank is a permutation fixed by `corpus_seed`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Item index by rank (`by_rank[0]` is the hottest item).
    by_rank: Vec<usize>,
    /// Cumulative probability by rank.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` items whose rank order is drawn from `corpus_seed`.
    pub fn new(n: usize, corpus_seed: u64) -> Zipf {
        let mut by_rank: Vec<usize> = (0..n).collect();
        Pcg64::with_stream(corpus_seed, 0x21bf).shuffle(&mut by_rank);
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf {
            by_rank,
            cumulative,
        }
    }

    /// Draw one item index.
    pub fn sample(&self, rng: &mut Pcg64) -> usize {
        let u = rng.next_f64();
        let rank = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.by_rank.len() - 1);
        self.by_rank[rank]
    }

    /// Probability of drawing `item`.
    #[cfg(test)]
    fn probability(&self, item: usize) -> f64 {
        let rank = self.by_rank.iter().position(|&i| i == item).unwrap();
        let below = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        self.cumulative[rank] - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_permutation_fixed_by_seed_and_pass() {
        let a = pass_order(1, 0, 15);
        assert_eq!(a, pass_order(1, 0, 15));
        assert_ne!(a, pass_order(1, 1, 15));
        assert_ne!(a, pass_order(2, 0, 15));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_sequence_repeats_per_seed_and_follows_one_over_rank() {
        let z = Zipf::new(32, 7);
        let draw = |seed| {
            let mut rng = Pcg64::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        // The hottest item takes 1/H(32) = 24.6 % of draws, the coldest 1/32
        // of that; every item is drawn.
        let hottest = z.by_rank[0];
        let share = a.iter().filter(|&&i| i == hottest).count() as f64 / a.len() as f64;
        assert!((share - z.probability(hottest)).abs() < 0.01, "{share}");
        assert!((z.probability(hottest) - 0.2464).abs() < 1e-3);
        let coldest = z.by_rank[31];
        assert!((z.probability(hottest) / z.probability(coldest) - 32.0).abs() < 1e-9);
        assert!((0..32).all(|i| a.contains(&i)));
        // The rank order depends on the corpus seed only.
        assert_eq!(z.by_rank, Zipf::new(32, 7).by_rank);
        assert_ne!(z.by_rank, Zipf::new(32, 8).by_rank);
    }
}
