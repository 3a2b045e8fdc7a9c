//! Wilcoxon rank-sum (Mann–Whitney) test with tie correction.
//!
//! The enrichment query (Query 5) uses this test "to determine if a gene set
//! ranks at the top or bottom of the ranked list". We implement the normal
//! approximation with tie-corrected variance and a continuity correction —
//! the same default as R's `wilcox.test(correct = TRUE)` for samples this
//! large.

use crate::normal::two_sided_p;
use crate::ranking::ranks_and_ties;
use genbase_util::{Error, Result};

/// Outcome of a rank-sum test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilcoxonResult {
    /// Rank-sum statistic of the first group (W).
    pub w: f64,
    /// Mann–Whitney U statistic of the first group.
    pub u: f64,
    /// Normal-approximation z-score (positive = group 1 ranks high).
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Sizes of the two groups.
    pub n1: usize,
    /// Size of the second group.
    pub n2: usize,
}

/// Rank-sum test for two independent samples. The combined sample is
/// ranked by one keyed sort, which gives the ranks and the tie groups at
/// once. A NaN in either group is `Error::Numerical`.
pub fn wilcoxon_rank_sum(group1: &[f64], group2: &[f64]) -> Result<WilcoxonResult> {
    if group1.is_empty() || group2.is_empty() {
        return Err(Error::invalid("both groups must be non-empty"));
    }
    let n1 = group1.len();
    let n2 = group2.len();
    let mut all = Vec::with_capacity(n1 + n2);
    all.extend_from_slice(group1);
    all.extend_from_slice(group2);
    let (ranks, ties) = ranks_and_ties(&all)?;
    let w: f64 = ranks[..n1].iter().sum();
    Ok(finish(w, n1, n2, &ties))
}

/// [`wilcoxon_rank_sum`] under the kernels' thread-budget signature.
/// `threads` is ignored: the serial keyed sort beat the parallel merge
/// sort it replaced at every thread count.
pub fn wilcoxon_rank_sum_par(
    group1: &[f64],
    group2: &[f64],
    _threads: usize,
) -> Result<WilcoxonResult> {
    wilcoxon_rank_sum(group1, group2)
}

pub(crate) fn finish(w: f64, n1: usize, n2: usize, tie_sizes: &[usize]) -> WilcoxonResult {
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let n = n1f + n2f;
    let u = w - n1f * (n1f + 1.0) / 2.0;
    let mean_u = n1f * n2f / 2.0;
    // Tie-corrected variance of U.
    let tie_term: f64 = tie_sizes
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let var_u = n1f * n2f / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    // Normal approximation with a 0.5 continuity correction toward the mean.
    let z = if var_u <= 0.0 {
        0.0
    } else {
        let diff = u - mean_u;
        if diff == 0.0 {
            0.0
        } else {
            (diff.abs() - 0.5).max(0.0) / var_u.sqrt() * diff.signum()
        }
    };
    WilcoxonResult {
        w,
        u,
        z,
        p_value: two_sided_p(z),
        n1,
        n2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::average_ranks;
    use genbase_util::Pcg64;

    /// Exact two-sided p-value by full enumeration of group-1 rank subsets.
    /// Exponential in `n1 + n2`; only for cross-checking tiny cases in tests.
    fn wilcoxon_exact_p(group1: &[f64], group2: &[f64]) -> Result<f64> {
        let n1 = group1.len();
        let n2 = group2.len();
        let n = n1 + n2;
        if n == 0 || n1 == 0 || n2 == 0 {
            return Err(Error::invalid("both groups must be non-empty"));
        }
        if n > 20 {
            return Err(Error::invalid("exact enumeration limited to n <= 20"));
        }
        let mut all = Vec::with_capacity(n);
        all.extend_from_slice(group1);
        all.extend_from_slice(group2);
        let ranks = average_ranks(&all);
        let observed_u = {
            let w: f64 = ranks[..n1].iter().sum();
            w - (n1 as f64) * (n1 as f64 + 1.0) / 2.0
        };
        let mean_u = n1 as f64 * n2 as f64 / 2.0;
        let observed_dev = (observed_u - mean_u).abs();
        // Enumerate all C(n, n1) group assignments over the *ranks*.
        let mut extreme = 0u64;
        let mut total = 0u64;
        let mut chosen = vec![false; n];
        // Recursive enumeration threads its whole accumulator state explicitly;
        // bundling it into a struct would only rename the same nine values.
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            ranks: &[f64],
            chosen: &mut Vec<bool>,
            start: usize,
            left: usize,
            n1: usize,
            mean_u: f64,
            observed_dev: f64,
            extreme: &mut u64,
            total: &mut u64,
        ) {
            if left == 0 {
                let w: f64 = ranks
                    .iter()
                    .zip(chosen.iter())
                    .filter_map(|(r, &c)| c.then_some(*r))
                    .sum();
                let u = w - (n1 as f64) * (n1 as f64 + 1.0) / 2.0;
                *total += 1;
                if (u - mean_u).abs() >= observed_dev - 1e-12 {
                    *extreme += 1;
                }
                return;
            }
            if ranks.len() - start < left {
                return;
            }
            chosen[start] = true;
            recurse(
                ranks,
                chosen,
                start + 1,
                left - 1,
                n1,
                mean_u,
                observed_dev,
                extreme,
                total,
            );
            chosen[start] = false;
            recurse(
                ranks,
                chosen,
                start + 1,
                left,
                n1,
                mean_u,
                observed_dev,
                extreme,
                total,
            );
        }
        recurse(
            &ranks,
            &mut chosen,
            0,
            n1,
            n1,
            mean_u,
            observed_dev,
            &mut extreme,
            &mut total,
        );
        Ok(extreme as f64 / total as f64)
    }

    #[test]
    fn symmetric_groups_give_z_zero() {
        let g1 = [1.0, 4.0];
        let g2 = [2.0, 3.0];
        let r = wilcoxon_rank_sum(&g1, &g2).unwrap();
        assert!(r.z.abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn separated_groups_significant() {
        let g1: Vec<f64> = (0..30).map(|i| 100.0 + i as f64).collect();
        let g2: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let r = wilcoxon_rank_sum(&g1, &g2).unwrap();
        assert!(r.z > 5.0, "z = {}", r.z);
        assert!(r.p_value < 1e-6);
        // U for fully separated high group = n1*n2.
        assert_eq!(r.u, 900.0);
    }

    #[test]
    fn direction_of_z() {
        let low: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let high: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
        assert!(wilcoxon_rank_sum(&high, &low).unwrap().z > 0.0);
        assert!(wilcoxon_rank_sum(&low, &high).unwrap().z < 0.0);
    }

    #[test]
    fn normal_approx_tracks_exact_p() {
        let mut rng = Pcg64::new(92);
        for _ in 0..5 {
            let g1: Vec<f64> = (0..8).map(|_| rng.normal()).collect();
            let g2: Vec<f64> = (0..8).map(|_| rng.normal() + 1.0).collect();
            let approx = wilcoxon_rank_sum(&g1, &g2).unwrap().p_value;
            let exact = wilcoxon_exact_p(&g1, &g2).unwrap();
            // Normal approximation with continuity correction should be in
            // the right ballpark for n=16.
            assert!(
                (approx - exact).abs() < 0.08,
                "approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn ties_reduce_variance_not_crash() {
        let g1 = [1.0, 1.0, 1.0, 2.0];
        let g2 = [1.0, 2.0, 2.0, 2.0];
        let r = wilcoxon_rank_sum(&g1, &g2).unwrap();
        assert!(
            r.p_value > 0.05,
            "heavily tied small sample not significant"
        );
    }

    #[test]
    fn all_identical_values() {
        let g1 = [3.0; 5];
        let g2 = [3.0; 7];
        let r = wilcoxon_rank_sum(&g1, &g2).unwrap();
        assert_eq!(r.z, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_group_rejected() {
        assert!(wilcoxon_rank_sum(&[], &[1.0]).is_err());
        assert!(wilcoxon_rank_sum(&[1.0], &[]).is_err());
    }

    #[test]
    fn w_plus_w_other_is_total() {
        let mut rng = Pcg64::new(93);
        let g1: Vec<f64> = (0..15).map(|_| rng.normal()).collect();
        let g2: Vec<f64> = (0..25).map(|_| rng.normal()).collect();
        let r12 = wilcoxon_rank_sum(&g1, &g2).unwrap();
        let r21 = wilcoxon_rank_sum(&g2, &g1).unwrap();
        let n = 40.0;
        assert!((r12.w + r21.w - n * (n + 1.0) / 2.0).abs() < 1e-9);
        assert!((r12.z + r21.z).abs() < 1e-12, "antisymmetric z");
    }
}
