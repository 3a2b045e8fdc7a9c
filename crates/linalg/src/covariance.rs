//! Covariance computation (benchmark Query 2).
//!
//! The paper's Query 2 computes "the covariance between the expression levels
//! of all pairs of genes": with samples as rows and genes as columns, that is
//! `C = Zᵀ Z / (m - 1)` where `Z` is the column-mean-centered expression
//! matrix — a Gram matrix after centering.

use crate::matmul::gram;
use crate::matrix::Matrix;
use crate::ExecOpts;
use genbase_util::{runtime, Error, Result, SharedSlice};

/// Rows per partial-sum chunk in the parallel centering pass. Fixed (never
/// derived from the thread count) so the chunked summation order — and
/// therefore the floating-point result — is identical at every thread
/// count.
const MEAN_CHUNK: usize = 512;

/// Per-column means of a matrix.
pub fn column_means(a: &Matrix) -> Vec<f64> {
    let (m, n) = a.shape();
    let mut means = vec![0.0; n];
    for r in 0..m {
        for (mean, v) in means.iter_mut().zip(a.row(r)) {
            *mean += v;
        }
    }
    let inv = 1.0 / m.max(1) as f64;
    for mean in &mut means {
        *mean *= inv;
    }
    means
}

/// Subtract per-column means in place; returns the means.
pub fn center_columns(a: &mut Matrix) -> Vec<f64> {
    let means = column_means(a);
    for r in 0..a.rows() {
        for (v, mean) in a.row_mut(r).iter_mut().zip(&means) {
            *v -= mean;
        }
    }
    means
}

/// Per-column means computed in parallel over fixed row chunks; the chunk
/// partials are reduced in chunk order, so the result does not depend on
/// the thread count (it differs from [`column_means`]' sequential sum only
/// by FP rounding, typically favorably).
pub fn column_means_par(a: &Matrix, opts: &ExecOpts) -> Vec<f64> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return vec![0.0; n];
    }
    let chunks = m.div_ceil(MEAN_CHUNK);
    let partials = runtime::parallel_map(opts.threads, chunks, |t| {
        let r0 = t * MEAN_CHUNK;
        let r1 = (r0 + MEAN_CHUNK).min(m);
        let mut sums = vec![0.0f64; n];
        for r in r0..r1 {
            for (s, v) in sums.iter_mut().zip(a.row(r)) {
                *s += v;
            }
        }
        sums
    });
    let mut means = vec![0.0f64; n];
    for part in partials {
        for (mean, p) in means.iter_mut().zip(&part) {
            *mean += p;
        }
    }
    let inv = 1.0 / m as f64;
    for mean in &mut means {
        *mean *= inv;
    }
    means
}

/// Parallel in-place column centering; returns the subtracted means.
pub fn center_columns_par(a: &mut Matrix, opts: &ExecOpts) -> Vec<f64> {
    let means = column_means_par(a, opts);
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return means;
    }
    let chunks = m.div_ceil(MEAN_CHUNK);
    let threads = opts.threads;
    let shared = SharedSlice::new(a.data_mut());
    runtime::parallel_for(threads, chunks, |t| {
        let r0 = t * MEAN_CHUNK;
        let r1 = (r0 + MEAN_CHUNK).min(m);
        // SAFETY: each chunk owns the disjoint row range r0..r1.
        let band = unsafe { shared.slice_mut(r0 * n, (r1 - r0) * n) };
        for row in band.chunks_exact_mut(n) {
            for (v, mean) in row.iter_mut().zip(&means) {
                *v -= mean;
            }
        }
    });
    means
}

/// Sample covariance matrix (`n x n`) of the columns of `a` (`m x n`).
/// Requires at least two rows. Centering and the symmetric rank-k update
/// both run on the shared runtime under `opts.threads`.
pub fn covariance(a: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    let (m, _n) = a.shape();
    if m < 2 {
        return Err(Error::invalid("covariance requires at least 2 rows"));
    }
    let mut centered = a.clone();
    center_columns_par(&mut centered, opts);
    let mut g = gram(&centered, opts)?;
    let inv = 1.0 / (m - 1) as f64;
    g.map_inplace(|v| v * inv);
    Ok(g)
}

/// A gene pair with its covariance, as produced by the Query 2 thresholding
/// step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovPair {
    /// First column index (always < `b`).
    pub a: usize,
    /// Second column index.
    pub b: usize,
    /// Covariance value.
    pub value: f64,
}

/// Extract the off-diagonal pairs with `|cov| >= threshold`, sorted by
/// descending absolute covariance (ties broken by index for determinism).
///
/// NaN never passes the threshold test, so every kept `|v|` is a
/// non-negative float whose bit pattern orders like its value. The key
/// `(!|v|.to_bits(), a, b)` is therefore descending in `|v|`, ascending in
/// the indices, and unique per pair, so an unstable sort on it yields the
/// one order a stable comparator sort would.
pub fn top_pairs_by_threshold(cov: &Matrix, threshold: f64) -> Vec<CovPair> {
    let n = cov.cols();
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = cov.get(i, j);
            if v.abs() >= threshold {
                out.push(CovPair {
                    a: i,
                    b: j,
                    value: v,
                });
            }
        }
    }
    out.sort_unstable_by_key(|p| (!p.value.abs().to_bits(), p.a, p.b));
    out
}

/// The threshold value t such that exactly `fraction` of the off-diagonal
/// pairs satisfy `|cov| >= t` (the paper's "top 10%" selection). Returns 0.0
/// when there are no pairs.
pub fn quantile_abs_threshold(cov: &Matrix, fraction: f64) -> f64 {
    let n = cov.cols();
    let mut vals = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            vals.push(cov.get(i, j).abs());
        }
    }
    if vals.is_empty() {
        return 0.0;
    }
    let keep = ((vals.len() as f64) * fraction).ceil() as usize;
    let keep = keep.clamp(1, vals.len());
    // Partial sort: only the `keep`-th value from the top is placed.
    let (_, kth, _) =
        vals.select_nth_unstable_by(keep - 1, |a, b| b.partial_cmp(a).expect("NaN covariance"));
    *kth
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_util::Pcg64;

    fn brute_covariance(a: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        let means = column_means(a);
        Matrix::from_fn(n, n, |i, j| {
            let mut s = 0.0;
            for r in 0..m {
                s += (a.get(r, i) - means[i]) * (a.get(r, j) - means[j]);
            }
            s / (m - 1) as f64
        })
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = Pcg64::new(71);
        let a = Matrix::from_fn(30, 12, |_, _| rng.normal() * 2.0 + 1.0);
        let fast = covariance(&a, &ExecOpts::with_threads(3)).unwrap();
        let slow = brute_covariance(&a);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn symmetric_and_psd_diagonal() {
        let mut rng = Pcg64::new(72);
        let a = Matrix::from_fn(25, 8, |_, _| rng.normal());
        let c = covariance(&a, &ExecOpts::serial()).unwrap();
        assert!(c.approx_eq(&c.transpose(), 1e-12));
        for i in 0..8 {
            assert!(c.get(i, i) >= 0.0, "variance must be non-negative");
        }
    }

    #[test]
    fn perfectly_correlated_columns() {
        // col1 = 2*col0 => cov(0,1) = 2*var(0).
        let a = Matrix::from_fn(10, 2, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
        let c = covariance(&a, &ExecOpts::serial()).unwrap();
        assert!((c.get(0, 1) - 2.0 * c.get(0, 0)).abs() < 1e-10);
    }

    #[test]
    fn centering_zeroes_means() {
        let mut rng = Pcg64::new(73);
        let mut a = Matrix::from_fn(40, 6, |_, _| rng.normal() + 5.0);
        let old_means = center_columns(&mut a);
        assert!(old_means.iter().all(|m| (m - 5.0).abs() < 1.0));
        for m in column_means(&a) {
            assert!(m.abs() < 1e-12);
        }
    }

    #[test]
    fn covariance_thread_count_invariant() {
        let mut rng = Pcg64::new(75);
        let a = Matrix::from_fn(700, 90, |_, _| rng.normal() * 3.0 - 1.0);
        let serial = covariance(&a, &ExecOpts::serial()).unwrap();
        for threads in [2, 8] {
            let par = covariance(&a, &ExecOpts::with_threads(threads)).unwrap();
            assert!(par.approx_eq(&serial, 0.0), "threads={threads}");
        }
    }

    #[test]
    fn parallel_centering_matches_serial_means() {
        let mut rng = Pcg64::new(76);
        let mut a = Matrix::from_fn(1100, 17, |_, _| rng.normal() + 2.5);
        let mut b = a.clone();
        let serial_means = center_columns(&mut a);
        let par_means = center_columns_par(&mut b, &ExecOpts::with_threads(4));
        for (s, p) in serial_means.iter().zip(&par_means) {
            assert!((s - p).abs() < 1e-12, "means drifted: {s} vs {p}");
        }
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn requires_two_rows() {
        let a = Matrix::zeros(1, 3);
        assert!(covariance(&a, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn top_pairs_sorted_and_thresholded() {
        let mut c = Matrix::zeros(3, 3);
        c.set(0, 1, 0.9);
        c.set(1, 0, 0.9);
        c.set(0, 2, -1.5);
        c.set(2, 0, -1.5);
        c.set(1, 2, 0.1);
        c.set(2, 1, 0.1);
        let pairs = top_pairs_by_threshold(&c, 0.5);
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].a, pairs[0].b), (0, 2));
        assert!((pairs[0].value + 1.5).abs() < 1e-12);
        assert_eq!((pairs[1].a, pairs[1].b), (0, 1));
    }

    #[test]
    fn quantile_threshold_selects_fraction() {
        let mut rng = Pcg64::new(74);
        let a = Matrix::from_fn(50, 20, |_, _| rng.normal());
        let c = covariance(&a, &ExecOpts::serial()).unwrap();
        let t = quantile_abs_threshold(&c, 0.10);
        let pairs = top_pairs_by_threshold(&c, t);
        let total = 20 * 19 / 2;
        let expect = (total as f64 * 0.10).ceil() as usize;
        // Ties could add a pair or two; must be at least the requested count
        // and close to it.
        assert!(pairs.len() >= expect);
        assert!(pairs.len() <= expect + 2);
    }

    #[test]
    fn quantile_threshold_equals_full_sort() {
        // Selection must return the number a full descending sort puts at
        // `keep - 1`, on continuous values and on heavy ties.
        let mut rng = Pcg64::new(75);
        let random = Matrix::from_fn(40, 40, |_, _| rng.normal());
        let tied = Matrix::from_fn(40, 40, |_, _| (rng.next_below(4) as f64 - 1.5) * 0.5);
        for cov in [&random, &tied] {
            let n = cov.cols();
            let mut sorted: Vec<f64> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .map(|(i, j)| cov.get(i, j).abs())
                .collect();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for fraction in [0.0, 0.001, 0.1, 0.5, 0.999, 1.0] {
                let keep =
                    ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
                assert_eq!(
                    quantile_abs_threshold(cov, fraction).to_bits(),
                    sorted[keep - 1].to_bits(),
                    "fraction {fraction}"
                );
            }
        }
    }

    #[test]
    fn quantile_threshold_empty_matrix() {
        assert_eq!(quantile_abs_threshold(&Matrix::zeros(0, 0), 0.1), 0.0);
        assert_eq!(quantile_abs_threshold(&Matrix::zeros(1, 1), 0.1), 0.0);
    }
}
