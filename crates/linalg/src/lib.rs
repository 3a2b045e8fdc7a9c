//! Dense linear algebra for the GenBase benchmark.
//!
//! This crate is the workspace's stand-in for BLAS/LAPACK (and, together with
//! `genbase-cluster`, for ScaLAPACK): a row-major dense [`Matrix`], a
//! blocked matrix product and a multithreaded Gram kernel, Householder-QR
//! least squares, a symmetric tridiagonal eigensolver, Lanczos iteration
//! with full reorthogonalization (the paper's Query 4 algorithm), and
//! covariance.
//!
//! All long-running kernels take an [`ExecOpts`] carrying a thread count and
//! a cooperative [`genbase_util::Budget`], so engines can model single-
//! threaded runtimes (vanilla R) and the benchmark's two-hour cutoff.

// Index-based loops are the idiom throughout these numerical kernels:
// explicit ranges keep the row/column structure of the math visible, and
// iterator rewrites would obscure it without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod covariance;
pub mod eigen;
pub mod lanczos;
pub mod matmul;
pub mod matrix;
pub mod qr;
pub mod regression;

pub use covariance::{center_columns_par, column_means, column_means_par, covariance};
pub use eigen::tridiag_eigen;
pub use lanczos::{lanczos_topk, DenseSymOp, GramOp, LanczosResult, LinearOp};
pub use matmul::{gram, matmul, matvec, matvec_transposed};
pub use matrix::Matrix;
pub use qr::QrFactor;
pub use regression::{LinearRegression, RegressionMethod};

use genbase_util::Budget;

/// Execution options threaded through every expensive kernel.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads to use (1 = fully serial, like vanilla R).
    pub threads: usize,
    /// Cooperative cutoff / memory budget.
    pub budget: Budget,
}

impl ExecOpts {
    /// Serial execution with an unlimited budget.
    pub fn serial() -> Self {
        ExecOpts {
            threads: 1,
            budget: Budget::unlimited(),
        }
    }

    /// Execution with an explicit thread count, unlimited budget.
    pub fn with_threads(threads: usize) -> Self {
        ExecOpts {
            threads: threads.max(1),
            budget: Budget::unlimited(),
        }
    }

    /// Replace the budget, keeping the thread count.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Split `n` items into at most `parts` contiguous ranges of near-equal size.
/// Used by every parallel kernel to partition row bands.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_all() {
        for n in [0usize, 1, 5, 17, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert_eq!(first.start, 0);
                    assert_eq!(last.end, n);
                }
            }
        }
    }

    #[test]
    fn split_ranges_balanced() {
        let ranges = split_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn exec_opts_constructors() {
        assert_eq!(ExecOpts::serial().threads, 1);
        assert_eq!(ExecOpts::with_threads(0).threads, 1);
        assert_eq!(ExecOpts::with_threads(4).threads, 4);
    }
}
