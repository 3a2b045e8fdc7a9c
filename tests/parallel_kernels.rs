//! Property tests for the shared-runtime packed kernels: the parallel
//! packed matmul and the symmetric rank-k covariance must match the naive
//! serial references within 1e-9 at every thread count in {1, 2, 8}, and
//! results must be *thread-count invariant* (bit-identical across thread
//! counts — every output element is owned by exactly one task with a fixed
//! reduction order). The same invariance is pinned for the QR regression
//! (column slabs on the pool) and for Cheng–Church (which takes `ExecOpts`
//! but sweeps serially) at thread counts {1, 2, 3, 8}.
//!
//! Two kernels that were rewritten for speed are held bit for bit to the
//! code they replaced, kept here as oracles: the fused Lanczos Gram
//! operator (`GramOp`) against `matvec_transposed(a, &matvec(a, x))`, and
//! the keyed top-pair sort against the stable float-comparator sort. Both
//! depend on exact floating-point association, so they run under release
//! codegen too.

use genbase_bicluster::{find_biclusters, ChengChurchConfig};
use genbase_linalg::covariance::{top_pairs_by_threshold, CovPair};
use genbase_linalg::{
    covariance, gram, matmul, matmul_naive, matvec, matvec_transposed, ExecOpts, GramOp, LinearOp,
    LinearRegression, Matrix, RegressionMethod,
};
use genbase_util::Pcg64;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = Pcg64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.normal() * 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_matmul_matches_naive_across_thread_counts(
        m in 1usize..140,
        k in 1usize..90,
        n in 1usize..140,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed ^ 0xa5a5, k, n);
        let reference = matmul_naive(&a, &b, &ExecOpts::serial()).unwrap();
        for threads in THREAD_COUNTS {
            let fast = matmul(&a, &b, &ExecOpts::with_threads(threads)).unwrap();
            prop_assert!(
                fast.approx_eq(&reference, 1e-9),
                "threads={} diverged from naive by {}",
                threads,
                fast.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn packed_matmul_thread_count_invariant(
        m in 65usize..200,
        k in 1usize..80,
        n in 33usize..120,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed ^ 0x5a5a, k, n);
        let one = matmul(&a, &b, &ExecOpts::with_threads(1)).unwrap();
        for threads in [2usize, 8] {
            let multi = matmul(&a, &b, &ExecOpts::with_threads(threads)).unwrap();
            // Bit-identical, not merely close.
            prop_assert!(multi.approx_eq(&one, 0.0), "threads={threads} changed bits");
        }
    }

    #[test]
    fn syrk_covariance_matches_serial_reference(
        m in 2usize..120,
        n in 1usize..150,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(seed, m, n);
        // Naive reference: centered AᵀA / (m - 1), straight triple loop.
        let means: Vec<f64> = (0..n)
            .map(|c| (0..m).map(|r| a.get(r, c)).sum::<f64>() / m as f64)
            .collect();
        let reference = Matrix::from_fn(n, n, |i, j| {
            (0..m)
                .map(|r| (a.get(r, i) - means[i]) * (a.get(r, j) - means[j]))
                .sum::<f64>()
                / (m - 1) as f64
        });
        for threads in THREAD_COUNTS {
            let fast = covariance(&a, &ExecOpts::with_threads(threads)).unwrap();
            prop_assert!(
                fast.approx_eq(&reference, 1e-9),
                "threads={} diverged by {}",
                threads,
                fast.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn covariance_and_gram_thread_count_invariant(
        m in 2usize..300,
        n in 129usize..200,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(seed, m, n);
        let cov_one = covariance(&a, &ExecOpts::with_threads(1)).unwrap();
        let gram_one = gram(&a, &ExecOpts::with_threads(1)).unwrap();
        for threads in [2usize, 8] {
            let opts = ExecOpts::with_threads(threads);
            prop_assert!(covariance(&a, &opts).unwrap().approx_eq(&cov_one, 0.0));
            prop_assert!(gram(&a, &opts).unwrap().approx_eq(&gram_one, 0.0));
        }
    }

    #[test]
    fn gram_is_symmetric_at_any_thread_count(
        m in 1usize..60,
        n in 1usize..170,
        seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let a = random_matrix(seed, m, n);
        let g = gram(&a, &ExecOpts::with_threads(threads)).unwrap();
        prop_assert!(g.approx_eq(&g.transpose(), 0.0), "mirror must be exact");
    }
}

#[test]
fn qr_regression_bit_identical_across_thread_counts() {
    // One panel; several panels under the QR work floor; and a shape whose
    // trailing updates are dispatched to the pool.
    for (m, n) in [(40usize, 6usize), (300, 40), (900, 200)] {
        let x = random_matrix(m as u64, m, n);
        let mut rng = Pcg64::new(n as u64);
        let y: Vec<f64> = (0..m).map(|_| rng.normal()).collect();
        let fit = |threads| {
            let model = LinearRegression::fit(
                &x,
                &y,
                RegressionMethod::Qr,
                &ExecOpts::with_threads(threads),
            )
            .unwrap();
            let mut bits = vec![model.intercept.to_bits(), model.r_squared.to_bits()];
            bits.extend(model.coefficients.iter().map(|c| c.to_bits()));
            bits
        };
        let one = fit(1);
        for threads in [2, 3, 8] {
            assert_eq!(fit(threads), one, "{m}x{n} threads={threads}");
        }
    }
}

#[test]
fn cheng_church_bit_identical_across_thread_counts() {
    // Below and above the ~100-node threshold of multiple node deletion,
    // and above the 2^17-cell floor under which the deletion sweep leaves
    // its helpers out, so runs at 2, 3 and 8 threads split row bands.
    for (m, n) in [(30usize, 24usize), (220, 180), (400, 340)] {
        let mut data = random_matrix(7 + m as u64, m, n);
        for r in (0..m).step_by(3) {
            for c in (0..n).step_by(2) {
                data.set(r, c, 4.0 + 0.01 * (r + c) as f64);
            }
        }
        let config = ChengChurchConfig { delta: 0.05 };
        let one = find_biclusters(&data, &config, &ExecOpts::with_threads(1)).unwrap();
        assert_eq!(one.len(), 1);
        for threads in [2, 3, 8] {
            let many = find_biclusters(&data, &config, &ExecOpts::with_threads(threads)).unwrap();
            assert_eq!(many, one, "{m}x{n} threads={threads}");
        }
    }
}

#[test]
fn fused_gram_op_is_bit_identical_to_two_matvecs() {
    // Row counts below, at and around the 8-row block (remainder rows, no
    // full block at all); widths below, at and around the dot's 4-wide body
    // (tail only, no tail, both).
    for m in [0usize, 1, 3, 7, 8, 9, 17, 64, 203] {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 64, 130] {
            let a = random_matrix((m * 1000 + n) as u64, m, n);
            let mut rng = Pcg64::new(n as u64);
            let x: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
            let want: Vec<u64> = matvec_transposed(&a, &matvec(&a, &x))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for threads in THREAD_COUNTS {
                // Stale contents in `y` must not leak into the result.
                let mut y = vec![f64::NAN; n];
                GramOp::new(&a)
                    .with_threads(threads)
                    .apply(&x, &mut y)
                    .unwrap();
                let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{m}x{n} threads={threads}");
            }
        }
    }
}

/// The top-pair sort as it was: a stable sort by descending `|v|` through a
/// float comparator, ties by ascending index pair.
fn top_pairs_stable_oracle(cov: &Matrix, threshold: f64) -> Vec<CovPair> {
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
    out.sort_by(|x, y| {
        y.value
            .abs()
            .partial_cmp(&x.value.abs())
            .expect("NaN covariance")
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    out
}

#[test]
fn keyed_top_pair_sort_matches_the_stable_comparator_sort() {
    let mut rng = Pcg64::new(0x70b);
    let n = 60;
    // Heavy planted ties: equal |v| with opposite signs, exact duplicates,
    // both zeros; plus continuous values, and one NaN pair that no
    // threshold may keep.
    let palette = [0.0, -0.0, 0.5, -0.5, 1.25, -1.25, 3.0, f64::MIN_POSITIVE];
    let mut cov = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = if rng.chance(0.7) {
                palette[rng.next_below(palette.len() as u64) as usize]
            } else {
                rng.normal()
            };
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    cov.set(3, 9, f64::NAN);
    cov.set(9, 3, f64::NAN);
    let bits = |pairs: &[CovPair]| {
        pairs
            .iter()
            .map(|p| (p.a, p.b, p.value.to_bits()))
            .collect::<Vec<_>>()
    };
    for threshold in [0.0, -1.0, f64::MIN_POSITIVE, 0.5, 1.25, 2.0, 10.0] {
        let got = top_pairs_by_threshold(&cov, threshold);
        let want = top_pairs_stable_oracle(&cov, threshold);
        assert_eq!(bits(&got), bits(&want), "threshold {threshold}");
    }
    assert_eq!(
        top_pairs_by_threshold(&cov, 0.0).len(),
        n * (n - 1) / 2 - 1,
        "every pair but the NaN one"
    );
}
