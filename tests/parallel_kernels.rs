//! Property tests for the shared-runtime kernels: the symmetric rank-k
//! covariance must match the naive serial reference within 1e-9 at every
//! thread count in {1, 2, 8}, and results must be *thread-count
//! invariant* (bit-identical across thread counts — every output element
//! is owned by exactly one task with a fixed reduction order). The same
//! invariance is pinned for the QR regression (column slabs on the pool)
//! and for Cheng–Church (which takes `ExecOpts` but sweeps serially) at
//! thread counts {1, 2, 3, 8}.
//!
//! `matmul` (serial, blocked) is held bit for bit to the textbook i-j-k
//! loop at every thread count. Two kernels that were rewritten for speed
//! are held bit for bit to the code they replaced, kept here as oracles:
//! the fused Lanczos Gram operator (`GramOp`) against
//! `matvec_transposed(a, &matvec(a, x))`, and Query 2's top-pair selection
//! (`top_fraction_pairs`, a keyed sort per histogram bucket) against the
//! stable float-comparator sort. These depend on exact floating-point
//! association, so they run under release codegen too. Query 5's per-term
//! rank-sum tests (`enrichment_output`) give the same bits at every thread
//! count.

use genbase::analytics::{enrichment_output, svd_output};
use genbase::query::QueryOutput;
use genbase_bicluster::{find_biclusters, ChengChurchConfig};
use genbase_linalg::covariance::{top_fraction_pairs, CovPair};
use genbase_linalg::{
    covariance, gram, lanczos_topk, matmul, matvec, matvec_transposed, DenseSymOp, ExecOpts,
    GramOp, LinearOp, LinearRegression, Matrix, RegressionMethod,
};
use genbase_util::Pcg64;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = Pcg64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.normal() * 2.0)
}

/// Textbook i-j-k product: each element folds `p` in ascending order.
fn matmul_ijk(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for p in 0..a.cols() {
            acc += a.get(i, p) * b.get(p, j);
        }
        acc
    })
}

/// `matmul` is the textbook loop bit for bit at any thread count. The
/// shapes walk every 64-element tile edge (one below, on and one above a
/// multiple) in m and n, with k paired so that each depth occurs,
/// including depths past 256 where a kernel summing deep panels apart
/// would reassociate the fold.
#[test]
fn matmul_is_the_textbook_loop_bit_for_bit_at_any_thread_count() {
    const EDGES: [usize; 7] = [1, 63, 64, 65, 127, 128, 129];
    const DEPTHS: [usize; 11] = [1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 321];
    for (i, &m) in EDGES.iter().enumerate() {
        for (j, &n) in EDGES.iter().enumerate() {
            let k = DEPTHS[(i + j) % DEPTHS.len()];
            let seed = (i * EDGES.len() + j) as u64;
            let a = random_matrix(seed, m, k);
            let b = random_matrix(seed ^ 0xa5a5, k, n);
            let reference = matmul_ijk(&a, &b);
            for threads in THREAD_COUNTS {
                let c = matmul(&a, &b, &ExecOpts::with_threads(threads)).unwrap();
                assert!(
                    c.data()
                        .iter()
                        .zip(reference.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{m}x{k}x{n}, threads={threads}: drifted from the i-j-k loop by {}",
                    c.max_abs_diff(&reference)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
    // One panel; several panels under the QR team floor; a shape whose
    // rounds have helpers; and Query 1's Large design (1920×386 with the
    // intercept column).
    for (m, n) in [(40usize, 6usize), (300, 40), (900, 200), (1920, 385)] {
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

#[test]
fn svd_output_bit_identical_across_thread_counts_on_either_operator() {
    // 600×150 forms `AᵀA` once (`gram` splits it over the threads); 300×400
    // is wide enough for the implicit operator. Either way the eigenvalues
    // equal a serial Lanczos run on that operator bit for bit, and the two
    // operators agree within 1e-10.
    for (m, n, explicit) in [(600usize, 150usize, true), (300, 400, false)] {
        let a = random_matrix((m + n) as u64, m, n);
        let (k, seed) = (20, 11);
        let serial = ExecOpts::serial();
        let g = gram(&a, &serial).unwrap();
        let dense = lanczos_topk(&DenseSymOp::new(&g).unwrap(), k, 0, seed, &serial).unwrap();
        let implicit = lanczos_topk(&GramOp::new(&a), k, 0, seed, &serial).unwrap();
        for (d, i) in dense.eigenvalues.iter().zip(&implicit.eigenvalues) {
            assert!((d - i).abs() <= 1e-10 * d.abs(), "{m}x{n}: {d} vs {i}");
        }
        let want = if explicit { &dense } else { &implicit };
        let want: Vec<u64> = want.eigenvalues.iter().map(|v| v.to_bits()).collect();
        for threads in THREAD_COUNTS {
            let QueryOutput::Svd { eigenvalues } =
                svd_output(&a, k, seed, &ExecOpts::with_threads(threads)).unwrap()
            else {
                panic!("wrong variant")
            };
            let got: Vec<u64> = eigenvalues.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{m}x{n} threads={threads}");
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
    // both zeros; plus continuous values.
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
    let bits = |pairs: &[CovPair]| {
        pairs
            .iter()
            .map(|p| (p.a, p.b, p.value.to_bits()))
            .collect::<Vec<_>>()
    };
    // The threshold is the `keep`-th largest |v| of a full sort.
    let mut sorted: Vec<f64> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| cov.get(i, j).abs())
        .collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    for fraction in [0.0, 0.001, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0] {
        let keep = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
        let (threshold, got) = top_fraction_pairs(&cov, fraction).unwrap();
        assert_eq!(
            threshold.to_bits(),
            sorted[keep - 1].to_bits(),
            "fraction {fraction}"
        );
        let want = top_pairs_stable_oracle(&cov, threshold);
        assert_eq!(bits(&got), bits(&want), "fraction {fraction}");
    }
    assert_eq!(
        top_fraction_pairs(&cov, 1.0).unwrap().1.len(),
        n * (n - 1) / 2,
        "every pair"
    );
}

#[test]
fn enrichment_output_bit_identical_across_thread_counts() {
    // Large's shape: 1440 genes, 120 GO terms of 5–80 members, scores
    // rounded to two decimals so the rank-sum tests see ties.
    let mut rng = Pcg64::new(0x5e7);
    let genes = 1440;
    let scores: Vec<f64> = (0..genes)
        .map(|_| (rng.normal() * 100.0).round() / 100.0)
        .collect();
    let memberships: Vec<Vec<u32>> = (0..120)
        .map(|_| {
            let size = 5 + rng.next_below(76) as usize;
            rng.sample_indices(genes, size)
                .into_iter()
                .map(|g| g as u32)
                .collect()
        })
        .collect();
    let run = |threads| {
        let QueryOutput::Enrichment { per_term } =
            enrichment_output(&scores, &memberships, &ExecOpts::with_threads(threads)).unwrap()
        else {
            panic!("wrong variant")
        };
        per_term
            .iter()
            .map(|&(t, z, p)| (t, z.to_bits(), p.to_bits()))
            .collect::<Vec<_>>()
    };
    let one = run(1);
    assert_eq!(one.len(), 120);
    for threads in [2, 8] {
        assert_eq!(run(threads), one, "threads={threads}");
    }
}
