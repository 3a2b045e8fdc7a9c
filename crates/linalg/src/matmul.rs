//! Matrix multiplication kernels.
//!
//! - [`matmul`]: general `A * B` as a serial cache-blocked i-k-j loop. No
//!   GenBase query multiplies two general matrices; this is the library's
//!   general product, not a query's hot path.
//! - [`gram`]: `AᵀA` as a symmetric rank-k update on the shared
//!   [`genbase_util::runtime`] pool — covariance (Query 2) and Query 4's
//!   Gram matrix.
//! - [`matvec`] / [`matvec_transposed`]: one row pass each.
//!
//! `gram` assigns each output element to exactly one task with a fixed
//! reduction order, so its output is **bit-identical across thread
//! counts**. `matmul` folds every `p` of an output element in ascending
//! order, exactly as the textbook i-j-k loop does, so it equals that loop
//! bit for bit.

use crate::matrix::Matrix;
use crate::ExecOpts;
use genbase_util::runtime;
use genbase_util::{Error, Result, SharedSlice};

/// Cache block edge (in elements) for `matmul`. 64x64 doubles = 32 KiB per
/// tile, sized to stay in L1/L2 alongside the accumulator rows.
const BLOCK: usize = 64;

/// `A * B` over 64×64 tiles in i-k-j order: each output row segment takes
/// one `a[i][p] * b[p][j..]` update per `p`, in ascending `p`, so every
/// element is the textbook fold bit for bit. Dense inner loop — no
/// per-element zero test. `opts.threads` is ignored: the product runs on
/// the calling thread. The budget is checked once per 64-row block.
pub fn matmul(a: &Matrix, b: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    check_dims(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let (a, b, c) = (a.data(), b.data(), out.data_mut());
    for ib in (0..m).step_by(BLOCK) {
        opts.budget.check("matmul")?;
        let i_end = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let k_end = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n + jb..i * n + j_end];
                    for p in kb..k_end {
                        let aval = a_row[p];
                        for (cj, bj) in c_row.iter_mut().zip(&b[p * n + jb..p * n + j_end]) {
                            *cj += aval * bj;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Column-block edge for the symmetric rank-k update. A 128×128 block
/// accumulator (128 KiB) stays L2-resident while the pair's two column
/// stripes of A stream through once.
const SYRK_BLOCK: usize = 128;

/// Gram matrix `AᵀA` as a symmetric rank-k update: only the upper triangle
/// is computed (half the FLOPs), parallelized over column-block *pairs* on
/// the shared runtime, then mirrored. Each block pair streams the rows of A
/// once, broadcasting 4 left-column values against a contiguous 8-wide
/// right-column segment per row (branch-free, SIMD-friendly). This is the
/// covariance workhorse.
pub fn gram(a: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    let (m, n) = a.shape();
    let mut out = Matrix::zeros(n, n);
    if n == 0 {
        return Ok(out);
    }
    let nb = n.div_ceil(SYRK_BLOCK);
    let tasks = nb * (nb + 1) / 2;
    let shared = SharedSlice::new(out.data_mut());
    runtime::try_parallel_for(opts.threads, tasks, |t| {
        let (bi, bj) = syrk_block_pair(t, nb);
        syrk_block(a.data(), &shared, m, n, bi, bj, opts)
    })?;
    mirror_lower(out.data_mut(), n, opts);
    Ok(out)
}

/// Map a flat task index to the (bi, bj) upper-triangle block pair, bi <= bj.
fn syrk_block_pair(t: usize, nb: usize) -> (usize, usize) {
    let mut row = 0;
    let mut offset = 0;
    while offset + (nb - row) <= t {
        offset += nb - row;
        row += 1;
    }
    (row, row + (t - offset))
}

/// Row-panel depth for the syrk kernel: the panel's two column stripes
/// (2 × SYRK_KC × SYRK_BLOCK doubles = 512 KiB) stay cache-resident while
/// every register tile of the block sweeps them.
const SYRK_KC: usize = 256;

/// Rows of the syrk register tile: left-column values broadcast per row.
const SYRK_MR: usize = 4;

/// Column width of the syrk register tile: one AVX-512 vector (or two
/// AVX2 vectors) of f64 accumulators per tile row.
const SYRK_NR: usize = 8;

/// One (bi, bj) column-block pair of the upper triangle of `AᵀA`,
/// register-tiled: for each 4×8 tile, stream a
/// row panel once with 4 broadcast left values × one contiguous 8-wide
/// right segment per row (branch-free, SIMD-friendly), accumulating in
/// registers; the block accumulator is touched once per panel, not once
/// per row. Diagonal pairs skip tiles strictly below the diagonal and mask
/// the wedge on write-out.
fn syrk_block(
    a: &[f64],
    out: &SharedSlice<'_, f64>,
    m: usize,
    n: usize,
    bi: usize,
    bj: usize,
    opts: &ExecOpts,
) -> Result<()> {
    let ci_start = bi * SYRK_BLOCK;
    let ci_end = (ci_start + SYRK_BLOCK).min(n);
    let cj_start = bj * SYRK_BLOCK;
    let cj_end = (cj_start + SYRK_BLOCK).min(n);
    let wi = ci_end - ci_start;
    let wj = cj_end - cj_start;
    let diagonal = bi == bj;
    let mut acc = vec![0.0f64; wi * wj];
    for kb in (0..m).step_by(SYRK_KC) {
        opts.budget.check("gram")?;
        let k_end = (kb + SYRK_KC).min(m);
        let panel = &a[kb * n..k_end * n];
        let mut ci = 0;
        while ci < wi {
            let ci_t = (ci + SYRK_MR).min(wi);
            let mut cj = 0;
            while cj < wj {
                let cj_t = (cj + SYRK_NR).min(wj);
                // Tiles strictly below the diagonal wedge are never read.
                if diagonal && cj_t <= ci {
                    cj = cj_t;
                    continue;
                }
                if ci_t - ci == SYRK_MR && cj_t - cj == SYRK_NR {
                    let mut c = [[0.0f64; SYRK_NR]; SYRK_MR];
                    for row in panel.chunks_exact(n) {
                        let x = [
                            row[ci_start + ci],
                            row[ci_start + ci + 1],
                            row[ci_start + ci + 2],
                            row[ci_start + ci + 3],
                        ];
                        let y = &row[cj_start + cj..cj_start + cj + SYRK_NR];
                        for (crow, xv) in c.iter_mut().zip(x) {
                            for (cell, yv) in crow.iter_mut().zip(y) {
                                *cell += xv * yv;
                            }
                        }
                    }
                    for (ri, crow) in c.iter().enumerate() {
                        let arow = &mut acc[(ci + ri) * wj + cj..(ci + ri) * wj + cj_t];
                        for (cell, v) in arow.iter_mut().zip(crow) {
                            *cell += v;
                        }
                    }
                } else {
                    // Ragged edge tile: scalar accumulation over the panel.
                    for row in panel.chunks_exact(n) {
                        for ri in ci..ci_t {
                            let xv = row[ci_start + ri];
                            let arow = &mut acc[ri * wj + cj..ri * wj + cj_t];
                            for (cell, yv) in
                                arow.iter_mut().zip(&row[cj_start + cj..cj_start + cj_t])
                            {
                                *cell += xv * yv;
                            }
                        }
                    }
                }
                cj = cj_t;
            }
            ci = ci_t;
        }
    }
    for ci in 0..wi {
        let row = ci_start + ci;
        let lo = if diagonal { ci } else { 0 };
        // SAFETY: this task owns the (bi, bj) block; row segments of
        // distinct block pairs never overlap.
        let seg = unsafe { out.slice_mut(row * n + cj_start + lo, wj - lo) };
        seg.copy_from_slice(&acc[ci * wj + lo..(ci + 1) * wj]);
    }
    Ok(())
}

/// Mirror the computed upper triangle into the strictly-lower part,
/// parallelized over row bands.
fn mirror_lower(out: &mut [f64], n: usize, opts: &ExecOpts) {
    let tasks = n.div_ceil(SYRK_BLOCK);
    let shared = SharedSlice::new(out);
    runtime::parallel_for(opts.threads, tasks, |t| {
        let rb = t * SYRK_BLOCK;
        let r_end = (rb + SYRK_BLOCK).min(n);
        for i in rb..r_end.min(n) {
            if i == 0 {
                continue;
            }
            // SAFETY: each row's strictly-lower segment is owned by exactly
            // one task; the reads touch only upper-triangle elements
            // (column i > row j), which no lower segment covers.
            let lower = unsafe { shared.slice_mut(i * n, i) };
            for (j, cell) in lower.iter_mut().enumerate() {
                *cell = unsafe { shared.read(j * n + i) };
            }
        }
    });
}

/// Matrix-vector product `A x`: one `dot` per row.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "matvec shape mismatch");
    (0..a.rows())
        .map(|r| crate::matrix::dot(a.row(r), x))
        .collect()
}

/// Transposed matrix-vector product `Aᵀ x` without materializing `Aᵀ`:
/// `x[r] · a_r` added row by row in ascending `r`.
pub fn matvec_transposed(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.rows(), x.len(), "matvec_transposed shape mismatch");
    let mut out = vec![0.0; a.cols()];
    for (r, &xv) in x.iter().enumerate() {
        crate::matrix::axpy(xv, a.row(r), &mut out);
    }
    out
}

fn check_dims(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(Error::invalid(format!(
            "matmul shape mismatch: {:?} * {:?}",
            a.shape(),
            b.shape()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_util::Pcg64;

    fn random_matrix(rng: &mut Pcg64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.normal())
    }

    /// Textbook i-j-k product: `matmul`'s reference.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0;
            for p in 0..a.cols() {
                acc += a.get(i, p) * b.get(p, j);
            }
            acc
        })
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b, &ExecOpts::serial()).unwrap();
        let expect = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn blocked_matches_naive() {
        // The blocked kernel folds p in naive's order: the two agree
        // exactly. The last two shapes cross BLOCK edges in k and n, and
        // in m.
        let mut rng = Pcg64::new(21);
        for (m, k, n) in [(32, 32, 32), (20, 40, 40), (2, 128, 127), (130, 2, 120)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let blocked = matmul(&a, &b, &ExecOpts::serial()).unwrap();
            assert!(blocked.approx_eq(&matmul_naive(&a, &b), 0.0), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gram_matches_the_transpose_product() {
        let mut rng = Pcg64::new(24);
        let a = random_matrix(&mut rng, 80, 50);
        let opts = ExecOpts::with_threads(4);
        let g = gram(&a, &opts).unwrap();
        let reference = matmul(&a.transpose(), &a, &ExecOpts::serial()).unwrap();
        assert!(g.approx_eq(&reference, 1e-9));
        // symmetry
        assert!(g.approx_eq(&g.transpose(), 1e-12));
    }

    #[test]
    fn gram_thread_count_invariant() {
        let mut rng = Pcg64::new(29);
        // Width > SYRK_BLOCK so multiple block pairs exist.
        let a = random_matrix(&mut rng, 120, 150);
        let serial = gram(&a, &ExecOpts::serial()).unwrap();
        for threads in [2, 8] {
            let par = gram(&a, &ExecOpts::with_threads(threads)).unwrap();
            assert!(par.approx_eq(&serial, 0.0), "threads={threads}");
        }
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let mut rng = Pcg64::new(25);
        let a = random_matrix(&mut rng, 30, 20);
        let x: Vec<f64> = (0..20).map(|_| rng.normal()).collect();
        let y = matvec(&a, &x);
        let xm = Matrix::from_vec(20, 1, x.clone()).unwrap();
        let ym = matmul(&a, &xm, &ExecOpts::serial()).unwrap();
        for r in 0..30 {
            assert!((y[r] - ym.get(r, 0)).abs() < 1e-10);
        }
        let yt = matvec_transposed(&a, &y);
        let ytm = matmul(&a.transpose(), &ym, &ExecOpts::serial()).unwrap();
        for c in 0..20 {
            assert!((yt[c] - ytm.get(c, 0)).abs() < 1e-9);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul(&a, &b, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn budget_timeout_propagates() {
        use genbase_util::Budget;
        use std::time::Duration;
        let mut rng = Pcg64::new(26);
        let a = random_matrix(&mut rng, 300, 300);
        let b = random_matrix(&mut rng, 300, 300);
        let budget = Budget::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let opts = ExecOpts::with_threads(2).with_budget(budget);
        let err = matmul(&a, &b, &opts).unwrap_err();
        assert!(err.is_infinite_result());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Pcg64::new(27);
        let a = random_matrix(&mut rng, 40, 40);
        let i = Matrix::identity(40);
        let ai = matmul(&a, &i, &ExecOpts::serial()).unwrap();
        assert!(ai.approx_eq(&a, 1e-12));
    }

    #[test]
    fn ragged_edges_exercised() {
        // Partial tiles in every dimension (m, k, n not multiples of
        // BLOCK), and a thread count the kernel ignores.
        let mut rng = Pcg64::new(30);
        for (m, k, n) in [(67, 33, 41), (5, 129, 7), (130, 70, 66), (64, 64, 63)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = matmul(&a, &b, &ExecOpts::with_threads(4)).unwrap();
            assert!(fast.approx_eq(&matmul_naive(&a, &b), 0.0), "({m},{k},{n})");
        }
    }
}
