//! Matrix multiplication kernels.
//!
//! Three tiers mirror the performance spread the paper measures:
//! - [`matmul_naive`]: textbook triple loop in i-j-k order. This is what
//!   "simulating linear algebra in SQL" or Mahout-without-BLAS effectively
//!   executes per cell; kept public for ablation benches.
//! - [`matmul_blocked`]: cache-blocked i-k-j kernel, the serial reference
//!   (the seed repo's fast path; kept for ablations and perf baselines).
//! - [`matmul`]: the production path — B packed into SIMD-friendly column
//!   panels, a register-tiled 4×4 microkernel with a branch-free dense
//!   inner loop, parallelized over row blocks on the shared
//!   [`genbase_util::runtime`] pool.
//!
//! Every kernel assigns each output element to exactly one task with a
//! fixed reduction order, so outputs are **bit-identical across thread
//! counts**. Across tiers: naive and blocked fold every `p` sequentially
//! and agree bitwise; the packed kernel accumulates each KC-deep panel in
//! registers before adding it to the output, so for `k > KC` it matches
//! the other tiers only within floating-point tolerance (typically more
//! accurately, as panel sums are better conditioned).

use crate::matrix::Matrix;
use crate::ExecOpts;
use genbase_util::runtime;
use genbase_util::{Error, Result, SharedSlice};

/// Cache block edge (in elements) for the serial blocked kernel. 64x64
/// doubles = 32 KiB per tile, sized to stay in L1/L2 alongside the
/// accumulator rows.
const BLOCK: usize = 64;

/// Rows per parallel task in the packed kernel. Also the unit the runtime
/// load-balances over, so it is deliberately smaller than a full band.
const MC: usize = 64;

/// Depth (k) blocking for the packed kernel; one A row slice of KC doubles
/// plus a KC×NR B panel stay L1/L2-resident.
const KC: usize = 256;

/// Microkernel tile: MR rows × NR columns held in registers.
const MR: usize = 4;
/// Microkernel width; NR consecutive B values are packed contiguously.
const NR: usize = 4;

/// Work below this FLOP count runs the serial blocked kernel: packing
/// overhead dominates. Dispatch depends only on the shape (never on the
/// thread count), keeping results deterministic.
const PACK_THRESHOLD: u64 = 32 * 32 * 32;

/// Textbook i-j-k matrix multiply. Quadratic cache misses on B; exists as
/// the "no BLAS" baseline (see `ablation_matmul`).
pub fn matmul_naive(a: &Matrix, b: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    check_dims(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        if i % 64 == 0 {
            opts.budget.check("matmul (naive)")?;
        }
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, acc);
        }
    }
    Ok(out)
}

/// Serial cache-blocked multiply (i-k-j inner order, row-major friendly).
/// This is the seed repo's fast path, kept as the perf-trajectory baseline.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    check_dims(a, b)?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    mm_block_into(
        a.data(),
        b.data(),
        out.data_mut(),
        a.rows(),
        a.cols(),
        b.cols(),
        opts,
    )?;
    Ok(out)
}

/// Multithreaded packed multiply: B is packed once into column panels, then
/// row blocks of the output are dynamically claimed by the shared runtime's
/// workers. Falls back to the serial blocked kernel for tiny problems.
pub fn matmul(a: &Matrix, b: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    check_dims(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    if (m as u64) * (k as u64) * (n as u64) <= PACK_THRESHOLD {
        mm_block_into(a.data(), b.data(), out.data_mut(), m, k, n, opts)?;
        return Ok(out);
    }
    mm_packed(a.data(), b.data(), out.data_mut(), m, k, n, opts)?;
    Ok(out)
}

/// Serial blocked kernel computing `out = A * B` over the full row range.
/// Dense inner loop — no per-element zero test.
fn mm_block_into(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    opts: &ExecOpts,
) -> Result<()> {
    for ib in (0..m).step_by(BLOCK) {
        opts.budget.check("matmul")?;
        let i_end = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let k_end = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for p in kb..k_end {
                        let aval = a_row[p];
                        let b_row = &b[p * n + jb..p * n + j_end];
                        let o = &mut out_row[jb..j_end];
                        for (oj, bj) in o.iter_mut().zip(b_row) {
                            *oj += aval * bj;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Pack the full columns of `b` (k×n) into panels of NR consecutive
/// columns: `bp[jp*k*NR + p*NR + l] = b[p*n + jp*NR + l]`. The microkernel
/// then streams one contiguous NR-wide vector per `p`. Tail columns
/// (`n % NR`) stay unpacked and are handled by a scalar edge loop.
fn pack_b(b: &[f64], k: usize, n: usize, opts: &ExecOpts) -> Vec<f64> {
    let n_panels = n / NR;
    let mut bp = vec![0.0f64; n_panels * k * NR];
    let shared = SharedSlice::new(&mut bp);
    runtime::parallel_for(opts.threads, n_panels, |jp| {
        // SAFETY: each panel index jp owns a disjoint region of bp.
        let panel = unsafe { shared.slice_mut(jp * k * NR, k * NR) };
        let j = jp * NR;
        for p in 0..k {
            panel[p * NR..p * NR + NR].copy_from_slice(&b[p * n + j..p * n + j + NR]);
        }
    });
    bp
}

/// Packed parallel kernel body: `out += A * B` with B pre-packed.
fn mm_packed(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    opts: &ExecOpts,
) -> Result<()> {
    let bp = pack_b(b, k, n, opts);
    let n_panels = n / NR;
    let tasks = m.div_ceil(MC);
    let shared = SharedSlice::new(out);
    runtime::try_parallel_for(opts.threads, tasks, |t| {
        let ib = t * MC;
        let i_end = (ib + MC).min(m);
        // SAFETY: each task owns the disjoint row band ib..i_end.
        let out_band = unsafe { shared.slice_mut(ib * n, (i_end - ib) * n) };
        mm_band_packed(a, b, &bp, out_band, ib, i_end, k, n, n_panels, opts)
    })
}

/// One row band of the packed kernel; `out` holds only the band's rows.
#[allow(clippy::too_many_arguments)]
fn mm_band_packed(
    a: &[f64],
    b: &[f64],
    bp: &[f64],
    out: &mut [f64],
    ib: usize,
    i_end: usize,
    k: usize,
    n: usize,
    n_panels: usize,
    opts: &ExecOpts,
) -> Result<()> {
    for kb in (0..k).step_by(KC) {
        opts.budget.check("matmul")?;
        let k_end = (kb + KC).min(k);
        for jp in 0..n_panels {
            let panel = &bp[jp * k * NR..(jp + 1) * k * NR];
            let j = jp * NR;
            let mut i = ib;
            while i + MR <= i_end {
                micro_4x4(a, k, i, panel, kb, k_end, out, ib, n, j);
                i += MR;
            }
            while i < i_end {
                micro_1x4(a, k, i, panel, kb, k_end, out, ib, n, j);
                i += 1;
            }
        }
        // Unpacked column tail (n % NR columns): scalar, strided B reads.
        let j_tail = n_panels * NR;
        if j_tail < n {
            for i in ib..i_end {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[(i - ib) * n..(i - ib + 1) * n];
                for j in j_tail..n {
                    let mut acc = 0.0;
                    for p in kb..k_end {
                        acc += a_row[p] * b[p * n + j];
                    }
                    out_row[j] += acc;
                }
            }
        }
    }
    Ok(())
}

/// Register-tiled 4×4 microkernel: 16 accumulators over one packed panel.
/// The inner loop is branch-free and reads NR contiguous packed B values
/// per step — the layout auto-vectorizers want.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_4x4(
    a: &[f64],
    k: usize,
    i: usize,
    panel: &[f64],
    kb: usize,
    k_end: usize,
    out: &mut [f64],
    band_start: usize,
    n: usize,
    j: usize,
) {
    let r0 = &a[i * k + kb..i * k + k_end];
    let r1 = &a[(i + 1) * k + kb..(i + 1) * k + k_end];
    let r2 = &a[(i + 2) * k + kb..(i + 2) * k + k_end];
    let r3 = &a[(i + 3) * k + kb..(i + 3) * k + k_end];
    let panel_k = &panel[kb * NR..k_end * NR];
    let mut c = [[0.0f64; NR]; MR];
    for ((((bv, &a0), &a1), &a2), &a3) in panel_k.chunks_exact(NR).zip(r0).zip(r1).zip(r2).zip(r3) {
        let av = [a0, a1, a2, a3];
        for (cr, ar) in c.iter_mut().zip(av) {
            for (cl, bl) in cr.iter_mut().zip(bv) {
                *cl += ar * bl;
            }
        }
    }
    for (r, cr) in c.iter().enumerate() {
        let orow = &mut out[(i - band_start + r) * n + j..(i - band_start + r) * n + j + NR];
        for (ol, cl) in orow.iter_mut().zip(cr) {
            *ol += cl;
        }
    }
}

/// Single-row edge microkernel over a packed panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_1x4(
    a: &[f64],
    k: usize,
    i: usize,
    panel: &[f64],
    kb: usize,
    k_end: usize,
    out: &mut [f64],
    band_start: usize,
    n: usize,
    j: usize,
) {
    let row = &a[i * k + kb..i * k + k_end];
    let panel_k = &panel[kb * NR..k_end * NR];
    let mut c = [0.0f64; NR];
    for (bv, &av) in panel_k.chunks_exact(NR).zip(row) {
        for (cl, bl) in c.iter_mut().zip(bv) {
            *cl += av * bl;
        }
    }
    let orow = &mut out[(i - band_start) * n + j..(i - band_start) * n + j + NR];
    for (ol, cl) in orow.iter_mut().zip(&c) {
        *ol += cl;
    }
}

/// Column-block edge for the symmetric rank-k update. A 128×128 block
/// accumulator (128 KiB) stays L2-resident while the pair's two column
/// stripes of A stream through once.
const SYRK_BLOCK: usize = 128;

/// Gram matrix `AᵀA` as a symmetric rank-k update: only the upper triangle
/// is computed (half the FLOPs), parallelized over column-block *pairs* on
/// the shared runtime, then mirrored. Each block pair streams the rows of A
/// once, broadcasting 4 left-column values against a contiguous 8-wide
/// right-column segment per row — the same SIMD-friendly shape as the
/// matmul microkernel. This is the covariance workhorse.
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

/// Column width of the syrk register tile: one AVX-512 vector (or two
/// AVX2 vectors) of f64 accumulators per tile row.
const SYRK_NR: usize = 8;

/// One (bi, bj) column-block pair of the upper triangle of `AᵀA`,
/// register-tiled like the matmul microkernel: for each 4×8 tile, stream a
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
            let ci_t = (ci + MR).min(wi);
            let mut cj = 0;
            while cj < wj {
                let cj_t = (cj + SYRK_NR).min(wj);
                // Tiles strictly below the diagonal wedge are never read.
                if diagonal && cj_t <= ci {
                    cj = cj_t;
                    continue;
                }
                if ci_t - ci == MR && cj_t - cj == SYRK_NR {
                    let mut c = [[0.0f64; SYRK_NR]; MR];
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
        let mut rng = Pcg64::new(21);
        let a = random_matrix(&mut rng, 130, 70);
        let b = random_matrix(&mut rng, 70, 90);
        let opts = ExecOpts::serial();
        let naive = matmul_naive(&a, &b, &opts).unwrap();
        let blocked = matmul_blocked(&a, &b, &opts).unwrap();
        assert!(blocked.approx_eq(&naive, 1e-9));
    }

    #[test]
    fn packed_matches_naive_bitwise() {
        // For k <= KC there is a single register panel per element, so the
        // packed kernel folds p in the same ascending order as naive and
        // must agree *exactly*.
        let mut rng = Pcg64::new(28);
        let a = random_matrix(&mut rng, 97, 83);
        let b = random_matrix(&mut rng, 83, 71);
        let naive = matmul_naive(&a, &b, &ExecOpts::serial()).unwrap();
        for threads in [1, 2, 8] {
            let packed = matmul(&a, &b, &ExecOpts::with_threads(threads)).unwrap();
            assert!(
                packed.approx_eq(&naive, 0.0),
                "threads={threads}: packed kernel drifted from naive"
            );
        }
    }

    #[test]
    fn packed_beyond_kc_matches_within_tolerance() {
        // k > KC splits the reduction into per-panel register sums, which
        // reassociates the fold: bitwise equality with naive no longer
        // holds, but 1e-9 relative agreement must — and thread-count
        // invariance must stay exact.
        let mut rng = Pcg64::new(31);
        let a = random_matrix(&mut rng, 70, 2 * KC + 37);
        let b = random_matrix(&mut rng, 2 * KC + 37, 60);
        let naive = matmul_naive(&a, &b, &ExecOpts::serial()).unwrap();
        let one = matmul(&a, &b, &ExecOpts::with_threads(1)).unwrap();
        assert!(
            one.approx_eq(&naive, 1e-9),
            "drift {}",
            one.max_abs_diff(&naive)
        );
        for threads in [2, 8] {
            let multi = matmul(&a, &b, &ExecOpts::with_threads(threads)).unwrap();
            assert!(multi.approx_eq(&one, 0.0), "threads={threads} changed bits");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = Pcg64::new(22);
        let a = random_matrix(&mut rng, 200, 64);
        let b = random_matrix(&mut rng, 64, 48);
        let serial = matmul(&a, &b, &ExecOpts::serial()).unwrap();
        let par = matmul(&a, &b, &ExecOpts::with_threads(4)).unwrap();
        assert!(par.approx_eq(&serial, 0.0), "thread count changed results");
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
        // Shapes chosen to hit every edge path: row tails (m % 4), packed
        // column tails (n % 4), k not a multiple of KC or BLOCK.
        let mut rng = Pcg64::new(30);
        for (m, k, n) in [(67, 33, 41), (5, 129, 7), (130, 70, 66), (64, 64, 63)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let naive = matmul_naive(&a, &b, &ExecOpts::serial()).unwrap();
            let fast = matmul(&a, &b, &ExecOpts::with_threads(4)).unwrap();
            assert!(fast.approx_eq(&naive, 0.0), "({m},{k},{n})");
        }
    }
}
