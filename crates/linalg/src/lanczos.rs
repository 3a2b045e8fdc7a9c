//! Lanczos iteration with full reorthogonalization.
//!
//! The benchmark's Query 4 runs "the Lanczos SVD algorithm to find the 50
//! largest eigenvalues and the corresponding eigenvectors" of the (symmetric
//! positive semidefinite) Gram matrix of the selected expression data. The
//! operator is abstracted behind [`LinearOp`] so the same iteration drives
//! the dense single-node path, the implicit `AᵀA` path (never materializing
//! the Gram matrix), and the distributed matvec in `genbase-cluster`.

use crate::eigen::tridiag_eigen;
use crate::matrix::{axpy, dot, norm2, scale, Matrix};
use crate::{matvec, ExecOpts};
use genbase_util::progress::{f64s_from_hex, f64s_to_hex, u128_from_hex, u128_to_hex};
use genbase_util::{Error, Json, Pcg64, Result};

/// A symmetric linear operator `y = B x`.
pub trait LinearOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `y = B x`. `y` holds `dim()` elements whose contents are
    /// unspecified on entry; implementations must overwrite every one.
    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()>;
}

/// Dense symmetric operator backed by an explicit matrix (a serial matvec).
pub struct DenseSymOp<'a> {
    mat: &'a Matrix,
}

impl<'a> DenseSymOp<'a> {
    /// Wrap a square symmetric matrix.
    pub fn new(mat: &'a Matrix) -> Result<Self> {
        if mat.rows() != mat.cols() {
            return Err(Error::invalid("DenseSymOp requires a square matrix"));
        }
        Ok(DenseSymOp { mat })
    }
}

impl LinearOp for DenseSymOp<'_> {
    fn dim(&self) -> usize {
        self.mat.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        y.copy_from_slice(&matvec(self.mat, x));
        Ok(())
    }
}

/// Implicit Gram operator `B = AᵀA` for a (typically tall) data matrix `A`,
/// applied without forming the n×n Gram matrix, in one pass over `A`: each
/// block of 8 rows computes its entries of `t = A x` as independent dot
/// chains, then adds `t_r · a_r` into `y` while the rows are still in cache.
/// The result equals `matvec_transposed(A, &matvec(A, x))` bit for bit.
///
/// The pass is serial at every thread budget. A bit-identical split needs
/// all of `t` before any `y` element is final, so it is two pool jobs per
/// step (`t` over row bands, then `y` over column bands). On a 2-core x86
/// host that lost to the serial pass inside `lanczos_topk` at every shape
/// tried, 400×60 through 4000×700 (1920×356: 47 vs 38 ms; 4000×700: 155 vs
/// 139 ms, although there the split won an isolated step by 5 %).
pub struct GramOp<'a> {
    a: &'a Matrix,
}

impl<'a> GramOp<'a> {
    /// Wrap the data matrix `A` (`m x n`); the operator has dimension `n`.
    pub fn new(a: &'a Matrix) -> Self {
        GramOp { a }
    }

    /// Accept a thread budget like the other kernels do. The pass stays
    /// serial (see the type's docs), so this changes nothing.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

impl LinearOp for GramOp<'_> {
    fn dim(&self) -> usize {
        self.a.cols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        assert_eq!(self.a.cols(), x.len(), "GramOp shape mismatch");
        let n = x.len();
        y.fill(0.0);
        if n == 0 {
            return Ok(());
        }
        let mut blocks = self.a.data().chunks_exact(GRAM_BLOCK_ROWS * n);
        for block in &mut blocks {
            let rows: [&[f64]; GRAM_BLOCK_ROWS] =
                std::array::from_fn(|k| &block[k * n..(k + 1) * n]);
            let t = block_dots(&rows, x);
            // Each y[c] takes the block's rows in ascending order, as
            // `matvec_transposed`'s row-by-row axpy would.
            for (c, yc) in y.iter_mut().enumerate() {
                let mut acc = *yc;
                for (row, tk) in rows.iter().zip(t) {
                    acc += tk * row[c];
                }
                *yc = acc;
            }
        }
        for row in blocks.remainder().chunks_exact(n) {
            axpy(dot(row, x), row, y);
        }
        Ok(())
    }
}

/// Rows per block of [`GramOp`]'s fused pass: that many dot chains are in
/// flight at once, which hides the add latency a lone `dot` waits on. 8
/// beat 4 by ≈10 % on 1920×356 (0.24 vs 0.27 ms a step).
const GRAM_BLOCK_ROWS: usize = 8;

/// `dot(row, x)` for every row of the block, each chain keeping `dot`'s
/// association exactly: four position-split accumulators, then the tail,
/// then `acc[0] + acc[1] + acc[2] + acc[3] + tail`.
#[inline(always)]
fn block_dots(rows: &[&[f64]; GRAM_BLOCK_ROWS], x: &[f64]) -> [f64; GRAM_BLOCK_ROWS] {
    let n = x.len();
    let body = n / 4 * 4;
    let mut acc = [[0.0f64; 4]; GRAM_BLOCK_ROWS];
    for (j, xv) in x[..body].chunks_exact(4).enumerate() {
        let j = j * 4;
        for (acc, row) in acc.iter_mut().zip(rows) {
            let r = &row[j..j + 4];
            acc[0] += r[0] * xv[0];
            acc[1] += r[1] * xv[1];
            acc[2] += r[2] * xv[2];
            acc[3] += r[3] * xv[3];
        }
    }
    std::array::from_fn(|k| {
        let mut tail = 0.0;
        for j in body..n {
            tail += rows[k][j] * x[j];
        }
        let a = acc[k];
        a[0] + a[1] + a[2] + a[3] + tail
    })
}

/// Result of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Ritz values approximating the largest eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors as columns (`dim x k`), matching `eigenvalues`.
    pub eigenvectors: Matrix,
    /// Krylov dimension actually used.
    pub iterations: usize,
    /// Residual bound `|β_m · s_{m,i}|` per returned pair (small = converged).
    pub residuals: Vec<f64>,
}

/// Find the `k` largest eigenpairs of the symmetric PSD operator `op` using
/// Lanczos with full reorthogonalization.
///
/// `max_dim` caps the Krylov dimension (`0` lets the routine choose
/// `min(n, 2k + 20)`); `seed` fixes the start vector so benchmark runs are
/// reproducible.
pub fn lanczos_topk(
    op: &dyn LinearOp,
    k: usize,
    max_dim: usize,
    seed: u64,
    opts: &ExecOpts,
) -> Result<LanczosResult> {
    let n = op.dim();
    if k == 0 {
        return Err(Error::invalid("k must be positive"));
    }
    let k = k.min(n);
    let m_target = if max_dim == 0 {
        (2 * k + 20).min(n)
    } else {
        max_dim.clamp(k, n)
    };

    // Lanczos basis vectors kept dense for full reorthogonalization.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m_target);
    let mut alphas: Vec<f64> = Vec::with_capacity(m_target);
    let mut betas: Vec<f64> = Vec::with_capacity(m_target);

    let mut rng = Pcg64::new(seed ^ 0x6c61_6e63_7a6f_7321);
    let mut v: Vec<f64>;

    // Resume from a saved mid-iteration snapshot when a progress sink holds
    // one for this (n, m_target) shape; otherwise start fresh. The snapshot
    // captures every bit of loop state (coefficients, basis, current vector,
    // raw RNG internals), so a resumed run continues the exact f64 sequence
    // an uninterrupted run would produce.
    let start = match opts
        .progress
        .as_ref()
        .and_then(|p| p.restore(LANCZOS_KERNEL))
        .and_then(|s| restore_lanczos_state(&s, n, m_target))
    {
        Some(state) => {
            alphas = state.alphas;
            betas = state.betas;
            basis = state.basis;
            v = state.v;
            rng = state.rng;
            alphas.len()
        }
        None => {
            v = (0..n).map(|_| rng.normal()).collect();
            let nrm = norm2(&v);
            scale(&mut v, 1.0 / nrm);
            0
        }
    };

    let mut w = vec![0.0; n];
    for j in start..m_target {
        opts.budget.check("lanczos")?;
        // Periodic intra-cell checkpoint at a loop-top quiescent point
        // (alphas/betas/basis all have length j here, including after the
        // low-rank restart branch). A failed save means the host is gone;
        // abandon the cell.
        if j > start && j % LANCZOS_CHECKPOINT_EVERY == 0 {
            if let Some(progress) = &opts.progress {
                let state = snapshot_lanczos_state(n, m_target, &alphas, &betas, &basis, &v, &rng);
                progress.save(LANCZOS_KERNEL, &state)?;
            }
        }
        op.apply(&v, &mut w)?;
        if j > 0 {
            let beta = betas[j - 1];
            axpy(-beta, &basis[j - 1], &mut w);
        }
        let alpha = dot(&w, &v);
        axpy(-alpha, &v, &mut w);
        // Full reorthogonalization against every basis vector (twice is
        // enough by Kahan's "twice is enough" rule).
        for _ in 0..2 {
            for q in basis.iter() {
                let c = dot(&w, q);
                if c != 0.0 {
                    axpy(-c, q, &mut w);
                }
            }
            let c = dot(&w, &v);
            if c != 0.0 {
                axpy(-c, &v, &mut w);
            }
        }
        alphas.push(alpha);
        basis.push(std::mem::replace(&mut v, vec![0.0; n]));
        let beta = norm2(&w);
        if beta < 1e-12 || j + 1 == m_target {
            if j + 1 < m_target && j + 1 < k {
                // Invariant subspace smaller than requested k: restart with a
                // fresh random direction orthogonal to the current basis.
                let mut fresh: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
                for q in basis.iter() {
                    let c = dot(&fresh, q);
                    axpy(-c, q, &mut fresh);
                }
                let fn2 = norm2(&fresh);
                if fn2 < 1e-12 {
                    betas.push(0.0);
                    break;
                }
                scale(&mut fresh, 1.0 / fn2);
                betas.push(0.0);
                v = fresh;
                continue;
            }
            betas.push(beta);
            break;
        }
        betas.push(beta);
        v = w.clone();
        scale(&mut v, 1.0 / beta);
    }

    let m = alphas.len();
    let off: Vec<f64> = betas[..m.saturating_sub(1)].to_vec();
    let tri = tridiag_eigen(&alphas, &off)?;

    let k_out = k.min(m);
    let beta_last = betas.last().copied().unwrap_or(0.0);
    let mut eigenvalues = Vec::with_capacity(k_out);
    let mut residuals = Vec::with_capacity(k_out);
    let mut eigenvectors = Matrix::zeros(n, k_out);
    let mut ritz = vec![0.0; n];
    for i in 0..k_out {
        eigenvalues.push(tri.values[i]);
        residuals.push((beta_last * tri.vectors.get(m - 1, i)).abs());
        // Ritz vector = Σ_j s_ji * q_j, summed in ascending j in a contiguous
        // buffer, then written to column i once.
        ritz.fill(0.0);
        for (j, q) in basis.iter().enumerate() {
            let s = tri.vectors.get(j, i);
            if s != 0.0 {
                axpy(s, q, &mut ritz);
            }
        }
        for (r, &v) in ritz.iter().enumerate() {
            eigenvectors.set(r, i, v);
        }
    }

    Ok(LanczosResult {
        eigenvalues,
        eigenvectors,
        iterations: m,
        residuals,
    })
}

/// Kernel name Lanczos snapshots are filed under in a progress sink.
pub const LANCZOS_KERNEL: &str = "lanczos";

/// Iterations between intra-cell checkpoints.
const LANCZOS_CHECKPOINT_EVERY: usize = 8;

struct LanczosState {
    alphas: Vec<f64>,
    betas: Vec<f64>,
    basis: Vec<Vec<f64>>,
    v: Vec<f64>,
    rng: Pcg64,
}

fn snapshot_lanczos_state(
    n: usize,
    m_target: usize,
    alphas: &[f64],
    betas: &[f64],
    basis: &[Vec<f64>],
    v: &[f64],
    rng: &Pcg64,
) -> Json {
    let (rng_state, rng_inc) = rng.state_parts();
    let mut state = Json::obj();
    state.set("n", Json::from(n));
    state.set("m", Json::from(m_target));
    state.set("alphas", Json::from(f64s_to_hex(alphas)));
    state.set("betas", Json::from(f64s_to_hex(betas)));
    state.set(
        "basis",
        Json::Arr(basis.iter().map(|q| Json::from(f64s_to_hex(q))).collect()),
    );
    state.set("v", Json::from(f64s_to_hex(v)));
    state.set(
        "rng",
        Json::Arr(vec![
            Json::from(u128_to_hex(rng_state)),
            Json::from(u128_to_hex(rng_inc)),
        ]),
    );
    state
}

/// Decode and validate a snapshot; `None` (fresh start) on any mismatch —
/// a snapshot from a different problem shape must never be resumed.
fn restore_lanczos_state(state: &Json, n: usize, m_target: usize) -> Option<LanczosState> {
    if state.get("n").and_then(Json::as_u64) != Some(n as u64)
        || state.get("m").and_then(Json::as_u64) != Some(m_target as u64)
    {
        return None;
    }
    let alphas = f64s_from_hex(state.get("alphas").and_then(Json::as_str)?).ok()?;
    let betas = f64s_from_hex(state.get("betas").and_then(Json::as_str)?).ok()?;
    let basis: Vec<Vec<f64>> = state
        .get("basis")
        .and_then(Json::as_arr)?
        .iter()
        .map(|q| q.as_str().and_then(|h| f64s_from_hex(h).ok()))
        .collect::<Option<_>>()?;
    let v = f64s_from_hex(state.get("v").and_then(Json::as_str)?).ok()?;
    let rng_parts = state.get("rng").and_then(Json::as_arr)?;
    if rng_parts.len() != 2 {
        return None;
    }
    let rng_state = u128_from_hex(rng_parts[0].as_str()?).ok()?;
    let rng_inc = u128_from_hex(rng_parts[1].as_str()?).ok()?;
    let j = alphas.len();
    if j == 0
        || j > m_target
        || betas.len() != j
        || basis.len() != j
        || v.len() != n
        || basis.iter().any(|q| q.len() != n)
    {
        return None;
    }
    Some(LanczosState {
        alphas,
        betas,
        basis,
        v,
        rng: Pcg64::from_state_parts(rng_state, rng_inc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;
    use crate::gram;

    fn random_tall(rng: &mut Pcg64, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |_, _| rng.normal())
    }

    #[test]
    fn dense_op_matches_matvec() {
        let mut rng = Pcg64::new(61);
        let a = random_tall(&mut rng, 30, 10);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let op = DenseSymOp::new(&g).unwrap();
        let x: Vec<f64> = (0..10).map(|_| rng.normal()).collect();
        let mut y = vec![0.0; 10];
        op.apply(&x, &mut y).unwrap();
        let expect = matvec(&g, &x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_op_equals_dense_gram() {
        let mut rng = Pcg64::new(62);
        let a = random_tall(&mut rng, 40, 12);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let implicit = GramOp::new(&a);
        let x: Vec<f64> = (0..12).map(|_| rng.normal()).collect();
        let mut y1 = vec![0.0; 12];
        implicit.apply(&x, &mut y1).unwrap();
        let y2 = matvec(&g, &x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn topk_matches_jacobi_reference() {
        let mut rng = Pcg64::new(63);
        let a = random_tall(&mut rng, 60, 25);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let reference = jacobi_eigen(&g).unwrap();
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 5, 0, 7, &ExecOpts::serial()).unwrap();
        for i in 0..5 {
            let rel =
                (res.eigenvalues[i] - reference.values[i]).abs() / reference.values[i].max(1e-12);
            assert!(rel < 1e-8, "eigenvalue {i}: rel err {rel}");
        }
    }

    #[test]
    fn full_spectrum_on_small_matrix() {
        let mut rng = Pcg64::new(64);
        let a = random_tall(&mut rng, 20, 8);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let reference = jacobi_eigen(&g).unwrap();
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 8, 8, 3, &ExecOpts::serial()).unwrap();
        for i in 0..8 {
            assert!(
                (res.eigenvalues[i] - reference.values[i]).abs()
                    < 1e-7 * (1.0 + reference.values[i].abs()),
                "pair {i}"
            );
        }
    }

    #[test]
    fn ritz_vectors_satisfy_eigen_equation() {
        let mut rng = Pcg64::new(65);
        let a = random_tall(&mut rng, 50, 16);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 4, 0, 11, &ExecOpts::serial()).unwrap();
        for i in 0..4 {
            let v = res.eigenvectors.col(i);
            assert!((norm2(&v) - 1.0).abs() < 1e-8, "unit norm");
            let gv = matvec(&g, &v);
            for r in 0..16 {
                assert!(
                    (gv[r] - res.eigenvalues[i] * v[r]).abs()
                        < 1e-6 * (1.0 + res.eigenvalues[i].abs()),
                    "pair {i} row {r}"
                );
            }
        }
    }

    #[test]
    fn implicit_gram_topk_matches_jacobi_reference() {
        let mut rng = Pcg64::new(66);
        let a = random_tall(&mut rng, 45, 14);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let reference = jacobi_eigen(&g).unwrap();
        let res = lanczos_topk(&GramOp::new(&a), 3, 0, 5, &ExecOpts::serial()).unwrap();
        for i in 0..3 {
            let expect = reference.values[i];
            assert!((res.eigenvalues[i] - expect).abs() < 1e-7 * (1.0 + expect));
        }
    }

    #[test]
    fn low_rank_operator_restart_survives() {
        // Rank-2 PSD matrix; ask for more pairs than the rank.
        let u = Matrix::from_vec(
            2,
            6,
            vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0],
        )
        .unwrap();
        let g = gram(&u, &ExecOpts::serial()).unwrap(); // 6x6 rank 2
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 4, 6, 1, &ExecOpts::serial()).unwrap();
        assert!(res.eigenvalues.len() >= 2);
        // Two non-trivial eigenvalues: 3·1=3 per construction? verify vs jacobi.
        let reference = jacobi_eigen(&g).unwrap();
        for i in 0..2 {
            assert!((res.eigenvalues[i] - reference.values[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn residuals_small_when_converged() {
        let mut rng = Pcg64::new(67);
        let a = random_tall(&mut rng, 40, 10);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 3, 10, 9, &ExecOpts::serial()).unwrap();
        for r in &res.residuals {
            assert!(*r < 1e-6, "residual {r}");
        }
    }

    #[test]
    fn gram_op_result_is_thread_count_invariant() {
        let mut rng = Pcg64::new(68);
        let a = random_tall(&mut rng, 150, 140);
        let serial = {
            let op = GramOp::new(&a);
            lanczos_topk(&op, 4, 0, 17, &ExecOpts::serial()).unwrap()
        };
        for threads in [2, 8] {
            let op = GramOp::new(&a).with_threads(threads);
            let res = lanczos_topk(&op, 4, 0, 17, &ExecOpts::with_threads(threads)).unwrap();
            assert_eq!(
                res.eigenvalues, serial.eigenvalues,
                "threads={threads}: eigenvalues must be bit-identical"
            );
            assert_eq!(res.iterations, serial.iterations);
        }
    }

    #[test]
    fn resume_from_mid_iteration_snapshot_is_bit_identical() {
        use genbase_util::progress::MemoryProgress;
        use genbase_util::ProgressHandle;
        use std::sync::Arc;

        let mut rng = Pcg64::new(69);
        let a = random_tall(&mut rng, 80, 40);
        let g = gram(&a, &ExecOpts::serial()).unwrap();
        let op = DenseSymOp::new(&g).unwrap();

        // Uninterrupted reference (no progress sink).
        let reference = lanczos_topk(&op, 4, 0, 13, &ExecOpts::serial()).unwrap();

        // A run with a sink leaves periodic snapshots behind.
        let sink = Arc::new(MemoryProgress::new());
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(sink.clone())));
        let watched = lanczos_topk(&op, 4, 0, 13, &opts).unwrap();
        assert!(
            sink.saves() >= 2,
            "m_target=28 must checkpoint at 8 and 16+"
        );
        assert_eq!(watched.eigenvalues, reference.eigenvalues);

        // "Kill" the worker: resume a fresh run from the latest snapshot.
        let snapshot = sink.latest(LANCZOS_KERNEL).unwrap();
        let resumed_sink = Arc::new(MemoryProgress::with_state(LANCZOS_KERNEL, snapshot));
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(resumed_sink)));
        let resumed = lanczos_topk(&op, 4, 0, 13, &opts).unwrap();
        assert_eq!(resumed.eigenvalues, reference.eigenvalues);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.residuals, reference.residuals);
        for i in 0..4 {
            assert_eq!(resumed.eigenvectors.col(i), reference.eigenvectors.col(i));
        }

        // A snapshot from a different shape must be ignored, not resumed.
        let sink = Arc::new(MemoryProgress::new());
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(sink.clone())));
        let _ = lanczos_topk(&op, 4, 0, 13, &opts).unwrap();
        let mismatched = Arc::new(MemoryProgress::with_state(
            LANCZOS_KERNEL,
            sink.latest(LANCZOS_KERNEL).unwrap(),
        ));
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(mismatched)));
        let other = lanczos_topk(&op, 6, 0, 13, &opts).unwrap(); // different m_target
        let other_ref = lanczos_topk(&op, 6, 0, 13, &ExecOpts::serial()).unwrap();
        assert_eq!(other.eigenvalues, other_ref.eigenvalues);
    }

    #[test]
    fn k_zero_rejected() {
        let g = Matrix::identity(4);
        let op = DenseSymOp::new(&g).unwrap();
        assert!(lanczos_topk(&op, 0, 0, 1, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn k_larger_than_dim_clamped() {
        let g = Matrix::identity(3);
        let op = DenseSymOp::new(&g).unwrap();
        let res = lanczos_topk(&op, 10, 0, 1, &ExecOpts::serial()).unwrap();
        assert_eq!(res.eigenvalues.len(), 3);
        for v in &res.eigenvalues {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }
}
