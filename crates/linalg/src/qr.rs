//! Householder QR factorization and least-squares solves.
//!
//! Query 1 of the benchmark specifies that linear regression is solved "using
//! a QR decomposition technique"; this module is that implementation.
//!
//! The matrix is row-major, so a reflector is applied *row by row*:
//! `w = vᵀA` accumulates one row of the block at a time into a contiguous
//! `w`, then the rank-1 update `A += v·sᵀ` walks the same rows again.
//! Columns are taken `PANEL` at a time: a panel is factored, then its
//! reflectors are applied, in order, to each `PANEL`-wide slab of the
//! trailing matrix while the slab is in cache — the unit of parallel work.
//! A column still meets reflectors `0, 1, 2, …` in that order and still
//! sums `v_i·a_ij` in ascending `i`, so the factor is bit-identical to the
//! textbook column-by-column loops (the reference in this module's tests)
//! at any panel width or thread count, while every inner loop is stride-1.

use crate::matrix::Matrix;
use crate::ExecOpts;
use genbase_util::{runtime, Error, Result, SharedSlice};
use std::ops::Range;

/// Columns factored together, and the width of one trailing-update task.
/// A panel's reflectors are applied to one `m x PANEL` slab of the
/// trailing matrix back to back, so the slab (and the reflectors) stay in
/// L2 for all of them instead of streaming the whole trailing matrix from
/// memory once per reflector. Any width gives the same bits.
const PANEL: usize = 32;

/// Reflector-cell products (rows x columns x reflectors) below which a
/// panel's trailing update runs inline: under this, waking a pool worker
/// costs about what the worker would save. Wall time only.
const PAR_MIN_WORK: usize = 1 << 20;

/// Compact Householder QR factorization of an `m x n` matrix with `m >= n`.
///
/// Householder vectors are stored below the diagonal of `qr`, the diagonal of
/// `R` in `rdiag`; `Q` is never materialized except for tests.
#[derive(Debug, Clone)]
pub struct QrFactor {
    qr: Matrix,
    rdiag: Vec<f64>,
}

/// Copy `a[k.., k]` (a stride-`n` walk) into the contiguous `out`.
fn gather_reflector(a: &Matrix, k: usize, out: &mut [f64]) {
    let n = a.cols();
    for (o, &x) in out.iter_mut().zip(a.data()[k * n + k..].iter().step_by(n)) {
        *o = x;
    }
}

/// Apply the reflector `v` (pivot `v[0] != 0`, acting on rows `k..`) to the
/// columns `cols` of the row-major, `n`-wide matrix behind `a`: per column
/// `j`, `s = -(Σ_i v_i·a_ij) / v_0` summed in ascending `i`, then
/// `a_ij += s·v_i`. Both passes walk rows, so every access is stride-1.
///
/// # Safety
/// Rows `k..k + v.len()` must be in bounds and nothing else may access
/// their columns `cols` during the call.
unsafe fn apply_reflector(
    v: &[f64],
    a: &SharedSlice<'_, f64>,
    n: usize,
    k: usize,
    cols: Range<usize>,
) {
    let row = |i: usize| a.slice_mut((k + i) * n + cols.start, cols.len());
    let mut w = vec![0.0; cols.len()];
    for (i, &vi) in v.iter().enumerate() {
        for (wj, &x) in w.iter_mut().zip(row(i).iter()) {
            *wj += vi * x;
        }
    }
    for wj in &mut w {
        *wj = -*wj / v[0];
    }
    for (i, &vi) in v.iter().enumerate() {
        for (x, &s) in row(i).iter_mut().zip(&w) {
            *x += s * vi;
        }
    }
}

impl QrFactor {
    /// Factor `a` (consumed) into QR form. Fails if `m < n`. Each panel's
    /// trailing update runs on the shared runtime under `opts.threads`;
    /// the factor is bit-identical at every thread count.
    pub fn factor(mut a: Matrix, opts: &ExecOpts) -> Result<QrFactor> {
        let (m, n) = a.shape();
        if m < n {
            return Err(Error::invalid(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        let mut rdiag = vec![0.0; n];
        // The current panel's reflectors, contiguous: reflector `k` is
        // `vs[(k - p0) * m..][..m - k]`, all zero when column `k` was.
        let mut vs = vec![0.0; PANEL.min(n) * m];
        for p0 in (0..n).step_by(PANEL) {
            let p1 = (p0 + PANEL).min(n);
            // Factor the panel's own columns, left to right.
            for k in p0..p1 {
                opts.budget.check("qr factor")?;
                let v = &mut vs[(k - p0) * m..][..m - k];
                gather_reflector(&a, k, v);
                // Column norm below (and including) the diagonal.
                let mut nrm = 0.0f64;
                for &x in v.iter() {
                    nrm = nrm.hypot(x);
                }
                if nrm == 0.0 {
                    continue;
                }
                if v[0] < 0.0 {
                    nrm = -nrm;
                }
                for x in v.iter_mut() {
                    *x /= nrm;
                }
                v[0] += 1.0;
                for (i, &x) in v.iter().enumerate() {
                    a.set(k + i, k, x);
                }
                let shared = SharedSlice::new(a.data_mut());
                // SAFETY: `a` is exclusively borrowed and nothing else runs.
                unsafe { apply_reflector(v, &shared, n, k, (k + 1)..p1) };
                rdiag[k] = -nrm;
            }
            // Then apply its reflectors, in order, to everything right of
            // it, one task per `PANEL`-wide slab.
            let trailing = n - p1;
            let work = (m - p0) * trailing * (p1 - p0);
            let threads = if work < PAR_MIN_WORK { 1 } else { opts.threads };
            let shared = SharedSlice::new(a.data_mut());
            // One contiguous run of slabs per thread, at least two: slabs
            // that are neighbours share a cache line on every row, so
            // tasks must not work on neighbouring slabs at the same time.
            let slabs = trailing.div_ceil(PANEL);
            let run = slabs.div_ceil(threads).max(2);
            runtime::parallel_for(threads, slabs.div_ceil(run), |t| {
                for slab in t * run..((t + 1) * run).min(slabs) {
                    let j0 = p1 + slab * PANEL;
                    let cols = j0..(j0 + PANEL).min(n);
                    for k in p0..p1 {
                        let v = &vs[(k - p0) * m..][..m - k];
                        if v[0] != 0.0 {
                            // SAFETY: this task owns columns `cols`,
                            // disjoint from every other task's and from
                            // the panel's own.
                            unsafe { apply_reflector(v, &shared, n, k, cols.clone()) };
                        }
                    }
                }
            });
        }
        Ok(QrFactor { qr: a, rdiag })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// True when `R` has no (near-)zero diagonal entry.
    pub fn is_full_rank(&self) -> bool {
        self.rdiag.iter().all(|d| d.abs() > 1e-12)
    }

    /// Solve the least-squares problem `min ||A x - b||` for one right-hand
    /// side. Returns the `n`-vector `x`.
    pub fn solve_ls(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(Error::invalid("rhs length mismatch"));
        }
        if !self.is_full_rank() {
            return Err(Error::Numerical("rank-deficient design matrix".into()));
        }
        let mut y = b.to_vec();
        // y <- Qᵀ b via stored reflectors, each gathered once.
        let mut v = vec![0.0; m];
        for k in 0..n {
            let v = &mut v[..m - k];
            gather_reflector(&self.qr, k, v);
            if v[0] == 0.0 {
                continue;
            }
            let mut s = 0.0;
            for (vi, yi) in v.iter().zip(&y[k..]) {
                s += vi * yi;
            }
            s = -s / v[0];
            for (vi, yi) in v.iter().zip(&mut y[k..]) {
                *yi += s * vi;
            }
        }
        // Back-substitute R x = y[0..n].
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut v = y[k];
            for j in (k + 1)..n {
                v -= self.qr.get(k, j) * x[j];
            }
            x[k] = v / self.rdiag[k];
        }
        Ok(x)
    }

    /// Materialize the upper-triangular `R` factor (`n x n`).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| {
            use std::cmp::Ordering;
            match i.cmp(&j) {
                Ordering::Less => self.qr.get(i, j),
                Ordering::Equal => self.rdiag[i],
                Ordering::Greater => 0.0,
            }
        })
    }

    /// Materialize the thin `Q` factor (`m x n`). Intended for tests and
    /// small problems; O(m·n²).
    pub fn q(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::zeros(m, n);
        let mut v = vec![0.0; m];
        for k in (0..n).rev() {
            q.set(k, k, 1.0);
            let v = &mut v[..m - k];
            gather_reflector(&self.qr, k, v);
            if v[0] != 0.0 {
                let shared = SharedSlice::new(q.data_mut());
                // SAFETY: `q` is exclusively borrowed and nothing else runs.
                unsafe { apply_reflector(v, &shared, n, k, k..n) };
            }
        }
        q
    }
}

/// Convenience wrapper: factor + solve for a single right-hand side.
pub fn least_squares(a: Matrix, b: &[f64], opts: &ExecOpts) -> Result<Vec<f64>> {
    QrFactor::factor(a, opts)?.solve_ls(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::norm2;
    use genbase_util::Pcg64;

    /// Residual 2-norm `||A x - b||`.
    fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = crate::matmul::matvec(a, x);
        norm2(&ax.iter().zip(b).map(|(p, q)| p - q).collect::<Vec<f64>>())
    }

    fn random_matrix(rng: &mut Pcg64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.normal())
    }

    /// The textbook column-by-column Householder loops (`a.get(i, j)` over
    /// `i`), kept as the reference the row-oriented code must equal bit
    /// for bit: `(qr, rdiag)`, then `Qᵀb` and the thin `Q` from them.
    fn factor_column_walk(mut a: Matrix) -> (Matrix, Vec<f64>) {
        let (m, n) = a.shape();
        let mut rdiag = vec![0.0; n];
        for k in 0..n {
            let mut nrm = 0.0f64;
            for i in k..m {
                nrm = nrm.hypot(a.get(i, k));
            }
            if nrm == 0.0 {
                continue;
            }
            if a.get(k, k) < 0.0 {
                nrm = -nrm;
            }
            for i in k..m {
                let v = a.get(i, k) / nrm;
                a.set(i, k, v);
            }
            a.set(k, k, a.get(k, k) + 1.0);
            for j in (k + 1)..n {
                let mut s = 0.0;
                for i in k..m {
                    s += a.get(i, k) * a.get(i, j);
                }
                s = -s / a.get(k, k);
                for i in k..m {
                    let v = a.get(i, j) + s * a.get(i, k);
                    a.set(i, j, v);
                }
            }
            rdiag[k] = -nrm;
        }
        (a, rdiag)
    }

    fn qt_b_column_walk(qr: &Matrix, b: &[f64]) -> Vec<f64> {
        let (m, n) = qr.shape();
        let mut y = b.to_vec();
        for k in 0..n {
            let mut s = 0.0;
            for i in k..m {
                s += qr.get(i, k) * y[i];
            }
            if qr.get(k, k) != 0.0 {
                s = -s / qr.get(k, k);
                for i in k..m {
                    y[i] += s * qr.get(i, k);
                }
            }
        }
        y
    }

    fn q_column_walk(qr: &Matrix) -> Matrix {
        let (m, n) = qr.shape();
        let mut q = Matrix::zeros(m, n);
        for k in (0..n).rev() {
            q.set(k, k, 1.0);
            if qr.get(k, k) == 0.0 {
                continue;
            }
            for j in k..n {
                let mut s = 0.0;
                for i in k..m {
                    s += qr.get(i, k) * q.get(i, j);
                }
                s = -s / qr.get(k, k);
                for i in k..m {
                    let v = q.get(i, j) + s * qr.get(i, k);
                    q.set(i, j, v);
                }
            }
        }
        q
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_oriented_equals_column_walk_exactly() {
        // Shapes on both sides of PAR_MIN_WORK, widths below, at and off a
        // multiple of PANEL, a zero column (the `nrm == 0` skip) and a
        // negative pivot.
        let mut rng = Pcg64::new(35);
        let mut cases = vec![
            random_matrix(&mut rng, 1, 1),
            random_matrix(&mut rng, 7, 7),
            random_matrix(&mut rng, 33, 9),
            random_matrix(&mut rng, 100, 64),
            random_matrix(&mut rng, 700, 260),
        ];
        let mut gap = random_matrix(&mut rng, 12, 5);
        for r in 0..12 {
            gap.set(r, 2, 0.0);
        }
        gap.set(0, 0, -3.0);
        cases.push(gap);
        for a in cases {
            let (m, n) = a.shape();
            let b: Vec<f64> = (0..m).map(|_| rng.normal()).collect();
            let (want_qr, want_rdiag) = factor_column_walk(a.clone());
            for threads in [1, 2, 3, 8] {
                let f = QrFactor::factor(a.clone(), &ExecOpts::with_threads(threads)).unwrap();
                assert_eq!(
                    bits(f.qr.data()),
                    bits(want_qr.data()),
                    "{m}x{n} t={threads}"
                );
                assert_eq!(bits(&f.rdiag), bits(&want_rdiag), "{m}x{n} t={threads}");
            }
            let f = QrFactor::factor(a, &ExecOpts::serial()).unwrap();
            assert_eq!(
                bits(f.q().data()),
                bits(q_column_walk(&want_qr).data()),
                "{m}x{n} q"
            );
            if f.is_full_rank() {
                // solve_ls = Qᵀb + the untouched back-substitution.
                let y = qt_b_column_walk(&want_qr, &b);
                let mut x = vec![0.0; n];
                for k in (0..n).rev() {
                    let mut v = y[k];
                    for j in (k + 1)..n {
                        v -= want_qr.get(k, j) * x[j];
                    }
                    x[k] = v / want_rdiag[k];
                }
                assert_eq!(bits(&f.solve_ls(&b).unwrap()), bits(&x), "{m}x{n} solve");
            }
        }
    }

    #[test]
    fn reconstructs_a() {
        let mut rng = Pcg64::new(31);
        let a = random_matrix(&mut rng, 20, 8);
        let f = QrFactor::factor(a.clone(), &ExecOpts::serial()).unwrap();
        let qr = crate::matmul::matmul(&f.q(), &f.r(), &ExecOpts::serial()).unwrap();
        assert!(qr.approx_eq(&a, 1e-10), "Q*R should reconstruct A");
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let mut rng = Pcg64::new(32);
        let a = random_matrix(&mut rng, 25, 10);
        let f = QrFactor::factor(a, &ExecOpts::serial()).unwrap();
        let q = f.q();
        let qtq = crate::matmul::matmul(&q.transpose(), &q, &ExecOpts::serial()).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(10), 1e-10));
    }

    #[test]
    fn solves_exact_system() {
        // Square, consistent system: solution should be exact.
        let a = Matrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0]).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = crate::matmul::matvec(&a, &x_true);
        let x = least_squares(a, &b, &ExecOpts::serial()).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn least_squares_minimizes_residual() {
        let mut rng = Pcg64::new(33);
        let a = random_matrix(&mut rng, 50, 5);
        let b: Vec<f64> = (0..50).map(|_| rng.normal()).collect();
        let x = least_squares(a.clone(), &b, &ExecOpts::serial()).unwrap();
        let base = residual_norm(&a, &x, &b);
        // Perturbing the solution in any coordinate direction must not reduce
        // the residual.
        for j in 0..5 {
            for delta in [-1e-3, 1e-3] {
                let mut xp = x.clone();
                xp[j] += delta;
                assert!(residual_norm(&a, &xp, &b) >= base - 1e-12);
            }
        }
    }

    #[test]
    fn normal_equations_satisfied() {
        let mut rng = Pcg64::new(34);
        let a = random_matrix(&mut rng, 40, 6);
        let b: Vec<f64> = (0..40).map(|_| rng.normal()).collect();
        let x = least_squares(a.clone(), &b, &ExecOpts::serial()).unwrap();
        // Aᵀ(Ax - b) = 0 characterizes the LS solution.
        let ax = crate::matmul::matvec(&a, &x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = crate::matmul::matvec_transposed(&a, &resid);
        for g in grad {
            assert!(g.abs() < 1e-9, "gradient component {g}");
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 5);
        assert!(QrFactor::factor(a, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns.
        let a = Matrix::from_fn(10, 3, |r, c| match c {
            0 => r as f64,
            1 => r as f64,
            _ => 1.0,
        });
        let f = QrFactor::factor(a, &ExecOpts::serial()).unwrap();
        assert!(!f.is_full_rank());
        assert!(f.solve_ls(&[1.0; 10]).is_err());
    }

    #[test]
    fn rhs_length_validated() {
        let a = Matrix::identity(3);
        let f = QrFactor::factor(a, &ExecOpts::serial()).unwrap();
        assert!(f.solve_ls(&[1.0, 2.0]).is_err());
    }
}
