//! Dense row-major matrix.

use genbase_util::{Budget, Error, Result};

/// Dense `rows x cols` matrix of `f64`, stored row-major in one contiguous
/// allocation (the layout every engine in the benchmark converges on before
/// running analytics).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Zero-filled matrix, charging the allocation against `budget` first.
    /// This is how engines model R's allocation limits.
    pub fn zeros_budgeted(rows: usize, cols: usize, budget: &Budget) -> Result<Matrix> {
        let cells = (rows as u64) * (cols as u64);
        budget.alloc(cells * 8, cells)?;
        Ok(Self::zeros(rows, cols))
    }

    /// Build from an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(Error::invalid(format!(
                "buffer of {} elements cannot be a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build by evaluating `f(row, col)` for each cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read a cell.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write a cell.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Whole backing buffer, row-major.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing buffer, row-major.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// New matrix keeping only the given row indices (in the given order).
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// New matrix keeping only the given column indices (in the given order).
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in idx {
                data.push(row[c]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: idx.len(),
            data,
        }
    }

    /// Apply `f` to every cell in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute element-wise difference to another matrix of the same
    /// shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when all cells differ by at most `tol` from `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Estimated heap bytes of the backing buffer.
    pub fn heap_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // 4-way unrolled accumulation: measurably faster than a naive fold and
    // deterministic for a fixed input length. Walked as `chunks_exact`, with
    // no index to bounds-check, the four accumulators become one vector
    // register; indexed, the loop stayed scalar (a 385-long dot took 3.4×
    // as long, same bits). `GramOp`'s `block_dots` repeats this association
    // and `parallel_kernels::fused_gram_op_is_bit_identical_to_two_matvecs`
    // holds the two to the same bits.
    let mut acc = [0.0f64; 4];
    let body = a.len() / 4 * 4;
    let (a_body, a_tail) = a.split_at(body);
    let (b_body, b_tail) = b[..a.len()].split_at(body);
    for (x, y) in a_body.chunks_exact(4).zip(b_body.chunks_exact(4)) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a vector in place.
#[inline]
pub fn scale(v: &mut [f64], alpha: f64) {
    for x in v {
        *x *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.col(2), vec![0.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(37, 53, |r, c| (r * 100 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (53, 37));
        for r in 0..37 {
            for c in 0..53 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let rsel = m.select_rows(&[3, 1]);
        assert_eq!(rsel.row(0), m.row(3));
        assert_eq!(rsel.row(1), m.row(1));
        let csel = m.select_cols(&[2, 0]);
        assert_eq!(csel.get(1, 0), m.get(1, 2));
        assert_eq!(csel.get(1, 1), m.get(1, 0));
    }

    #[test]
    fn norms_and_diffs() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        let n = Matrix::from_vec(1, 2, vec![3.0, 4.5]).unwrap();
        assert!((m.max_abs_diff(&n) - 0.5).abs() < 1e-12);
        assert!(m.approx_eq(&n, 0.5));
        assert!(!m.approx_eq(&n, 0.4));
    }

    #[test]
    fn budgeted_alloc_fails_when_too_big() {
        let b = Budget::new(None, 1024, u64::MAX);
        assert!(Matrix::zeros_budgeted(4, 4, &b).is_ok()); // 128 bytes
        assert!(Matrix::zeros_budgeted(100, 100, &b).is_err()); // 80 KB
    }

    #[test]
    fn vector_helpers() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = [1.0, 1.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, [21.0, 41.0]);
        let mut v = [2.0, 4.0];
        scale(&mut v, 0.5);
        assert_eq!(v, [1.0, 2.0]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.get(1, 1), 4.0);
    }
}
