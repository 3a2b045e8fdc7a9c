//! Dense chunked 2-D array.

use genbase_linalg::Matrix;
use genbase_util::{runtime, Budget, Error, Result, SharedSlice};

/// Rows per task in the parallel per-chunk scans. Fixed (not derived from
/// the thread count) so partial-sum reduction order — and therefore FP
/// results — are identical at every thread count.
const ROW_TASK: usize = 512;

/// Default chunk edge in cells. SciDB favors chunks of ~1M cells; 512x512
/// (256K cells, 2 MB of doubles) keeps edge effects small at benchmark scale
/// while preserving the chunked execution profile.
pub const DEFAULT_CHUNK: usize = 512;

/// A dense `rows x cols` array of `f64` stored as a grid of row-major
/// chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct Array2D {
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    chunk_cols: usize,
    /// Chunk grid dimensions.
    grid_rows: usize,
    grid_cols: usize,
    /// Chunks in row-major grid order; each chunk row-major within.
    chunks: Vec<Vec<f64>>,
}

/// Borrowed view of one chunk with its coordinate span.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRef<'a> {
    /// First global row covered by the chunk.
    pub row_start: usize,
    /// First global column covered by the chunk.
    pub col_start: usize,
    /// Rows in this chunk.
    pub rows: usize,
    /// Columns in this chunk.
    pub cols: usize,
    /// Row-major chunk data.
    pub data: &'a [f64],
}

impl Array2D {
    /// Zero-filled array with the given chunk shape.
    pub fn zeros_chunked(
        rows: usize,
        cols: usize,
        chunk_rows: usize,
        chunk_cols: usize,
    ) -> Array2D {
        assert!(
            chunk_rows > 0 && chunk_cols > 0,
            "chunk dims must be positive"
        );
        let grid_rows = rows.div_ceil(chunk_rows).max(1);
        let grid_cols = cols.div_ceil(chunk_cols).max(1);
        let mut chunks = Vec::with_capacity(grid_rows * grid_cols);
        for gr in 0..grid_rows {
            for gc in 0..grid_cols {
                let cr = chunk_span(rows, gr, chunk_rows);
                let cc = chunk_span(cols, gc, chunk_cols);
                chunks.push(vec![0.0; cr * cc]);
            }
        }
        Array2D {
            rows,
            cols,
            chunk_rows,
            chunk_cols,
            grid_rows,
            grid_cols,
            chunks,
        }
    }

    /// Zero-filled array with the default chunk shape.
    pub fn zeros(rows: usize, cols: usize) -> Array2D {
        Self::zeros_chunked(rows, cols, DEFAULT_CHUNK, DEFAULT_CHUNK)
    }

    /// Ingest a dense matrix (chunking it), charging `budget`.
    pub fn from_matrix(m: &Matrix, budget: &Budget) -> Result<Array2D> {
        Self::from_matrix_chunked(m, DEFAULT_CHUNK, DEFAULT_CHUNK, budget)
    }

    /// Ingest with an explicit chunk shape.
    pub fn from_matrix_chunked(
        m: &Matrix,
        chunk_rows: usize,
        chunk_cols: usize,
        budget: &Budget,
    ) -> Result<Array2D> {
        let cells = m.len() as u64;
        budget.alloc(cells * 8, cells)?;
        let mut a = Self::zeros_chunked(m.rows(), m.cols(), chunk_rows, chunk_cols);
        for r in 0..m.rows() {
            a.write_row(r, m.row(r));
        }
        budget.free(cells * 8);
        Ok(a)
    }

    /// Array shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read one cell.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        let (gr, ir) = (r / self.chunk_rows, r % self.chunk_rows);
        let (gc, ic) = (c / self.chunk_cols, c % self.chunk_cols);
        let cc = chunk_span(self.cols, gc, self.chunk_cols);
        self.chunks[gr * self.grid_cols + gc][ir * cc + ic]
    }

    /// Write one cell.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        let (gr, ir) = (r / self.chunk_rows, r % self.chunk_rows);
        let (gc, ic) = (c / self.chunk_cols, c % self.chunk_cols);
        let cc = chunk_span(self.cols, gc, self.chunk_cols);
        self.chunks[gr * self.grid_cols + gc][ir * cc + ic] = v;
    }

    /// Overwrite global row `r` from a dense slice.
    pub fn write_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "row width mismatch");
        let (gr, ir) = (r / self.chunk_rows, r % self.chunk_rows);
        for gc in 0..self.grid_cols {
            let cc = chunk_span(self.cols, gc, self.chunk_cols);
            let col0 = gc * self.chunk_cols;
            let chunk = &mut self.chunks[gr * self.grid_cols + gc];
            chunk[ir * cc..(ir + 1) * cc].copy_from_slice(&values[col0..col0 + cc]);
        }
    }

    /// Copy global row `r` into a dense buffer.
    pub fn read_row(&self, r: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "row width mismatch");
        let (gr, ir) = (r / self.chunk_rows, r % self.chunk_rows);
        for gc in 0..self.grid_cols {
            let cc = chunk_span(self.cols, gc, self.chunk_cols);
            let col0 = gc * self.chunk_cols;
            let chunk = &self.chunks[gr * self.grid_cols + gc];
            out[col0..col0 + cc].copy_from_slice(&chunk[ir * cc..(ir + 1) * cc]);
        }
    }

    /// Iterate chunk views (row-major grid order).
    pub fn chunk_refs(&self) -> impl Iterator<Item = ChunkRef<'_>> {
        (0..self.grid_rows).flat_map(move |gr| {
            (0..self.grid_cols).map(move |gc| ChunkRef {
                row_start: gr * self.chunk_rows,
                col_start: gc * self.chunk_cols,
                rows: chunk_span(self.rows, gr, self.chunk_rows),
                cols: chunk_span(self.cols, gc, self.chunk_cols),
                data: &self.chunks[gr * self.grid_cols + gc],
            })
        })
    }

    /// Validate global row indices.
    fn check_rows(&self, rows: &[usize]) -> Result<()> {
        for &r in rows {
            if r >= self.rows {
                return Err(Error::invalid(format!("row {r} out of range")));
            }
        }
        Ok(())
    }

    /// Validate global column indices.
    fn check_cols(&self, cols: &[usize]) -> Result<()> {
        for &c in cols {
            if c >= self.cols {
                return Err(Error::invalid(format!("col {c} out of range")));
            }
        }
        Ok(())
    }

    /// Dimension subsetting: keep the given global rows and columns (in the
    /// given order). This is the array engine's join — coordinate lists from
    /// metadata filters select directly along the dimensions, no hash table,
    /// no restructuring.
    pub fn select(&self, rows: &[usize], cols: &[usize], budget: &Budget) -> Result<Array2D> {
        self.check_rows(rows)?;
        self.check_cols(cols)?;
        let cells = (rows.len() * cols.len()) as u64;
        budget.alloc(cells * 8, cells)?;
        let mut out = Self::zeros_chunked(rows.len(), cols.len(), self.chunk_rows, self.chunk_cols);
        let mut src_row = vec![0.0; self.cols];
        let mut dst_row = vec![0.0; cols.len()];
        for (ri, &r) in rows.iter().enumerate() {
            if ri % 512 == 0 {
                budget.check("array select")?;
            }
            self.read_row(r, &mut src_row);
            for (ci, &c) in cols.iter().enumerate() {
                dst_row[ci] = src_row[c];
            }
            out.write_row(ri, &dst_row);
        }
        budget.free(cells * 8);
        Ok(out)
    }

    /// Materialize as a dense matrix (a straight chunk-to-row gather — the
    /// cheap "restructure" that gives the array engine its edge).
    pub fn to_matrix(&self, budget: &Budget) -> Result<Matrix> {
        let mut m = Matrix::zeros_budgeted(self.rows, self.cols, budget)?;
        for chunk in self.chunk_refs() {
            for cr in 0..chunk.rows {
                let global_r = chunk.row_start + cr;
                let dst = &mut m.row_mut(global_r)[chunk.col_start..chunk.col_start + chunk.cols];
                dst.copy_from_slice(&chunk.data[cr * chunk.cols..(cr + 1) * chunk.cols]);
            }
        }
        budget.free(self.rows as u64 * self.cols as u64 * 8);
        Ok(m)
    }

    /// Fused dimension-subset + materialize: the per-chunk gather loop of
    /// [`select`](Self::select) followed by [`to_matrix`](Self::to_matrix),
    /// parallelized over destination row blocks on the shared runtime.
    /// This is the engines' hot select→dense path; results are identical to
    /// the serial pair at every thread count (each output row is written by
    /// exactly one task).
    pub fn select_to_matrix_par(
        &self,
        rows: &[usize],
        cols: &[usize],
        threads: usize,
        budget: &Budget,
    ) -> Result<Matrix> {
        self.check_rows(rows)?;
        self.check_cols(cols)?;
        let mut m = Matrix::zeros_budgeted(rows.len(), cols.len(), budget)?;
        let width = cols.len();
        let tasks = rows.len().div_ceil(ROW_TASK);
        let shared = SharedSlice::new(m.data_mut());
        runtime::try_parallel_for(threads, tasks, |t| {
            let r0 = t * ROW_TASK;
            let r1 = (r0 + ROW_TASK).min(rows.len());
            let mut src_row = vec![0.0; self.cols];
            budget.check("array select")?;
            for ri in r0..r1 {
                self.read_row(rows[ri], &mut src_row);
                // SAFETY: each task owns the disjoint output rows r0..r1.
                let dst = unsafe { shared.slice_mut(ri * width, width) };
                for (d, &c) in dst.iter_mut().zip(cols) {
                    *d = src_row[c];
                }
            }
            Ok(())
        })?;
        budget.free(rows.len() as u64 * cols.len() as u64 * 8);
        Ok(m)
    }

    /// Per-column sums over selected rows, parallelized over fixed row
    /// blocks with the block partials reduced in block order (thread-count
    /// invariant). Parallel counterpart of
    /// [`column_sums_over_rows`](Self::column_sums_over_rows).
    pub fn column_sums_over_rows_par(
        &self,
        rows: &[usize],
        threads: usize,
        budget: &Budget,
    ) -> Result<Vec<f64>> {
        self.check_rows(rows)?;
        let tasks = rows.len().div_ceil(ROW_TASK);
        let partials = runtime::parallel_map(threads, tasks, |t| -> Result<Vec<f64>> {
            let r0 = t * ROW_TASK;
            let r1 = (r0 + ROW_TASK).min(rows.len());
            budget.check("array aggregate")?;
            let mut sums = vec![0.0; self.cols];
            let mut row_buf = vec![0.0; self.cols];
            for &r in &rows[r0..r1] {
                self.read_row(r, &mut row_buf);
                for (s, v) in sums.iter_mut().zip(&row_buf) {
                    *s += v;
                }
            }
            Ok(sums)
        });
        let mut sums = vec![0.0; self.cols];
        for part in partials {
            for (s, p) in sums.iter_mut().zip(&part?) {
                *s += p;
            }
        }
        Ok(sums)
    }

    /// Per-column sums over a set of selected rows (used by the enrichment
    /// query's ranking aggregate), computed chunk-wise.
    pub fn column_sums_over_rows(&self, rows: &[usize], budget: &Budget) -> Result<Vec<f64>> {
        self.check_rows(rows)?;
        let mut sums = vec![0.0; self.cols];
        let mut row_buf = vec![0.0; self.cols];
        for (i, &r) in rows.iter().enumerate() {
            if i % 1024 == 0 {
                budget.check("array aggregate")?;
            }
            self.read_row(r, &mut row_buf);
            for (s, v) in sums.iter_mut().zip(&row_buf) {
                *s += v;
            }
        }
        Ok(sums)
    }

    /// Total heap bytes of chunk storage.
    pub fn heap_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| (c.len() * 8) as u64).sum()
    }
}

fn chunk_span(total: usize, grid_idx: usize, chunk: usize) -> usize {
    let start = grid_idx * chunk;
    chunk.min(total.saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_util::Pcg64;

    fn random_matrix(rng: &mut Pcg64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.normal())
    }

    #[test]
    fn round_trip_matrix() {
        let mut rng = Pcg64::new(121);
        let m = random_matrix(&mut rng, 97, 53);
        let a = Array2D::from_matrix_chunked(&m, 16, 16, &Budget::unlimited()).unwrap();
        assert_eq!(a.shape(), (97, 53));
        assert_eq!(a.chunk_refs().count(), 7 * 4);
        let back = a.to_matrix(&Budget::unlimited()).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn get_set_cells() {
        let mut a = Array2D::zeros_chunked(40, 40, 16, 16);
        a.set(0, 0, 1.0);
        a.set(39, 39, 2.0);
        a.set(17, 20, 3.0); // interior chunk boundary crossing
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(39, 39), 2.0);
        assert_eq!(a.get(17, 20), 3.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn chunk_refs_tile_exactly() {
        let a = Array2D::zeros_chunked(100, 70, 32, 32);
        let total: usize = a.chunk_refs().map(|c| c.rows * c.cols).sum();
        assert_eq!(total, 100 * 70);
        for c in a.chunk_refs() {
            assert_eq!(c.data.len(), c.rows * c.cols);
            assert!(c.row_start + c.rows <= 100);
            assert!(c.col_start + c.cols <= 70);
        }
    }

    #[test]
    fn select_is_dimension_join() {
        let mut rng = Pcg64::new(122);
        let m = random_matrix(&mut rng, 30, 20);
        let a = Array2D::from_matrix_chunked(&m, 8, 8, &Budget::unlimited()).unwrap();
        let rows = [3usize, 7, 19, 28];
        let cols = [0usize, 5, 19];
        let sub = a.select(&rows, &cols, &Budget::unlimited()).unwrap();
        assert_eq!(sub.shape(), (4, 3));
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                assert_eq!(sub.get(ri, ci), m.get(r, c));
            }
        }
        assert!(a.select(&[99], &[0], &Budget::unlimited()).is_err());
        assert!(a.select(&[0], &[99], &Budget::unlimited()).is_err());
    }

    #[test]
    fn column_sums_match_dense() {
        let mut rng = Pcg64::new(124);
        let m = random_matrix(&mut rng, 50, 12);
        let a = Array2D::from_matrix_chunked(&m, 16, 4, &Budget::unlimited()).unwrap();
        let rows: Vec<usize> = vec![1, 4, 9, 16, 25, 36, 49];
        let sums = a
            .column_sums_over_rows(&rows, &Budget::unlimited())
            .unwrap();
        for c in 0..12 {
            let expect: f64 = rows.iter().map(|&r| m.get(r, c)).sum();
            assert!((sums[c] - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn fused_select_matches_serial_pair() {
        let mut rng = Pcg64::new(125);
        let m = random_matrix(&mut rng, 1100, 40);
        let a = Array2D::from_matrix_chunked(&m, 64, 16, &Budget::unlimited()).unwrap();
        let rows: Vec<usize> = (0..1100).step_by(2).collect();
        let cols: Vec<usize> = (0..40).step_by(3).collect();
        let serial = a
            .select(&rows, &cols, &Budget::unlimited())
            .unwrap()
            .to_matrix(&Budget::unlimited())
            .unwrap();
        for threads in [1, 2, 8] {
            let fused = a
                .select_to_matrix_par(&rows, &cols, threads, &Budget::unlimited())
                .unwrap();
            assert!(fused.approx_eq(&serial, 0.0), "threads={threads}");
        }
        assert!(a
            .select_to_matrix_par(&[9999], &[0], 2, &Budget::unlimited())
            .is_err());
    }

    #[test]
    fn parallel_column_sums_thread_invariant() {
        let mut rng = Pcg64::new(126);
        let m = random_matrix(&mut rng, 1500, 9);
        let a = Array2D::from_matrix_chunked(&m, 128, 4, &Budget::unlimited()).unwrap();
        let rows: Vec<usize> = (0..1500).step_by(2).collect();
        let reference = a
            .column_sums_over_rows_par(&rows, 1, &Budget::unlimited())
            .unwrap();
        for threads in [2, 8] {
            let par = a
                .column_sums_over_rows_par(&rows, threads, &Budget::unlimited())
                .unwrap();
            assert_eq!(par, reference, "threads={threads}");
        }
        // Serial chunk-free sum agrees within rounding.
        let serial = a
            .column_sums_over_rows(&rows, &Budget::unlimited())
            .unwrap();
        for (p, s) in reference.iter().zip(&serial) {
            assert!((p - s).abs() < 1e-9);
        }
    }

    #[test]
    fn memory_budget_enforced_on_ingest() {
        let m = Matrix::zeros(100, 100);
        let tight = Budget::new(None, 1000, u64::MAX);
        assert!(Array2D::from_matrix(&m, &tight).is_err());
    }

    #[test]
    fn ragged_edge_chunks() {
        // 5x5 with 4x4 chunks: edge chunks are 4x1, 1x4, 1x1.
        let m = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let a = Array2D::from_matrix_chunked(&m, 4, 4, &Budget::unlimited()).unwrap();
        assert_eq!(a.chunk_refs().count(), 4);
        assert_eq!(a.get(4, 4), 24.0);
        assert_eq!(a.to_matrix(&Budget::unlimited()).unwrap(), m);
    }

    #[test]
    fn heap_bytes_counts_cells() {
        let a = Array2D::zeros_chunked(10, 10, 4, 4);
        assert_eq!(a.heap_bytes(), 100 * 8);
    }
}
