//! Mean squared residue (MSR) computations over a row/column submatrix.
//!
//! The residue of cell (i, j) in submatrix (I, J) is
//! `r_ij = a_ij − a_iJ − a_Ij + a_IJ` where `a_iJ` is the row mean over J,
//! `a_Ij` the column mean over I, and `a_IJ` the overall mean. The MSR
//! `H(I, J)` is the mean of `r_ij²`; a perfect (shifted) pattern has H = 0.

use genbase_linalg::Matrix;

/// Independent partial sums one row is reduced through. The split is by
/// position alone (`element j` feeds lane `j % LANES`; lanes fold pairwise
/// in a fixed tree), so a row's sum depends on its cells and their order
/// and on nothing else, and the stride-1 loops vectorise.
const LANES: usize = 16;

/// Fold the lanes pairwise: `l[i] + l[i + h]` for `h = 8, 4, 2, 1`.
#[inline]
fn fold_lanes(mut lanes: [f64; LANES]) -> f64 {
    let mut half = LANES / 2;
    while half > 0 {
        for i in 0..half {
            lanes[i] += lanes[i + half];
        }
        half /= 2;
    }
    lanes[0]
}

/// Lane-split sum of `x`.
#[inline]
fn lane_sum(x: &[f64]) -> f64 {
    let mut lanes = [0.0; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            lanes[l] += chunk[l];
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane += v;
    }
    fold_lanes(lanes)
}

/// Means and residues of a submatrix selection, recomputed after each
/// deletion/addition round of Cheng–Church.
#[derive(Debug, Clone)]
pub struct SubmatrixStats {
    /// Row means over the selected columns, indexed by selected-row position.
    pub row_means: Vec<f64>,
    /// Column means over the selected rows, indexed by selected-col position.
    pub col_means: Vec<f64>,
    /// Overall mean of the selection.
    pub overall_mean: f64,
    /// Mean squared residue of the selection.
    pub msr: f64,
    /// Per-row mean squared residue d(i).
    pub row_residues: Vec<f64>,
    /// Per-column mean squared residue d(j).
    pub col_residues: Vec<f64>,
}

/// The residue engine: a compacted, contiguous `|I| x |J|` copy of the
/// selection plus its always-current [`SubmatrixStats`]. Cheng–Church
/// deletes rows and columns from it in place, and each deletion recomputes
/// only what it changed: a row deletion re-sums the columns (every other
/// row's sum stands), a column deletion re-sums each row as it closes it up
/// (every other column's mean stands). The residue pass then runs over the
/// block. Every loop is stride-1 over a block that shrinks with the
/// selection (and soon fits in cache), and every statistic has the bits a
/// fresh [`ResidueBlock::gather`] of the same selection would give.
pub(crate) struct ResidueBlock {
    /// `nr * nc` live cells, row-major with stride `nc`.
    cells: Vec<f64>,
    nr: usize,
    nc: usize,
    stats: SubmatrixStats,
    /// Lane sum of each live row; the row means and the overall mean are
    /// derived from these.
    row_sums: Vec<f64>,
    /// One row of squared residues, between the two loops that read it.
    squares: Vec<f64>,
}

impl ResidueBlock {
    /// Copy the selection `(rows, cols)` of `data` and compute its stats.
    pub(crate) fn gather(data: &Matrix, rows: &[usize], cols: &[usize]) -> ResidueBlock {
        let mut block = ResidueBlock {
            cells: Vec::new(),
            nr: 0,
            nc: 0,
            stats: SubmatrixStats {
                row_means: Vec::new(),
                col_means: Vec::new(),
                overall_mean: 0.0,
                msr: 0.0,
                row_residues: Vec::new(),
                col_residues: Vec::new(),
            },
            row_sums: Vec::new(),
            squares: Vec::new(),
        };
        block.regather(data, rows, cols);
        block
    }

    /// Replace the block with the selection `(rows, cols)` of `data`,
    /// reusing its buffers (a narrower selection allocates nothing).
    pub(crate) fn regather(&mut self, data: &Matrix, rows: &[usize], cols: &[usize]) {
        let (nr, nc) = (rows.len(), cols.len());
        assert!(nr > 0 && nc > 0, "empty selection");
        self.cells.clear();
        self.cells.reserve(nr * nc);
        for &r in rows {
            let row = data.row(r);
            self.cells.extend(cols.iter().map(|&c| row[c]));
        }
        (self.nr, self.nc) = (nr, nc);
        self.row_sums.clear();
        self.row_sums
            .extend(self.cells.chunks_exact(nc).map(lane_sum));
        self.sum_cols();
        self.finish();
    }

    /// Statistics of the current block.
    pub(crate) fn stats(&self) -> &SubmatrixStats {
        &self.stats
    }

    /// Drop the row at position `ri` and recompute the stats. The other
    /// rows keep their cells, so their sums stand; the column means are
    /// re-summed over the rows that are left.
    pub(crate) fn delete_row(&mut self, ri: usize) {
        let nc = self.nc;
        self.cells.copy_within((ri + 1) * nc..self.nr * nc, ri * nc);
        self.nr -= 1;
        self.cells.truncate(self.nr * nc);
        self.row_sums.remove(ri);
        self.sum_cols();
        self.finish();
    }

    /// Drop the column at position `ci`, closing every row up so the block
    /// stays contiguous, and recompute the stats. Each row is re-summed as
    /// soon as it is closed up; the other columns keep their cells in the
    /// same row order, so their means stand.
    pub(crate) fn delete_col(&mut self, ci: usize) {
        let (nr, nc) = (self.nr, self.nc);
        // Cells before (0, ci) stay put; each later run of `nc - 1` kept
        // cells moves left by one more than the run before it. Run `i` ends
        // new row `i`, whose head the run before it already moved.
        for i in 0..nr {
            let src = i * nc + ci + 1;
            let len = if i + 1 < nr { nc - 1 } else { nc - 1 - ci };
            self.cells.copy_within(src..src + len, src - 1 - i);
            self.row_sums[i] = lane_sum(&self.cells[i * (nc - 1)..(i + 1) * (nc - 1)]);
        }
        self.nc -= 1;
        self.cells.truncate(nr * self.nc);
        self.stats.col_means.remove(ci);
        self.finish();
    }

    /// Column means of the current block: each column summed row by row.
    fn sum_cols(&mut self) {
        let means = &mut self.stats.col_means;
        means.clear();
        means.resize(self.nc, 0.0);
        for row in self.cells.chunks_exact(self.nc) {
            for (c, &a) in means.iter_mut().zip(row) {
                *c += a;
            }
        }
        for m in means.iter_mut() {
            *m /= self.nr as f64;
        }
    }

    /// Row means and the overall mean from the row sums (in row order),
    /// then the residue pass, given current column means.
    fn finish(&mut self) {
        let (nr, nc) = (self.nr, self.nc);
        let st = &mut self.stats;

        st.row_means.clear();
        st.row_means
            .extend(self.row_sums.iter().map(|&sum| sum / nc as f64));
        let mut overall = 0.0;
        for &sum in &self.row_sums {
            overall += sum;
        }
        overall /= (nr * nc) as f64;

        st.row_residues.resize(nr, 0.0);
        st.col_residues.resize(nc, 0.0);
        st.col_residues.fill(0.0);
        self.squares.resize(nc, 0.0);
        let mut msr = 0.0;
        let rows = self.cells.chunks_exact(nc);
        for ((row, &rm), d) in rows.zip(&st.row_means).zip(&mut st.row_residues) {
            let cells = row.iter().zip(&st.col_means);
            for ((sq, c), (&a, &cm)) in self.squares.iter_mut().zip(&mut st.col_residues).zip(cells)
            {
                let resid = a - rm - cm + overall;
                *sq = resid * resid;
                *c += *sq;
            }
            let sum = lane_sum(&self.squares);
            msr += sum;
            *d = sum / nc as f64;
        }
        for d in &mut st.col_residues {
            *d /= nr as f64;
        }
        st.overall_mean = overall;
        st.msr = msr / (nr * nc) as f64;
    }
}

impl SubmatrixStats {
    /// Compute all statistics for the selection `(rows, cols)` of `data`.
    pub fn compute(data: &Matrix, rows: &[usize], cols: &[usize]) -> SubmatrixStats {
        ResidueBlock::gather(data, rows, cols).stats
    }

    /// Mean squared residue a *candidate* row `r` (not currently selected)
    /// would contribute, measured against the current selection's means.
    /// When `inverted` is true the row is evaluated as its mirror image
    /// (Cheng–Church node addition step for co-regulated but anti-correlated
    /// rows).
    pub fn candidate_row_residue(
        &self,
        data: &Matrix,
        row: usize,
        cols: &[usize],
        inverted: bool,
    ) -> f64 {
        let nc = cols.len();
        let vals = data.row(row);
        let row_mean: f64 = cols.iter().map(|&c| vals[c]).sum::<f64>() / nc as f64;
        let mut acc = 0.0;
        for (ci, &c) in cols.iter().enumerate() {
            let resid = if inverted {
                // Mirror image: -a_ij + a_iJ - a_Ij + a_IJ.
                -vals[c] + row_mean - self.col_means[ci] + self.overall_mean
            } else {
                vals[c] - row_mean - self.col_means[ci] + self.overall_mean
            };
            acc += resid * resid;
        }
        acc / nc as f64
    }

    /// Mean squared residue a candidate column would contribute.
    pub fn candidate_col_residue(&self, data: &Matrix, col: usize, rows: &[usize]) -> f64 {
        let nr = rows.len();
        let col_mean: f64 = rows.iter().map(|&r| data.get(r, col)).sum::<f64>() / nr as f64;
        let mut acc = 0.0;
        for (ri, &r) in rows.iter().enumerate() {
            let resid = data.get(r, col) - self.row_means[ri] - col_mean + self.overall_mean;
            acc += resid * resid;
        }
        acc / nr as f64
    }
}

/// Convenience wrapper returning just `H(I, J)`.
pub fn mean_squared_residue(data: &Matrix, rows: &[usize], cols: &[usize]) -> f64 {
    SubmatrixStats::compute(data, rows, cols).msr
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use genbase_util::Pcg64;

    /// The textbook two-pass computation, straight from the definitions
    /// with plain left-to-right sums: the reference the engine is held to.
    pub(crate) fn reference_stats(data: &Matrix, rows: &[usize], cols: &[usize]) -> SubmatrixStats {
        let (nr, nc) = (rows.len(), cols.len());
        let mut row_means = vec![0.0; nr];
        let mut col_means = vec![0.0; nc];
        let mut overall = 0.0;
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                let v = data.get(r, c);
                row_means[ri] += v;
                col_means[ci] += v;
                overall += v;
            }
        }
        row_means.iter_mut().for_each(|m| *m /= nc as f64);
        col_means.iter_mut().for_each(|m| *m /= nr as f64);
        overall /= (nr * nc) as f64;
        let mut row_residues = vec![0.0; nr];
        let mut col_residues = vec![0.0; nc];
        let mut msr = 0.0;
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                let resid = data.get(r, c) - row_means[ri] - col_means[ci] + overall;
                row_residues[ri] += resid * resid;
                col_residues[ci] += resid * resid;
                msr += resid * resid;
            }
        }
        row_residues.iter_mut().for_each(|d| *d /= nc as f64);
        col_residues.iter_mut().for_each(|d| *d /= nr as f64);
        SubmatrixStats {
            row_means,
            col_means,
            overall_mean: overall,
            msr: msr / (nr * nc) as f64,
            row_residues,
            col_residues,
        }
    }

    /// Every field within `1e-12` relative: means relative to the data's
    /// magnitude `scale` (a mean may cancel to nothing), residues relative
    /// to themselves down to the square of the means' tolerance.
    fn assert_close(got: &SubmatrixStats, want: &SubmatrixStats, scale: f64, what: &str) {
        let mean = |a: f64, b: f64| (a - b).abs() <= 1e-12 * scale;
        let resid = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.max(b) + 1e-24 * scale * scale;
        let all = |a: &[f64], b: &[f64], close: &dyn Fn(f64, f64) -> bool| {
            a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y))
        };
        assert!(
            all(&got.row_means, &want.row_means, &mean),
            "{what}: row_means"
        );
        assert!(
            all(&got.col_means, &want.col_means, &mean),
            "{what}: col_means"
        );
        assert!(
            mean(got.overall_mean, want.overall_mean),
            "{what}: overall_mean"
        );
        assert!(resid(got.msr, want.msr), "{what}: msr");
        assert!(
            all(&got.row_residues, &want.row_residues, &resid),
            "{what}: row_residues"
        );
        assert!(
            all(&got.col_residues, &want.col_residues, &resid),
            "{what}: col_residues"
        );
    }

    /// The engine's full sweep as it ran before deletions reused sums: one
    /// pass for the column sums, the row lane sums and the overall sum, a
    /// second for the residues. A fresh gather must match it bit for bit.
    fn full_sweep_stats(data: &Matrix, rows: &[usize], cols: &[usize]) -> SubmatrixStats {
        let (nr, nc) = (rows.len(), cols.len());
        let cells: Vec<f64> = rows
            .iter()
            .flat_map(|&r| cols.iter().map(move |&c| data.get(r, c)))
            .collect();
        let mut row_means = vec![0.0; nr];
        let mut col_means = vec![0.0; nc];
        let mut overall = 0.0;
        for (row, mean) in cells.chunks_exact(nc).zip(&mut row_means) {
            for (c, &a) in col_means.iter_mut().zip(row) {
                *c += a;
            }
            let sum = lane_sum(row);
            overall += sum;
            *mean = sum / nc as f64;
        }
        col_means.iter_mut().for_each(|m| *m /= nr as f64);
        overall /= (nr * nc) as f64;
        let mut row_residues = vec![0.0; nr];
        let mut col_residues = vec![0.0; nc];
        let mut squares = vec![0.0; nc];
        let mut msr = 0.0;
        for ((row, &rm), d) in cells
            .chunks_exact(nc)
            .zip(&row_means)
            .zip(&mut row_residues)
        {
            for (ci, &a) in row.iter().enumerate() {
                let resid = a - rm - col_means[ci] + overall;
                squares[ci] = resid * resid;
                col_residues[ci] += squares[ci];
            }
            let sum = lane_sum(&squares);
            msr += sum;
            *d = sum / nc as f64;
        }
        col_residues.iter_mut().for_each(|d| *d /= nr as f64);
        SubmatrixStats {
            row_means,
            col_means,
            overall_mean: overall,
            msr: msr / (nr * nc) as f64,
            row_residues,
            col_residues,
        }
    }

    /// Every field of `got` has exactly the bits of the same field of `want`.
    fn assert_same_bits(got: &SubmatrixStats, want: &SubmatrixStats, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fields = |s: &SubmatrixStats| {
            [
                ("row_means", bits(&s.row_means)),
                ("col_means", bits(&s.col_means)),
                ("overall_mean", bits(&[s.overall_mean])),
                ("msr", bits(&[s.msr])),
                ("row_residues", bits(&s.row_residues)),
                ("col_residues", bits(&s.col_residues)),
            ]
        };
        for ((name, g), (_, w)) in fields(got).into_iter().zip(fields(want)) {
            assert_eq!(g, w, "{what}: {name}");
        }
    }

    #[test]
    fn engine_matches_reference_after_random_deletions() {
        for seed in 0..40u64 {
            let mut rng = Pcg64::new(0xde1e7e ^ seed);
            // Widths around the lane count, so whole steps, tails and
            // rows shorter than one step all occur as columns go.
            let m = 2 + rng.next_below(40) as usize;
            let n = 2 + rng.next_below(70) as usize;
            let shift = rng.normal() * 10.0;
            let data = Matrix::from_fn(m, n, |_, _| shift + rng.normal() * 3.0);
            let scale = data.data().iter().fold(0.0f64, |s, v| s.max(v.abs()));
            // A scattered starting selection, then deletions down to 1x1.
            let mut rows: Vec<usize> = (0..m).filter(|_| rng.chance(0.8)).collect();
            let mut cols: Vec<usize> = (0..n).filter(|_| rng.chance(0.8)).collect();
            if rows.is_empty() || cols.is_empty() {
                continue;
            }
            let mut block = ResidueBlock::gather(&data, &rows, &cols);
            assert_close(
                block.stats(),
                &reference_stats(&data, &rows, &cols),
                scale,
                "gathered",
            );
            assert_same_bits(
                block.stats(),
                &full_sweep_stats(&data, &rows, &cols),
                "gathered",
            );
            while rows.len() > 1 || cols.len() > 1 {
                let drop_row = rows.len() > 1 && (cols.len() == 1 || rng.chance(0.4));
                if drop_row {
                    let ri = rng.next_below(rows.len() as u64) as usize;
                    rows.remove(ri);
                    block.delete_row(ri);
                } else {
                    let ci = rng.next_below(cols.len() as u64) as usize;
                    cols.remove(ci);
                    block.delete_col(ci);
                }
                let what = format!("seed {seed} at {}x{}", rows.len(), cols.len());
                assert_close(
                    block.stats(),
                    &reference_stats(&data, &rows, &cols),
                    scale,
                    &what,
                );
                // Deleting in place and gathering afresh are the same block,
                // down to every bit of every statistic.
                let fresh = SubmatrixStats::compute(&data, &rows, &cols);
                assert_same_bits(block.stats(), &fresh, &what);
                assert_same_bits(&fresh, &full_sweep_stats(&data, &rows, &cols), &what);
            }
        }
    }

    #[test]
    fn constant_block_has_zero_msr() {
        let m = Matrix::from_fn(6, 6, |_, _| 3.5);
        let rows: Vec<usize> = (0..6).collect();
        let cols: Vec<usize> = (0..6).collect();
        assert!(mean_squared_residue(&m, &rows, &cols) < 1e-24);
    }

    #[test]
    fn additive_pattern_has_zero_msr() {
        // a_ij = r_i + c_j is a perfect shifted pattern.
        let m = Matrix::from_fn(5, 7, |r, c| r as f64 * 2.0 + c as f64 * 0.5);
        let rows: Vec<usize> = (0..5).collect();
        let cols: Vec<usize> = (0..7).collect();
        assert!(mean_squared_residue(&m, &rows, &cols) < 1e-20);
    }

    #[test]
    fn noise_has_positive_msr() {
        let mut rng = Pcg64::new(101);
        let m = Matrix::from_fn(10, 10, |_, _| rng.normal());
        let rows: Vec<usize> = (0..10).collect();
        let cols: Vec<usize> = (0..10).collect();
        let h = mean_squared_residue(&m, &rows, &cols);
        assert!(h > 0.3, "random noise MSR should be near 1, got {h}");
    }

    #[test]
    fn residues_average_to_msr() {
        let mut rng = Pcg64::new(102);
        let m = Matrix::from_fn(8, 9, |_, _| rng.normal());
        let rows: Vec<usize> = (0..8).collect();
        let cols: Vec<usize> = (0..9).collect();
        let st = SubmatrixStats::compute(&m, &rows, &cols);
        let row_avg: f64 = st.row_residues.iter().sum::<f64>() / 8.0;
        let col_avg: f64 = st.col_residues.iter().sum::<f64>() / 9.0;
        assert!((row_avg - st.msr).abs() < 1e-12);
        assert!((col_avg - st.msr).abs() < 1e-12);
    }

    #[test]
    fn submatrix_selection_respected() {
        let mut m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        // Make a constant 3x3 block at rows 1,3,5 x cols 0,2,4.
        for &r in &[1usize, 3, 5] {
            for &c in &[0usize, 2, 4] {
                m.set(r, c, 9.0);
            }
        }
        let h = mean_squared_residue(&m, &[1, 3, 5], &[0, 2, 4]);
        assert!(h < 1e-20);
    }

    #[test]
    fn candidate_row_residue_matches_inclusion() {
        let mut rng = Pcg64::new(103);
        let m = Matrix::from_fn(10, 6, |_, _| rng.normal());
        let rows = [0usize, 1, 2, 3];
        let cols: Vec<usize> = (0..6).collect();
        let st = SubmatrixStats::compute(&m, &rows, &cols);
        // A row identical to the block's additive pattern scores ~the
        // column-mean deviations only; sanity: candidate residue of an
        // existing selected row equals its computed row residue when means
        // barely move — here just check it is finite and non-negative.
        for r in 4..10 {
            let d = st.candidate_row_residue(&m, r, &cols, false);
            assert!(d >= 0.0 && d.is_finite());
            let dinv = st.candidate_row_residue(&m, r, &cols, true);
            assert!(dinv >= 0.0 && dinv.is_finite());
        }
    }

    #[test]
    fn inverted_row_scores_low_for_mirror_pattern() {
        // Block rows follow pattern p_j; candidate row is -p_j (+ const).
        let pattern = [1.0, 5.0, 2.0, 8.0];
        let mut m = Matrix::zeros(4, 4);
        for r in 0..3 {
            for c in 0..4 {
                m.set(r, c, pattern[c] + r as f64);
            }
        }
        for c in 0..4 {
            m.set(3, c, -pattern[c]);
        }
        let rows = [0usize, 1, 2];
        let cols: Vec<usize> = (0..4).collect();
        let st = SubmatrixStats::compute(&m, &rows, &cols);
        let direct = st.candidate_row_residue(&m, 3, &cols, false);
        let inverted = st.candidate_row_residue(&m, 3, &cols, true);
        assert!(inverted < 1e-20, "mirror row should fit when inverted");
        assert!(direct > 1.0, "mirror row should not fit directly");
    }

    #[test]
    fn candidate_col_residue_zero_for_pattern_col() {
        let m = Matrix::from_fn(5, 5, |r, c| r as f64 + c as f64);
        let rows: Vec<usize> = (0..5).collect();
        let st = SubmatrixStats::compute(&m, &rows, &[0, 1, 2]);
        assert!(st.candidate_col_residue(&m, 4, &rows) < 1e-20);
    }
}
