//! Mean squared residue (MSR) computations over a row/column submatrix.
//!
//! The residue of cell (i, j) in submatrix (I, J) is
//! `r_ij = a_ij − a_iJ − a_Ij + a_IJ` where `a_iJ` is the row mean over J,
//! `a_Ij` the column mean over I, and `a_IJ` the overall mean. The MSR
//! `H(I, J)` is the mean of `r_ij²`; a perfect (shifted) pattern has H = 0.

use genbase_linalg::Matrix;
use genbase_util::runtime::{team, Team};
use genbase_util::SharedSlice;

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

/// Live rows per band. Column sums and column residues are folded from one
/// partial per band (rows `b * BAND .. (b + 1) * BAND` by position, summed
/// row by row), in band order starting from band 0's partial, so a block of
/// one band sums exactly as a plain row-by-row loop. Bands are the tasks of
/// a team round, and the fold adds `1 / BAND` of a pass. `find_biclusters`
/// on the Large Query 3 input (609×1440) at 2 threads, 2-core host, best of
/// 8 over three alternations: 72–76 ms with 32-row bands, 67–74 with 64,
/// 75–77 with 16; at Medium (310×720) all three read 12–14 ms. 32 keeps
/// the split fine enough for more members (a 346-row block is 11 bands).
const BAND: usize = 32;

/// Number of bands over `nr` live rows.
fn bands(nr: usize) -> usize {
    nr.div_ceil(BAND)
}

/// Positions of band `b`'s rows.
fn band(b: usize, nr: usize) -> std::ops::Range<usize> {
    b * BAND..((b + 1) * BAND).min(nr)
}

/// Fold the first `n` cells of the first `bands` band partials (each
/// `stride` wide) into `out`, in band order from band 0's partial.
fn fold_bands(parts: &[f64], stride: usize, bands: usize, n: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(&parts[..n]);
    for part in parts.chunks_exact(stride).take(bands).skip(1) {
        for (o, &p) in out.iter_mut().zip(&part[..n]) {
            *o += p;
        }
    }
}

/// One row of the residue pass: adds each squared residue to its column's
/// cell of `col_res` and returns the row's sum of them, through the same
/// lanes as [`lane_sum`].
#[inline]
fn residue_row(
    row: &[f64],
    col_means: &[f64],
    row_mean: f64,
    overall: f64,
    col_res: &mut [f64],
) -> f64 {
    let mut lanes = [0.0; LANES];
    let mut cells = row.chunks_exact(LANES);
    let mut means = col_means.chunks_exact(LANES);
    let mut res = col_res.chunks_exact_mut(LANES);
    for ((a, cm), c) in (&mut cells).zip(&mut means).zip(&mut res) {
        for l in 0..LANES {
            let resid = a[l] - row_mean - cm[l] + overall;
            let sq = resid * resid;
            c[l] += sq;
            lanes[l] += sq;
        }
    }
    let tail = cells.remainder().iter().zip(means.remainder());
    for ((lane, c), (&a, &cm)) in lanes.iter_mut().zip(res.into_remainder()).zip(tail) {
        let resid = a - row_mean - cm + overall;
        let sq = resid * resid;
        *c += sq;
        *lane += sq;
    }
    fold_lanes(lanes)
}

/// The residue engine: a gathered copy of the selection plus its
/// always-current [`SubmatrixStats`]. Cheng–Church deletes rows and columns
/// from it in place, and each deletion recomputes only what it changed: a
/// row deletion re-sums the columns (every other row's sum stands), a column
/// deletion re-sums each row as it closes it up (every other column's mean
/// stands). The residue pass then runs over the block.
///
/// Rows keep the stride of the gathered width, so a column deletion closes
/// up each row's tail in place and no row depends on another; a row deletion
/// drops the row's slot and moves no cells. Every pass is a [`Team::round`]
/// over fixed [`BAND`]s of rows, and the leader folds the bands' column
/// partials in band order. Bands are assigned by row position, so a fresh
/// [`ResidueBlock::gather`] of the same selection, any deletion history and
/// any member count give every statistic the same bits.
pub(crate) struct ResidueBlock {
    /// Gathered rows, `stride` cells each; a live row's `nc` cells are the
    /// head of its row.
    cells: Vec<f64>,
    stride: usize,
    /// The gathered row each live row is, in position order.
    slots: Vec<usize>,
    nc: usize,
    stats: SubmatrixStats,
    /// Lane sum of each live row; the row means and the overall mean are
    /// derived from these.
    row_sums: Vec<f64>,
    /// One `stride`-wide partial per band: column sums, then column
    /// residues.
    parts: Vec<f64>,
}

impl ResidueBlock {
    /// Copy the selection `(rows, cols)` of `data` and compute its stats.
    pub(crate) fn gather(
        data: &Matrix,
        rows: &[usize],
        cols: &[usize],
        team: &Team<'_>,
    ) -> ResidueBlock {
        let mut block = ResidueBlock {
            cells: Vec::new(),
            stride: 0,
            slots: Vec::new(),
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
            parts: Vec::new(),
        };
        block.regather(data, rows, cols, team);
        block
    }

    /// Replace the block with the selection `(rows, cols)` of `data`,
    /// reusing its buffers (a smaller selection allocates nothing).
    pub(crate) fn regather(
        &mut self,
        data: &Matrix,
        rows: &[usize],
        cols: &[usize],
        team: &Team<'_>,
    ) {
        let (nr, nc) = (rows.len(), cols.len());
        assert!(nr > 0 && nc > 0, "empty selection");
        (self.stride, self.nc) = (nc, nc);
        self.slots.clear();
        self.slots.extend(0..nr);
        self.cells.resize(nr * nc, 0.0);
        self.row_sums.resize(nr, 0.0);
        self.parts.resize(bands(nr) * nc, 0.0);
        let cells = SharedSlice::new(&mut self.cells);
        let sums = SharedSlice::new(&mut self.row_sums);
        let parts = SharedSlice::new(&mut self.parts);
        team.round(bands(nr), |b| {
            let span = band(b, nr);
            // SAFETY: band `b` alone writes its rows, its row sums and its
            // partial (a fresh gather's slots are the positions).
            let (sums, part) = unsafe {
                (
                    sums.slice_mut(span.start, span.len()),
                    parts.slice_mut(b * nc, nc),
                )
            };
            part.fill(0.0);
            for (pos, sum) in span.zip(sums) {
                // SAFETY: row `pos` is in band `b`, which no other task
                // touches.
                let row = unsafe { cells.slice_mut(pos * nc, nc) };
                let src = data.row(rows[pos]);
                for (a, &c) in row.iter_mut().zip(cols) {
                    *a = src[c];
                }
                *sum = lane_sum(row);
                for (p, &a) in part.iter_mut().zip(&*row) {
                    *p += a;
                }
            }
        });
        self.finish_cols();
        self.finish(team);
    }

    /// Statistics of the current block.
    pub(crate) fn stats(&self) -> &SubmatrixStats {
        &self.stats
    }

    /// Drop the row at position `ri` and recompute the stats. The other
    /// rows keep their cells, so their sums stand; the column means are
    /// re-summed over the rows that are left.
    pub(crate) fn delete_row(&mut self, ri: usize, team: &Team<'_>) {
        self.slots.remove(ri);
        self.row_sums.remove(ri);
        let (nr, nc, stride) = (self.slots.len(), self.nc, self.stride);
        let (cells, slots) = (&self.cells, &self.slots);
        let parts = SharedSlice::new(&mut self.parts);
        team.round(bands(nr), |b| {
            // SAFETY: band `b` alone writes its partial.
            let part = unsafe { parts.slice_mut(b * stride, nc) };
            part.fill(0.0);
            for &slot in &slots[band(b, nr)] {
                for (p, &a) in part
                    .iter_mut()
                    .zip(&cells[slot * stride..slot * stride + nc])
                {
                    *p += a;
                }
            }
        });
        self.finish_cols();
        self.finish(team);
    }

    /// Drop the column at position `ci`, closing each row's tail up over
    /// it, and recompute the stats. Each row is re-summed as soon as it is
    /// closed up; the other columns keep their cells in the same row order,
    /// so their means stand.
    pub(crate) fn delete_col(&mut self, ci: usize, team: &Team<'_>) {
        let (nr, nc, stride) = (self.slots.len(), self.nc, self.stride);
        let slots = &self.slots;
        let cells = SharedSlice::new(&mut self.cells);
        let sums = SharedSlice::new(&mut self.row_sums);
        team.round(bands(nr), |b| {
            let span = band(b, nr);
            // SAFETY: band `b` alone writes its row sums and its rows (each
            // live row has its own slot).
            let sums = unsafe { sums.slice_mut(span.start, span.len()) };
            for (&slot, sum) in slots[span].iter().zip(sums) {
                // SAFETY: `slot` is a live row of band `b`; slots are
                // distinct, so no other task touches its cells.
                let row = unsafe { cells.slice_mut(slot * stride, nc) };
                row.copy_within(ci + 1.., ci);
                *sum = lane_sum(&row[..nc - 1]);
            }
        });
        self.nc -= 1;
        self.stats.col_means.remove(ci);
        self.finish(team);
    }

    /// Column means from the band partials of the column sums.
    fn finish_cols(&mut self) {
        let nr = self.slots.len();
        let means = &mut self.stats.col_means;
        fold_bands(&self.parts, self.stride, bands(nr), self.nc, means);
        for m in means.iter_mut() {
            *m /= nr as f64;
        }
    }

    /// Row means and the overall mean from the row sums (in row order),
    /// then the residue pass, given current column means.
    fn finish(&mut self, team: &Team<'_>) {
        let (nr, nc, stride) = (self.slots.len(), self.nc, self.stride);
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
        let (cells, slots) = (&self.cells, &self.slots);
        let (row_means, col_means) = (&st.row_means, &st.col_means);
        let sums = SharedSlice::new(&mut st.row_residues);
        let parts = SharedSlice::new(&mut self.parts);
        team.round(bands(nr), |b| {
            let span = band(b, nr);
            // SAFETY: band `b` alone writes its rows' residue sums and its
            // partial.
            let (sums, part) = unsafe {
                (
                    sums.slice_mut(span.start, span.len()),
                    parts.slice_mut(b * stride, nc),
                )
            };
            part.fill(0.0);
            for ((&slot, &rm), sum) in slots[span.clone()].iter().zip(&row_means[span]).zip(sums) {
                let row = &cells[slot * stride..slot * stride + nc];
                *sum = residue_row(row, col_means, rm, overall, part);
            }
        });
        fold_bands(&self.parts, stride, bands(nr), nc, &mut st.col_residues);
        for d in &mut st.col_residues {
            *d /= nr as f64;
        }
        let mut msr = 0.0;
        for d in &mut st.row_residues {
            msr += *d;
            *d /= nc as f64;
        }
        st.overall_mean = overall;
        st.msr = msr / (nr * nc) as f64;
    }
}

impl SubmatrixStats {
    /// Compute all statistics for the selection `(rows, cols)` of `data`.
    pub fn compute(data: &Matrix, rows: &[usize], cols: &[usize]) -> SubmatrixStats {
        team(1, |team| ResidueBlock::gather(data, rows, cols, team).stats)
    }

    /// Mean squared residue a *candidate* row `r` (not currently selected)
    /// would contribute, measured against the current selection's means.
    pub fn candidate_row_residue(&self, data: &Matrix, row: usize, cols: &[usize]) -> f64 {
        let nc = cols.len();
        let vals = data.row(row);
        let row_mean: f64 = cols.iter().map(|&c| vals[c]).sum::<f64>() / nc as f64;
        let mut acc = 0.0;
        for (ci, &c) in cols.iter().enumerate() {
            let resid = vals[c] - row_mean - self.col_means[ci] + self.overall_mean;
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

    /// The engine's full sweep, written out: one pass for the row lane
    /// sums, the overall sum and the column sums, a second for the residues.
    /// Column sums and column residues are summed row by row within each
    /// band of `BAND` rows and the band partials folded in band order from
    /// band 0's. A fresh gather must match it bit for bit.
    fn full_sweep_stats(data: &Matrix, rows: &[usize], cols: &[usize]) -> SubmatrixStats {
        let (nr, nc) = (rows.len(), cols.len());
        let cells: Vec<f64> = rows
            .iter()
            .flat_map(|&r| cols.iter().map(move |&c| data.get(r, c)))
            .collect();
        let fold = |cell: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
            let partials: Vec<Vec<f64>> = (0..nr)
                .step_by(BAND)
                .map(|start| {
                    let mut part = vec![0.0; nc];
                    for i in start..(start + BAND).min(nr) {
                        for (j, p) in part.iter_mut().enumerate() {
                            *p += cell(i, j);
                        }
                    }
                    part
                })
                .collect();
            let mut total = partials[0].clone();
            for part in &partials[1..] {
                for (t, &p) in total.iter_mut().zip(part) {
                    *t += p;
                }
            }
            total
        };
        let mut row_means = vec![0.0; nr];
        let mut overall = 0.0;
        for (row, mean) in cells.chunks_exact(nc).zip(&mut row_means) {
            let sum = lane_sum(row);
            overall += sum;
            *mean = sum / nc as f64;
        }
        let mut col_means = fold(&|i, j| cells[i * nc + j]);
        col_means.iter_mut().for_each(|m| *m /= nr as f64);
        overall /= (nr * nc) as f64;
        let square = |i: usize, j: usize| {
            let resid = cells[i * nc + j] - row_means[i] - col_means[j] + overall;
            resid * resid
        };
        let mut col_residues = fold(&square);
        col_residues.iter_mut().for_each(|d| *d /= nr as f64);
        let mut row_residues = vec![0.0; nr];
        let mut msr = 0.0;
        for (i, d) in row_residues.iter_mut().enumerate() {
            let squares: Vec<f64> = (0..nc).map(|j| square(i, j)).collect();
            let sum = lane_sum(&squares);
            msr += sum;
            *d = sum / nc as f64;
        }
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

    /// Random blocks of up to `max_rows x max_cols`, gathered from a
    /// scattered selection and then deleted down to 1x1 in random order on a
    /// team of up to `threads` members. After every step each statistic is
    /// held to the textbook sums within 1e-12 and, bit for bit, to a fresh
    /// gather and to `full_sweep_stats`.
    fn check_random_deletions(
        seeds: std::ops::Range<u64>,
        max_rows: u64,
        max_cols: u64,
        threads: usize,
    ) {
        for seed in seeds {
            let mut rng = Pcg64::new(0xde1e7e ^ seed);
            let m = 2 + rng.next_below(max_rows - 1) as usize;
            let n = 2 + rng.next_below(max_cols - 1) as usize;
            let shift = rng.normal() * 10.0;
            let data = Matrix::from_fn(m, n, |_, _| shift + rng.normal() * 3.0);
            let scale = data.data().iter().fold(0.0f64, |s, v| s.max(v.abs()));
            // A scattered starting selection, then deletions down to 1x1.
            let mut rows: Vec<usize> = (0..m).filter(|_| rng.chance(0.8)).collect();
            let mut cols: Vec<usize> = (0..n).filter(|_| rng.chance(0.8)).collect();
            if rows.is_empty() || cols.is_empty() {
                continue;
            }
            team(threads, |team| {
                let mut block = ResidueBlock::gather(&data, &rows, &cols, team);
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
                        block.delete_row(ri, team);
                    } else {
                        let ci = rng.next_below(cols.len() as u64) as usize;
                        cols.remove(ci);
                        block.delete_col(ci, team);
                    }
                    let what = format!("seed {seed} at {}x{}", rows.len(), cols.len());
                    assert_close(
                        block.stats(),
                        &reference_stats(&data, &rows, &cols),
                        scale,
                        &what,
                    );
                    // Deleting in place and gathering afresh are the same
                    // block, down to every bit of every statistic.
                    let fresh = SubmatrixStats::compute(&data, &rows, &cols);
                    assert_same_bits(block.stats(), &fresh, &what);
                    assert_same_bits(&fresh, &full_sweep_stats(&data, &rows, &cols), &what);
                }
            });
        }
    }

    #[test]
    fn engine_matches_reference_after_random_deletions() {
        // Widths around the lane count, so whole steps, tails and rows
        // shorter than one step all occur as columns go; one band of rows.
        check_random_deletions(0..40, 41, 71, 1);
    }

    #[test]
    fn engine_matches_reference_across_bands() {
        // Up to six bands of rows, so band partials fold, bands empty out as
        // rows go, and a team of more than one member splits them.
        for threads in [1, 2, 3] {
            check_random_deletions(100..106, 6 * BAND as u64, 40, threads);
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
            let d = st.candidate_row_residue(&m, r, &cols);
            assert!(d >= 0.0 && d.is_finite());
        }
    }

    #[test]
    fn candidate_col_residue_zero_for_pattern_col() {
        let m = Matrix::from_fn(5, 5, |r, c| r as f64 + c as f64);
        let rows: Vec<usize> = (0..5).collect();
        let st = SubmatrixStats::compute(&m, &rows, &[0, 1, 2]);
        assert!(st.candidate_col_residue(&m, 4, &rows) < 1e-20);
    }
}
