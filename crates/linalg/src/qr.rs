//! Householder QR factorization and least-squares solves.
//!
//! Query 1 of the benchmark specifies that linear regression is solved "using
//! a QR decomposition technique"; this module is that implementation.
//!
//! Columns are taken `PANEL` at a time, and every slab of `PANEL` columns
//! is worked on in a copy: rows from the current diagonal down, each row
//! `PANEL` doubles on whole cache lines (a narrower last slab leaves the
//! rest of each row unused), written back when done.
//!
//! - **The panel.** Factored in its copy. Per column, one row pass scales
//!   the column into its reflector and sums the reflector's dot products
//!   with the panel's later columns; a second applies it and carries the
//!   next column's `hypot` norm chain.
//! - **The trailing update: one row pass per reflector.** The panel's
//!   reflectors go to each trailing slab in turn. The pass that applies
//!   reflector *k* to a row also adds the updated row into the next
//!   reflector's dot products, held with the multipliers in fixed-width
//!   arrays. Reflectors whose column was zero (pivot 0) drop out of the
//!   list.
//! - **One `runtime::team` per factor.** Each panel is one round. The
//!   leader's first task applies the panel to the next panel's slab and
//!   factors it (lookahead); the other tasks update the remaining slabs,
//!   split into contiguous runs over the members. A slab's copy is its
//!   task's own, so members never write the same cache line while they
//!   apply a panel, and the trailing passes are stride-1 over whole lines.
//!
//! Every column still meets reflectors `0, 1, 2, …` in that order, and
//! every sum — a dot product `Σ v_i·a_ij`, a norm chain — still runs over
//! ascending `i` from `0.0`, with the same operations in the same order;
//! only where and when they run changed. So the factor is bit-identical to
//! the textbook column-by-column loops (the reference in this module's
//! tests) at any panel width and thread count.

use crate::matrix::Matrix;
use crate::ExecOpts;
use genbase_util::runtime::{self, team};
use genbase_util::{Error, Result, SharedSlice};
use std::ops::Range;
use std::sync::Mutex;

/// Columns factored together, and the width of one trailing-update task.
/// A panel's reflectors are applied to one `m x PANEL` slab of the
/// trailing matrix back to back, so the slab (and the reflectors) stay in
/// L2 for all of them instead of streaming the whole trailing matrix from
/// memory once per reflector. Any width gives the same bits.
const PANEL: usize = 32;

/// `m·n²` below which the factor runs on the caller alone: under this, a
/// helper saves nothing (up to `n = 2·PANEL` a round has no task for it).
/// Wall time only. Measured on random matrices, 2-core host, best of 15,
/// alone vs with one helper: 200×64 0.45–0.47 vs 0.46–0.48 ms, 200×96
/// 0.68–0.69 vs 0.69–0.70, 300×96 1.14–1.16 vs 1.10–1.16, 350×110
/// 1.69–1.81 vs 1.68–1.79, 400×100 1.87 vs 1.63, 500×128 2.88 vs 2.59,
/// 900×200 10.5 vs 7.4.
const TEAM_MIN_WORK: usize = 1 << 22;

/// How many slabs the lookahead task counts for when a round splits its
/// tasks over the members. It updates one slab and then factors a panel,
/// which is mostly the latency of the `hypot` chains, about three slab
/// updates more. The factor of a 1920×386 matrix at 2 threads, 2-core
/// host, two sweeps with the weights alternated in one process (best of
/// 20, then 30): one slab 39.7 ms; three 36.1 / 39.7; four 33.6 / 38.1;
/// five 33.5 / 38.8; six 35.4 / 39.6; seven 37.3; eight 38.0.
const LOOKAHEAD_SLABS: usize = 4;

/// Reflectors `solve_ls` copies out per pass down the rows: eight columns
/// of a row are one cache line.
const QT_BLOCK: usize = 8;

/// One row of a slab's copy: `PANEL` columns on whole cache lines, so a
/// row pass touches `PANEL / 8` lines per row, not one more. Factoring
/// 1920×386, best of 10, four alternations, 2-core host: 58.9–68.7 ms vs
/// 63.1–87.1 at 1 thread and 39.5–44.6 vs 41.0–44.8 at 2, against rows at
/// the allocator's 16-byte alignment.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Row([f64; PANEL]);

/// `len` zeroed rows, carved from a plain `f64` allocation. An allocation
/// with `Row`'s alignment left slack the allocator did not reuse: twelve
/// 1920×386 factors in one process peaked at 27.8 MB RSS, 16.2 MB this
/// way (14.8 MB before the copies).
fn zeroed_rows(raw: &mut Vec<f64>, len: usize) -> &mut [Row] {
    *raw = vec![0.0; len * PANEL + 7];
    let skip = raw.as_ptr().align_offset(std::mem::align_of::<Row>());
    assert!(skip < 8, "an f64 pointer can be aligned to a line");
    // SAFETY: `raw[skip..]` starts on a `Row` boundary and holds at least
    // `len * PANEL` initialised `f64`s, which is `len` rows of plain
    // `f64`s; the rows borrow `raw` mutably for their lifetime.
    unsafe { std::slice::from_raw_parts_mut(raw.as_mut_ptr().add(skip).cast::<Row>(), len) }
}

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
/// columns `cols` of the row-major, `n`-wide `a`: per column `j`,
/// `s = -(Σ_i v_i·a_ij) / v_0` summed in ascending `i`, then
/// `a_ij += s·v_i`.
fn apply_reflector(v: &[f64], a: &mut [f64], n: usize, k: usize, cols: Range<usize>) {
    let mut w = vec![0.0; cols.len()];
    for (i, &vi) in v.iter().enumerate() {
        for (wj, &x) in w.iter_mut().zip(&a[(k + i) * n..][cols.clone()]) {
            *wj += vi * x;
        }
    }
    for wj in &mut w {
        *wj = -*wj / v[0];
    }
    for (i, &vi) in v.iter().enumerate() {
        for (x, &s) in a[(k + i) * n..][cols.clone()].iter_mut().zip(&w) {
            *x += s * vi;
        }
    }
}

/// Rows `i0..` of columns `j0..` (at most `PANEL`) of the row-major,
/// `n`-wide `a`, copied into `slab`.
///
/// # Safety
/// Nothing else may write those cells during the call.
unsafe fn gather(a: &SharedSlice<'_, f64>, n: usize, i0: usize, j0: usize, slab: &mut [Row]) {
    let w = PANEL.min(n - j0);
    for (i, Row(row)) in (i0..).zip(slab) {
        row[..w].copy_from_slice(a.slice_mut(i * n + j0, w));
    }
}

/// Write `slab` back to rows `i0..` of columns `j0..` of `a`, the inverse
/// of [`gather`].
///
/// # Safety
/// Nothing else may access those cells during the call.
unsafe fn scatter(a: &SharedSlice<'_, f64>, n: usize, i0: usize, j0: usize, slab: &[Row]) {
    let w = PANEL.min(n - j0);
    for (i, Row(row)) in (i0..).zip(slab) {
        a.slice_mut(i * n + j0, w).copy_from_slice(&row[..w]);
    }
}

/// `hypot` chain down column `c` of `rows`.
fn column_norm(rows: &[Row], c: usize) -> f64 {
    rows.iter().fold(0.0f64, |nrm, row| nrm.hypot(row.0[c]))
}

/// Factor the first `w` columns of a panel in place: `rows[r]` is row
/// `r` of the panel, row 0 on the diagonal. Writes `R`'s diagonal to
/// `rdiag`. Column `c`'s reflector is left in it from row `c` down; a zero
/// column is left as it is, pivot 0.
fn factor_panel(rows: &mut [Row], w: usize, rdiag: &mut [f64]) {
    let mut nrm = column_norm(rows, 0);
    for c in 0..w {
        if nrm == 0.0 {
            if c + 1 < w {
                nrm = column_norm(&rows[c + 1..], c + 1);
            }
            continue;
        }
        if rows[c].0[c] < 0.0 {
            nrm = -nrm;
        }
        // One pass scales the column into the reflector `v` (pivot
        // `x/nrm + 1`) and sums `Σ v_i·a_ij` for the columns right of it.
        let mut s = [0.0f64; PANEL];
        for (r, Row(row)) in rows.iter_mut().enumerate().skip(c) {
            let v = if r == c {
                row[c] / nrm + 1.0
            } else {
                row[c] / nrm
            };
            row[c] = v;
            for (sj, &x) in s[c + 1..w].iter_mut().zip(&row[c + 1..w]) {
                *sj += v * x;
            }
        }
        let v0 = rows[c].0[c];
        for sj in &mut s[c + 1..w] {
            *sj = -*sj / v0;
        }
        // A second applies it and runs the next column's norm chain.
        let mut next = 0.0f64;
        if c + 1 < w {
            for (r, Row(row)) in rows.iter_mut().enumerate().skip(c) {
                let v = row[c];
                for (x, &sj) in row[c + 1..w].iter_mut().zip(&s[c + 1..w]) {
                    *x += sj * v;
                }
                if r > c {
                    next = next.hypot(row[c + 1]);
                }
            }
        }
        rdiag[c] = -nrm;
        nrm = next;
    }
}

/// `x += s·v[k]` on each row `x` of `xs`, `v` the row of `vs` beside it.
#[inline(always)]
fn update(vs: &[Row], xs: &mut [Row], k: usize, s: &[f64; PANEL]) {
    for (Row(v), Row(x)) in vs.iter().zip(xs) {
        let vk = v[k];
        for (xj, &sj) in x.iter_mut().zip(s) {
            *xj += sj * vk;
        }
    }
}

/// Apply the reflectors `live` (panel columns, ascending) of the factored
/// panel `panel` to `slab`, both from the panel's diagonal row down, one
/// row pass per reflector: the pass that applies reflector `k` to a row
/// also adds the updated row into the next reflector's dot products.
fn apply_panel(panel: &[Row], live: &[usize], slab: &mut [Row]) {
    let Some((&first, rest)) = live.split_first() else {
        return;
    };
    // Reflector `first`'s dot products `w_j = Σ v_i·a_ij`.
    let mut w = [0.0f64; PANEL];
    for (Row(v), Row(x)) in panel.iter().zip(&*slab).skip(first) {
        let vi = v[first];
        for (wj, &xj) in w.iter_mut().zip(x) {
            *wj += vi * xj;
        }
    }
    let mut k = first;
    for &next in rest {
        let v0 = panel[k].0[k];
        let s = w.map(|wj| -wj / v0);
        // Rows `k..next` meet reflector `k` only; from row `next` on, the
        // pass that applies `k` also sums `next`'s dot products.
        update(&panel[k..next], &mut slab[k..next], k, &s);
        w = [0.0; PANEL];
        for (Row(v), Row(x)) in panel[next..].iter().zip(&mut slab[next..]) {
            let (vk, vn) = (v[k], v[next]);
            for ((xj, &sj), wj) in x.iter_mut().zip(&s).zip(&mut w) {
                *xj += sj * vk;
                *wj += vn * *xj;
            }
        }
        k = next;
    }
    let v0 = panel[k].0[k];
    let s = w.map(|wj| -wj / v0);
    update(&panel[k..], &mut slab[k..], k, &s);
}

impl QrFactor {
    /// Factor `a` (consumed) into QR form. Fails if `m < n`. Runs on one
    /// runtime team of up to `opts.threads` members; the factor is
    /// bit-identical at every thread count.
    pub fn factor(mut a: Matrix, opts: &ExecOpts) -> Result<QrFactor> {
        let (m, n) = a.shape();
        if m < n {
            return Err(Error::invalid(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        let mut rdiag = vec![0.0; n];
        if n == 0 {
            return Ok(QrFactor { qr: a, rdiag });
        }
        let threads = if m * n * n < TEAM_MIN_WORK {
            1
        } else {
            opts.threads
        };
        // Rows `p0..` of the panel being applied, which every member
        // reads, and of the next panel's slab, which the leader updates and
        // factors meanwhile. The other slabs are updated in `spare` copies:
        // a task takes the first one free, and no more tasks run at once
        // than the team has members. Every call allocates the same sizes.
        let spares = threads.min(runtime::global().pool_size() + 1);
        let mut raw = Vec::new();
        let scratch = zeroed_rows(&mut raw, (2 + spares) * m);
        let (buffers, spare) = scratch.split_at_mut(2 * m);
        let (mut panel, mut ahead) = buffers.split_at_mut(m);
        let spare: Vec<Mutex<&mut [Row]>> = spare.chunks_mut(m).map(Mutex::new).collect();
        let cells = SharedSlice::new(a.data_mut());
        let diag = SharedSlice::new(&mut rdiag);
        // Factor the panel whose diagonal is row `p1` (`slab` holds rows
        // `p0..` of columns `p1..`), then write the slab back.
        let finish = |slab: &mut [Row], p0: usize, p1: usize| {
            let w = PANEL.min(n - p1);
            // SAFETY: the caller owns those columns of `a` and `rdiag`.
            unsafe {
                factor_panel(&mut slab[p1 - p0..], w, diag.slice_mut(p1, w));
                scatter(&cells, n, p0, p1, slab);
            }
        };
        team(threads, |team| {
            opts.budget.check("qr factor")?;
            // Panel 0, by the leader while the helpers join.
            // SAFETY: no round runs yet.
            unsafe { gather(&cells, n, 0, 0, panel) };
            finish(panel, 0, 0);
            // The row of `panel` on the current diagonal.
            let mut top = 0;
            for p1 in (PANEL..n).step_by(PANEL) {
                opts.budget.check("qr factor")?;
                let (p0, rows) = (p1 - PANEL, m - p1 + PANEL);
                let applied = &panel[top..top + rows];
                let live: Vec<usize> = (0..PANEL).filter(|&c| applied[c].0[c] != 0.0).collect();
                let next = SharedSlice::new(&mut *ahead);
                // Task 0 is the lookahead: the next panel's slab, then its
                // factor. Tasks `1..LOOKAHEAD_SLABS` stand for the rest of
                // its weight; then comes one task per slab right of it.
                let tasks = (n - p1).div_ceil(PANEL) + LOOKAHEAD_SLABS - 1;
                team.round(tasks, |t| {
                    let j0 = match t {
                        0 => p1,
                        t if t < LOOKAHEAD_SLABS => return,
                        t => p1 + (t + 1 - LOOKAHEAD_SLABS) * PANEL,
                    };
                    let mut copy;
                    let slab = if t == 0 {
                        // SAFETY: `ahead` is task 0's alone.
                        unsafe { next.slice_mut(0, rows) }
                    } else {
                        copy = spare
                            .iter()
                            .find_map(|c| c.try_lock().ok())
                            .expect("a spare copy per member");
                        &mut copy[..rows]
                    };
                    // SAFETY: columns `j0..j0 + PANEL` of `a` are this
                    // task's alone.
                    unsafe { gather(&cells, n, p0, j0, slab) };
                    apply_panel(applied, &live, slab);
                    if t == 0 {
                        finish(slab, p0, p1);
                    } else {
                        unsafe { scatter(&cells, n, p0, j0, slab) };
                    }
                });
                std::mem::swap(&mut panel, &mut ahead);
                top = PANEL;
            }
            Ok(())
        })?;
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
        // y <- Qᵀ b via the stored reflectors, `QT_BLOCK` at a time: one
        // pass down the rows copies their columns out, transposed, so each
        // reflector is then read contiguously.
        let mut block = vec![0.0; QT_BLOCK * m];
        for k0 in (0..n).step_by(QT_BLOCK) {
            let (w, len) = (QT_BLOCK.min(n - k0), m - k0);
            for (i, row) in self.qr.data()[k0 * n..].chunks_exact(n).enumerate() {
                for (c, &x) in row[k0..k0 + w].iter().enumerate() {
                    block[c * len + i] = x;
                }
            }
            for c in 0..w {
                let k = k0 + c;
                let v = &block[c * len + c..(c + 1) * len];
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
                apply_reflector(v, q.data_mut(), n, k, k..n);
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::norm2;
    use genbase_util::{runtime, Pcg64};

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
        // Shapes on both sides of TEAM_MIN_WORK, widths below, at and off a
        // multiple of PANEL (and of `solve_ls`'s QT_BLOCK), a zero column
        // (the `nrm == 0` skip) and a negative pivot.
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
        // Above the team floor: n ≡ 0, 1 and 31 (mod PANEL), and m == n.
        for (m, n) in [(300, 128), (300, 129), (300, 127), (170, 170)] {
            assert!(m * n * n >= TEAM_MIN_WORK, "{m}x{n}");
            cases.push(random_matrix(&mut rng, m, n));
        }
        // Zero columns first, in the middle and last in a panel with
        // trailing slabs, so the one-pass update skips reflectors, and a
        // negative pivot; 400·110² is above the team floor too.
        let mut gaps = random_matrix(&mut rng, 400, 110);
        for c in [PANEL, PANEL + 16, 2 * PANEL - 1] {
            for r in 0..400 {
                gaps.set(r, c, 0.0);
            }
        }
        gaps.set(40, 40, -50.0);
        cases.push(gaps);
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
    fn qr_factor_inside_a_parallel_for_task_matches_serial() {
        // Sweeps run cells as pool tasks: a factor's team nested in one must
        // finish (a hang fails after 60 s) with the serial bits.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let a = random_matrix(&mut Pcg64::new(36), 400, 110);
            let want = QrFactor::factor(a.clone(), &ExecOpts::serial()).unwrap();
            runtime::parallel_for(2, 4, |_| {
                let f = QrFactor::factor(a.clone(), &ExecOpts::with_threads(2)).unwrap();
                assert_eq!(bits(f.qr.data()), bits(want.qr.data()));
                assert_eq!(bits(&f.rdiag), bits(&want.rdiag));
            });
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("finished in time, without panicking");
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
        let x = QrFactor::factor(a, &ExecOpts::serial())
            .and_then(|qr| qr.solve_ls(&b))
            .unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn least_squares_minimizes_residual() {
        let mut rng = Pcg64::new(33);
        let a = random_matrix(&mut rng, 50, 5);
        let b: Vec<f64> = (0..50).map(|_| rng.normal()).collect();
        let x = QrFactor::factor(a.clone(), &ExecOpts::serial())
            .and_then(|qr| qr.solve_ls(&b))
            .unwrap();
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
        let x = QrFactor::factor(a.clone(), &ExecOpts::serial())
            .and_then(|qr| qr.solve_ls(&b))
            .unwrap();
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
