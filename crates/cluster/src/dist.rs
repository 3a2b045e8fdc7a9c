//! Distributed linear-algebra kernels over row-partitioned matrices.
//!
//! These are the ScaLAPACK/pbdR stand-ins: each node holds a contiguous band
//! of matrix rows; kernels combine local dense compute (via `genbase-linalg`)
//! with the rooted collectives from [`crate::comm`]. Every kernel is
//! numerically identical to its single-node counterpart — integration tests
//! assert that — so only the *cost* differs across node counts.

use crate::comm::NodeCtx;
use genbase_linalg::{gram, matvec_transposed, qr::QrFactor, ExecOpts, GramOp, LinearOp, Matrix};
use genbase_util::{Error, Result};

/// Split `total` rows into `n` contiguous bands (node `i` gets `bands[i]`).
pub fn row_bands(total: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    genbase_linalg::split_ranges(total, n)
}

/// Gather row bands back into a full matrix on `root` (`None` elsewhere).
pub fn gather_matrix(ctx: &NodeCtx, root: usize, local: &Matrix) -> Result<Option<Matrix>> {
    let gathered = ctx.gather_f64s(root, local.data())?;
    match gathered {
        None => Ok(None),
        Some(parts) => {
            let cols = local.cols();
            let total_rows: usize = parts.iter().map(|p| p.len() / cols.max(1)).sum();
            let mut data = Vec::with_capacity(total_rows * cols);
            for p in parts {
                data.extend_from_slice(&p);
            }
            Ok(Some(Matrix::from_vec(total_rows, cols, data)?))
        }
    }
}

/// Distributed per-column means over row-partitioned data.
pub fn dist_column_means(ctx: &NodeCtx, local: &Matrix, total_rows: usize) -> Result<Vec<f64>> {
    let mut sums = vec![0.0; local.cols()];
    for r in 0..local.rows() {
        for (s, v) in sums.iter_mut().zip(local.row(r)) {
            *s += v;
        }
    }
    ctx.allreduce_sum(&mut sums)?;
    let inv = 1.0 / total_rows.max(1) as f64;
    for s in &mut sums {
        *s *= inv;
    }
    Ok(sums)
}

/// Distributed Gram matrix `AᵀA`: local Gram + allreduce. Every node ends
/// with the full `n x n` result.
pub fn dist_gram(ctx: &NodeCtx, local: &Matrix, opts: &ExecOpts) -> Result<Matrix> {
    let n = local.cols();
    let mut g = if local.rows() > 0 {
        gram(local, opts)?
    } else {
        Matrix::zeros(n, n)
    };
    ctx.allreduce_sum(g.data_mut())?;
    Ok(g)
}

/// Distributed sample covariance over row-partitioned data.
pub fn dist_covariance(
    ctx: &NodeCtx,
    local: &Matrix,
    total_rows: usize,
    opts: &ExecOpts,
) -> Result<Matrix> {
    if total_rows < 2 {
        return Err(Error::invalid("covariance requires at least 2 rows"));
    }
    let means = dist_column_means(ctx, local, total_rows)?;
    let mut centered = local.clone();
    for r in 0..centered.rows() {
        for (v, m) in centered.row_mut(r).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    let mut g = dist_gram(ctx, &centered, opts)?;
    let inv = 1.0 / (total_rows - 1) as f64;
    g.map_inplace(|v| v * inv);
    Ok(g)
}

/// Distributed least squares via TSQR + semi-normal equations.
///
/// Each node QR-factors its local band to get `R_i`; the stacked `R_i` are
/// factored again on the root to the global `R` (the Tall-Skinny-QR trick).
/// The solution then comes from `Rᵀ R x = Aᵀ b`, whose right side is one
/// more allreduce. Returns the coefficient vector on every node.
pub fn dist_least_squares(
    ctx: &NodeCtx,
    local_x: &Matrix,
    local_y: &[f64],
    opts: &ExecOpts,
) -> Result<Vec<f64>> {
    let n = local_x.cols();
    if local_y.len() != local_x.rows() {
        return Err(Error::invalid("local target length mismatch"));
    }
    // Local R factor (nodes with fewer rows than columns contribute their
    // raw rows; the stacked factorization absorbs them).
    let local_r: Matrix = if local_x.rows() >= n {
        QrFactor::factor(local_x.clone(), opts)?.r()
    } else {
        local_x.clone()
    };
    // Gather R factors to the root, stack, re-factor, broadcast R.
    let gathered = ctx.gather_f64s(0, local_r.data())?;
    let r_global = if let Some(parts) = gathered {
        let total_rows: usize = parts.iter().map(|p| p.len() / n).sum();
        let mut stacked = Vec::with_capacity(total_rows * n);
        for p in parts {
            stacked.extend_from_slice(&p);
        }
        let stacked = Matrix::from_vec(total_rows, n, stacked)?;
        let r = QrFactor::factor(stacked, opts)?.r();
        ctx.broadcast_f64s(0, r.data())?
    } else {
        ctx.broadcast_f64s(0, &[])?
    };
    let r = Matrix::from_vec(n, n, r_global)?;
    // Aᵀ b via allreduce of local partials.
    let mut atb = matvec_transposed(local_x, local_y);
    ctx.allreduce_sum(&mut atb)?;
    // Solve Rᵀ (R x) = Aᵀ b: forward then backward substitution.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = atb[i];
        for k in 0..i {
            s -= r.get(k, i) * z[k];
        }
        let d = r.get(i, i);
        if d.abs() < 1e-12 {
            return Err(Error::Numerical("rank-deficient design matrix".into()));
        }
        z[i] = s / d;
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in (i + 1)..n {
            s -= r.get(i, k) * x[k];
        }
        x[i] = s / r.get(i, i);
    }
    Ok(x)
}

/// Distributed implicit Gram operator `B = AᵀA` for Lanczos: the data matrix
/// is row-partitioned; `apply` does the local `A_iᵀ (A_i v)` (one fused
/// [`GramOp`] pass over the band) and one allreduce. Every node runs the
/// same deterministic Lanczos loop, so all nodes converge to identical
/// eigenpairs.
pub struct DistGramOp<'a> {
    ctx: &'a NodeCtx,
    local: &'a Matrix,
}

impl<'a> DistGramOp<'a> {
    /// Wrap a node's local row band.
    pub fn new(ctx: &'a NodeCtx, local: &'a Matrix) -> Self {
        DistGramOp { ctx, local }
    }
}

impl LinearOp for DistGramOp<'_> {
    fn dim(&self) -> usize {
        self.local.cols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        GramOp::new(self.local).apply(x, y)?;
        self.ctx.allreduce_sum(y)
    }
}

/// Distributed per-column sums over a subset of *local* rows, reduced across
/// nodes (the enrichment query's aggregation).
pub fn dist_column_sums_selected(
    ctx: &NodeCtx,
    local: &Matrix,
    local_rows: &[usize],
) -> Result<Vec<f64>> {
    let mut sums = vec![0.0; local.cols()];
    for &r in local_rows {
        if r >= local.rows() {
            return Err(Error::invalid("selected row out of local range"));
        }
        for (s, v) in sums.iter_mut().zip(local.row(r)) {
            *s += v;
        }
    }
    ctx.allreduce_sum(&mut sums)?;
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Cluster, NetModel};
    use genbase_linalg::{covariance, lanczos_topk, ExecOpts};
    use genbase_util::Pcg64;

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Pcg64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.normal())
    }

    /// This node's band of `full`, taken in place as `mn.rs` takes it from
    /// the loaded table.
    fn band(ctx: &NodeCtx, full: &Matrix) -> Matrix {
        let rows: Vec<usize> = row_bands(full.rows(), ctx.n_nodes())[ctx.rank()]
            .clone()
            .collect();
        full.select_rows(&rows)
    }

    #[test]
    fn gather_round_trip() {
        let full = test_matrix(37, 8, 141);
        for n in [1, 2, 4] {
            let cluster = Cluster::new(n, NetModel::free());
            let full_ref = &full;
            let (results, _) = cluster
                .run(|ctx| {
                    let local = band(ctx, full_ref);
                    gather_matrix(ctx, 0, &local)
                })
                .unwrap();
            let back = results[0].as_ref().expect("root gathers");
            assert!(back.approx_eq(&full, 0.0), "n = {n}");
        }
    }

    #[test]
    fn dist_means_match_serial() {
        let full = test_matrix(50, 6, 142);
        let serial = genbase_linalg::column_means(&full);
        let cluster = Cluster::new(3, NetModel::free());
        let full_ref = &full;
        let (results, _) = cluster
            .run(|ctx| {
                let local = band(ctx, full_ref);
                dist_column_means(ctx, &local, 50)
            })
            .unwrap();
        for node_means in results {
            for (a, b) in node_means.iter().zip(&serial) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dist_covariance_matches_serial() {
        let full = test_matrix(60, 10, 143);
        let serial = covariance(&full, &ExecOpts::serial()).unwrap();
        for n in [1, 2, 4] {
            let cluster = Cluster::new(n, NetModel::free());
            let full_ref = &full;
            let (results, _) = cluster
                .run(|ctx| {
                    let local = band(ctx, full_ref);
                    dist_covariance(ctx, &local, 60, &ExecOpts::serial())
                })
                .unwrap();
            for node_cov in &results {
                assert!(node_cov.approx_eq(&serial, 1e-9), "n = {n}");
            }
        }
    }

    #[test]
    fn dist_least_squares_matches_serial() {
        let mut rng = Pcg64::new(144);
        let x = Matrix::from_fn(80, 5, |_, _| rng.normal());
        let y: Vec<f64> = (0..80)
            .map(|r| 1.0 + 2.0 * x.get(r, 0) - 0.5 * x.get(r, 3) + 0.01 * rng.normal())
            .collect();
        // Serial reference via QR on the same design (no intercept column
        // here; the engine layer adds it).
        let serial = QrFactor::factor(x.clone(), &ExecOpts::serial())
            .and_then(|qr| qr.solve_ls(&y))
            .unwrap();
        for n in [1, 2, 4] {
            let cluster = Cluster::new(n, NetModel::free());
            let (x_ref, y_ref) = (&x, &y);
            let (results, _) = cluster
                .run(|ctx| {
                    let rows = row_bands(80, ctx.n_nodes())[ctx.rank()].clone();
                    dist_least_squares(ctx, &band(ctx, x_ref), &y_ref[rows], &ExecOpts::serial())
                })
                .unwrap();
            for node_coef in &results {
                for (a, b) in node_coef.iter().zip(&serial) {
                    assert!((a - b).abs() < 1e-8, "n = {n}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn dist_lanczos_matches_serial() {
        let full = test_matrix(70, 16, 145);
        let serial_g = genbase_linalg::gram(&full, &ExecOpts::serial()).unwrap();
        let serial_op = genbase_linalg::DenseSymOp::new(&serial_g).unwrap();
        let serial = lanczos_topk(&serial_op, 4, 0, 99, &ExecOpts::serial()).unwrap();
        let cluster = Cluster::new(3, NetModel::free());
        let full_ref = &full;
        let (results, _) = cluster
            .run(|ctx| {
                let local = band(ctx, full_ref);
                let op = DistGramOp::new(ctx, &local);
                let res = lanczos_topk(&op, 4, 0, 99, &ExecOpts::serial())?;
                Ok(res.eigenvalues)
            })
            .unwrap();
        for node_vals in &results {
            for (a, b) in node_vals.iter().zip(&serial.eigenvalues) {
                let rel = (a - b).abs() / b.max(1e-12);
                assert!(rel < 1e-8, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dist_column_sums_selected_matches() {
        let full = test_matrix(40, 5, 146);
        let cluster = Cluster::new(2, NetModel::free());
        let full_ref = &full;
        let (results, _) = cluster
            .run(|ctx| {
                let local = band(ctx, full_ref);
                // Select every other local row.
                let sel: Vec<usize> = (0..local.rows()).step_by(2).collect();
                dist_column_sums_selected(ctx, &local, &sel)
            })
            .unwrap();
        // Reference: every other row within each band of 20.
        let mut expect = vec![0.0; 5];
        for band_start in [0usize, 20] {
            for r in (band_start..band_start + 20).step_by(2) {
                for c in 0..5 {
                    expect[c] += full.get(r, c);
                }
            }
        }
        for node in &results {
            for (a, b) in node.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn network_cost_grows_with_nodes() {
        let full = test_matrix(64, 32, 147);
        let sim_for = |n: usize| {
            let cluster = Cluster::new(n, NetModel::gigabit());
            let full_ref = &full;
            let (_, sim) = cluster
                .run(|ctx| {
                    let local = band(ctx, full_ref);
                    dist_covariance(ctx, &local, 64, &ExecOpts::serial())
                })
                .unwrap();
            sim
        };
        let one = sim_for(1);
        let two = sim_for(2);
        let four = sim_for(4);
        assert_eq!(one, 0.0);
        assert!(two > 0.0);
        assert!(four > two, "rooted collectives scale with node count");
    }

    #[test]
    fn uneven_partitions_handled() {
        // 7 rows over 4 nodes: bands of 2,2,2,1.
        let full = test_matrix(7, 3, 148);
        let serial = covariance(&full, &ExecOpts::serial()).unwrap();
        let cluster = Cluster::new(4, NetModel::free());
        let full_ref = &full;
        let (results, _) = cluster
            .run(|ctx| {
                let local = band(ctx, full_ref);
                dist_covariance(ctx, &local, 7, &ExecOpts::serial())
            })
            .unwrap();
        for node_cov in &results {
            assert!(node_cov.approx_eq(&serial, 1e-10));
        }
    }
}
