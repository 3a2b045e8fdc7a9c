//! Mahout-style linear algebra as MapReduce jobs.
//!
//! Mahout's `DistributedRowMatrix` operates on `(row_index, dense_vector)`
//! records, one record at a time, with no BLAS underneath — the reason the
//! paper measures Hadoop's analytics "between one and two orders of magnitude
//! worse performance than the best system". The jobs here follow Mahout's
//! shapes (including the standard in-mapper-combining optimization; without
//! it the `AᵀA` job's shuffle traffic would be `O(m·n²)` bytes and nothing
//! would finish):
//!
//! - [`column_sums`] / [`center_columns`]: aggregation + map-only transform;
//! - [`gram`]: `AᵀA` via per-task outer-product accumulation, reduced by
//!   output row;
//! - [`covariance_rows`]: center then gram then scale;
//! - [`xtx_xty`]: the normal-equation aggregates for regression (the final
//!   small solve happens on the driver, as in real Mahout programs).

use crate::job::{run_job, run_map_only, JobConfig};
use genbase_util::{Error, Result};

/// A distributed row matrix: `(row_index, dense row)` records.
pub type RowMatrix = Vec<(i64, Vec<f64>)>;

fn n_cols(rows: &RowMatrix) -> Result<usize> {
    let n = rows
        .first()
        .map(|(_, r)| r.len())
        .ok_or_else(|| Error::invalid("empty row matrix"))?;
    if rows.iter().any(|(_, r)| r.len() != n) {
        return Err(Error::invalid("ragged row matrix"));
    }
    Ok(n)
}

/// Element-wise sum of equal-length partial vectors (a reducer's fold).
fn sum_vectors(vs: &[Vec<f64>]) -> Vec<f64> {
    let mut acc = vec![0.0; vs.first().map(Vec::len).unwrap_or(0)];
    for v in vs {
        for (a, x) in acc.iter_mut().zip(v) {
            *a += x;
        }
    }
    acc
}

/// Per-column sums via a combine-enabled aggregation job.
pub fn column_sums(rows: &RowMatrix, cfg: &JobConfig) -> Result<Vec<f64>> {
    let n = n_cols(rows)?;
    let combiner = |_: &i64, vs: Vec<Vec<f64>>| sum_vectors(&vs);
    let out = run_job::<i64, Vec<f64>>(
        rows.len(),
        &|i, e| e.emit(&0i64, &rows[i].1),
        Some(&combiner),
        &|k, vs, e| e.emit(k, &sum_vectors(vs)),
        cfg,
    )?;
    let sums = out
        .records::<i64, Vec<f64>>()?
        .into_iter()
        .next()
        .map(|(_, v)| v)
        .unwrap_or_else(|| vec![0.0; n]);
    Ok(sums)
}

/// Map-only job subtracting per-column means.
pub fn center_columns(rows: &RowMatrix, means: &[f64], cfg: &JobConfig) -> Result<RowMatrix> {
    let n = n_cols(rows)?;
    if means.len() != n {
        return Err(Error::invalid("means length mismatch"));
    }
    let out = run_map_only(
        rows.len(),
        &|i, e| {
            let (k, row) = &rows[i];
            let centered: Vec<f64> = row.iter().zip(means).map(|(v, m)| v - m).collect();
            e.emit(k, &centered)
        },
        cfg,
    )?;
    out.records()
}

/// `AᵀA` as a MapReduce job with in-mapper combining: each map task folds
/// its rows' outer products into a local accumulator (record-at-a-time, no
/// blocking) and emits one partial row per output index; the reduce sums
/// partials. Returns the rows of the `n x n` Gram matrix sorted by index.
pub fn gram(rows: &RowMatrix, cfg: &JobConfig) -> Result<RowMatrix> {
    let n = n_cols(rows)?;
    // In-mapper combining: chunk the input like map splits.
    let tasks = cfg.map_tasks.clamp(1, rows.len());
    let chunk = rows.len().div_ceil(tasks);
    let splits: Vec<&[(i64, Vec<f64>)]> = rows.chunks(chunk).collect();
    let partials: Vec<Result<RowMatrix>> =
        genbase_util::parallel_map(tasks, splits.len(), |t| -> Result<RowMatrix> {
            let split = splits[t];
            let mut acc = vec![0.0; n * n];
            for (i, (_, row)) in split.iter().enumerate() {
                if i % 64 == 0 {
                    cfg.budget.check("mahout gram")?;
                }
                for (c, &v) in row.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let out = &mut acc[c * n..(c + 1) * n];
                    for (o, &x) in out.iter_mut().zip(row.iter()) {
                        *o += v * x;
                    }
                }
            }
            Ok((0..n as i64)
                .map(|j| {
                    let ju = j as usize;
                    (j, acc[ju * n..(ju + 1) * n].to_vec())
                })
                .collect())
        });
    // Reduce the per-task partials through a real MR job (this is the
    // shuffle Mahout pays).
    let mut job_input: RowMatrix = Vec::with_capacity(tasks * n);
    for p in partials {
        job_input.extend(p?);
    }
    let out = run_job::<i64, Vec<f64>>(
        job_input.len(),
        &|i, e| e.emit(&job_input[i].0, &job_input[i].1),
        None,
        &|j, vs, e| e.emit(j, &sum_vectors(vs)),
        cfg,
    )?;
    let mut out = out.records::<i64, Vec<f64>>()?;
    out.sort_by_key(|&(j, _)| j);
    Ok(out)
}

/// Sample covariance rows via center + gram + scale jobs.
pub fn covariance_rows(rows: &RowMatrix, cfg: &JobConfig) -> Result<RowMatrix> {
    let m = rows.len();
    if m < 2 {
        return Err(Error::invalid("covariance requires at least 2 rows"));
    }
    let sums = column_sums(rows, cfg)?;
    let means: Vec<f64> = sums.iter().map(|s| s / m as f64).collect();
    let centered = center_columns(rows, &means, cfg)?;
    let g = gram(&centered, cfg)?;
    let inv = 1.0 / (m - 1) as f64;
    // Final map-only scaling job.
    let out = run_map_only(
        g.len(),
        &|i, e| {
            let (j, row) = &g[i];
            e.emit(j, &row.iter().map(|v| v * inv).collect::<Vec<f64>>())
        },
        cfg,
    )?;
    out.records()
}

/// Normal-equation aggregates for least squares: input records are
/// `(row_id, features ++ [target])`; returns `(XᵀX, Xᵀy)` over the
/// intercept-augmented design matrix (driver solves the small system).
pub fn xtx_xty(rows: &RowMatrix, cfg: &JobConfig) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
    let width = n_cols(rows)?;
    if width < 2 {
        return Err(Error::invalid("need at least one feature plus target"));
    }
    let d = width; // features + intercept = (width - 1) + 1
    let tasks = cfg.map_tasks.clamp(1, rows.len());
    let chunk = rows.len().div_ceil(tasks);
    // In-mapper combining of the (d x d + d) accumulator.
    let splits: Vec<&[(i64, Vec<f64>)]> = rows.chunks(chunk).collect();
    let partials: Vec<Result<Vec<f64>>> =
        genbase_util::parallel_map(tasks, splits.len(), |t| -> Result<Vec<f64>> {
            let split = splits[t];
            let mut acc = vec![0.0; d * d + d];
            let mut aug = vec![0.0; d];
            for (i, (_, row)) in split.iter().enumerate() {
                if i % 256 == 0 {
                    cfg.budget.check("mahout normal equations")?;
                }
                let (features, target) = row.split_at(width - 1);
                aug[0] = 1.0;
                aug[1..].copy_from_slice(features);
                let y = target[0];
                for a in 0..d {
                    let av = aug[a];
                    if av == 0.0 {
                        continue;
                    }
                    let out = &mut acc[a * d..(a + 1) * d];
                    for (o, &x) in out.iter_mut().zip(aug.iter()) {
                        *o += av * x;
                    }
                    acc[d * d + a] += av * y;
                }
            }
            Ok(acc)
        });
    let job_input: Vec<(i64, Vec<f64>)> = partials
        .into_iter()
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .map(|acc| (0i64, acc))
        .collect();
    let out = run_job::<i64, Vec<f64>>(
        job_input.len(),
        &|i, e| e.emit(&job_input[i].0, &job_input[i].1),
        None,
        &|k, vs, e| e.emit(k, &sum_vectors(vs)),
        cfg,
    )?;
    let acc = out
        .records::<i64, Vec<f64>>()?
        .into_iter()
        .next()
        .map(|(_, v)| v)
        .ok_or_else(|| Error::invalid("empty aggregation output"))?;
    let xtx: Vec<Vec<f64>> = (0..d).map(|i| acc[i * d..(i + 1) * d].to_vec()).collect();
    let xty = acc[d * d..].to_vec();
    Ok((xtx, xty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_util::Pcg64;

    fn random_rows(rng: &mut Pcg64, m: usize, n: usize) -> RowMatrix {
        (0..m as i64)
            .map(|i| (i, (0..n).map(|_| rng.normal()).collect()))
            .collect()
    }

    #[test]
    fn column_sums_match_serial() {
        let mut rng = Pcg64::new(131);
        let rows = random_rows(&mut rng, 50, 8);
        let cfg = JobConfig::local(3);
        let sums = column_sums(&rows, &cfg).unwrap();
        for c in 0..8 {
            let expect: f64 = rows.iter().map(|(_, r)| r[c]).sum();
            assert!((sums[c] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn centering_zeroes_means() {
        let mut rng = Pcg64::new(132);
        let rows = random_rows(&mut rng, 40, 5);
        let cfg = JobConfig::local(2);
        let sums = column_sums(&rows, &cfg).unwrap();
        let means: Vec<f64> = sums.iter().map(|s| s / 40.0).collect();
        let centered = center_columns(&rows, &means, &cfg).unwrap();
        let new_sums = column_sums(&centered, &cfg).unwrap();
        for s in new_sums {
            assert!(s.abs() < 1e-9);
        }
    }

    #[test]
    fn gram_matches_serial() {
        let mut rng = Pcg64::new(133);
        let rows = random_rows(&mut rng, 30, 6);
        let cfg = JobConfig::local(3);
        let g = gram(&rows, &cfg).unwrap();
        assert_eq!(g.len(), 6);
        for (j, grow) in &g {
            for c in 0..6 {
                let expect: f64 = rows.iter().map(|(_, r)| r[*j as usize] * r[c]).sum();
                assert!(
                    (grow[c] - expect).abs() < 1e-9,
                    "gram[{j}][{c}] = {} vs {expect}",
                    grow[c]
                );
            }
        }
    }

    #[test]
    fn covariance_matches_two_pass() {
        let mut rng = Pcg64::new(134);
        let rows = random_rows(&mut rng, 25, 4);
        let cfg = JobConfig::local(2);
        let cov = covariance_rows(&rows, &cfg).unwrap();
        // Reference: two-pass covariance.
        let m = rows.len() as f64;
        for c1 in 0..4 {
            let mean1: f64 = rows.iter().map(|(_, r)| r[c1]).sum::<f64>() / m;
            for c2 in 0..4 {
                let mean2: f64 = rows.iter().map(|(_, r)| r[c2]).sum::<f64>() / m;
                let expect: f64 = rows
                    .iter()
                    .map(|(_, r)| (r[c1] - mean1) * (r[c2] - mean2))
                    .sum::<f64>()
                    / (m - 1.0);
                let got = cov[c1].1[c2];
                assert!((got - expect).abs() < 1e-9, "cov[{c1}][{c2}]");
            }
        }
    }

    #[test]
    fn normal_equations_recover_model() {
        let mut rng = Pcg64::new(135);
        // y = 2 + 3*x0 - x1 exactly.
        let rows: RowMatrix = (0..60)
            .map(|i| {
                let x0 = rng.normal();
                let x1 = rng.normal();
                (i, vec![x0, x1, 2.0 + 3.0 * x0 - x1])
            })
            .collect();
        let cfg = JobConfig::local(3);
        let (xtx, xty) = xtx_xty(&rows, &cfg).unwrap();
        assert_eq!(xtx.len(), 3);
        // Solve with simple Gaussian elimination right here.
        let mut a: Vec<Vec<f64>> = xtx.clone();
        let mut b = xty.clone();
        for col in 0..3 {
            let piv = (col..3)
                .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
                .unwrap();
            a.swap(col, piv);
            b.swap(col, piv);
            for r in 0..3 {
                if r == col {
                    continue;
                }
                let f = a[r][col] / a[col][col];
                for c in 0..3 {
                    a[r][c] -= f * a[col][c];
                }
                b[r] -= f * b[col];
            }
        }
        let beta: Vec<f64> = (0..3).map(|i| b[i] / a[i][i]).collect();
        assert!((beta[0] - 2.0).abs() < 1e-8, "intercept {}", beta[0]);
        assert!((beta[1] - 3.0).abs() < 1e-8);
        assert!((beta[2] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn empty_and_ragged_inputs_rejected() {
        let cfg = JobConfig::local(2);
        assert!(column_sums(&vec![], &cfg).is_err());
        let ragged: RowMatrix = vec![(0, vec![1.0]), (1, vec![1.0, 2.0])];
        assert!(gram(&ragged, &cfg).is_err());
        assert!(covariance_rows(&vec![(0, vec![1.0])], &cfg).is_err());
        assert!(xtx_xty(&vec![(0, vec![1.0])], &cfg).is_err());
    }
}
