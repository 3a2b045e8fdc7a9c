//! Symmetric eigensolvers.
//!
//! [`tridiag_eigen`] is the implicit-QL-with-shifts routine (EISPACK `tql1`,
//! the values-only half of `tql2`) that Lanczos uses on its projected
//! tridiagonal matrix. Under `cfg(test)`, `jacobi_eigen` is a cyclic Jacobi
//! solver for dense symmetric matrices, eigenvectors included: slow but
//! simple, the reference the tests hold the Lanczos path to.

#[cfg(test)]
use crate::matrix::Matrix;
use genbase_util::{Error, Result};

/// Eigenvalues (descending) with matching eigenvectors as matrix columns.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct EigenPairs {
    /// Eigenvalues sorted in descending order.
    pub(crate) values: Vec<f64>,
    /// `n x n` matrix whose column `i` is the eigenvector for `values[i]`.
    pub(crate) vectors: Matrix,
}

/// Eigenvalues of a symmetric tridiagonal matrix given its diagonal `d` and
/// sub-diagonal `e` (`e.len() == d.len() - 1`), sorted descending. No
/// rotation is accumulated: the `d`/`e` recurrence never reads one, so the
/// values are those `tql2` computes, bit for bit.
pub fn tridiag_eigen(d: &[f64], e: &[f64]) -> Result<Vec<f64>> {
    let n = d.len();
    if n == 0 {
        return Ok(vec![]);
    }
    if e.len() + 1 != n {
        return Err(Error::invalid("off-diagonal must have n-1 entries"));
    }
    let mut d = d.to_vec();
    // Shifted copy with a trailing zero, as in tql1.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(Error::Numerical(
                    "tridiagonal QL failed to converge in 50 iterations".into(),
                ));
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    d.sort_by(|a, b| b.partial_cmp(a).expect("NaN eigenvalue"));
    Ok(d)
}

/// Cyclic Jacobi eigensolver for a dense symmetric matrix. O(n³) per sweep;
/// reliable reference implementation.
#[cfg(test)]
pub(crate) fn jacobi_eigen(a: &Matrix) -> Result<EigenPairs> {
    let (n, m) = a.shape();
    if n != m {
        return Err(Error::invalid("jacobi requires a square matrix"));
    }
    let mut a = a.clone();
    let mut v = Matrix::identity(n);
    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a.get(p, q) * a.get(p, q);
            }
        }
        if off.sqrt() < 1e-13 * (1.0 + a.frobenius_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let mut values: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
    sort_pairs_desc(&mut values, &mut v);
    Ok(EigenPairs { values, vectors: v })
}

/// Sort eigenvalues descending, permuting eigenvector columns to match.
#[cfg(test)]
fn sort_pairs_desc(values: &mut [f64], vectors: &mut Matrix) {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| values[j].partial_cmp(&values[i]).expect("NaN eigenvalue"));
    let old_vals = values.to_vec();
    let old_vecs = vectors.clone();
    for (new_col, &old_col) in order.iter().enumerate() {
        values[new_col] = old_vals[old_col];
        for r in 0..vectors.rows() {
            vectors.set(r, new_col, old_vecs.get(r, old_col));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gram, matmul, ExecOpts};
    use genbase_util::Pcg64;

    #[test]
    fn tridiag_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let p = tridiag_eigen(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((p[0] - 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tridiag_diagonal_input() {
        let p = tridiag_eigen(&[5.0, -1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p[0] - 5.0).abs() < 1e-12);
        assert!((p[1] - 2.0).abs() < 1e-12);
        assert!((p[2] + 1.0).abs() < 1e-12);
    }

    /// EISPACK `tql2`: the QL of `tridiag_eigen` that also accumulates each
    /// rotation into the eigenvector matrix, walking two of its columns.
    fn tridiag_eigen_column_walk(d: &[f64], e: &[f64]) -> EigenPairs {
        let n = d.len();
        let mut d = d.to_vec();
        let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
        let mut z = Matrix::identity(n);
        for l in 0..n {
            loop {
                let mut m = l;
                while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                    m += 1;
                }
                if m == l {
                    break;
                }
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
                for i in (l..m).rev() {
                    let (f, b) = (s * e[i], c * e[i]);
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    for k in 0..n {
                        let (v, f) = (z.get(k, i), z.get(k, i + 1));
                        z.set(k, i + 1, s * v + c * f);
                        z.set(k, i, c * v - s * f);
                    }
                }
                if r == 0.0 && m > l + 1 {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        sort_pairs_desc(&mut d, &mut z);
        EigenPairs {
            values: d,
            vectors: z,
        }
    }

    #[test]
    fn transposed_rotations_equal_the_column_walk_exactly() {
        // The values-only QL against the one that accumulates rotations, on
        // Lanczos' projected matrices (k = 50 runs 120 steps), a split (a
        // zero off-diagonal) and the smallest sizes.
        let mut rng = Pcg64::new(53);
        for n in [1usize, 2, 5, 40, 120] {
            let d: Vec<f64> = (0..n).map(|_| rng.normal().abs() * 50.0).collect();
            let mut e: Vec<f64> = (0..n - 1).map(|_| rng.normal()).collect();
            if n > 3 {
                e[n / 2] = 0.0;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = tridiag_eigen_column_walk(&d, &e).values;
            assert_eq!(bits(&tridiag_eigen(&d, &e).unwrap()), bits(&want), "n={n}");
        }
    }

    #[test]
    fn tridiag_values_descending() {
        let mut rng = Pcg64::new(52);
        let n = 40;
        let d: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.normal()).collect();
        let values = tridiag_eigen(&d, &e).unwrap();
        assert!(values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn tridiag_validates_lengths() {
        assert!(tridiag_eigen(&[1.0, 2.0], &[]).is_err());
        assert!(tridiag_eigen(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn jacobi_matches_tridiag() {
        let mut rng = Pcg64::new(53);
        let n = 12;
        let d: Vec<f64> = (0..n).map(|_| rng.normal() * 2.0).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.normal()).collect();
        let t = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                d[i]
            } else if i.abs_diff(j) == 1 {
                e[i.min(j)]
            } else {
                0.0
            }
        });
        let jq = jacobi_eigen(&t).unwrap();
        let tq = tridiag_eigen(&d, &e).unwrap();
        for (a, b) in jq.values.iter().zip(&tq) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn jacobi_eigen_equation_and_trace() {
        let mut rng = Pcg64::new(54);
        let base = Matrix::from_fn(20, 10, |_, _| rng.normal());
        let g = gram(&base, &ExecOpts::serial()).unwrap();
        let pairs = jacobi_eigen(&g).unwrap();
        // Trace preserved.
        let trace: f64 = (0..10).map(|i| g.get(i, i)).sum();
        let sum: f64 = pairs.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
        // PSD: all eigenvalues non-negative.
        assert!(pairs.values.iter().all(|&v| v > -1e-9));
        // A V = V Λ.
        let av = matmul(&g, &pairs.vectors, &ExecOpts::serial()).unwrap();
        for k in 0..10 {
            for r in 0..10 {
                let expect = pairs.values[k] * pairs.vectors.get(r, k);
                assert!((av.get(r, k) - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn jacobi_rejects_non_square() {
        assert!(jacobi_eigen(&Matrix::zeros(2, 3)).is_err());
    }
}
