//! Cholesky factorization for symmetric positive-definite systems.
//!
//! Used by the normal-equations regression path (the MADlib-style streaming
//! aggregate computes XᵀX and Xᵀy, then solves the SPD system here).

use crate::matrix::Matrix;
use genbase_util::{Error, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix. Fails with
    /// [`Error::Numerical`] when a non-positive pivot appears.
    pub fn factor(a: &Matrix) -> Result<Cholesky> {
        let (n, m) = a.shape();
        if n != m {
            return Err(Error::invalid("cholesky requires a square matrix"));
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(Error::Numerical(format!(
                            "non-positive pivot {s:.3e} at {i}; matrix not SPD"
                        )));
                    }
                    l.set(i, j, s.sqrt());
                } else {
                    l.set(i, j, s / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` using the factorization.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(Error::invalid("rhs length mismatch"));
        }
        // Forward substitution L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l.get(i, k) * y[k];
            }
            y[i] = s / self.l.get(i, i);
        }
        // Back substitution Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l.get(k, i) * x[k];
            }
            x[i] = s / self.l.get(i, i);
        }
        Ok(x)
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gram, matmul, ExecOpts};
    use genbase_util::Pcg64;

    fn random_spd(rng: &mut Pcg64, n: usize) -> Matrix {
        // AᵀA + n·I is comfortably SPD.
        let a = Matrix::from_fn(n + 5, n, |_, _| rng.normal());
        let mut g = gram(&a, &ExecOpts::serial()).unwrap();
        for i in 0..n {
            let v = g.get(i, i) + n as f64;
            g.set(i, i, v);
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let mut rng = Pcg64::new(41);
        let a = random_spd(&mut rng, 12);
        let ch = Cholesky::factor(&a).unwrap();
        let llt = matmul(ch.l(), &ch.l().transpose(), &ExecOpts::serial()).unwrap();
        assert!(llt.approx_eq(&a, 1e-8));
    }

    #[test]
    fn solves_system() {
        let mut rng = Pcg64::new(42);
        let a = random_spd(&mut rng, 15);
        let x_true: Vec<f64> = (0..15).map(|_| rng.normal()).collect();
        let b = crate::matvec(&a, &x_true);
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rhs_length_validated() {
        let ch = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }
}
