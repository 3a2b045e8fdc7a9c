//! Linear regression (benchmark Query 1).
//!
//! Two solution paths mirror the systems in the paper:
//! - [`RegressionMethod::Qr`]: Householder QR on the design matrix — the
//!   paper's stated technique, used by the R-based and SciDB configurations.
//! - [`RegressionMethod::NormalEquations`]: accumulate `XᵀX`/`Xᵀy` in one
//!   streaming pass and Cholesky-solve — how MADlib's C++ `linregr`
//!   aggregate works inside Postgres.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::qr::QrFactor;
use crate::ExecOpts;
use genbase_util::{Error, Result};

/// Solver selection for [`LinearRegression::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegressionMethod {
    /// Householder QR least squares (numerically robust).
    #[default]
    Qr,
    /// Normal equations with Cholesky solve (single streaming pass, as in
    /// MADlib's in-database aggregate).
    NormalEquations,
}

/// A fitted ordinary-least-squares model `y ≈ intercept + X·coef`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Intercept term (always fitted).
    pub intercept: f64,
    /// Per-feature coefficients, one per column of `X`.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
}

impl LinearRegression {
    /// Fit on `x` (`m x n`, samples by features) against targets `y`.
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        method: RegressionMethod,
        opts: &ExecOpts,
    ) -> Result<LinearRegression> {
        let (m, n) = x.shape();
        if y.len() != m {
            return Err(Error::invalid("target length must match row count"));
        }
        if m < n + 1 {
            return Err(Error::invalid(format!(
                "need at least {} samples for {} features",
                n + 1,
                n
            )));
        }
        let beta = match method {
            RegressionMethod::Qr => {
                // Design matrix with a leading all-ones intercept column.
                let mut design = Matrix::zeros_budgeted(m, n + 1, &opts.budget)?;
                for r in 0..m {
                    let row = design.row_mut(r);
                    row[0] = 1.0;
                    row[1..].copy_from_slice(x.row(r));
                }
                let res = QrFactor::factor(design, opts)?.solve_ls(y);
                opts.budget.free((m * (n + 1) * 8) as u64);
                res?
            }
            RegressionMethod::NormalEquations => {
                // One pass: accumulate XᵀX and Xᵀy over augmented rows.
                let d = n + 1;
                let mut xtx = Matrix::zeros(d, d);
                let mut xty = vec![0.0; d];
                let mut aug = vec![0.0; d];
                for r in 0..m {
                    if r % 1024 == 0 {
                        opts.budget.check("normal equations accumulation")?;
                    }
                    aug[0] = 1.0;
                    aug[1..].copy_from_slice(x.row(r));
                    for i in 0..d {
                        let ai = aug[i];
                        if ai == 0.0 {
                            continue;
                        }
                        let row = xtx.row_mut(i);
                        for j in i..d {
                            row[j] += ai * aug[j];
                        }
                        xty[i] += ai * y[r];
                    }
                }
                for i in 0..d {
                    for j in 0..i {
                        let v = xtx.get(j, i);
                        xtx.set(i, j, v);
                    }
                }
                Cholesky::factor(&xtx)?.solve(&xty)?
            }
        };

        let intercept = beta[0];
        let coefficients = beta[1..].to_vec();
        let r_squared = r2(x, y, intercept, &coefficients);
        Ok(LinearRegression {
            intercept,
            coefficients,
            r_squared,
        })
    }
}

fn r2(x: &Matrix, y: &[f64], intercept: f64, coef: &[f64]) -> f64 {
    let m = y.len();
    let y_mean = y.iter().sum::<f64>() / m as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for r in 0..m {
        let pred = intercept + crate::matrix::dot(x.row(r), coef);
        ss_res += (y[r] - pred) * (y[r] - pred);
        ss_tot += (y[r] - y_mean) * (y[r] - y_mean);
    }
    if ss_tot == 0.0 {
        // Constant target: define R² = 1 when the fit reproduces it (up to
        // floating-point noise), 0 otherwise.
        let scale = 1.0 + y_mean * y_mean;
        return if ss_res <= 1e-12 * m as f64 * scale {
            1.0
        } else {
            0.0
        };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_util::Pcg64;

    fn synthetic(
        rng: &mut Pcg64,
        m: usize,
        coef: &[f64],
        intercept: f64,
        noise: f64,
    ) -> (Matrix, Vec<f64>) {
        let n = coef.len();
        let x = Matrix::from_fn(m, n, |_, _| rng.normal());
        let y: Vec<f64> = (0..m)
            .map(|r| intercept + crate::matrix::dot(x.row(r), coef) + noise * rng.normal())
            .collect();
        (x, y)
    }

    #[test]
    fn recovers_exact_model_qr() {
        let mut rng = Pcg64::new(81);
        let coef = [2.0, -1.5, 0.5];
        let (x, y) = synthetic(&mut rng, 100, &coef, 3.0, 0.0);
        let model =
            LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).unwrap();
        assert!((model.intercept - 3.0).abs() < 1e-9);
        for (c, t) in model.coefficients.iter().zip(&coef) {
            assert!((c - t).abs() < 1e-9);
        }
        assert!((model.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn methods_agree_with_noise() {
        let mut rng = Pcg64::new(82);
        let coef = [1.0, 0.0, -2.0, 4.0];
        let (x, y) = synthetic(&mut rng, 200, &coef, -1.0, 0.3);
        let qr = LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).unwrap();
        let ne = LinearRegression::fit(
            &x,
            &y,
            RegressionMethod::NormalEquations,
            &ExecOpts::serial(),
        )
        .unwrap();
        assert!((qr.intercept - ne.intercept).abs() < 1e-7);
        for (a, b) in qr.coefficients.iter().zip(&ne.coefficients) {
            assert!((a - b).abs() < 1e-7);
        }
        assert!((qr.r_squared - ne.r_squared).abs() < 1e-9);
        assert!(qr.r_squared > 0.9, "strong signal expected");
    }

    #[test]
    fn validates_inputs() {
        let x = Matrix::zeros(5, 3);
        let y = vec![0.0; 4];
        assert!(LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).is_err());
        // Too few rows for feature count.
        let x = Matrix::zeros(3, 5);
        let y = vec![0.0; 3];
        assert!(LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn r2_zero_for_pure_noise_mean_model() {
        let mut rng = Pcg64::new(84);
        // y unrelated to x: R² should be near zero (small positive by chance).
        let x = Matrix::from_fn(500, 2, |_, _| rng.normal());
        let y: Vec<f64> = (0..500).map(|_| rng.normal()).collect();
        let model =
            LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).unwrap();
        assert!(model.r_squared < 0.05);
    }

    #[test]
    fn constant_target_r2_one() {
        let mut rng = Pcg64::new(85);
        let x = Matrix::from_fn(50, 2, |_, _| rng.normal());
        let y = vec![7.0; 50];
        let model =
            LinearRegression::fit(&x, &y, RegressionMethod::Qr, &ExecOpts::serial()).unwrap();
        assert!((model.intercept - 7.0).abs() < 1e-9);
        assert!((model.r_squared - 1.0).abs() < 1e-9);
    }
}
