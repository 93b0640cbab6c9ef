#![allow(clippy::needless_range_loop)] // triangular solves read clearest with index loops
//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, stored as the lower-triangular factor `L`.
///
/// Used to solve the normal equations `(SᵀS) β = Sᵀy` that arise in the
/// optimal-combination reconciliation baseline. The factorization fails
/// with [`LinalgError::Singular`] when a pivot drops below a small
/// tolerance.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is assumed, matching how the normal-equation matrices are
    /// constructed.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        // Tolerance scaled by the largest diagonal entry keeps the test
        // meaningful for both tiny and large magnitude systems.
        let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0, f64::max);
        let tol = 1e-12 * max_diag.max(1.0);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= tol {
                return Err(LinalgError::Singular);
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via forward and backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("matrix with {n} rows"),
                found: format!("matrix with {} rows", b.rows()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let col = b.col(c);
            let x = self.solve(&col)?;
            for (r, v) in x.into_iter().enumerate() {
                out[(r, c)] = v;
            }
        }
        Ok(out)
    }

    /// Computes `A⁻¹` by solving against the identity.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.l.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{matrix, max_abs_diff};

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B random-ish; hand-picked SPD matrix.
        matrix(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn solve_matches_direct_check() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(max_abs_diff(&prod, &Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = matrix(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(Cholesky::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_singular() {
        let a = matrix(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(Cholesky::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn one_by_one_matrix() {
        let ch = Cholesky::new(&matrix(&[&[9.0]])).unwrap();
        assert!((ch.solve(&[18.0]).unwrap()[0] - 2.0).abs() < 1e-12);
    }
}
