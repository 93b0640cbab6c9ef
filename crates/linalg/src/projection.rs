//! The OLS projection of the optimal-combination baseline.
//!
//! Combine reconciles node forecasts with `S (SᵀS)⁻¹ Sᵀ`, where `S` is
//! the summing matrix of the time series hyper graph; its Gram matrix is
//! positive definite for distinct base series, so a Cholesky inverse
//! serves.

use crate::{Cholesky, Matrix, Result};

/// Computes the OLS projection matrix `P = S (SᵀS)⁻¹ Sᵀ` used by the
/// optimal-combination reconciliation of Hyndman et al.
///
/// Multiplying a vector of independent node forecasts by `P` yields the
/// reconciled forecasts that are consistent with the aggregation
/// structure while minimizing the total adjustment in the least squares
/// sense.
pub fn ols_projection(s: &Matrix) -> Result<Matrix> {
    let st = s.transpose();
    let gram = st.matmul(s)?;
    let gram_inv = Cholesky::new(&gram)?.inverse()?;
    s.matmul(&gram_inv)?.matmul(&st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{matrix, max_abs_diff};

    #[test]
    fn projection_is_idempotent_and_symmetric() {
        // Summing matrix of a 2-leaf hierarchy: rows = [total; leaf1; leaf2]
        let s = matrix(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = ols_projection(&s).unwrap();
        // Idempotent: P P = P
        let pp = p.matmul(&p).unwrap();
        assert!(max_abs_diff(&pp, &p) < 1e-10);
        // Symmetric
        assert!(max_abs_diff(&p, &p.transpose()) < 1e-10);
    }

    #[test]
    fn projection_preserves_coherent_forecasts() {
        // A coherent vector (total = leaf1 + leaf2) lies in span(S) and
        // must be unchanged by the projection.
        let s = matrix(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = ols_projection(&s).unwrap();
        let coherent = [5.0, 2.0, 3.0];
        let out = p.matvec(&coherent).unwrap();
        for (a, b) in out.iter().zip(&coherent) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn projection_reconciles_incoherent_forecasts() {
        let s = matrix(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = ols_projection(&s).unwrap();
        // total says 10 but leaves say 2+3: projection must output a
        // coherent vector (first component equals sum of the rest).
        let out = p.matvec(&[10.0, 2.0, 3.0]).unwrap();
        assert!((out[0] - (out[1] + out[2])).abs() < 1e-10);
    }
}
