//! # fdc-linalg
//!
//! A small, dependency-free dense linear algebra kernel for the
//! *optimal combination* (Hyndman et al.) baseline of the data-cube
//! reproduction, which reconciles independent node forecasts through the
//! ordinary least squares projection `ŷ̃ = S (SᵀS)⁻¹ Sᵀ ŷ`.
//!
//! The crate provides exactly what that projection needs:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with transpose and
//!   multiplication,
//! * [`cholesky::Cholesky`] — Cholesky factorization of symmetric
//!   positive-definite systems, and the inverse built from it,
//! * [`ols_projection`] — the projection matrix itself.
//!
//! All algorithms are textbook implementations (Golub & Van Loan) written
//! for clarity; the matrices appearing in the reproduction are small
//! (number of graph nodes × number of base series), so asymptotics are not
//! a concern, but the kernels are still written allocation-consciously.

//! ## Example
//!
//! ```
//! use fdc_linalg::{ols_projection, Matrix};
//!
//! // A total over two leaves: rows [total; leaf 1; leaf 2].
//! let mut s = Matrix::zeros(3, 2);
//! for (r, c) in [(0, 0), (0, 1), (1, 0), (2, 1)] {
//!     s[(r, c)] = 1.0;
//! }
//! let p = ols_projection(&s).unwrap();
//! // The total says 10, the leaves 2 + 3: the reconciled vector adds up.
//! let y = p.matvec(&[10.0, 2.0, 3.0]).unwrap();
//! assert!((y[0] - (y[1] + y[2])).abs() < 1e-9);
//! ```

pub mod cholesky;
pub mod matrix;
pub mod projection;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use projection::ols_projection;

/// Error type for linear algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was supplied.
        found: String,
    },
    /// The matrix is (numerically) singular or not positive definite.
    Singular,
    /// The input is empty where a non-empty value is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular or not positive definite"),
            LinalgError::Empty => write!(f, "empty input"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
