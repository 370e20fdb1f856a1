//! Robust Principal Component Analysis for `cloudconst`.
//!
//! RPCA decomposes a data matrix `A` into a low-rank component `D` and a
//! sparse component `E`:
//!
//! ```text
//! minimize   rank(D) + λ‖E‖₀      subject to  A = D + E
//! ```
//!
//! relaxed, as usual, to the convex surrogate `‖D‖* + λ‖E‖₁`. Two solvers
//! are provided:
//!
//! * [`apg`] — the **accelerated proximal gradient** method with
//!   continuation, the algorithm of Ji & Ye that the paper uses
//!   (paper §II-B, reference [20]/[35]).
//! * [`ialm`] — the **inexact augmented Lagrange multiplier** method, an
//!   independent solver used for cross-checks and ablation.
//!
//! On top of the raw decomposition, [`constant`] extracts the paper's
//! rank-one *constant component* (all rows identical — the long-term
//! pair-wise performance estimate) and [`metrics`] computes the paper's
//! effectiveness measure `Norm(N_E) = ‖N_E‖₀ / ‖N_A‖₀`.

pub mod apg;
pub mod constant;
pub mod ialm;
pub mod metrics;
pub mod rank1;

pub use apg::{apg, ApgOptions};
pub use constant::{constant_matrix, extract_constant, ConstantMethod};
pub use ialm::{ialm, IalmOptions};
pub use metrics::{norm_ne, norm_ne_l1, norm_ne_l1_masked, norm_ne_masked, relative_difference};
pub use rank1::{order_statistic, rank1_rpca, Rank1Options, Rank1Result};

use cloudconst_linalg::{svd_trunc, LinalgError, Mat};

/// Result of an RPCA decomposition `A ≈ D + E`.
#[derive(Debug, Clone)]
pub struct RpcaResult {
    /// Low-rank component.
    pub d: Mat,
    /// Sparse component as produced by the solver.
    pub e: Mat,
    /// Iterations performed.
    pub iters: usize,
    /// Final relative residual `‖A − D − E‖_F / ‖A‖_F`.
    pub residual: f64,
    /// Rank of `D` at the last singular-value thresholding step.
    pub rank: usize,
}

impl RpcaResult {
    /// The sparse component re-derived so the decomposition is *exact*:
    /// `E := A − D`. The paper's problem statement requires `N_A = N_D +
    /// N_E` as an equality; solvers only satisfy it to a small residual, so
    /// downstream code uses this exact form.
    pub fn exact_error(&self, a: &Mat) -> Result<Mat, LinalgError> {
        a.sub(&self.d)
    }
}

/// Errors from RPCA solvers.
#[derive(Debug, Clone)]
pub enum RpcaError {
    /// Underlying linear algebra failed.
    Linalg(LinalgError),
    /// The solver hit its iteration budget without satisfying the tolerance.
    NoConvergence {
        /// Iterations performed.
        iters: usize,
        /// Relative residual `‖A − D − E‖_F / ‖A‖_F` when the budget ran
        /// out, in the same (original-data) scale as `partial`.
        residual: f64,
        /// The decomposition reached when the budget ran out, rescaled to
        /// the original data. A near-tolerance partial split is usually
        /// still usable as an estimate; callers that need strict
        /// convergence can keep treating this as a failure.
        partial: Box<RpcaResult>,
    },
    /// Invalid option value (e.g. non-positive λ).
    BadOption(&'static str),
}

impl From<LinalgError> for RpcaError {
    fn from(e: LinalgError) -> Self {
        RpcaError::Linalg(e)
    }
}

impl std::fmt::Display for RpcaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcaError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            RpcaError::NoConvergence {
                iters, residual, ..
            } => {
                write!(f, "RPCA did not converge in {iters} iterations (residual {residual:.3e})")
            }
            RpcaError::BadOption(msg) => write!(f, "invalid RPCA option: {msg}"),
        }
    }
}

impl std::error::Error for RpcaError {}

/// Crate result alias.
pub type Result<T, E = RpcaError> = std::result::Result<T, E>;

/// The standard RPCA sparsity weight `λ = 1/√max(m, n)` (Candès et al.).
pub fn default_lambda(rows: usize, cols: usize) -> f64 {
    1.0 / (rows.max(cols) as f64).sqrt()
}

/// Spectral norm (largest singular value) of a matrix.
pub fn spectral_norm(a: &Mat) -> Result<f64, LinalgError> {
    Ok(svd_trunc(a, 0.0)?.s.first().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lambda_values() {
        assert!((default_lambda(10, 100) - 0.1).abs() < 1e-12);
        assert!((default_lambda(100, 10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spectral_norm_diag() {
        let a = Mat::diag(&[1.0, -7.0, 3.0]);
        assert!((spectral_norm(&a).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn exact_error_closes_decomposition() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = RpcaResult {
            d: Mat::from_rows(&[&[1.0, 2.0], &[3.0, 3.0]]),
            e: Mat::zeros(2, 2),
            iters: 0,
            residual: 0.0,
            rank: 1,
        };
        let e = r.exact_error(&a).unwrap();
        assert_eq!(r.d.add(&e).unwrap(), a);
    }
}
