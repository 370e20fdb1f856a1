//! Proximal (shrinkage) operators used by RPCA.
//!
//! * [`soft_threshold`] — the proximal operator of `τ‖·‖₁`: shrink every
//!   entry toward zero by `τ`, clamping at zero. [`shrink`] is the same
//!   operator on one scalar, for callers that fuse it into a larger pass.
//! * [`svt`] — singular-value thresholding, the proximal operator of
//!   `τ‖·‖*` (nuclear norm): soft-threshold the singular values.
//!   [`svt_into`] writes the result into a caller-owned buffer, so an
//!   iterative solver can reuse one output matrix across iterations.

use crate::svd::svd_trunc;
use crate::{LinalgError, Mat, Result};
use rayon::prelude::*;

/// Element count above which shrinkage fans out across threads. The
/// operation is pure per-element, so the parallel path is bit-identical to
/// the serial one.
const PAR_SHRINK_ELEMS: usize = 1 << 15;

/// Chunk length for parallel shrinkage.
const SHRINK_CHUNK: usize = 4096;

/// Elementwise soft-thresholding: `sign(x) · max(|x| − tau, 0)`.
pub fn soft_threshold(m: &Mat, tau: f64) -> Mat {
    let mut out = m.clone();
    soft_threshold_into(&mut out, tau);
    out
}

/// In-place variant of [`soft_threshold`].
pub fn soft_threshold_into(m: &mut Mat, tau: f64) {
    let data = m.as_mut_slice();
    if data.len() >= PAR_SHRINK_ELEMS {
        data.par_chunks_mut(SHRINK_CHUNK).for_each(|chunk| {
            for x in chunk {
                *x = shrink(*x, tau);
            }
        });
    } else {
        for x in data {
            *x = shrink(*x, tau);
        }
    }
}

/// Scalar soft-thresholding, the per-element body of [`soft_threshold`]:
/// `x − τ` above `τ`, `x + τ` below `−τ`, `0` between (and for NaN).
///
/// Both candidates are computed and then selected, which compiles to
/// branch-free code: on RPCA's sparse component the sign of `x` is close
/// to random, and a branch per element would mispredict about half the
/// time.
#[inline]
pub fn shrink(x: f64, tau: f64) -> f64 {
    let (down, up) = (x - tau, x + tau);
    let below = if x < -tau { up } else { 0.0 };
    if x > tau {
        down
    } else {
        below
    }
}

/// Result of a singular-value thresholding step.
#[derive(Debug, Clone)]
pub struct SvtResult {
    /// The thresholded matrix `U (Σ − τ)₊ Vᵀ`.
    pub mat: Mat,
    /// Rank after thresholding (number of surviving singular values).
    pub rank: usize,
    /// Nuclear norm of the result.
    pub nuclear: f64,
}

/// Singular-value thresholding: `D_τ(A) = U (Σ − τI)₊ Vᵀ`.
///
/// Only singular triplets with `σ > τ` are computed (the truncated SVD never
/// materializes the rest), which is what keeps RPCA iterations cheap on wide
/// matrices whose low-rank part has tiny rank.
pub fn svt(a: &Mat, tau: f64) -> Result<SvtResult> {
    let mut mat = Mat::zeros(a.rows(), a.cols());
    let (rank, nuclear) = svt_into(a, tau, &mut mat)?;
    Ok(SvtResult { mat, rank, nuclear })
}

/// [`svt`] into a caller-owned buffer: overwrites `out` (same shape as
/// `a`) with `U (Σ − τI)₊ Vᵀ` and returns `(rank, nuclear norm)`.
///
/// Every previous value of `out` is overwritten; at rank 0 the buffer is
/// all `+0.0`. Element `(i, c)` is `Σₖ (uᵢₖ·(σₖ − τ))·vᶜₖ` added in
/// ascending `k` from `+0.0`, skipping zero left factors — exactly the
/// arithmetic of the `U·diag(σ − τ)` by `Vᵀ` matrix product, read straight
/// from `V` without materializing its transpose.
pub fn svt_into(a: &Mat, tau: f64, out: &mut Mat) -> Result<(usize, f64)> {
    if out.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "svt_into",
            lhs: a.shape(),
            rhs: out.shape(),
        });
    }
    let svd = svd_trunc(a, tau)?;
    let shrunk: Vec<f64> = svd.s.iter().map(|&s| s - tau).collect();
    let rank = shrunk.len();
    let nuclear = shrunk.iter().sum();
    let cols = out.cols();
    let v = svd.v.as_slice();
    let row = |(i, out_row): (usize, &mut [f64])| {
        out_row.fill(0.0);
        for (k, (&u, &s)) in svd.u.row(i).iter().zip(&shrunk).enumerate() {
            let us = u * s;
            if us == 0.0 {
                continue;
            }
            for (o, v_row) in out_row.iter_mut().zip(v.chunks_exact(rank)) {
                *o += us * v_row[k];
            }
        }
    };
    if out.rows() * cols >= PAR_SHRINK_ELEMS {
        out.as_mut_slice()
            .par_chunks_mut(cols)
            .enumerate()
            .for_each(row);
    } else {
        out.as_mut_slice()
            .chunks_mut(cols)
            .enumerate()
            .for_each(row);
    }
    Ok((rank, nuclear))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::fro_norm;

    #[test]
    fn soft_threshold_scalar_cases() {
        let m = Mat::from_rows(&[&[3.0, -3.0, 0.5, -0.5, 0.0]]);
        let s = soft_threshold(&m, 1.0);
        assert_eq!(s.as_slice(), &[2.0, -2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn shrink_matches_the_three_way_definition() {
        let reference = |x: f64, tau: f64| {
            if x > tau {
                x - tau
            } else if x < -tau {
                x + tau
            } else {
                0.0
            }
        };
        let xs = [
            3.0,
            -3.0,
            1.0,
            -1.0,
            0.5,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &tau in &[1.0, 0.0, -0.5, f64::INFINITY] {
            for &x in &xs {
                assert_eq!(
                    shrink(x, tau).to_bits(),
                    reference(x, tau).to_bits(),
                    "x={x} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn soft_threshold_zero_tau_is_identity() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[0.0, 4.0]]);
        assert_eq!(soft_threshold(&m, 0.0), m);
    }

    #[test]
    fn soft_threshold_into_matches() {
        let m = Mat::from_rows(&[&[3.0, -0.2], &[1.5, -9.0]]);
        let mut m2 = m.clone();
        soft_threshold_into(&mut m2, 1.0);
        assert_eq!(m2, soft_threshold(&m, 1.0));
    }

    #[test]
    fn svt_diagonal() {
        let a = Mat::diag(&[5.0, 2.0, 0.5]);
        let r = svt(&a, 1.0).unwrap();
        assert_eq!(r.rank, 2);
        assert!((r.mat[(0, 0)] - 4.0).abs() < 1e-9);
        assert!((r.mat[(1, 1)] - 1.0).abs() < 1e-9);
        assert!(r.mat[(2, 2)].abs() < 1e-9);
        assert!((r.nuclear - 5.0).abs() < 1e-9);
    }

    #[test]
    fn svt_kills_everything_with_huge_tau() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = svt(&a, 1e6).unwrap();
        assert_eq!(r.rank, 0);
        assert_eq!(fro_norm(&r.mat), 0.0);
    }

    #[test]
    fn svt_shrinks_nuclear_norm() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let before = crate::svd::svd_thin(&a).unwrap().nuclear_norm();
        let r = svt(&a, 0.5).unwrap();
        assert!(r.nuclear < before);
    }

    #[test]
    fn svt_into_overwrites_a_dirty_reused_buffer() {
        let a = Mat::from_rows(&[
            &[4.0, 1.0, 0.5, -2.0, 3.0],
            &[2.0, 3.0, -1.0, 0.0, 1.5],
            &[0.5, -0.5, 2.5, 1.0, -1.0],
        ]);
        let sigma = crate::svd::svd_thin(&a).unwrap().s;
        // The allocating formulation: U·diag(σ − τ) times Vᵀ by `matmul`.
        let product = |tau: f64| {
            let svd = svd_trunc(&a, tau).unwrap();
            let mut us = svd.u.clone();
            for i in 0..us.rows() {
                for (v, &s) in us.row_mut(i).iter_mut().zip(&svd.s) {
                    *v *= s - tau;
                }
            }
            us.matmul(&svd.v.transpose()).unwrap()
        };
        // One buffer for every call, dirty to start with and then holding
        // the previous call's output.
        let mut out = Mat::full(3, 5, f64::NAN);
        for (want_rank, tau) in [
            (2, (sigma[1] + sigma[2]) / 2.0),
            (0, sigma[0] * 1.01),
            (1, (sigma[0] + sigma[1]) / 2.0),
            (0, sigma[0] * 1.01),
            (2, (sigma[1] + sigma[2]) / 2.0),
        ] {
            let (rank, nuclear) = svt_into(&a, tau, &mut out).unwrap();
            let r = svt(&a, tau).unwrap();
            assert_eq!(rank, want_rank);
            assert_eq!((rank, nuclear.to_bits()), (r.rank, r.nuclear.to_bits()));
            if rank == 0 {
                // τ above σ_max: every element is +0.0.
                assert!(out
                    .as_slice()
                    .iter()
                    .all(|v| v.to_bits() == 0.0f64.to_bits()));
            } else {
                let want = product(tau);
                for (x, y) in out.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "rank {rank} vs matmul");
                }
            }
            for (x, y) in out.as_slice().iter().zip(r.mat.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "rank {rank} vs svt");
            }
        }

        let mut wrong = Mat::zeros(5, 3);
        assert!(matches!(
            svt_into(&a, 1.0, &mut wrong),
            Err(LinalgError::ShapeMismatch { op: "svt_into", .. })
        ));
    }

    #[test]
    fn svt_preserves_rank_one_direction() {
        let a = Mat::outer(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        let r = svt(&a, 0.1).unwrap();
        assert_eq!(r.rank, 1);
        // Result is still (approximately) constant.
        let vals = r.mat.as_slice();
        for v in vals {
            assert!((v - vals[0]).abs() < 1e-9);
        }
    }
}
