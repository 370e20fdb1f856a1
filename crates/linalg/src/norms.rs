//! Matrix norms and sparsity measures.
//!
//! RPCA's objective mixes the nuclear norm (handled in [`crate::svd`]), the
//! ℓ₁ norm, and — in the paper's effectiveness metric — a "zero norm"
//! `‖E‖₀`. Floating-point RPCA output is never exactly zero, so the zero
//! norm here is a *thresholded count*: an entry counts as non-zero when its
//! magnitude exceeds `tol · max_abs(reference)`.

use crate::Mat;
use rayon::prelude::*;

/// Fixed reduction block: partial sums are taken over `SUM_BLOCK`-element
/// blocks and combined in block order on BOTH the serial and parallel
/// paths, so the two produce bit-identical results for any thread count.
const SUM_BLOCK: usize = 1024;

/// Element count above which norm reductions fan out across threads.
const PAR_NORM_ELEMS: usize = 1 << 15;

/// Blocked sum of `f(x)` over `data`: deterministic regardless of
/// parallelism (see [`SUM_BLOCK`]).
fn blocked_sum(data: &[f64], f: impl Fn(f64) -> f64 + Sync) -> f64 {
    let block_total = |block: &[f64]| block.iter().map(|&x| f(x)).sum::<f64>();
    if data.len() >= PAR_NORM_ELEMS {
        let partials: Vec<f64> = data.par_chunks(SUM_BLOCK).map(block_total).collect();
        partials.into_iter().sum()
    } else {
        data.chunks(SUM_BLOCK).map(block_total).sum()
    }
}

/// Fill `out` and take `K` blocked sums in the same pass.
///
/// `f(i)` returns `out[i]` together with the `K` terms element `i`
/// contributes. Each sum runs over [`SUM_BLOCK`]-element blocks of `out`:
/// within a block the terms are added in ascending `i` from the neutral
/// element of `Iterator::sum`, and the block partials are combined in
/// block order — the order of [`fro_norm`] and [`l1_norm`]. A sum of
/// `g(out[i])` taken here is therefore bit-identical to the blocked norm of
/// the finished `out`, on the serial and parallel paths alike.
pub fn fill_blocked<const K: usize>(
    out: &mut [f64],
    f: impl Fn(usize) -> (f64, [f64; K]) + Sync,
) -> [f64; K] {
    let zero: f64 = std::iter::empty::<f64>().sum();
    let block = |(b, chunk): (usize, &mut [f64])| {
        let mut acc = [zero; K];
        for (o, i) in chunk.iter_mut().zip(b * SUM_BLOCK..) {
            let (v, terms) = f(i);
            *o = v;
            for (a, t) in acc.iter_mut().zip(terms) {
                *a += t;
            }
        }
        acc
    };
    let partials: Vec<[f64; K]> = if out.len() >= PAR_NORM_ELEMS {
        out.par_chunks_mut(SUM_BLOCK)
            .enumerate()
            .map(block)
            .collect()
    } else {
        out.chunks_mut(SUM_BLOCK).enumerate().map(block).collect()
    };
    let mut total = [zero; K];
    for p in partials {
        for (t, x) in total.iter_mut().zip(p) {
            *t += x;
        }
    }
    total
}

/// Frobenius norm: `sqrt(Σ aᵢⱼ²)`.
pub fn fro_norm(m: &Mat) -> f64 {
    blocked_sum(m.as_slice(), |v| v * v).sqrt()
}

/// Entrywise ℓ₁ norm: `Σ |aᵢⱼ|`.
pub fn l1_norm(m: &Mat) -> f64 {
    blocked_sum(m.as_slice(), |v| v.abs())
}

/// Entrywise infinity norm: `max |aᵢⱼ|`.
pub fn inf_norm(m: &Mat) -> f64 {
    m.max_abs()
}

/// Number of entries with `|aᵢⱼ| > threshold`.
pub fn count_above(m: &Mat, threshold: f64) -> usize {
    let data = m.as_slice();
    let block_count =
        |block: &[f64]| block.iter().filter(|v| v.abs() > threshold).count();
    if data.len() >= PAR_NORM_ELEMS {
        let partials: Vec<usize> = data.par_chunks(SUM_BLOCK).map(block_count).collect();
        partials.into_iter().sum()
    } else {
        data.iter().filter(|v| v.abs() > threshold).count()
    }
}

/// The paper's relative zero-norm `‖E‖₀ / ‖A‖₀` implemented with a
/// threshold relative to the scale of `reference`.
///
/// `‖E‖₀` counts entries of `e` whose magnitude exceeds
/// `rel_tol · max_abs(reference)`; `‖A‖₀` counts entries of `reference`
/// exceeding the same threshold. Returns 0.0 when `reference` is all
/// (numerically) zero.
pub fn zero_norm_frac(e: &Mat, reference: &Mat, rel_tol: f64) -> f64 {
    let scale = reference.max_abs();
    if scale == 0.0 {
        return 0.0;
    }
    let thresh = rel_tol * scale;
    let denom = count_above(reference, thresh);
    if denom == 0 {
        return 0.0;
    }
    count_above(e, thresh) as f64 / denom as f64
}

/// ℓ₁ analogue of [`zero_norm_frac`]: `‖E‖₁ / ‖A‖₁`.
///
/// Smoother than the thresholded count and used wherever the paper's
/// qualitative `Norm(N_E)` trends are checked against continuous quantities.
pub fn l1_norm_frac(e: &Mat, reference: &Mat) -> f64 {
    let denom = l1_norm(reference);
    if denom == 0.0 {
        0.0
    } else {
        l1_norm(e) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fro_of_345() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((fro_norm(&m) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_and_inf() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(l1_norm(&m), 10.0);
        assert_eq!(inf_norm(&m), 4.0);
    }

    #[test]
    fn count_above_threshold() {
        let m = Mat::from_rows(&[&[0.1, -2.0], &[3.0, 0.0]]);
        assert_eq!(count_above(&m, 0.5), 2);
        assert_eq!(count_above(&m, 0.0), 3);
    }

    #[test]
    fn zero_norm_frac_basic() {
        let a = Mat::full(2, 2, 10.0);
        let mut e = Mat::zeros(2, 2);
        e[(0, 0)] = 5.0;
        // threshold = 1e-6 * 10; one of four entries of e above it, all of a.
        assert!((zero_norm_frac(&e, &a, 1e-6) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_norm_frac_zero_reference() {
        let a = Mat::zeros(3, 3);
        let e = Mat::full(3, 3, 1.0);
        assert_eq!(zero_norm_frac(&e, &a, 1e-6), 0.0);
    }

    #[test]
    fn fill_blocked_sums_match_blocked_norms() {
        // 40 000 elements: above the parallel threshold, with a partial
        // last block; the terms include -0.0 so the neutral element shows.
        let src: Vec<f64> = (0..40_000)
            .map(|i| {
                if i % 5 == 0 {
                    -0.0
                } else {
                    ((i * 37) % 101) as f64 - 50.5
                }
            })
            .collect();
        let mut out = Mat::zeros(1, src.len());
        let [sq, abs, raw] = fill_blocked(out.as_mut_slice(), |i| {
            (src[i], [src[i] * src[i], src[i].abs(), src[i]])
        });
        assert_eq!(out.as_slice(), &src[..]);
        assert_eq!(sq.sqrt().to_bits(), fro_norm(&out).to_bits());
        assert_eq!(abs.to_bits(), l1_norm(&out).to_bits());
        assert_eq!(raw.to_bits(), blocked_sum(&src, |v| v).to_bits());
        let small = &src[..3000];
        let mut out = vec![0.0; small.len()];
        let [raw] = fill_blocked(&mut out, |i| (small[i], [small[i]]));
        assert_eq!(raw.to_bits(), blocked_sum(small, |v| v).to_bits());
    }

    #[test]
    fn l1_frac() {
        let a = Mat::full(2, 2, 2.0);
        let e = Mat::full(2, 2, 1.0);
        assert!((l1_norm_frac(&e, &a) - 0.5).abs() < 1e-12);
        assert_eq!(l1_norm_frac(&e, &Mat::zeros(2, 2)), 0.0);
    }
}
