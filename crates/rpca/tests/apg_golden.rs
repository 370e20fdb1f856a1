//! Golden `to_bits` digests of [`apg`]'s output.
//!
//! The digests were captured from the original allocating APG loop. Any
//! rewrite of the solver's inner loop must reproduce every bit of `d`, `e`,
//! `residual` and `rank`: a faster solver that moves one ulp is a
//! different solver. The cases cover a small converged solve, a
//! paper-shaped 10×4096 solve above every parallel threshold, a
//! non-converged partial and the trivial zero input.

use cloudconst_linalg::Mat;
use cloudconst_rpca::{apg, ApgOptions, RpcaError, RpcaResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the bit patterns of `xs`, one 64-bit word per element.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(digest(d), digest(e), residual bits, rank, iters)` of one result.
fn fingerprint(r: &RpcaResult) -> (u64, u64, u64, usize, usize) {
    (
        digest(r.d.as_slice()),
        digest(r.e.as_slice()),
        r.residual.to_bits(),
        r.rank,
        r.iters,
    )
}

/// Constant rows `10 + (j mod 7)` plus the given spikes — the fixture of
/// the solver's `wide_matrix_like_tp_matrix` unit test.
fn constant_rows_plus_spikes(m: usize, n: usize, spikes: &[(usize, usize, f64)]) -> Mat {
    let mut a = Mat::zeros(m, n);
    for i in 0..m {
        for (j, v) in a.row_mut(i).iter_mut().enumerate() {
            *v = 10.0 + (j % 7) as f64;
        }
    }
    for &(i, j, v) in spikes {
        a[(i, j)] += v;
    }
    a
}

/// Seeded rank-one matrix (`u vᵀ`, rows within ±5% of each other) with
/// ~2% of its entries replaced by large positive spikes.
fn seeded_rank1_plus_spikes(m: usize, n: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let u: Vec<f64> = (0..m).map(|_| rng.random_range(0.95..1.05)).collect();
    let v: Vec<f64> = (0..n).map(|_| rng.random_range(5.0..15.0)).collect();
    let mut a = Mat::outer(&u, &v);
    for x in a.as_mut_slice() {
        if rng.random_range(0.0..1.0) < 0.02 {
            *x += rng.random_range(20.0..40.0);
        }
    }
    a
}

#[test]
fn converged_wide_fixture_matches_golden_bits() {
    let a = constant_rows_plus_spikes(10, 256, &[(3, 100, 50.0), (7, 200, 45.0)]);
    let r = apg(&a, &ApgOptions::default()).unwrap();
    assert_eq!(
        fingerprint(&r),
        (
            0x4b9a_61f5_6b51_f721,
            0xa9b4_82fc_3892_39f1,
            0x3f3d_57c2_8191_7f8f,
            1,
            74
        ),
        "golden digest of the converged 10×256 fixture"
    );
}

#[test]
fn paper_shaped_solve_matches_golden_bits() {
    // 10×4096 = 40960 elements: above the shrinkage, norm and SVD
    // V-accumulation parallel thresholds.
    let a = seeded_rank1_plus_spikes(10, 4096, 0x00c1_0c0d);
    let r = apg(&a, &ApgOptions::default()).unwrap();
    assert_eq!(
        fingerprint(&r),
        (
            0x6a71_bb17_4892_1127,
            0x9bff_b734_1c5d_257f,
            0x3f40_3078_2726_b9aa,
            1,
            73
        ),
        "golden digest of the seeded 10×4096 solve"
    );
}

#[test]
fn no_convergence_partial_matches_golden_bits() {
    let a = seeded_rank1_plus_spikes(10, 4096, 0x00c1_0c0d);
    let opts = ApgOptions {
        max_iters: 3,
        ..Default::default()
    };
    match apg(&a, &opts) {
        Err(RpcaError::NoConvergence {
            iters,
            residual,
            partial,
        }) => {
            assert_eq!(iters, 3);
            assert_eq!(residual.to_bits(), partial.residual.to_bits());
            assert_eq!(
                fingerprint(&partial),
                (
                    0xb354_2a3f_44c9_0cd5,
                    0xdf34_e00c_ea50_2154,
                    0x3fea_c396_12bd_d5bc,
                    5,
                    3
                ),
                "golden digest of the 3-iteration partial"
            );
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
fn zero_matrix_matches_golden_bits() {
    let a = Mat::zeros(10, 4096);
    let r = apg(&a, &ApgOptions::default()).unwrap();
    assert_eq!(
        fingerprint(&r),
        (0x1125_3a7d_791e_a325, 0x1125_3a7d_791e_a325, 0, 0, 0),
        "golden digest of the zero input"
    );
}
