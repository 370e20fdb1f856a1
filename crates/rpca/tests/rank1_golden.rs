//! Golden `to_bits` digests of [`rank1_rpca`]'s output.
//!
//! The digests were captured from the sort-based solver, before the MAD
//! was taken by selection. Any rewrite of the sweep loop must reproduce
//! every bit of `constant` and `e` and the exact `outliers` and `iters`.
//! The cases cover the unit tests' spikes fixture, an integer-valued
//! matrix whose residuals are full of exact ties and zeros, a matrix whose
//! MAD sits exactly between a run of zeros and a run of ones, a matrix whose
//! flagged set exceeds the `max_outlier_frac` cap (so the stable
//! tie-order of the truncation matters), and a seeded 9×4096 history
//! shaped like a TP-matrix plane under rack blackouts.

use cloudconst_linalg::Mat;
use cloudconst_rpca::{constant_matrix, rank1_rpca, Rank1Options, Rank1Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the bit patterns of `xs`, one 64-bit word per element.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(digest(constant), digest(e), outliers, iters)` of one result.
fn fingerprint(r: &Rank1Result) -> (u64, u64, usize, usize) {
    (
        digest(&r.constant),
        digest(r.e.as_slice()),
        r.outliers,
        r.iters,
    )
}

/// Constant rows `5 + (j mod 4)` plus spikes — the unit tests' fixture.
fn spikes_fixture() -> Mat {
    let row: Vec<f64> = (0..10).map(|j| 5.0 + (j % 4) as f64).collect();
    let mut a = constant_matrix(&row, 8);
    for &(i, j, v) in &[(1usize, 3usize, 40.0), (4, 7, -35.0), (2, 0, 25.0)] {
        a[(i, j)] += v;
    }
    a
}

/// Small integers only: every column repeats a handful of values, so the
/// residuals hold many exact duplicates and exact zeros.
fn tie_heavy() -> Mat {
    const OFFSETS: [f64; 9] = [0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 2.0, 0.0];
    let (m, n) = (9, 48);
    let mut a = Mat::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            a[(i, j)] = (j % 6) as f64 + OFFSETS[(i + j) % 9];
        }
    }
    for &(i, j) in &[(0usize, 5usize), (3, 17), (8, 40), (4, 41), (6, 2)] {
        a[(i, j)] += 20.0;
    }
    a
}

/// Every column holds two entries one above its median and two on it, so
/// half the residuals are exactly 0 and half exactly 1: the MAD's index
/// `(len − 1)/2` reads 0 where `len/2` would read 1, and a median taken
/// at the wrong index moves every output bit.
fn even_split() -> Mat {
    let (m, n) = (4, 10);
    let mut a = Mat::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            a[(i, j)] = j as f64 + if (i + j) % 4 < 2 { 1.0 } else { 0.0 };
        }
    }
    a
}

/// Whether entry `(i, j)` of [`over_cap`] is lifted: 2 of every
/// column's 10.
fn lifted(i: usize, j: usize) -> bool {
    (7 * i + 3 * j) % 10 < 2
}

/// Exact constant rows with 20% of the entries lifted by one of two
/// magnitudes. Every sweep flags all 40 lifted entries, and a 10% cap
/// keeps only 20 of them: the largest, ties in index order. The lifted
/// entries the cap drops pull the refit constant, so which tied entries
/// are kept shows in every bit of the result.
fn over_cap() -> Mat {
    let row: Vec<f64> = (0..20).map(|j| 1.0 + (j % 3) as f64).collect();
    let mut a = constant_matrix(&row, 10);
    for i in 0..10 {
        for j in 0..20 {
            if lifted(i, j) {
                a[(i, j)] += if (i + j) % 7 == 0 { 7.0 } else { 10.0 };
            }
        }
    }
    a
}

/// A 9-snapshot history of a 64-VM TP-matrix plane (9 × 4096) shaped like
/// the rack-blackout workload: zero diagonal, a per-link constant with
/// ±5% jitter and occasional spikes, and in each snapshot a 35% chance
/// that one 8-VM rack went dark. A dark rack's links carry one shared
/// fill value in the first snapshot (the snapshot-median fallback) and
/// the previous snapshot's value later on (a last-good fill).
fn rack_blackout_history(seed: u64) -> Mat {
    let (vms, rack, steps) = (64usize, 8usize, 9usize);
    let cells = vms * vms;
    let mut rng = StdRng::seed_from_u64(seed);
    let constant: Vec<f64> = (0..cells)
        .map(|k| {
            let (i, j) = (k / vms, k % vms);
            if i == j {
                0.0
            } else {
                let class = if i / rack == j / rack { 1.0 } else { 3.0 };
                class * 1e-4 * rng.random_range(0.9..1.1)
            }
        })
        .collect();
    let mut a = Mat::zeros(steps, cells);
    for s in 0..steps {
        for k in 0..cells {
            if k / vms != k % vms {
                let spike = if rng.random_bool(0.03) {
                    rng.random_range(2.0..5.0)
                } else {
                    1.0
                };
                a[(s, k)] = constant[k] * rng.random_range(0.95..1.05) * spike;
            }
        }
        if rng.random_bool(0.35) {
            let dark = rng.random_range(0..vms / rack);
            for k in 0..cells {
                let (i, j) = (k / vms, k % vms);
                if i != j && (i / rack == dark || j / rack == dark) {
                    a[(s, k)] = if s == 0 { 2e-4 } else { a[(s - 1, k)] };
                }
            }
        }
    }
    a
}

#[test]
fn spikes_fixture_matches_golden_bits() {
    let r = rank1_rpca(&spikes_fixture(), &Rank1Options::default());
    assert_eq!(
        fingerprint(&r),
        (0xc647_07cc_20f6_ef8d, 0x2103_04b8_290b_8965, 3, 2),
        "golden digest of the spikes fixture"
    );
}

#[test]
fn tie_heavy_matrix_matches_golden_bits() {
    let r = rank1_rpca(&tie_heavy(), &Rank1Options::default());
    assert_eq!(
        fingerprint(&r),
        (0xe6dd_945a_1cd8_d6e5, 0x4815_5423_10fb_b4e5, 148, 2),
        "golden digest of the tie-heavy integer matrix"
    );
}

#[test]
fn even_split_matrix_matches_golden_bits() {
    let r = rank1_rpca(&even_split(), &Rank1Options::default());
    assert_eq!(
        fingerprint(&r),
        (0x7659_07cc_20f6_ef8d, 0x9f56_9e0c_f0f6_5c45, 20, 2),
        "golden digest of the even-split matrix"
    );
}

#[test]
fn over_cap_matrix_matches_golden_bits() {
    let opts = Rank1Options {
        max_outlier_frac: 0.1,
        ..Rank1Options::default()
    };
    let lifted = (0..200).filter(|k| lifted(k / 20, k % 20)).count();
    assert_eq!(lifted, 40);
    let r = rank1_rpca(&over_cap(), &opts);
    assert_eq!(r.outliers, 20, "the cap (10% of 200) must bind");
    assert_eq!(
        fingerprint(&r),
        (0x11e6_7554_d40a_2e8e, 0xb45c_f9da_d0ca_a631, 20, 2),
        "golden digest of the over-cap matrix"
    );
}

#[test]
fn rack_blackout_history_matches_golden_bits() {
    let r = rank1_rpca(
        &rack_blackout_history(0x000b_1ac0),
        &Rank1Options::default(),
    );
    assert_eq!(
        fingerprint(&r),
        (0xc742_1d95_973d_b7fc, 0x7daa_121a_dec8_aca6, 1131, 5),
        "golden digest of the seeded 9×4096 rack-blackout history"
    );
}
