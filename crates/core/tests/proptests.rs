//! Property tests: the matrix engine agrees with per-pair brute force.
//! Seeded `ld-rng` cases replace `proptest` (unavailable offline).

use ld_bitmat::BitMatrix;
use ld_core::{ld_pair_from_counts, LdEngine, LdStats, NanPolicy, RowSlabVisit, RunControl};
use ld_rng::SmallRng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn random_matrix(rng: &mut SmallRng) -> BitMatrix {
    let n_samples = rng.gen_range(1usize..150);
    let n_snps = rng.gen_range(1usize..14);
    let rows: Vec<Vec<u8>> = (0..n_samples)
        .map(|_| (0..n_snps).map(|_| u8::from(rng.gen::<bool>())).collect())
        .collect();
    BitMatrix::from_rows(n_samples, n_snps, rows).unwrap()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-10 || (a.is_nan() && b.is_nan())
}

#[test]
fn r2_matrix_matches_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xb1);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        let e = LdEngine::new();
        let r2 = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let n_samples = g.n_samples() as u64;
        for i in 0..g.n_snps() {
            for j in i..g.n_snps() {
                // brute-force the three counts
                let mut c_ii = 0u64;
                let mut c_jj = 0u64;
                let mut c_ij = 0u64;
                for s in 0..g.n_samples() {
                    let (a, b) = (g.get(s, i), g.get(s, j));
                    c_ii += u64::from(a);
                    c_jj += u64::from(b);
                    c_ij += u64::from(a && b);
                }
                let want = ld_pair_from_counts(c_ii, c_jj, c_ij, n_samples, NanPolicy::Propagate);
                assert!(
                    close(r2.get(i, j), want.r2),
                    "case {case}: ({i},{j}): {} vs {}",
                    r2.get(i, j),
                    want.r2
                );
            }
        }
    }
}

#[test]
fn r2_values_in_unit_interval() {
    let mut rng = SmallRng::seed_from_u64(0xb2);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        let r2 = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("LD matrix");
        for (_, _, v) in r2.iter_upper() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v), "case {case}: r2 = {v}");
        }
    }
}

#[test]
fn d_prime_dominates_in_magnitude() {
    let mut rng = SmallRng::seed_from_u64(0xb3);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        // |D'| ≥ r for every pair (a classical inequality: r² ≤ D'²)
        let e = LdEngine::new().nan_policy(NanPolicy::Zero);
        let r2 = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let dp = e.try_stat_matrix(&g, LdStats::DPrime).expect("LD matrix");
        for (i, j, v) in r2.iter_pairs() {
            let d = dp.get(i, j);
            assert!(d * d + 1e-9 >= v, "case {case}: ({i},{j}): D'={d} r2={v}");
        }
    }
}

#[test]
fn cross_equals_square_blocks() {
    let mut rng = SmallRng::seed_from_u64(0xb4);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        if g.n_snps() < 2 {
            continue;
        }
        let e = LdEngine::new();
        let mid = g.n_snps() / 2;
        for stat in [LdStats::RSquared, LdStats::D, LdStats::DPrime] {
            let full = e.try_stat_matrix(&g, stat).expect("LD matrix");
            let cross = e
                .try_cross_stat_matrix(g.view(0, mid), g.view(mid, g.n_snps()), stat)
                .unwrap();
            for i in 0..mid {
                for j in 0..g.n_snps() - mid {
                    // one transform body ⇒ the same bits, NaNs included
                    assert_eq!(
                        cross.get(i, j).to_bits(),
                        full.get(i, mid + j).to_bits(),
                        "case {case}: {stat:?} ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn tiled_equals_full() {
    let mut rng = SmallRng::seed_from_u64(0xb5);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        let tile = rng.gen_range(1usize..8);
        let e = LdEngine::new();
        let full = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
        let visited = AtomicUsize::new(0);
        let visit = |s: &RowSlabVisit<'_>| {
            for (i, row) in s.rows() {
                for (t, &v) in row.iter().enumerate() {
                    let j = i + t;
                    assert!(close(v, full.get(i, j)), "case {case}: ({i},{j})");
                    visited.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        e.slab_rows(tile)
            .try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
            .unwrap();
        // every pair (i, j ≥ i) visited once, whatever the slab height
        assert_eq!(
            visited.into_inner(),
            g.n_snps() * (g.n_snps() + 1) / 2,
            "case {case}"
        );
    }
}

#[test]
fn stat_d_symmetry_and_range() {
    let mut rng = SmallRng::seed_from_u64(0xb6);
    for case in 0..48 {
        let g = random_matrix(&mut rng);
        let d = LdEngine::new()
            .try_stat_matrix(&g, LdStats::D)
            .expect("LD matrix");
        for (_, _, v) in d.iter_upper() {
            // D ∈ [-0.25, 0.25] always
            assert!(
                (-0.25 - 1e-9..=0.25 + 1e-9).contains(&v),
                "case {case}: D = {v}"
            );
        }
    }
}
