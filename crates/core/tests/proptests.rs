//! Property tests: the matrix engine agrees with per-pair brute force.
//! Seeded `ld-rng` cases replace `proptest` (unavailable offline).

use ld_bitmat::BitMatrix;
use ld_core::{
    ld_pair_from_counts, r2_keeps, LdEngine, LdStats, NanPolicy, R2Staircase, RowSlabVisit,
    RunControl,
};
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

/// A panel of the staircase's edge cases: random sites beside monomorphic
/// and all-carrier ones (no minor allele), duplicates and complements of
/// earlier sites (`r² = 1`), and nested carrier sets — a site carried by
/// a subset of another's carriers attains the frequency bound exactly.
fn staircase_panel(rng: &mut SmallRng, n_samples: usize) -> BitMatrix {
    let n_snps = rng.gen_range(2usize..40);
    let mut cols: Vec<Vec<u8>> = Vec::with_capacity(n_snps);
    for _ in 0..n_snps {
        let density = rng.gen_range(0.0f64..1.0);
        let random = |rng: &mut SmallRng| -> Vec<u8> {
            (0..n_samples)
                .map(|_| u8::from(rng.gen_bool(density)))
                .collect()
        };
        let col = match (rng.gen_range(0u32..7), cols.len()) {
            (1, _) => vec![0; n_samples],
            (2, _) => vec![1; n_samples],
            (3, k) if k > 0 => cols[rng.gen_range(0..k)].clone(),
            (4, k) if k > 0 => cols[rng.gen_range(0..k)].iter().map(|&b| 1 - b).collect(),
            (5 | 6, k) if k > 0 => {
                let outer = cols[rng.gen_range(0..k)].clone();
                outer
                    .iter()
                    .map(|&b| b & u8::from(rng.gen_bool(0.6)))
                    .collect()
            }
            _ => random(rng),
        };
        cols.push(col);
    }
    BitMatrix::from_columns(n_samples, cols).unwrap()
}

/// A kept pair `(i, j, r²)`, `i < j`.
type Pair = (usize, usize, f64);

/// The pairs a staircase run hands over, in the order it hands them over,
/// after checking that order: rows ascending, each handed over once and
/// only with a kept pair, and each row's columns ascending and right of
/// its diagonal.
fn staircase_pairs(e: &LdEngine, g: &BitMatrix, plan: &R2Staircase) -> Vec<Pair> {
    let mut kept: Vec<Pair> = Vec::new();
    let mut last_row = None;
    let visit = |i: usize, cols: &[usize], values: &[f64]| {
        assert!(last_row < Some(i), "row {i} after row {last_row:?}");
        last_row = Some(i);
        assert!(!cols.is_empty() && cols.len() == values.len(), "row {i}");
        assert!(
            i < cols[0] && cols.windows(2).all(|w| w[0] < w[1]),
            "row {i}: {cols:?}"
        );
        kept.extend(cols.iter().zip(values).map(|(&j, &v)| (i, j, v)));
    };
    e.try_r2_pairs_with(plan, g.clone(), visit, &RunControl::new())
        .expect("staircase run");
    kept
}

/// A panel whose sites are all one site or its complement: every pair
/// has `r² = 1` and every site the same minor count, so the staircase is
/// the whole triangle and every pair of it is kept — the hand-off's most
/// work.
fn all_pass_panel(rng: &mut SmallRng, n_samples: usize) -> BitMatrix {
    let site: Vec<u8> = (0..n_samples).map(|s| u8::from(s % 3 == 0)).collect();
    let cols: Vec<Vec<u8>> = (0..rng.gen_range(2usize..40))
        .map(|_| match rng.gen_bool(0.5) {
            true => site.clone(),
            false => site.iter().map(|&b| 1 - b).collect(),
        })
        .collect();
    BitMatrix::from_columns(n_samples, cols).unwrap()
}

/// A staircase run keeps exactly the pairs the unpruned packed triangle
/// keeps under the table's rule, with the same bits, and hands them over
/// in the table's order (rows ascending, each row's columns ascending,
/// each pair once) — over panels of 1, 63, 64, 65 and 600 samples full of
/// the bound's edge cases and one where every pair passes, at random
/// thresholds, at thresholds equal to an attained `r²` (nested carriers
/// on the bound among them) and at 1, at slab heights 1/7/64, 1/2/7
/// threads and both NaN policies.
#[test]
fn staircase_keeps_exactly_the_pairs_that_pass() {
    let mut rng = SmallRng::seed_from_u64(0xb7);
    let mut runs = 0;
    for n_samples in [1usize, 63, 64, 65, 600] {
        for case in 0..5 {
            let g = match case {
                4 if n_samples > 1 => all_pass_panel(&mut rng, n_samples),
                _ => staircase_panel(&mut rng, n_samples),
            };
            for policy in [NanPolicy::Zero, NanPolicy::Propagate] {
                let oracle = LdEngine::new()
                    .nan_policy(policy)
                    .try_stat_matrix(&g, LdStats::RSquared)
                    .expect("LD matrix");
                let attained: Vec<f64> = oracle
                    .iter_pairs()
                    .map(|(_, _, v)| v)
                    .filter(|&v| v > 0.0)
                    .collect();
                let mut thresholds = vec![rng.gen_range(0.0f64..1.0).max(1e-3), 1.0];
                if !attained.is_empty() {
                    thresholds.push(attained[rng.gen_range(0..attained.len())]);
                }
                for t in thresholds {
                    let want: Vec<Pair> = oracle
                        .iter_pairs()
                        .filter(|&(_, _, v)| r2_keeps(v, t))
                        .collect();
                    let plan = R2Staircase::new(&g, t).expect("plan");
                    for (slab, threads) in [(1usize, 1usize), (7, 2), (64, 7), (1, 7), (7, 1)] {
                        let e = LdEngine::new()
                            .nan_policy(policy)
                            .slab_rows(slab)
                            .threads(threads);
                        let got = staircase_pairs(&e, &g, &plan);
                        let bits = |p: &[Pair]| -> Vec<(usize, usize, u64)> {
                            p.iter().map(|&(i, j, v)| (i, j, v.to_bits())).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "N={n_samples} case {case} {policy:?} t={t} slab {slab} t{threads}"
                        );
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(runs >= 5 * 5 * 2 * 2 * 5);
}

/// The plan's staircase is the frequency bound's: every sorted row's
/// reach is non-decreasing, covers its diagonal, and holds exactly the
/// columns whose bound `a_i (N − a_j) / (a_j (N − a_i))` clears the
/// threshold (thresholds here sit far from every attained bound, so the
/// margin does not decide).
#[test]
fn staircase_reach_is_the_frequency_bound() {
    let mut rng = SmallRng::seed_from_u64(0xb8);
    for case in 0..24 {
        let n_samples = rng.gen_range(1usize..300);
        let g = staircase_panel(&mut rng, n_samples);
        let big_n = n_samples as u64;
        let minor: Vec<u64> = (0..g.n_snps())
            .map(|j| g.ones_in_snp(j).min(big_n - g.ones_in_snp(j)))
            .collect();
        for t in [0.05, 0.3, 0.77, 1.0 - 1e-6] {
            let plan = R2Staircase::new(&g, t).unwrap();
            let (order, ends) = (plan.order(), plan.ends());
            for s in 0..order.len() {
                assert!(ends[s] > s && (s == 0 || ends[s] >= ends[s - 1]));
                for c in s + 1..order.len() {
                    let (a, b) = (minor[order[s]], minor[order[c]]);
                    assert!(a <= b, "case {case}: sorted by minor count");
                    let bound = if a == 0 {
                        0.0
                    } else {
                        (a * (big_n - b)) as f64 / (b * (big_n - a)) as f64
                    };
                    let far = (bound - t).abs() > 1e-6;
                    assert!(
                        !far || (c < ends[s]) == (bound >= t),
                        "case {case} t={t}: row {s} column {c}, bound {bound}, end {}",
                        ends[s]
                    );
                }
            }
        }
    }
}
