//! The fused slab pipeline against the classical two-pass oracle.
//!
//! `LdEngine::try_stat_matrix` (fused: bounded per-worker slabs, no global
//! counts matrix, no mirror pass) must reproduce
//! `LdEngine::stat_matrix_twopass` (full `n × n` SYRK + transform sweep)
//! **bit-exactly**: both run the same batched rank-1 transform over the
//! same integer counts, so there is no tolerance to hide behind — any
//! discrepancy is a real bug in the slab/offset bookkeeping.

use ld_bitmat::BitMatrix;
use ld_core::{
    DecayProfile, LdEngine, LdStats, MemoryTileStore, NanPolicy, RowSlabVisit, RunControl, Source,
};
use ld_rng::SmallRng;
use std::sync::{Mutex, PoisonError};

const STATS: [LdStats; 3] = [LdStats::RSquared, LdStats::D, LdStats::DPrime];
const POLICIES: [NanPolicy; 2] = [NanPolicy::Propagate, NanPolicy::Zero];
const THREADS: [usize; 3] = [1, 2, 7];

fn random_matrix(rng: &mut SmallRng, n_samples: usize, n_snps: usize) -> BitMatrix {
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    let density = 0.05 + 0.9 * rng.gen::<f64>();
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen_bool(density) {
                g.set(s, j, true);
            }
        }
    }
    g
}

/// The row stream under an inert control, panicking where it errors;
/// `visit` runs under a lock, so it may mutate what it captures.
fn rows<'a>(
    e: &LdEngine,
    src: impl Into<Source<'a>>,
    stat: LdStats,
    visit: impl FnMut(&RowSlabVisit<'_>) + Send,
) {
    let visit = Mutex::new(visit);
    let locked = |s: &RowSlabVisit<'_>| (visit.lock().unwrap_or_else(PoisonError::into_inner))(s);
    e.try_stat_rows_with(src, stat, locked, &RunControl::new())
        .unwrap();
}

/// Asserts the packed triangles are identical to the bit.
fn assert_bit_equal(fused: &ld_core::LdMatrix, oracle: &ld_core::LdMatrix, ctx: &str) {
    assert_eq!(fused.packed().len(), oracle.packed().len(), "{ctx}");
    for (k, (a, b)) in fused.packed().iter().zip(oracle.packed()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: packed[{k}] fused={a} oracle={b}"
        );
    }
}

#[test]
fn fused_matches_twopass_across_shapes_threads_slabs() {
    let mut rng = SmallRng::seed_from_u64(0xfade);
    // Odd shapes: word-boundary sample counts, SNP counts around slab edges.
    let shapes = [
        (1usize, 1usize),
        (3, 7),
        (63, 12),
        (64, 33),
        (65, 40),
        (127, 9),
        (130, 65),
        (31, 64),
    ];
    for &(n_samples, n_snps) in &shapes {
        let g = random_matrix(&mut rng, n_samples, n_snps);
        for stat in STATS {
            for &threads in &THREADS {
                for slab in [1usize, 3, 16, 1000] {
                    let e = LdEngine::new().threads(threads).slab_rows(slab);
                    let ctx =
                        format!("{n_samples}x{n_snps} {stat:?} threads={threads} slab={slab}");
                    assert_bit_equal(
                        &e.try_stat_matrix(&g, stat).expect("LD matrix"),
                        &e.stat_matrix_twopass(&g, stat),
                        &ctx,
                    );
                }
            }
        }
    }
}

#[test]
fn fused_matches_twopass_on_monomorphic_snps_under_both_policies() {
    let mut rng = SmallRng::seed_from_u64(0x0f0f);
    for _ in 0..8 {
        let n_samples = rng.gen_range(1usize..100);
        let n_snps = rng.gen_range(2usize..30);
        let mut g = random_matrix(&mut rng, n_samples, n_snps);
        // Force monomorphic columns: one all-zeros, one all-ones.
        for s in 0..n_samples {
            g.set(s, 0, false);
            g.set(s, n_snps - 1, true);
        }
        for policy in POLICIES {
            for stat in STATS {
                for &threads in &THREADS {
                    let e = LdEngine::new()
                        .threads(threads)
                        .slab_rows(4)
                        .nan_policy(policy);
                    let fused = e.try_stat_matrix(&g, stat).expect("LD matrix");
                    let oracle = e.stat_matrix_twopass(&g, stat);
                    let ctx = format!("{n_samples}x{n_snps} {stat:?} {policy:?} t{threads}");
                    assert_bit_equal(&fused, &oracle, &ctx);
                    // the policy is actually exercised: r² of the
                    // monomorphic pair is NaN or 0 as configured
                    if stat == LdStats::RSquared && n_snps >= 2 {
                        let v = fused.get(0, n_snps - 1);
                        match policy {
                            NanPolicy::Propagate => assert!(v.is_nan(), "{ctx}: {v}"),
                            NanPolicy::Zero => assert_eq!(v, 0.0, "{ctx}"),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fused_handles_zero_and_one_snp() {
    // n_snps = 0: empty triangle, no work, no panic (even with 0 samples —
    // there is nothing to divide).
    let empty = BitMatrix::zeros(5, 0);
    let m = LdEngine::new()
        .try_stat_matrix(&empty, LdStats::RSquared)
        .expect("LD matrix");
    assert_eq!(m.n_snps(), 0);
    assert_eq!(m.packed().len(), 0);
    rows(&LdEngine::new(), &empty, LdStats::RSquared, |_| {
        panic!("no slabs for an empty panel")
    });
    rows(
        &LdEngine::new().slab_rows(4),
        &empty,
        LdStats::RSquared,
        |_| panic!("no tiles for an empty panel"),
    );

    // n_snps = 1: a single diagonal entry.
    let mut one = BitMatrix::zeros(6, 1);
    one.set(0, 0, true);
    one.set(3, 0, true);
    for &threads in &THREADS {
        let e = LdEngine::new().threads(threads);
        let fused = e
            .try_stat_matrix(&one, LdStats::RSquared)
            .expect("LD matrix");
        let oracle = e.stat_matrix_twopass(&one, LdStats::RSquared);
        assert_bit_equal(&fused, &oracle, "single snp");
        assert!((fused.get(0, 0) - 1.0).abs() < 1e-12);
    }
}

#[test]
fn fused_counts_are_bit_exact_against_full_syrk() {
    // The integer layer: slab counts assembled over the triangle equal the
    // full SYRK counts matrix entry for entry (u32 — necessarily exact).
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    for _ in 0..6 {
        let n_samples = rng.gen_range(1usize..200);
        let n = rng.gen_range(1usize..48);
        let g = random_matrix(&mut rng, n_samples, n);
        let full = LdEngine::new().threads(2).try_counts_matrix(&g).unwrap();
        let v = g.full_view();
        let slab = rng.gen_range(1usize..8);
        let mut r0 = 0usize;
        while r0 < n {
            let r1 = (r0 + slab).min(n);
            let width = n - r0;
            let mut c = vec![0u32; (r1 - r0) * width];
            ld_kernels::syrk_slab_counts(
                &v,
                r0..r1,
                &mut c,
                width,
                ld_kernels::KernelKind::Auto,
                ld_kernels::BlockSizes::default(),
            );
            for i in r0..r1 {
                for j in i..n {
                    assert_eq!(
                        c[(i - r0) * width + (j - r0)],
                        full[i * n + j],
                        "({i},{j}) slab {r0}..{r1}"
                    );
                }
            }
            r0 = r1;
        }
    }
}

#[test]
fn streaming_rows_and_tiles_match_fused_matrix() {
    let mut rng = SmallRng::seed_from_u64(0x57a7);
    for _ in 0..6 {
        let n_samples = rng.gen_range(1usize..120);
        let n = rng.gen_range(1usize..40);
        let g = random_matrix(&mut rng, n_samples, n);
        let threads = *THREADS.get(rng.gen_range(0usize..3)).unwrap();
        let e = LdEngine::new()
            .threads(threads)
            .slab_rows(rng.gen_range(1usize..9));
        let full = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");

        // row slabs: every (i, j ≥ i) exactly once, bit-equal
        let mut seen = vec![0u32; n * (n + 1) / 2];
        rows(&e, &g, LdStats::RSquared, |s| {
            for (i, row) in s.rows() {
                for (t, &v) in row.iter().enumerate() {
                    let j = i + t;
                    let idx = full.index(i, j);
                    seen[idx] += 1;
                    assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "rows ({i},{j})");
                    assert_eq!(v.to_bits(), s.value(i - s.row_start(), j).to_bits());
                }
            }
        });
        assert!(seen.iter().all(|&c| c == 1), "row coverage");

        // row slabs `tile` high: aligned on multiples of the height, and
        // together the upper triangle once
        let tile = rng.gen_range(1usize..10);
        let mut tiles_seen = vec![0u32; n * n];
        rows(&e.clone().slab_rows(tile), &g, LdStats::RSquared, |s| {
            assert_eq!(s.row_start() % tile, 0);
            assert_eq!(s.n_rows(), tile.min(n - s.row_start()));
            for (i, row) in s.rows() {
                for (t, &v) in row.iter().enumerate() {
                    let j = i + t;
                    tiles_seen[i * n + j] += 1;
                    assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "tile ({i},{j})");
                }
            }
        });
        for i in 0..n {
            for j in 0..n {
                let expect = u32::from(j >= i);
                assert_eq!(tiles_seen[i * n + j], expect, "tile coverage ({i},{j})");
            }
        }
    }
}

/// Every source the driver has, over the same panel: RAM, and a store cut
/// into chunks smaller and larger than a slab.
fn with_sources(g: &BitMatrix, mut f: impl FnMut(&str, Source<'_>)) {
    f("memory", Source::from(g));
    for chunk in [4usize, 64] {
        let store = MemoryTileStore::from_matrix(g, chunk).unwrap();
        f(&format!("store/{chunk}"), Source::Store(&store));
    }
}

/// A column band is a window on the one grid: whatever the band, thread
/// count, slab height, source and statistic, every value a banded run
/// delivers is the full triangle's value for that pair, every in-band pair
/// is delivered exactly once, and no row holds an out-of-band column.
#[test]
fn banded_rows_are_the_full_triangle_clipped() {
    let mut rng = SmallRng::seed_from_u64(0xba2d);
    let (n_samples, n) = (70usize, 67usize);
    let g = random_matrix(&mut rng, n_samples, n);
    for stat in STATS {
        let full = LdEngine::new()
            .try_stat_matrix(&g, stat)
            .expect("LD matrix");
        for slab in [1usize, 5, 64] {
            for w in [1, 7, slab - 1, slab, slab + 1, n - 1, n + 5] {
                for threads in [1usize, 2, 4] {
                    let e = LdEngine::new().threads(threads).slab_rows(slab);
                    with_sources(&g, |name, src| {
                        let ctx = format!("{stat:?} slab={slab} w={w} t{threads} {name}");
                        let seen = Mutex::new(vec![0u32; n * n]);
                        let visit = |s: &RowSlabVisit<'_>| {
                            for (i, row) in s.rows() {
                                assert_eq!(row.len(), (n - i).min(w + 1), "{ctx}: row {i}");
                                for (t, &v) in row.iter().enumerate() {
                                    let j = i + t;
                                    seen.lock().unwrap()[i * n + j] += 1;
                                    assert_eq!(
                                        v.to_bits(),
                                        full.get(i, j).to_bits(),
                                        "{ctx}: ({i},{j})"
                                    );
                                    assert_eq!(
                                        v.to_bits(),
                                        s.value(i - s.row_start(), j).to_bits()
                                    );
                                }
                            }
                        };
                        e.try_stat_rows_with(src, stat, visit, &RunControl::new().with_band(w))
                            .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                        let seen = seen.into_inner().unwrap();
                        for i in 0..n {
                            for j in 0..n {
                                let in_band = j >= i && j - i <= w;
                                assert_eq!(seen[i * n + j], u32::from(in_band), "{ctx}: ({i},{j})");
                            }
                        }
                    });
                }
            }
        }
    }
}

/// `DecayProfile` is the `(i asc, distance asc)` fold of the full
/// triangle, bit for bit, whatever order the slabs finished in.
#[test]
fn decay_is_the_ordered_fold_of_the_full_triangle() {
    let mut rng = SmallRng::seed_from_u64(0xdeca);
    let (n_samples, n) = (70usize, 67usize);
    let mut g = random_matrix(&mut rng, n_samples, n);
    // one monomorphic SNP, so NaN pairs are skipped on both sides
    for s in 0..n_samples {
        g.set(s, 40, false);
    }
    let full = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("LD matrix");
    for (max_dist, bin) in [(1usize, 1usize), (20, 3), (n + 5, 7)] {
        let n_bins = max_dist.div_ceil(bin);
        let (mut sums, mut counts) = (vec![0.0f64; n_bins], vec![0u64; n_bins]);
        for i in 0..n {
            for d in 1..=max_dist.min(n - 1 - i) {
                let v = full.get(i, i + d);
                if !v.is_nan() {
                    sums[(d - 1) / bin] += v;
                    counts[(d - 1) / bin] += 1;
                }
            }
        }
        for slab in [1usize, 5, 64] {
            for threads in [1usize, 2, 4] {
                let e = LdEngine::new().threads(threads).slab_rows(slab);
                with_sources(&g, |name, src| {
                    let ctx =
                        format!("max_dist={max_dist} bin={bin} slab={slab} t{threads} {name}");
                    let profile = DecayProfile::compute(&e, src, max_dist, bin).unwrap();
                    assert_eq!(profile.bins().len(), n_bins, "{ctx}");
                    for (b, got) in profile.bins().iter().enumerate() {
                        assert_eq!(got.count, counts[b], "{ctx}: bin {b}");
                        let want = if counts[b] > 0 {
                            sums[b] / counts[b] as f64
                        } else {
                            f64::NAN
                        };
                        assert_eq!(got.mean_r2.to_bits(), want.to_bits(), "{ctx}: bin {b}");
                    }
                });
            }
        }
    }
}
