//! The cross matrix is a view of the all-pairs matrix: every value of
//! `try_cross_stat_matrix(A, B)` is `to_bits`-equal to the same pair of
//! `try_stat_matrix` on the panel `[A | B]`, for every statistic, thread
//! count and slab height, and the run claims exactly one slab of A per
//! claim (`tiles_claimed == ⌈m / slab⌉`). The counter is process-global,
//! so this test owns its binary.

use ld_bitmat::BitMatrix;
use ld_core::{LdEngine, LdStats, Statistic};
use ld_rng::SmallRng;
use ld_trace::Counter;

/// A panel of `sites` sites in `stat`'s plane layout: one random plane for
/// the LD statistics and Tanimoto; `s ∧ c, c` for masked `r²`; the four
/// nucleotide planes and the validity plane `c` for Zaykin's `T`, one
/// nucleotide per valid sample.
fn panel(stat: Statistic, n_samples: usize, sites: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = stat.planes();
    let mut g = BitMatrix::zeros(n_samples, k * sites);
    for j in 0..sites {
        for s in 0..n_samples {
            match stat {
                Statistic::MaskedR2 => {
                    let valid = rng.gen_bool(0.8);
                    g.set(s, 2 * j, valid && rng.gen_bool(0.4));
                    g.set(s, 2 * j + 1, valid);
                }
                Statistic::ZaykinT => {
                    if rng.gen_bool(0.85) {
                        g.set(s, 5 * j + rng.gen_range(0usize..4), true);
                        g.set(s, 5 * j + 4, true);
                    }
                }
                _ => g.set(s, j, rng.gen_bool(0.35)),
            }
        }
    }
    g
}

#[test]
fn cross_values_are_the_panel_pairs_at_every_thread_count_and_slab() {
    let (n_samples, m, n) = (100usize, 23usize, 17usize);
    let stats = [
        Statistic::Ld(LdStats::RSquared),
        Statistic::Ld(LdStats::D),
        Statistic::Ld(LdStats::DPrime),
        Statistic::Tanimoto,
        Statistic::MaskedR2,
        Statistic::ZaykinT,
    ];
    for (seed, stat) in stats.into_iter().enumerate() {
        let k = stat.planes();
        let g = panel(stat, n_samples, m + n, seed as u64 + 1);
        let (a, b) = (g.view(0, k * m), g.view(k * m, k * (m + n)));
        let full = LdEngine::new().try_stat_matrix(&g, stat).unwrap();
        for threads in [1usize, 2, 7] {
            for slab in [1usize, 7, 64, m] {
                let e = LdEngine::new().threads(threads).slab_rows(slab);
                let before = ld_trace::get(Counter::TilesClaimed);
                let cross = e.try_cross_stat_matrix(a, b, stat).unwrap();
                let claimed = ld_trace::get(Counter::TilesClaimed) - before;
                let at = format!("{stat:?} threads={threads} slab={slab}");
                assert_eq!(claimed, m.div_ceil(slab) as u64, "{at}");
                assert_eq!((cross.n_rows(), cross.n_cols()), (m, n), "{at}");
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            cross.get(i, j).to_bits(),
                            full.get(i, m + j).to_bits(),
                            "{at} ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}
