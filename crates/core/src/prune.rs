//! LD pruning — the greedy of PLINK's `--indep-pairwise`, as a reader of
//! one banded run of the slab driver.
//!
//! The windowed greedy thins a panel so that no retained pair sharing a
//! window exceeds an `r²` cut: windows of `window` SNPs start at
//! `0, step, 2·step, …` (the last is the first to reach SNP `n`); inside
//! a window, for `i` ascending, if `i` is still kept, every later `j`
//! still kept with `r²(i, j) > threshold` is dropped. Run literally, that
//! is one `r²` matrix per window and every overlap computed again.
//!
//! **The same greedy as a row fold.** Two facts about the windowed loop:
//!
//! * *A revisit is a no-op.* When a pair `(i, j)` met in one window comes
//!   up again in a later one, then at its first visit either `i` was
//!   already dropped, or `j` was, or `j` was dropped there and then, or
//!   `r² ≤ threshold`; drops are never undone and `r²` does not change,
//!   so the second visit finds the same case and does nothing.
//! * *`keep[i]` is final before row `i` is read.* Only a pair `(k, i)`
//!   with `k < i` can drop `i`. Every such pair sharing a window with it
//!   is visited in the first window holding both, where `k`'s turn comes
//!   before `i`'s — and in any earlier window `i`'s row is not read at all.
//!
//! So only first visits matter, and they can be taken in the order
//! `(i, j)` ascending: for rows `i` ascending, if `keep[i]`, drop every
//! kept `j` in `i + 1 .. min(n, ⌊i / step⌋ · step + window)` with
//! `r²(i, j) > threshold`. The bound is the end of the last window that
//! starts at or before `i` — the farthest `j` any window shares with `i`
//! (when that start was never visited, an earlier window already reached
//! `n`, and so does the bound) — and it is below `i` when `step > window`
//! leaves `i` outside every window. That is a fold over the rows of a run
//! with band `window − 1`, each pair computed once; `r²` itself is the
//! whole-panel value, bit-identical to the per-window one (see
//! [`RunControl::with_band`]). The windowed loop survives as this
//! module's test oracle.

use crate::{
    in_row_order, LdEngine, LdError, LdStats, NanPolicy, RowSlabVisit, RunControl, Source,
};

/// Prunes `src` greedily in sliding windows and returns the indices of the
/// kept SNPs, ascending: of any pair sharing a window with `r²` above
/// `threshold`, the later SNP goes (the earlier one is the tag). Undefined
/// `r²` (a monomorphic SNP) counts as 0 whatever the engine's policy.
///
/// A row visitor over [`LdEngine::try_stat_rows_shared_with`] under the
/// band `window − 1`: workers pick each row's above-threshold partners in
/// parallel, and only applying them runs in row order ([`in_row_order`]),
/// so the result is the same for every thread count, slab height and
/// source, and memory is the driver's banded scratch plus `n` flags.
/// `window < 2` (no pair) and `step == 0` are [`LdError::InvalidConfig`].
pub fn prune_pairwise<'a>(
    engine: &LdEngine,
    src: impl Into<Source<'a>>,
    window: usize,
    step: usize,
    threshold: f64,
) -> Result<Vec<usize>, LdError> {
    if window < 2 || step == 0 {
        return Err(LdError::InvalidConfig {
            message: "pruning needs window >= 2 and step >= 1",
        });
    }
    let src = src.into();
    let n = src.n_snps();
    let mut keep = vec![true; n];
    // per row `i`: every `j` it shares a window with at `r² > threshold`
    // (`row[d]` is the pair `(i, i + d)`; `row[0]` the diagonal)
    let partners = |s: &RowSlabVisit<'_>| -> Vec<(usize, Vec<usize>)> {
        let of_row = |(i, row): (usize, &[f64])| {
            let reach = (i / step * step).saturating_add(window).min(n);
            let shared = row.iter().enumerate().take(reach.saturating_sub(i)).skip(1);
            let above = shared.filter(|&(_, &v)| v > threshold);
            (i, above.map(|(d, _)| i + d).collect())
        };
        s.rows().map(of_row).collect()
    };
    let drop_partners = |rows: Vec<(usize, Vec<usize>)>| {
        for (i, js) in rows {
            if keep[i] {
                js.into_iter().for_each(|j| keep[j] = false);
            }
        }
    };
    let engine = engine.clone().nan_policy(NanPolicy::Zero);
    let visit = in_row_order(partners, drop_partners);
    let ctl = RunControl::new().with_band(window - 1);
    engine.try_stat_rows_shared_with(src, LdStats::RSquared, visit, &ctl)?;
    Ok((0..n).filter(|&i| keep[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryTileStore;
    use ld_bitmat::BitMatrix;
    use ld_rng::SmallRng;

    /// A panel of runs of near-copies (each SNP re-draws ~1 sample in 5 of
    /// its predecessor, a fresh pattern every ~12 SNPs), so every
    /// threshold in the suite both drops and keeps something.
    fn panel(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut pattern = vec![false; n_samples];
        for j in 0..n_snps {
            let fresh = j == 0 || rng.gen_range(0..12usize) == 0;
            for (s, bit) in pattern.iter_mut().enumerate() {
                if fresh || rng.gen_range(0..5usize) == 0 {
                    *bit = rng.gen_bool(0.5);
                }
                g.set(s, j, *bit);
            }
        }
        g
    }

    /// The windowed greedy, literally: one `r²` matrix per window.
    fn windowed(g: &BitMatrix, window: usize, step: usize, threshold: f64) -> Vec<usize> {
        let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
        let n = g.n_snps();
        let mut keep = vec![true; n];
        let mut start = 0;
        while start < n {
            let end = (start + window).min(n);
            let r2 = engine.r2_matrix(g.view(start, end));
            for i in 0..end - start {
                if !keep[start + i] {
                    continue;
                }
                for j in i + 1..end - start {
                    if keep[start + j] && r2.get(i, j) > threshold {
                        keep[start + j] = false;
                    }
                }
            }
            if end == n {
                break;
            }
            start += step;
        }
        (0..n).filter(|&i| keep[i]).collect()
    }

    #[test]
    fn row_fold_equals_the_windowed_greedy() {
        // step > window, window >= n, step = 1, a step that does not
        // divide the window, and the CLI's default shape
        let shapes = [(10, 25), (400, 50), (12, 1), (30, 7), (40, 20), (2, 1)];
        for seed in [1u64, 2, 3] {
            let g = panel(96, 230, seed);
            // a chunk width that divides neither the windows nor the slabs
            let store = MemoryTileStore::from_matrix(&g, 37).unwrap();
            for (window, step) in shapes {
                for threshold in [0.8, 0.5, 0.2, 0.05] {
                    let want = windowed(&g, window, step, threshold);
                    assert!(want.len() < 230, "nothing pruned at {threshold}");
                    for threads in [1usize, 2, 7] {
                        let engine = LdEngine::new().threads(threads).slab_rows(16);
                        let sources = [Source::from(&g), Source::Store(&store)];
                        for (s, src) in sources.into_iter().enumerate() {
                            let got = prune_pairwise(&engine, src, window, step, threshold);
                            assert_eq!(
                                got.unwrap(),
                                want,
                                "seed {seed} window {window} step {step} cut {threshold} \
                                 threads {threads} source {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_window_without_a_pair_or_a_zero_step_is_invalid_config() {
        let g = panel(32, 20, 9);
        let engine = LdEngine::new();
        for (window, step) in [(0, 1), (1, 1), (5, 0)] {
            let got = prune_pairwise(&engine, &g, window, step, 0.5);
            assert!(
                matches!(got, Err(LdError::InvalidConfig { .. })),
                "window {window} step {step}: {got:?}"
            );
        }
        // and a panel without SNPs has nothing to keep
        let none = BitMatrix::zeros(8, 0);
        assert_eq!(prune_pairwise(&engine, &none, 5, 1, 0.5).unwrap(), vec![]);
    }
}
