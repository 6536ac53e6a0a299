//! # ld-omega — the ω statistic for selective-sweep detection
//!
//! The ω statistic (Kim & Nielsen, *Genetics* 2004) is the workload that
//! motivates OmegaPlus, the paper's second comparison target: according to
//! selective-sweep theory (§I), a positively selected site leaves **high
//! LD on each flank but low LD across** it. For a window of `S` SNPs split
//! after the `l`-th, with `L = {1..l}` and `R = {l+1..S}`:
//!
//! ```text
//!           ( Σ_{i,j∈L} r²ij + Σ_{i,j∈R} r²ij ) / ( C(l,2) + C(S−l,2) )
//! ω(l) =    ───────────────────────────────────────────────────────────
//!                   ( Σ_{i∈L, j∈R} r²ij ) / ( l (S−l) )
//! ```
//!
//! and `ω_max = max_l ω(l)`. High `ω_max` marks a sweep center.
//!
//! This crate computes ω on top of the GEMM engine: one blocked `r²`
//! matrix per window, then **O(S)** split maximization via prefix sums
//! ([`omega_max`]), instead of the O(S²) per-split recomputation a naive
//! scan would do. A pairwise no-GEMM path ([`omega_max_pairwise`])
//! reproduces the OmegaPlus-style computation for the benchmarks.

#![warn(missing_docs)]

use ld_bitmat::{BitMatrix, BitMatrixView};
use ld_core::{LdEngine, LdMatrix, NanPolicy};
use std::sync::{Mutex, PoisonError};

pub mod grid;
mod prefix;

pub use grid::GridScan;
pub use prefix::WindowSums;

/// One evaluated grid position of an ω scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OmegaPoint {
    /// First SNP (inclusive) of the window.
    pub window_start: usize,
    /// One past the last SNP of the window.
    pub window_end: usize,
    /// The split (global SNP index of the first right-region SNP) that
    /// maximized ω.
    pub best_split: usize,
    /// The maximized ω value.
    pub omega: f64,
}

/// Computes `ω(l)` for every split from a window's `r²` matrix and returns
/// `(ω_max, argmax l)`; `l` counts SNPs in the left region (`1 ≤ l < S`).
///
/// Undefined `r²` values (NaN from monomorphic pairs) are treated as zero,
/// matching OmegaPlus's handling.
pub fn omega_max(r2: &LdMatrix) -> (f64, usize) {
    let sums = WindowSums::new(r2);
    let s = r2.n_snps();
    let mut best = (0.0f64, 1usize);
    for l in 1..s {
        let w = sums.omega_at(l);
        if w > best.0 {
            best = (w, l);
        }
    }
    best
}

/// ω for one explicit split (exposed for tests and for tools that fix the
/// candidate sweep position).
pub fn omega_at_split(r2: &LdMatrix, l: usize) -> f64 {
    WindowSums::new(r2).omega_at(l)
}

/// OmegaPlus-style ω_max: pairwise `POPCNT` r² without the GEMM engine.
/// Used by the benchmark harness as the no-DLA reference.
pub fn omega_max_pairwise(g: &BitMatrixView<'_>) -> (f64, usize) {
    let kernel = ld_baseline_pairwise_r2(g);
    omega_max(&kernel)
}

fn ld_baseline_pairwise_r2(g: &BitMatrixView<'_>) -> LdMatrix {
    // local unblocked r² (kept here so ld-omega has no dependency on
    // ld-baselines; ~20 lines of the same pairwise loop)
    let n = g.n_snps();
    let n_samples = g.n_samples() as u64;
    let counts: Vec<u64> = (0..n).map(|j| g.ones_in_snp(j)).collect();
    let mut out = LdMatrix::zeros(n);
    for i in 0..n {
        let a = g.snp_words(i);
        for j in i..n {
            let c_ij = ld_popcount_and(a, g.snp_words(j));
            let v = ld_core::ld_pair_from_counts(
                counts[i],
                counts[j],
                c_ij,
                n_samples,
                NanPolicy::Zero,
            )
            .r2;
            out.set(i, j, v);
        }
    }
    out
}

#[inline]
fn ld_popcount_and(a: &[u64], b: &[u64]) -> u64 {
    // Pinned scalar POPCNT: this is the no-GEMM *baseline* path, so it must
    // not silently benefit from LLVM auto-vectorization (see ld-popcount).
    ld_popcount::strategies::and_popcount_pinned(a, b)
}

/// A sliding-window ω scanner over a whole chromosome-scale matrix.
#[derive(Clone, Debug)]
pub struct OmegaScan {
    engine: LdEngine,
    window: usize,
    step: usize,
    min_region: usize,
}

impl OmegaScan {
    /// A scanner with `window` SNPs per window, advancing `step` SNPs
    /// between grid positions.
    pub fn new(window: usize, step: usize) -> Self {
        assert!(window >= 4, "a window needs at least 4 SNPs (2 per region)");
        assert!(step >= 1, "step must be positive");
        Self {
            engine: LdEngine::new().nan_policy(NanPolicy::Zero),
            window,
            step,
            // A handful of SNPs on one side produces degenerate, huge ω
            // values (tiny within-pair denominators); OmegaPlus bounds the
            // sub-region sizes for the same reason.
            min_region: (window / 10).max(2),
        }
    }

    /// Overrides the LD engine (kernel, threads, blocking).
    pub fn engine(mut self, engine: LdEngine) -> Self {
        self.engine = engine.nan_policy(NanPolicy::Zero);
        self
    }

    /// Requires at least `m` SNPs on each side of a candidate split
    /// (default 2); larger values suppress edge artifacts.
    pub fn min_region(mut self, m: usize) -> Self {
        self.min_region = m.max(1);
        self
    }

    /// Scans the matrix, returning one [`OmegaPoint`] per window, in window
    /// order.
    ///
    /// Windows are distributed across the engine's threads and each
    /// window's `r²` GEMM runs single-threaded — for many small windows,
    /// across-window parallelism beats within-window parallelism. Points
    /// are bit-identical for every thread count.
    pub fn scan(&self, g: &BitMatrix) -> Vec<OmegaPoint> {
        let starts = self.window_starts(g.n_snps());
        let engine = self.engine.clone().threads(1);
        let done = Mutex::new(Vec::with_capacity(starts.len()));
        ld_parallel::parallel_for_dynamic(self.engine.thread_count(), starts.len(), 1, |range| {
            let points: Vec<OmegaPoint> = range
                .map(|w| self.window_point(&engine, g, starts[w]))
                .collect();
            done.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(points);
        });
        let mut out = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        // window starts are strictly increasing
        out.sort_unstable_by_key(|p| p.window_start);
        out
    }

    /// Evaluates the window starting at SNP `start`.
    fn window_point(&self, engine: &LdEngine, g: &BitMatrix, start: usize) -> OmegaPoint {
        let end = start + self.window;
        let r2 = engine.r2_matrix(g.view(start, end));
        let sums = WindowSums::new(&r2);
        let mut best = (0.0f64, self.min_region);
        for l in self.min_region..=(self.window - self.min_region) {
            let w = sums.omega_at(l);
            if w > best.0 {
                best = (w, l);
            }
        }
        OmegaPoint {
            window_start: start,
            window_end: end,
            best_split: start + best.1,
            omega: best.0,
        }
    }

    /// The scan's single strongest signal, if any window was evaluated.
    pub fn scan_max(&self, g: &BitMatrix) -> Option<OmegaPoint> {
        self.scan(g).into_iter().max_by(|a, b| {
            a.omega
                .partial_cmp(&b.omega)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The window start positions [`OmegaScan::scan`] visits, in order.
    fn window_starts(&self, n: usize) -> Vec<usize> {
        let mut starts = Vec::new();
        if n < self.window {
            return starts;
        }
        let mut start = 0usize;
        loop {
            starts.push(start);
            if start + self.window == n {
                break;
            }
            start = (start + self.step).min(n - self.window);
        }
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window with perfect LD inside each half and none across: the
    /// canonical sweep signature.
    fn sweep_like(n_per_side: usize) -> BitMatrix {
        let n_samples = 64;
        let mut g = BitMatrix::zeros(n_samples, 2 * n_per_side);
        // left SNPs: all identical pattern A; right SNPs: pattern B with
        // |A ∧ B| = |A||B|/n (independent)
        for j in 0..n_per_side {
            for s in 0..32 {
                g.set(s, j, true);
            }
        }
        for j in n_per_side..2 * n_per_side {
            // offset chosen so the cross-block r² is small but nonzero
            // (overlap 14/64 with the left pattern), keeping ω finite
            for s in 18..50 {
                g.set(s, j, true);
            }
        }
        g
    }

    #[test]
    fn omega_peaks_at_true_split() {
        let g = sweep_like(5);
        let r2 = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
        let (omega, split) = omega_max(&r2);
        assert_eq!(split, 5, "ω must peak at the block boundary");
        assert!(omega > 10.0, "strong signal expected, got {omega}");
    }

    #[test]
    fn omega_low_for_uniform_ld() {
        // identical SNPs everywhere: r² = 1 within AND across -> ω ≈ 1
        let mut g = BitMatrix::zeros(32, 10);
        for j in 0..10 {
            for s in 0..16 {
                g.set(s, j, true);
            }
        }
        let r2 = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
        let (omega, _) = omega_max(&r2);
        assert!(
            (omega - 1.0).abs() < 1e-9,
            "uniform LD must give ω = 1, got {omega}"
        );
    }

    #[test]
    fn prefix_sums_match_brute_force() {
        // random-ish r² values; compare omega_at_split against triple loops
        let n = 9;
        let mut r2 = LdMatrix::zeros(n);
        let mut v = 0.1;
        for i in 0..n {
            for j in i..n {
                r2.set(i, j, if i == j { 1.0 } else { v });
                v = (v * 7.3) % 1.0;
            }
        }
        for l in 1..n {
            let mut ll = 0.0;
            let mut rr = 0.0;
            let mut lr = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    let x = r2.get(i, j);
                    if j < l {
                        ll += x;
                    } else if i >= l {
                        rr += x;
                    } else {
                        lr += x;
                    }
                }
            }
            let c = |k: usize| (k * k.saturating_sub(1)) as f64 / 2.0;
            let denom_pairs = c(l) + c(n - l);
            let want = if denom_pairs > 0.0 && lr > 0.0 {
                ((ll + rr) / denom_pairs) / (lr / (l * (n - l)) as f64)
            } else {
                0.0
            };
            let got = omega_at_split(&r2, l);
            assert!(
                (got - want).abs() < 1e-9 * want.max(1.0),
                "l={l}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn pairwise_matches_gemm_path() {
        let g = sweep_like(4);
        let r2 = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
        let (a, la) = omega_max(&r2);
        let (b, lb) = omega_max_pairwise(&g.full_view());
        assert!((a - b).abs() < 1e-9);
        assert_eq!(la, lb);
    }

    #[test]
    fn scan_finds_embedded_sweep() {
        // chromosome: neutral noise + a sweep-like block pair in the middle
        let n_samples = 64;
        let n_snps = 60;
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut s = 12345u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for j in 0..n_snps {
            for smp in 0..n_samples {
                if next() % 2 == 0 {
                    g.set(smp, j, true);
                }
            }
        }
        // plant the sweep: SNPs 24..30 identical, 30..36 identical (other pattern)
        for j in 24..30 {
            for smp in 0..n_samples {
                g.set(smp, j, smp < 32);
            }
        }
        for j in 30..36 {
            for smp in 0..n_samples {
                g.set(smp, j, (16..48).contains(&smp));
            }
        }
        let scan = OmegaScan::new(12, 2);
        let best = scan.scan_max(&g).unwrap();
        assert!(
            (26..=34).contains(&best.best_split),
            "sweep center missed: split {} omega {}",
            best.best_split,
            best.omega
        );
    }

    #[test]
    fn scan_handles_short_input() {
        let g = BitMatrix::zeros(10, 6);
        let scan = OmegaScan::new(8, 1);
        assert!(scan.scan(&g).is_empty());
        assert!(scan.scan_max(&g).is_none());
    }

    #[test]
    fn par_scan_equals_sequential_scan() {
        let g = sweep_like(12); // 24 snps
        let scan = |threads: usize| {
            OmegaScan::new(10, 3)
                .engine(LdEngine::new().threads(threads))
                .scan(&g)
        };
        let seq = scan(1);
        assert!(seq.len() >= 5);
        for threads in [2usize, 4] {
            let par = scan(threads);
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.window_start, b.window_start);
                assert_eq!(a.window_end, b.window_end);
                assert_eq!(a.best_split, b.best_split);
                assert_eq!(a.omega.to_bits(), b.omega.to_bits());
            }
        }
        // empty input
        assert!(OmegaScan::new(10, 3)
            .scan(&BitMatrix::zeros(8, 4))
            .is_empty());
    }

    #[test]
    fn scan_covers_tail() {
        let g = sweep_like(10); // 20 snps
        let scan = OmegaScan::new(8, 5);
        let points = scan.scan(&g);
        assert_eq!(
            points.last().unwrap().window_end,
            20,
            "final window must touch the end"
        );
        // windows advance by step until clamped
        assert!(points.len() >= 3);
    }

    #[test]
    #[should_panic(expected = "at least 4 SNPs")]
    fn tiny_window_rejected() {
        OmegaScan::new(3, 1);
    }
}
