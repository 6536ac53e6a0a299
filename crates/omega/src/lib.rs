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
//! This crate computes ω on top of the GEMM engine: **one banded `r²` run
//! per scan** ([`BandedLdMatrix`]; band `window − 1` for [`OmegaScan`],
//! `2·max_win − 1` for [`GridScan`]), then every window evaluated in
//! parallel by *reading* it — **O(S)** split maximization via prefix sums
//! ([`omega_max`]), each pair's `r²` computed once however far windows
//! overlap. The band is held for the scan, `n · band · 8` bytes: 1.2 MB
//! for 3000 SNPs at window 50, 80 MB for 10 000 at window 1000.
//!
//! **Reading the band changes no bit.** `r²(i, j)` of a run over the whole
//! panel equals that of a run over the window's sub-view: the counts are
//! exact integers and the driver's one transform body evaluates the same
//! expression from tables (`p_j`, `1/(p_j(1−p_j))`) that depend on SNP `j`
//! alone. That leaves the order of the sums: `WindowSums` and the grid
//! recurrences take a pair lookup and add the same terms in the same order
//! whether it reads a window's own matrix or a band row. The per-window
//! computation is the test oracle, held `to_bits`-equal.

#![warn(missing_docs)]

use ld_core::{BandedLdMatrix, LdEngine, LdError, LdMatrix, LdStats, NanPolicy, Source};
use std::sync::OnceLock;

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
    best_split(&WindowSums::new(r2), 1)
}

/// ω for one explicit split (exposed for tests and for tools that fix the
/// candidate sweep position).
pub fn omega_at_split(r2: &LdMatrix, l: usize) -> f64 {
    WindowSums::new(r2).omega_at(l)
}

/// `(ω_max, argmax l)` over splits leaving `min_region` SNPs on each side.
fn best_split(sums: &WindowSums, min_region: usize) -> (f64, usize) {
    let mut best = (0.0f64, min_region);
    for l in min_region..=sums.len().saturating_sub(min_region) {
        let w = sums.omega_at(l);
        if w > best.0 {
            best = (w, l);
        }
    }
    best
}

/// The pair lookup (window-local `i < j`) of the window at `start`, off band rows.
pub(crate) fn window_of(r2: &BandedLdMatrix, start: usize) -> impl Fn(usize, usize) -> f64 + '_ {
    move |i, j| r2.row(start + i)[j - i - 1]
}

/// The skeleton of both scans: one `band`-wide `r²` run over `src` (none
/// without a position), then `point` per position by the engine's team.
pub(crate) fn scan_band<'a>(
    engine: &LdEngine,
    src: Source<'a>,
    band: usize,
    positions: &[usize],
    point: impl Fn(&BandedLdMatrix, usize) -> OmegaPoint + Sync,
) -> Result<Vec<OmegaPoint>, LdError> {
    if positions.is_empty() {
        return Ok(Vec::new());
    }
    let r2 = BandedLdMatrix::compute(engine, src, band, LdStats::RSquared)?;
    let slots: Vec<OnceLock<OmegaPoint>> = positions.iter().map(|_| OnceLock::new()).collect();
    ld_parallel::parallel_for_dynamic(engine.thread_count(), positions.len(), 1, |range| {
        for k in range {
            // each index is claimed once, so its slot is still empty
            let _ = slots[k].set(point(&r2, positions[k]));
        }
    });
    Ok(slots.into_iter().filter_map(OnceLock::into_inner).collect())
}

/// The last of a scan's strongest points (ω is never NaN or −0: a total order).
pub(crate) fn strongest(points: Vec<OmegaPoint>) -> Option<OmegaPoint> {
    points
        .into_iter()
        .max_by(|a, b| a.omega.total_cmp(&b.omega))
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

    /// Requires at least `m` SNPs on each side of a candidate split (default
    /// 2; more suppresses edge artifacts, over `window / 2` fails the scan).
    pub fn min_region(mut self, m: usize) -> Self {
        self.min_region = m.max(1);
        self
    }

    /// Scans `src`, returning one [`OmegaPoint`] per window, in window
    /// order: one `r²` run with band `window − 1`, held for the scan, then
    /// the windows distributed across the engine's threads. Bit-identical
    /// for every thread count, slab height and source. A `min_region`
    /// above `window / 2` is [`LdError::InvalidConfig`]; a panel shorter
    /// than the window yields no point.
    pub fn scan<'a>(&self, src: impl Into<Source<'a>>) -> Result<Vec<OmegaPoint>, LdError> {
        if 2 * self.min_region > self.window {
            return Err(LdError::InvalidConfig {
                message: "min_region must be at most half the window (no split is left)",
            });
        }
        let src = src.into();
        let starts = self.window_starts(src.n_snps());
        let point = |r2: &BandedLdMatrix, start| {
            let sums = WindowSums::from_pairs(self.window, window_of(r2, start));
            self.window_point(start, &sums)
        };
        scan_band(&self.engine, src, self.window - 1, &starts, point)
    }

    fn window_point(&self, start: usize, sums: &WindowSums) -> OmegaPoint {
        let (omega, l) = best_split(sums, self.min_region);
        OmegaPoint {
            window_start: start,
            window_end: start + self.window,
            best_split: start + l,
            omega,
        }
    }

    /// The scan's single strongest signal, if any window was evaluated.
    pub fn scan_max<'a>(&self, src: impl Into<Source<'a>>) -> Result<Option<OmegaPoint>, LdError> {
        self.scan(src).map(strongest)
    }

    /// The window starts a scan visits: every `step`-th, and the last.
    fn window_starts(&self, n: usize) -> Vec<usize> {
        let Some(last) = n.checked_sub(self.window) else {
            return Vec::new();
        };
        let mut starts: Vec<usize> = (0..last).step_by(self.step).collect();
        starts.push(last);
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;
    use ld_core::MemoryTileStore;
    use ld_rng::SmallRng;

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
        let best = scan.scan_max(&g).unwrap().unwrap();
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
        assert!(scan.scan(&g).unwrap().is_empty());
        assert!(scan.scan_max(&g).unwrap().is_none());
    }

    #[test]
    fn par_scan_equals_sequential_scan() {
        let g = sweep_like(12); // 24 snps
        let scan = |threads: usize| {
            OmegaScan::new(10, 3)
                .engine(LdEngine::new().threads(threads))
                .scan(&g)
                .unwrap()
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
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scan_covers_tail() {
        let g = sweep_like(10); // 20 snps
        let scan = OmegaScan::new(8, 5);
        let points = scan.scan(&g).unwrap();
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
    /// A seeded panel with LD that varies along it: runs of near-copies of
    /// a pattern re-drawn every ~15 SNPs, plus the odd monomorphic SNP
    /// (`r²` undefined → 0).
    pub(crate) fn panel(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = BitMatrix::zeros(n_samples, n_snps);
        let mut pattern = vec![false; n_samples];
        for j in 0..n_snps {
            let fresh = j == 0 || rng.gen_range(0..15usize) == 0;
            let monomorphic = rng.gen_range(0..40usize) == 0;
            for (s, bit) in pattern.iter_mut().enumerate() {
                if fresh || rng.gen_range(0..6usize) == 0 {
                    *bit = rng.gen_bool(0.5);
                }
                g.set(s, j, *bit && !monomorphic);
            }
        }
        g
    }

    /// Every engine configuration × source the scans must agree across:
    /// threads {1, 2, 7} × slab heights {1, 7, 64} × memory / a store whose
    /// chunk width divides no window.
    pub(crate) fn for_each_run(g: &BitMatrix, mut check: impl FnMut(LdEngine, Source<'_>, String)) {
        let store = MemoryTileStore::from_matrix(g, 23).unwrap();
        for threads in [1usize, 2, 7] {
            for slab in [1usize, 7, 64] {
                let engine = LdEngine::new().threads(threads).slab_rows(slab);
                check(
                    engine.clone(),
                    Source::from(g),
                    format!("threads {threads} slab {slab} memory"),
                );
                check(
                    engine,
                    Source::Store(&store),
                    format!("threads {threads} slab {slab} store"),
                );
            }
        }
    }

    pub(crate) fn assert_same_points(got: &[OmegaPoint], want: &[OmegaPoint], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(
                a.omega.to_bits(),
                b.omega.to_bits(),
                "{what}: {a:?} vs {b:?}"
            );
            assert_eq!(
                (a.window_start, a.window_end, a.best_split),
                (b.window_start, b.window_end, b.best_split),
                "{what}"
            );
        }
    }

    /// The scan as it ran before the band: one `r²` matrix per window.
    fn per_window(scan: &OmegaScan, g: &BitMatrix) -> Vec<OmegaPoint> {
        let engine = LdEngine::new().nan_policy(NanPolicy::Zero);
        let starts = scan.window_starts(g.n_snps());
        let point = |&start: &usize| {
            let r2 = engine.r2_matrix(g.view(start, start + scan.window));
            scan.window_point(start, &WindowSums::new(&r2))
        };
        starts.iter().map(point).collect()
    }

    #[test]
    fn scan_equals_the_per_window_oracle() {
        let g = panel(96, 310, 7);
        // an overlap that divides the window, one that does not, every
        // window overlapping its neighbour in all but one SNP, and gaps
        for (window, step) in [(50, 10), (50, 12), (40, 8), (64, 1), (10, 25)] {
            let scan = OmegaScan::new(window, step);
            let want = per_window(&scan, &g);
            assert!(want.iter().any(|p| p.omega > 0.0), "a flat oracle");
            for_each_run(&g, |engine, src, what| {
                let got = scan.clone().engine(engine).scan(src).unwrap();
                assert_same_points(&got, &want, &format!("({window}, {step}) {what}"));
            });
        }
    }

    /// `2·min_region > window` used to underflow the split range: a panic
    /// in a debug build, ~2⁶⁴ iterations in a release one. It is a typed
    /// error before any work (this test runs under `--release` too).
    #[test]
    fn min_region_past_half_the_window_is_invalid_config() {
        let g = panel(32, 40, 3);
        for m in [6, 10, 11, usize::MAX / 2] {
            let got = OmegaScan::new(10, 5).min_region(m).scan(&g);
            assert!(
                matches!(got, Err(LdError::InvalidConfig { .. })),
                "min_region {m}: {got:?}"
            );
        }
        // exactly half leaves the one central split
        let points = OmegaScan::new(10, 5).min_region(5).scan(&g).unwrap();
        assert!(points.iter().all(|p| p.best_split == p.window_start + 5));
    }
}
