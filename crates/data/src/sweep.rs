//! Selective-sweep signature generator.

use crate::HaplotypeSimulator;
use ld_bitmat::BitMatrix;
use ld_rng::SmallRng;

/// Plants the LD signature of a completed selective sweep into a neutral
/// background.
///
/// Following the sweep theory the paper cites (§I, Maynard Smith & Haigh;
/// Kim & Nielsen): after a sweep, each *flank* of the selected site carries
/// long shared haplotype blocks (high within-flank LD), but recombination
/// events that happened during the sweep decouple the two flanks (low
/// cross-flank LD). We model that directly: within the sweep region, a
/// sweeping subset of samples shares one founder haplotype per flank, and
/// the two flanks pick their carrier subsets independently.
#[derive(Clone, Debug)]
pub struct SweepSimulator {
    base: HaplotypeSimulator,
    center: usize,
    half_width: usize,
    carrier_fraction: f64,
    seed: u64,
}

impl SweepSimulator {
    /// A sweep at SNP index `center` affecting `half_width` SNPs on each
    /// side, embedded in the `base` neutral simulation.
    pub fn new(base: HaplotypeSimulator, center: usize, half_width: usize) -> Self {
        Self {
            base,
            center,
            half_width,
            carrier_fraction: 0.8,
            seed: 0xca11_ab1e,
        }
    }

    /// Fraction of samples carrying the swept haplotype (default 0.8).
    pub fn carrier_fraction(mut self, f: f64) -> Self {
        self.carrier_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// RNG seed for the sweep overlay.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The sweep center SNP index.
    pub fn center(&self) -> usize {
        self.center
    }

    /// Generates the matrix: neutral background + sweep overlay.
    pub fn generate(&self) -> BitMatrix {
        let mut g = self.base.generate();
        let n_samples = g.n_samples();
        let n_snps = g.n_snps();
        if n_samples < 4 || n_snps == 0 {
            return g;
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let left_start = self.center.saturating_sub(self.half_width);
        let left_end = self.center.min(n_snps);
        let right_start = self.center.min(n_snps);
        let right_end = (self.center + self.half_width).min(n_snps);

        // Independent carrier subsets per flank — the decoupling that
        // recombination during the sweep produces.
        let carriers_left = self.pick_carriers(&mut rng, n_samples);
        let carriers_right = self.pick_carriers(&mut rng, n_samples);

        self.overlay_flank(&mut g, &mut rng, left_start..left_end, &carriers_left);
        self.overlay_flank(&mut g, &mut rng, right_start..right_end, &carriers_right);
        g
    }

    fn pick_carriers(&self, rng: &mut SmallRng, n_samples: usize) -> Vec<bool> {
        (0..n_samples)
            .map(|_| rng.gen::<f64>() < self.carrier_fraction)
            .collect()
    }

    /// Within one flank, carriers all share a single swept haplotype: each
    /// SNP gets one consensus allele for carriers; non-carriers keep their
    /// neutral alleles (preserving polymorphism).
    fn overlay_flank(
        &self,
        g: &mut BitMatrix,
        rng: &mut SmallRng,
        snps: std::ops::Range<usize>,
        carriers: &[bool],
    ) {
        for j in snps {
            let swept_allele = rng.gen::<bool>();
            for (s, &is_carrier) in carriers.iter().enumerate() {
                if is_carrier {
                    g.set(s, j, swept_allele);
                }
            }
            // keep the site polymorphic
            let ones = g.ones_in_snp(j);
            if ones == 0 {
                g.set(first_noncarrier(carriers).unwrap_or(0), j, true);
            } else if ones == g.n_samples() as u64 {
                g.set(first_noncarrier(carriers).unwrap_or(0), j, false);
            }
        }
    }
}

fn first_noncarrier(carriers: &[bool]) -> Option<usize> {
    carriers.iter().position(|&c| !c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{LdEngine, NanPolicy};
    use ld_omega::OmegaScan;

    fn sim() -> SweepSimulator {
        let base = HaplotypeSimulator::new(128, 120)
            .seed(11)
            .founders(32)
            .switch_rate(0.3);
        SweepSimulator::new(base, 60, 15).seed(12)
    }

    #[test]
    fn deterministic_and_shaped() {
        let a = sim().generate();
        let b = sim().generate();
        assert_eq!(a, b);
        assert_eq!(a.n_samples(), 128);
        assert_eq!(a.n_snps(), 120);
        a.check_padding().unwrap();
    }

    #[test]
    fn within_flank_ld_exceeds_cross_flank() {
        let g = sim().generate();
        let e = LdEngine::new().nan_policy(NanPolicy::Zero);
        let r2 = e.r2_matrix(&g);
        let mut within = Vec::new();
        let mut cross = Vec::new();
        for i in 46..75 {
            for j in i + 1..75 {
                let v = r2.get(i, j);
                if (i < 60) == (j < 60) {
                    within.push(v);
                } else {
                    cross.push(v);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&within) > 2.0 * mean(&cross),
            "within {} cross {}",
            mean(&within),
            mean(&cross)
        );
    }

    #[test]
    fn omega_scan_locates_the_sweep() {
        let g = sim().generate();
        let best = OmegaScan::new(24, 4).scan_max(&g).unwrap().unwrap();
        assert!(
            (50..=70).contains(&best.best_split),
            "sweep at 60 missed: split {} (ω = {})",
            best.best_split,
            best.omega
        );
    }

    #[test]
    fn all_sites_stay_polymorphic() {
        let g = sim().carrier_fraction(1.0).generate();
        for j in 0..g.n_snps() {
            let ones = g.ones_in_snp(j);
            assert!(ones > 0 && ones < g.n_samples() as u64, "SNP {j}");
        }
    }

    #[test]
    fn degenerate_shapes_survive() {
        let base = HaplotypeSimulator::new(2, 5).seed(1);
        let g = SweepSimulator::new(base, 2, 2).generate();
        assert_eq!(g.n_snps(), 5);
        let base = HaplotypeSimulator::new(64, 10).seed(1);
        // center beyond the end: clamped, right flank empty
        let g = SweepSimulator::new(base, 100, 5).generate();
        assert_eq!(g.n_snps(), 10);
    }
}
