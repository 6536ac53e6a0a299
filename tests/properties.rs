//! Workspace-level property tests: statistical invariants that must hold
//! across the whole stack on arbitrary simulated inputs.
//! Seeded `ld-rng` cases replace `proptest` (unavailable offline).

use gemm_ld::prelude::*;
use ld_baselines::OmegaPlusKernel;
use ld_core::NanPolicy;
use ld_rng::SmallRng;

fn engine() -> LdEngine {
    LdEngine::new().nan_policy(NanPolicy::Zero)
}

#[test]
fn r2_bounded_and_symmetric_on_simulated_data() {
    let mut rng = SmallRng::seed_from_u64(0xf1);
    for case in 0..24 {
        let n_samples = rng.gen_range(2usize..300);
        let n_snps = rng.gen_range(2usize..40);
        let seed = rng.gen_range(0u64..10_000);
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        let r2 = engine().r2_matrix(&g);
        for (i, j, v) in r2.iter_upper() {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "case {case}: ({i},{j}) = {v}"
            );
            assert_eq!(
                r2.get(i, j).to_bits(),
                r2.get(j, i).to_bits(),
                "case {case}"
            );
        }
    }
}

#[test]
fn gemm_equals_pairwise_on_simulated_data() {
    let mut rng = SmallRng::seed_from_u64(0xf2);
    for case in 0..24 {
        let n_samples = rng.gen_range(2usize..250);
        let n_snps = rng.gen_range(2usize..30);
        let seed = rng.gen_range(0u64..10_000);
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        let a = engine().r2_matrix(&g);
        let b = OmegaPlusKernel::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(&g.full_view(), 1);
        for (i, j, v) in a.iter_upper() {
            assert!((v - b.get(i, j)).abs() < 1e-10, "case {case}: ({i},{j})");
        }
    }
}

#[test]
fn duplicating_a_snp_gives_perfect_ld() {
    let mut rng = SmallRng::seed_from_u64(0xf3);
    for case in 0..24 {
        let n_samples = rng.gen_range(2usize..200);
        let n_snps = rng.gen_range(2usize..20);
        let seed = rng.gen_range(0u64..10_000);
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        let pick = rng.gen_range(0usize..20) % n_snps;
        let dup = g.select_snps(&[pick]).unwrap();
        let h = g.hstack(&dup).unwrap(); // last column duplicates `pick`
        let r2 = engine().r2_matrix(&h);
        assert!((r2.get(pick, n_snps) - 1.0).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn permuting_samples_preserves_ld() {
    let mut rng = SmallRng::seed_from_u64(0xf4);
    for case in 0..24 {
        let n_samples = rng.gen_range(4usize..150);
        let n_snps = rng.gen_range(2usize..16);
        let seed = rng.gen_range(0u64..10_000);
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        // rotate samples by 1 (a permutation)
        let rows: Vec<Vec<u8>> = (0..n_samples)
            .map(|s| g.sample_to_bytes((s + 1) % n_samples))
            .collect();
        let p = ld_bitmat::BitMatrix::from_rows(n_samples, n_snps, rows.iter()).unwrap();
        let a = engine().r2_matrix(&g);
        let b = engine().r2_matrix(&p);
        for (i, j, v) in a.iter_upper() {
            assert!((v - b.get(i, j)).abs() < 1e-12, "case {case}: ({i},{j})");
        }
    }
}

#[test]
fn complementing_a_snp_preserves_r2() {
    let mut rng = SmallRng::seed_from_u64(0xf5);
    for case in 0..24 {
        let n_samples = rng.gen_range(2usize..150);
        let n_snps = rng.gen_range(2usize..16);
        let seed = rng.gen_range(0u64..10_000);
        // r² is invariant under allele relabeling (0 <-> 1 at one SNP)
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        let mut flipped = g.clone();
        for s in 0..n_samples {
            flipped.set(s, 0, !g.get(s, 0));
        }
        let a = engine().r2_matrix(&g);
        let b = engine().r2_matrix(&flipped);
        for j in 1..n_snps {
            assert!(
                (a.get(0, j) - b.get(0, j)).abs() < 1e-10,
                "case {case}: j={j}"
            );
        }
    }
}

#[test]
fn omega_is_nonnegative_and_finite_on_neutral_data() {
    let mut rng = SmallRng::seed_from_u64(0xf6);
    for case in 0..24 {
        let n_samples = rng.gen_range(8usize..120);
        let seed = rng.gen_range(0u64..10_000);
        let g = HaplotypeSimulator::new(n_samples, 24).seed(seed).generate();
        let r2 = engine().r2_matrix(&g);
        let (omega, split) = ld_omega::omega_max(&r2);
        assert!(omega >= 0.0, "case {case}");
        assert!((1..24).contains(&split), "case {case}");
    }
}

#[test]
fn tanimoto_triangle_like_bound() {
    let mut rng = SmallRng::seed_from_u64(0xf7);
    for case in 0..24 {
        let count = rng.gen_range(3usize..20);
        let seed = rng.gen_range(0u64..10_000);
        // Tanimoto distance (1 - T) obeys the triangle inequality; spot
        // check triples through the GEMM path.
        let fp = ld_data::fingerprints::random_fingerprints(count, 128, 0.3, seed);
        let t = ld_ext::tanimoto::tanimoto_matrix(&LdEngine::new().threads(1), &fp.full_view())
            .unwrap();
        for a in 0..count.min(6) {
            for b in 0..count.min(6) {
                for c in 0..count.min(6) {
                    let dab = 1.0 - t.get(a, b);
                    let dbc = 1.0 - t.get(b, c);
                    let dac = 1.0 - t.get(a, c);
                    assert!(dac <= dab + dbc + 1e-9, "case {case}: ({a},{b},{c})");
                }
            }
        }
    }
}
