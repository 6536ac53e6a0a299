//! Integration + property tests for the §VII/§VIII extension layers.
//! Seeded `ld-rng` cases replace `proptest` (unavailable offline).

use gemm_ld::prelude::*;
use ld_core::NanPolicy;
use ld_ext::gaps::masked_r2_matrix;
use ld_ext::gaps_blocked::masked_r2_matrix_blocked;
use ld_rng::SmallRng;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-10 || (a.is_nan() && b.is_nan())
}

#[test]
fn blocked_and_pairwise_masked_ld_agree() {
    let mut rng = SmallRng::seed_from_u64(0xe1);
    for case in 0..20 {
        let n_samples = rng.gen_range(2usize..200);
        let n_snps = rng.gen_range(2usize..20);
        let seed = rng.gen_range(0u64..10_000);
        let missing_pct = rng.gen_range(0u64..40);
        let g = HaplotypeSimulator::new(n_samples, n_snps)
            .seed(seed)
            .generate();
        let mut mask = ValidityMask::all_valid(n_samples, n_snps);
        let mut s = seed | 1;
        for j in 0..n_snps {
            for smp in 0..n_samples {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 100 < missing_pct {
                    mask.set_missing(smp, j);
                }
            }
        }
        let pairwise = masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Propagate);
        let engine = LdEngine::new().threads(2);
        let blocked = masked_r2_matrix_blocked(&engine, &g.full_view(), &mask).unwrap();
        for i in 0..n_snps {
            for j in i..n_snps {
                assert!(
                    close(pairwise.get(i, j), blocked.get(i, j)),
                    "case {case}: ({i},{j}): {} vs {}",
                    pairwise.get(i, j),
                    blocked.get(i, j)
                );
            }
        }
    }
}

#[test]
fn tanimoto_and_r2_rank_similar_pairs_together() {
    let mut rng = SmallRng::seed_from_u64(0xe2);
    for case in 0..20 {
        let seed = rng.gen_range(0u64..10_000);
        // both similarity notions must agree that a column is most similar
        // to its own duplicate
        let fp = ld_data::fingerprints::random_fingerprints(10, 256, 0.2, seed);
        let dup = fp.select_snps(&[0]).unwrap();
        let h = fp.hstack(&dup).unwrap();
        let sim =
            ld_ext::tanimoto::tanimoto_matrix(&LdEngine::new().threads(1), &h.full_view()).unwrap();
        let r2 = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .try_stat_matrix(&h, LdStats::RSquared)
            .expect("LD matrix");
        // column 10 duplicates column 0
        assert!((sim.get(0, 10) - 1.0).abs() < 1e-12, "case {case}");
        assert!((r2.get(0, 10) - 1.0).abs() < 1e-10, "case {case}");
        for j in 1..10 {
            assert!(sim.get(0, j) <= 1.0 + 1e-12, "case {case}: j={j}");
        }
    }
}

#[test]
fn third_order_d_is_bounded() {
    let mut rng = SmallRng::seed_from_u64(0xe3);
    for case in 0..20 {
        let n_samples = rng.gen_range(4usize..150);
        let seed = rng.gen_range(0u64..10_000);
        // |D_ABC| ≤ 1 always (it is a difference of probabilities and
        // probability products); usually far smaller
        let g = HaplotypeSimulator::new(n_samples, 6).seed(seed).generate();
        let v = g.full_view();
        for i in 0..6 {
            for j in i + 1..6 {
                for k in j + 1..6 {
                    let d3 = ld_ext::third_order_d(&v, i, j, k);
                    assert!(d3.abs() <= 1.0 + 1e-12, "case {case}: ({i},{j},{k}) = {d3}");
                }
            }
        }
    }
}

#[test]
fn masked_blocked_handles_heavy_missingness() {
    // 60% missing: per-pair intersections get small; both paths agree
    let g = HaplotypeSimulator::new(300, 15).seed(9).generate();
    let mut mask = ValidityMask::all_valid(300, 15);
    let mut s = 11u64;
    for j in 0..15 {
        for smp in 0..300 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 5 < 3 {
                mask.set_missing(smp, j);
            }
        }
    }
    let a = masked_r2_matrix(&g.full_view(), &mask, 2, NanPolicy::Zero);
    let engine = LdEngine::new()
        .kernel(KernelKind::Scalar)
        .threads(1)
        .nan_policy(NanPolicy::Zero);
    let b = masked_r2_matrix_blocked(&engine, &g.full_view(), &mask).unwrap();
    for (i, j, v) in a.iter_upper() {
        assert!(close(v, b.get(i, j)), "({i},{j})");
    }
}

#[test]
fn ld_matrix_binary_round_trip_through_engine() {
    let g = HaplotypeSimulator::new(200, 40).seed(10).generate();
    let m = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("LD matrix"); // NaN policy default: propagate
    let mut buf = Vec::new();
    ld_io::ldmatrix::write_ld_matrix(&mut buf, &m).unwrap();
    let back = ld_io::ldmatrix::read_ld_matrix(buf.as_slice()).unwrap();
    for (i, j, v) in m.iter_upper() {
        let w = back.get(i, j);
        assert!(v.to_bits() == w.to_bits(), "({i},{j})");
    }
}

#[test]
fn ped_map_pipeline_matches_bed_pipeline() {
    // same cohort through both PLINK container formats
    let haps = HaplotypeSimulator::new(60, 12).seed(12).generate();
    let genos = ld_bitmat::GenotypeMatrix::from_haplotype_pairs(&haps).unwrap();
    let alleles: Vec<(char, char)> = (0..12).map(|_| ('A', 'G')).collect();
    let individuals = ld_io::ped::synthetic_individuals(genos.n_individuals());

    let mut ped_buf = Vec::new();
    ld_io::ped::write_ped(&mut ped_buf, &individuals, &genos, &alleles).unwrap();
    let ped = ld_io::ped::read_ped(ped_buf.as_slice(), 12).unwrap();

    let mut bed_buf = Vec::new();
    ld_io::bed::write_bed(&mut bed_buf, &genos).unwrap();
    let bed = ld_io::bed::read_bed(bed_buf.as_slice(), genos.n_individuals(), 12).unwrap();

    // r² through the PLINK kernel must match across container formats
    let a = ld_baselines::PlinkKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&ped.genotypes, 1);
    let b = ld_baselines::PlinkKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&bed, 1);
    assert_eq!(a.packed(), b.packed());
}
