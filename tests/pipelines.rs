//! End-to-end pipeline tests: simulate → serialize → parse → analyze,
//! through every file format and both statistics layers.

use gemm_ld::prelude::*;
use ld_bitmat::GenotypeMatrix;
use ld_core::NanPolicy;
use ld_io::{bed, ms, text, vcf};
use std::io::BufReader;

fn sim(n_samples: usize, n_snps: usize, seed: u64) -> ld_bitmat::BitMatrix {
    HaplotypeSimulator::new(n_samples, n_snps)
        .seed(seed)
        .generate()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gemm_ld_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn ms_round_trip_preserves_ld() {
    let g = sim(90, 40, 1);
    let rep = ms::MsReplicate {
        positions: (0..40).map(|j| j as f64 / 40.0).collect(),
        matrix: g.clone(),
    };
    let mut buf = Vec::new();
    ms::write_ms(&mut buf, std::slice::from_ref(&rep)).unwrap();
    let back = ms::read_ms_first(buf.as_slice()).unwrap();
    assert_eq!(back.matrix, g);
    let a = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
    let b = LdEngine::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&back.matrix);
    assert_eq!(a.packed(), b.packed());
}

#[test]
fn vcf_pipeline_diploid() {
    let g = sim(60, 20, 2); // 60 haplotypes = 30 diploid samples
    let sites = vcf::synthetic_sites(20, 500);
    let mut buf = Vec::new();
    vcf::write_vcf(&mut buf, &g, &sites, 2).unwrap();
    let parsed = vcf::read_vcf(buf.as_slice()).unwrap();
    assert_eq!(parsed.ploidy, 2);
    assert_eq!(parsed.samples.len(), 30);
    assert_eq!(parsed.matrix, g);
    assert_eq!(parsed.sites.len(), 20);
    // no missing data was written
    assert_eq!(parsed.mask.missing_rate(), 0.0);
}

#[test]
fn plink_triple_to_r2() {
    let d = tmpdir("plink");
    let haps = sim(80, 15, 3);
    let genos = GenotypeMatrix::from_haplotypes_as_homozygous(&haps);
    let (bim, fam) = bed::synthetic_metadata(&genos);
    bed::write_plink_triple(d.join("cohort"), &genos, &bim, &fam).unwrap();

    let (g2, bim2, fam2) = bed::read_plink_triple(d.join("cohort")).unwrap();
    assert_eq!(bim2.len(), 15);
    assert_eq!(fam2.len(), 80);
    // PLINK kernel on the round-tripped genotypes equals engine on source
    let plink = ld_baselines::PlinkKernel::new()
        .nan_policy(NanPolicy::Zero)
        .r2_matrix(&g2, 1);
    let engine = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&haps);
    for i in 0..15 {
        for j in i..15 {
            assert!(
                (plink.get(i, j) - engine.get(i, j)).abs() < 1e-6,
                "({i},{j})"
            );
        }
    }
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn r2_table_export_and_reload() {
    let g = sim(100, 30, 4);
    let r2 = LdEngine::new().nan_policy(NanPolicy::Zero).r2_matrix(&g);
    let mut buf = Vec::new();
    text::write_r2_table(&mut buf, &r2, 0.3).unwrap();
    let rows = text::read_r2_table(BufReader::new(buf.as_slice())).unwrap();
    // every exported row matches the matrix and meets the threshold
    for row in &rows {
        assert!(row.r2 >= 0.3);
        assert!((row.r2 - r2.get(row.snp_a, row.snp_b)).abs() < 1e-5);
    }
    // and the export is complete
    let expected = r2.pairs_at_least(0.3).count();
    assert_eq!(rows.len(), expected);
}

#[test]
fn sweep_pipeline_ms_to_omega() {
    // simulate sweep -> write ms -> read back -> omega scan finds it
    let base = HaplotypeSimulator::new(200, 160)
        .seed(5)
        .founders(32)
        .switch_rate(0.2);
    let g = ld_data::SweepSimulator::new(base, 80, 20)
        .seed(6)
        .generate();
    let rep = ms::MsReplicate {
        positions: (0..160).map(|j| j as f64 / 160.0).collect(),
        matrix: g,
    };
    let mut buf = Vec::new();
    ms::write_ms(&mut buf, std::slice::from_ref(&rep)).unwrap();
    let back = ms::read_ms_first(buf.as_slice()).unwrap();
    let best = OmegaScan::new(40, 8)
        .scan_max(&back.matrix)
        .unwrap()
        .unwrap();
    assert!(
        (60..=100).contains(&best.best_split),
        "sweep at 80 missed: split {} omega {}",
        best.best_split,
        best.omega
    );
}

#[test]
fn text_matrix_to_tanimoto() {
    let fp = ld_data::fingerprints::clustered_fingerprints(16, 256, 4, 0.1, 0.02, 7);
    let mut buf = Vec::new();
    text::write_matrix(&mut buf, &fp).unwrap();
    let back = text::read_matrix(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(back, fp);
    let sim_mat =
        ld_ext::tanimoto::tanimoto_matrix(&LdEngine::new().threads(1), &back.full_view()).unwrap();
    // same-cluster compounds (i, i+4) are more similar than (i, i+1)
    let mut within = 0.0;
    let mut between = 0.0;
    for i in 0..8 {
        within += sim_mat.get(i, i + 4);
        between += sim_mat.get(i, i + 1);
    }
    assert!(within > between, "within {within} between {between}");
}

#[test]
fn vcf_with_missing_data_flows_into_masked_ld() {
    let s = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tA\tB\tC\tD\n\
             1\t100\t.\tA\tC\t.\t.\t.\tGT\t1\t1\t0\t0\n\
             1\t200\t.\tA\tC\t.\t.\t.\tGT\t1\t1\t0\t.\n";
    let v = vcf::read_vcf(s.as_bytes()).unwrap();
    assert_eq!(v.ploidy, 1);
    assert!(!v.mask.is_valid(3, 1));
    let r2 = ld_ext::gaps::masked_r2_matrix(&v.matrix.full_view(), &v.mask, 1, NanPolicy::Zero);
    // Over the 3 jointly-valid samples the SNPs are identical -> r² = 1.
    assert!((r2.get(0, 1) - 1.0).abs() < 1e-12);
}
