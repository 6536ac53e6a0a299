//! Integration tests of the application layers on top of the engine:
//! banded LD, decay, haplotype blocks, grid ω, association, higher-order
//! LD, and the FASTA → finite-sites path.

use gemm_ld::prelude::*;
use ld_core::{BandedLdMatrix, NanPolicy};
use ld_data::{CoalescentSimulator, SweepSimulator};

fn engine() -> LdEngine {
    LdEngine::new().nan_policy(NanPolicy::Zero)
}

#[test]
fn banded_decay_and_blocks_are_mutually_consistent() {
    // strong local LD panel
    let g = HaplotypeSimulator::new(600, 300)
        .seed(41)
        .founders(10)
        .switch_rate(0.01)
        .generate();
    let e = engine();

    // banded matrix agrees with decay profile aggregates
    let band = 20usize;
    let banded = BandedLdMatrix::compute(&e, &g, band, LdStats::RSquared).unwrap();
    let profile = DecayProfile::compute(&e, &g, band, 1).unwrap();
    for bin in profile.bins() {
        let d = bin.min_dist;
        let mut sum = 0.0;
        let mut count = 0u64;
        for i in 0..g.n_snps() {
            if let Some(v) = banded.get(i, i + d) {
                if !v.is_nan() {
                    sum += v;
                    count += 1;
                }
            }
        }
        assert_eq!(count, bin.count, "distance {d}");
        if count > 0 {
            assert!(
                (sum / count as f64 - bin.mean_r2).abs() < 1e-10,
                "distance {d}"
            );
        }
    }

    // blocks cover SNPs whose near-pair LD is high
    let blocks = ld_core::haplotype_blocks(&e, &g, 0.9).unwrap();
    assert!(!blocks.is_empty(), "low switch rate must produce blocks");
    let covered: usize = blocks.iter().map(|b| b.len()).sum();
    assert!(covered > g.n_snps() / 4, "covered only {covered}");
}

#[test]
fn grid_scan_beats_fixed_scan_on_asymmetric_sweep() {
    // a sweep whose flanks differ in width: adaptive borders should still
    // center correctly
    let base = HaplotypeSimulator::new(256, 200)
        .seed(42)
        .founders(32)
        .switch_rate(0.25);
    let g = SweepSimulator::new(base, 120, 30).seed(43).generate();
    let grid = GridScan::new(8, 40, 4).scan_max(&g).unwrap().unwrap();
    assert!(
        (100..=140).contains(&grid.best_split),
        "grid scan missed sweep at 120: {} (omega {})",
        grid.best_split,
        grid.omega
    );
}

#[test]
fn coalescent_data_flows_through_everything() {
    let g = CoalescentSimulator::new(128, 96)
        .blocks(8)
        .seed(44)
        .generate();
    let e = engine();
    let r2 = e.try_stat_matrix(&g, LdStats::RSquared).expect("LD matrix");
    assert_eq!(r2.n_snps(), 96);
    // within-genealogy LD must exceed cross-genealogy LD
    let within = r2.get(1, 5);
    let _ = within; // spot values vary; use the aggregate below
    let profile = DecayProfile::compute(&e, &g, 48, 12).unwrap();
    assert!(profile.bins()[0].mean_r2 > profile.bins()[3].mean_r2);
}

#[test]
fn association_scan_finds_ld_proxies_of_causal_snp() {
    // the classic GWAS phenomenon: SNPs in LD with the causal one light up
    let g = HaplotypeSimulator::new(3000, 120)
        .seed(45)
        .founders(8)
        .switch_rate(0.005)
        .generate();
    let causal = (0..120)
        .max_by_key(|&j| {
            let ones = g.ones_in_snp(j);
            ones.min(3000 - ones)
        })
        .unwrap();
    let (_, mask) = PhenotypeSimulator::new(vec![(causal, 1.5)])
        .noise_sd(0.7)
        .seed(46)
        .simulate(&g);
    let results = ld_assoc::allelic_scan(&g.full_view(), &mask, 1);
    // causal SNP must be significant
    assert!(results[causal].p < 1e-6, "causal p = {}", results[causal].p);
    // its strongest LD partner should also be significant (proxy signal)
    let r2 = engine()
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("LD matrix");
    let proxy = (0..120)
        .filter(|&j| j != causal)
        .max_by(|&a, &b| r2.get(causal, a).total_cmp(&r2.get(causal, b)))
        .unwrap();
    if r2.get(causal, proxy) > 0.8 {
        assert!(
            results[proxy].p < 1e-3,
            "proxy (r²={:.2}) p = {}",
            r2.get(causal, proxy),
            results[proxy].p
        );
    }
}

#[test]
fn fasta_to_finite_sites_to_biallelic_consistency() {
    // build an alignment from a simulated binary matrix, run both paths
    let g = HaplotypeSimulator::new(40, 25).seed(47).generate();
    let records: Vec<ld_io::fasta::FastaRecord> = (0..40)
        .map(|s| ld_io::fasta::FastaRecord {
            id: format!("seq{s}"),
            seq: (0..25)
                .map(|j| if g.get(s, j) { 'T' } else { 'A' })
                .collect(),
        })
        .collect();
    let mut buf = Vec::new();
    ld_io::fasta::write_fasta(&mut buf, &records).unwrap();
    let aln = ld_io::fasta::read_alignment(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(aln.n_sequences(), 40);

    // ISM path: biallelic extraction reproduces the source matrix up to
    // allele polarity (minor = derived may flip columns)
    let (bi, kept) = aln.to_biallelic_matrix();
    assert_eq!(kept.len(), 25, "all simulated sites are biallelic");
    let r2_src = engine()
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("LD matrix");
    let r2_bi = engine()
        .try_stat_matrix(&bi, LdStats::RSquared)
        .expect("LD matrix");
    for i in 0..25 {
        for j in i..25 {
            // r² is polarity-invariant
            assert!(
                (r2_src.get(i, j) - r2_bi.get(i, j)).abs() < 1e-10,
                "({i},{j})"
            );
        }
    }

    // FSM path: Zaykin T = n·r² for biallelic pairs
    let m = ld_ext::fsm::NucleotideMatrix::from_site_columns(40, aln.variable_columns());
    let t01 = m.t_statistic(0, 1, NanPolicy::Zero);
    assert!((t01 - 40.0 * r2_src.get(0, 1)).abs() < 1e-9);
}

#[test]
fn higher_order_ld_vanishes_for_duplicated_pairs() {
    // if C = A (duplicate), D_ABC should reduce to pairwise structure only:
    // D_AAB = P_AAB - ... with P_AAB = P_AB; verify against the formula
    let g = HaplotypeSimulator::new(200, 10).seed(48).generate();
    let dup = g.select_snps(&[3]).unwrap();
    let h = g.hstack(&dup).unwrap(); // SNP 10 == SNP 3
    let v = h.full_view();
    let f = ld_ext::triple_freqs(&v, 3, 10, 7);
    // p_AB for the duplicated pair is just p_A
    assert!((f.p2[0] - f.p[0]).abs() < 1e-12);
    // and the triple frequency equals the (A, C) pair frequency
    assert!((f.p3 - f.p2[1]).abs() < 1e-12);
}

#[test]
fn banded_storage_is_linear_in_n() {
    let g = HaplotypeSimulator::new(64, 4000).seed(49).generate();
    let banded = BandedLdMatrix::compute(&engine(), &g, 10, LdStats::RSquared).unwrap();
    assert_eq!(banded.storage_bytes(), 4000 * 10 * 8); // 320 KB
                                                       // full matrix would be 4000*4001/2 * 8 = 64 MB
    assert!(banded.storage_bytes() < 1 << 20);
    assert_eq!(
        banded.n_pairs(),
        10 * 3990 + (9 + 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1)
    );
}
