//! Benchmarks of the application layers: ω scans, Tanimoto screening,
//! masked LD, finite-sites T, association scans, banded/decay/blocks.
//!
//! Plain `fn main()` harness (criterion is unavailable offline).

use ld_bench::report::{fmt_secs, Table};
use ld_bench::runner::{time_best, BenchOpts};
use ld_bench::workloads::random_matrix;
use ld_bitmat::ValidityMask;
use ld_core::{LdEngine, NanPolicy};
use ld_data::fingerprints::clustered_fingerprints;
use ld_ext::gaps::masked_r2_matrix;
use ld_ext::tanimoto::tanimoto_matrix;
use ld_omega::OmegaScan;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let budget = if opts.full { 1.0 } else { 0.1 };
    let mut table = Table::new(["bench", "case", "best"]);
    let mut push = |bench: &str, case: &str, t: f64| {
        table.row([bench.to_string(), case.to_string(), fmt_secs(t)]);
    };

    // -- ω scans -----------------------------------------------------------
    {
        let g = random_matrix(512, 400, 0.3, 21);
        let scan = OmegaScan::new(50, 25);
        push(
            "omega",
            "scan-400snps-w50",
            time_best(|| drop(scan.scan(&g).unwrap()), budget, 10),
        );
        let r2 = LdEngine::new()
            .nan_policy(NanPolicy::Zero)
            .r2_matrix(g.view(0, 50));
        push(
            "omega",
            "omega-max-of-window",
            time_best(
                || {
                    let _ = ld_omega::omega_max(&r2);
                },
                budget,
                50,
            ),
        );
    }

    // -- Tanimoto ----------------------------------------------------------
    {
        let fp = clustered_fingerprints(256, 1024, 16, 0.08, 0.01, 3);
        let engine = LdEngine::new().threads(1);
        push(
            "tanimoto",
            "all-pairs-256x1024bits",
            time_best(
                || drop(tanimoto_matrix(&engine, &fp.full_view()).expect("Tanimoto")),
                budget,
                10,
            ),
        );
    }

    // -- masked LD ---------------------------------------------------------
    {
        let g = random_matrix(1024, 128, 0.3, 9);
        let mut mask = ValidityMask::all_valid(1024, 128);
        // 5% missing
        for j in 0..128 {
            for s in (0..1024).step_by(20) {
                mask.set_missing((s + j) % 1024, j);
            }
        }
        push(
            "masked-ld",
            "masked-r2-128snps",
            time_best(
                || drop(masked_r2_matrix(&g.full_view(), &mask, 1, NanPolicy::Zero)),
                budget,
                10,
            ),
        );
        let plain = LdEngine::new().threads(1).nan_policy(NanPolicy::Zero);
        push(
            "masked-ld",
            "unmasked-r2-128snps",
            time_best(|| drop(plain.r2_matrix(&g)), budget, 10),
        );
    }

    // -- finite sites ------------------------------------------------------
    {
        // biallelic nucleotide data, 32 sites x 512 samples
        let bits = random_matrix(512, 32, 0.4, 13);
        let cols: Vec<String> = (0..32)
            .map(|j| {
                (0..512)
                    .map(|s| if bits.get(s, j) { 'A' } else { 'G' })
                    .collect::<String>()
            })
            .collect();
        let m = ld_ext::fsm::NucleotideMatrix::from_site_strings(512, cols);
        let engine = LdEngine::new().threads(1).nan_policy(NanPolicy::Zero);
        push(
            "finite-sites",
            "zaykin-t-32sites",
            time_best(|| drop(m.t_matrix(&engine).expect("T")), budget, 10),
        );
    }

    // -- association scan --------------------------------------------------
    {
        let g = random_matrix(8192, 512, 0.3, 31);
        let mask: Vec<u64> = (0..g.words_per_snp())
            .map(|w| {
                if w + 1 == g.words_per_snp() {
                    ld_bitmat::tail_mask(8192) & 0x5555_5555_5555_5555
                } else {
                    0x5555_5555_5555_5555
                }
            })
            .collect();
        push(
            "assoc",
            "allelic-scan-512snps-8k-samples",
            time_best(
                || drop(ld_assoc::allelic_scan(&g.full_view(), &mask, 1)),
                budget,
                10,
            ),
        );
    }

    // -- grid ω scan -------------------------------------------------------
    {
        let g = random_matrix(256, 300, 0.3, 33);
        let scan = ld_omega::GridScan::new(5, 25, 10);
        push(
            "omega-grid",
            "grid-300snps-maxwin25",
            time_best(|| drop(scan.scan(&g).unwrap()), budget, 10),
        );
    }

    // -- banded / decay / blocks -------------------------------------------
    {
        let g = random_matrix(512, 600, 0.3, 35);
        let engine = LdEngine::new().threads(1).nan_policy(NanPolicy::Zero);
        push(
            "applications",
            "banded-r2-600snps-band32",
            time_best(
                || {
                    drop(
                        ld_core::BandedLdMatrix::compute(
                            &engine,
                            &g,
                            32,
                            ld_core::LdStats::RSquared,
                        )
                        .expect("banded r²"),
                    )
                },
                budget,
                10,
            ),
        );
        push(
            "applications",
            "decay-600snps-dist32",
            time_best(
                || drop(ld_core::DecayProfile::compute(&engine, &g, 32, 4).expect("decay")),
                budget,
                10,
            ),
        );
        push(
            "applications",
            "haplotype-blocks-600snps",
            time_best(
                || drop(ld_core::haplotype_blocks(&engine, &g, 0.8).expect("blocks")),
                budget,
                10,
            ),
        );
    }

    println!("{}", table.render());
}
