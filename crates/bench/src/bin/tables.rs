//! **Tables I–III** — execution time, LD values per second, and GEMM
//! speedup for PLINK-1.9-style vs OmegaPlus-style vs GEMM-based LD on the
//! paper's three datasets, over the thread counts {1, 2, 4, 8, 12}.
//!
//! Paper numbers (12 threads, Dataset C): GEMM 17.1× over PLINK 1.9 and
//! 4.0× over OmegaPlus; 1-thread Dataset A: 7.5× and 3.7×.
//!
//! Notes on fidelity (details in DESIGN.md §3 / EXPERIMENTS.md):
//! * datasets are simulated at the paper's shapes (`--full`) or scaled
//!   down by `--scale N` (default 5) for minutes-long runs;
//! * all three implementations compute all `N(N+1)/2` pairwise r² values
//!   of the same underlying samples (PLINK on the homozygous-lift
//!   genotype view), so "LDs per second" is directly comparable;
//! * the paper's LDs/s column is ×10⁶ (its ×10⁹ header does not match its
//!   own time/pair-count arithmetic) — we print ×10⁶.
//!
//! Usage: `tables [--dataset a|b|c|all] [--scale N | --full] [--threads 1,2,...]
//!         [--only plink,omegaplus,gemm]`
//! (`--only` lets full-size runs skip the slowest baselines; skipped cells
//! print `-`.)

use ld_baselines::{OmegaPlusKernel, PlinkKernel};
use ld_bench::report::Table;
use ld_bench::runner::BenchOpts;
use ld_bench::workloads::triangle_pairs;
use ld_core::{LdEngine, LdStats, NanPolicy};
use ld_data::datasets::{build, genotypes_for, Dataset};
use ld_kernels::KernelKind;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let scale = if opts.full {
        1
    } else {
        opts.get("scale").and_then(|s| s.parse().ok()).unwrap_or(5)
    };
    let which: Vec<Dataset> = match opts.get("dataset") {
        None | Some("all") => vec![Dataset::A, Dataset::B, Dataset::C],
        Some(s) => match Dataset::parse(s) {
            Some(d) => vec![d],
            None => {
                eprintln!("unknown dataset '{s}' (expected a|b|c|all)");
                std::process::exit(2);
            }
        },
    };
    let threads = opts.thread_list();
    let only: Vec<String> = opts
        .get("only")
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect())
        .unwrap_or_else(|| vec!["plink".into(), "omegaplus".into(), "gemm".into()]);
    let run = |name: &str| only.iter().any(|o| o == name);

    for dataset in which {
        let (n_snps, n_samples) = dataset.scaled_shape(scale);
        println!(
            "\n## Dataset {} — scaled to {n_snps} SNPs x {n_samples} samples (scale {scale})",
            dataset.name()
        );
        println!("generating haplotypes...");
        let haps = build(dataset, scale, 42);
        println!("lifting to genotypes for the PLINK-style kernel...");
        let genos = genotypes_for(&haps);
        let pairs = triangle_pairs(n_snps);

        let mut table = Table::new([
            "Threads",
            "PLINK (s)",
            "OmegaPlus (s)",
            "GEMM (s)",
            "PLINK MLD/s",
            "OmegaPlus MLD/s",
            "GEMM MLD/s",
            "GEMM vs PLINK",
            "GEMM vs OmegaPlus",
        ]);
        for &t in &threads {
            let probe = (n_snps / 3, n_snps / 2);
            let fmt_s = |s: Option<f64>| s.map(|v| format!("{v:.2}")).unwrap_or("-".into());
            let fmt_rate = |s: Option<f64>| {
                s.map(|v| format!("{:.2}", pairs / v / 1e6))
                    .unwrap_or("-".into())
            };

            let plink_s = run("plink").then(|| {
                let plink = PlinkKernel::new().nan_policy(NanPolicy::Zero);
                let t0 = Instant::now();
                let m = plink.r2_matrix(&genos, t);
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(m.get(probe.0, probe.1));
                dt
            });
            let omega_s = run("omegaplus").then(|| {
                let omega = OmegaPlusKernel::new().nan_policy(NanPolicy::Zero);
                let t0 = Instant::now();
                let m = omega.r2_matrix(&haps.full_view(), t);
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(m.get(probe.0, probe.1));
                dt
            });
            let gemm_s = run("gemm").then(|| {
                let engine = LdEngine::new()
                    .kernel(KernelKind::Scalar)
                    .threads(t)
                    .nan_policy(NanPolicy::Zero);
                let t0 = Instant::now();
                let m = engine
                    .try_stat_matrix(&haps, LdStats::RSquared)
                    .expect("LD matrix");
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(m.get(probe.0, probe.1));
                dt
            });

            let speedup = |x: Option<f64>| match (x, gemm_s) {
                (Some(x), Some(g)) => format!("{:.2}x", x / g),
                _ => "-".into(),
            };
            table.row([
                t.to_string(),
                fmt_s(plink_s),
                fmt_s(omega_s),
                fmt_s(gemm_s),
                fmt_rate(plink_s),
                fmt_rate(omega_s),
                fmt_rate(gemm_s),
                speedup(plink_s),
                speedup(omega_s),
            ]);
        }
        println!("{}", table.render());
    }
}
