//! `gemm-ld` — command-line front end for the GEMM-based LD toolkit.
//!
//! ```text
//! gemm-ld info
//! gemm-ld simulate --samples 1000 --snps 500 -o data.ms
//! gemm-ld r2 -i data.ms --min-r2 0.2 -o pairs.tsv
//! gemm-ld import -i data.ms --store tiles/            # chunked on-disk store
//! gemm-ld r2 --store tiles/ -o pairs.tsv              # stream it out-of-core
//! gemm-ld run-sharded -i data.ms -o pairs.tsv --shards 4
//! gemm-ld r2 -i data.ms --shard 2/4 -o shard2.bin   # one shard by hand
//! gemm-ld merge shard*.bin -o pairs.tsv             # stitch + validate
//! gemm-ld omega -i data.ms --window 50 --step 10
//! gemm-ld tanimoto -i fingerprints.txt --top-k 5
//! gemm-ld convert -i data.ms -o data.vcf
//! gemm-ld serve panel=data.ms --addr 127.0.0.1:7711   # LD query daemon
//! ```

//! ## Exit codes
//!
//! `0` success · `1` other failure · `2` usage error · `3` input parse
//! error · `4` resource error (I/O, memory, limits) · `5` interrupted
//! (SIGINT / `--timeout`; with `--checkpoint` a resumable snapshot was
//! flushed first; for `serve`, the drain deadline expired with requests
//! abandoned). Every failure is a single `error:` line on stderr —
//! never a panic backtrace. A batch command whose stdout reader goes away
//! ends on SIGPIPE, like any Unix filter.

use std::process::ExitCode;

mod args;
mod commands;
mod error;
mod interrupt;

use error::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let parsed = args::Args::parse(rest.iter().cloned());
    if !matches!(cmd.as_str(), "serve" | "monitor") {
        interrupt::default_sigpipe();
    }
    let result = match cmd.as_str() {
        "info" => commands::info(&parsed),
        "simulate" => commands::simulate(&parsed),
        "r2" => commands::r2(&parsed),
        "import" => commands::import(&parsed),
        "merge" => commands::merge(&parsed),
        "run-sharded" => commands::run_sharded(&parsed),
        "omega" => commands::omega(&parsed),
        "tanimoto" => commands::tanimoto(&parsed),
        "prune" => commands::prune(&parsed),
        "decay" => commands::decay(&parsed),
        "blocks" => commands::blocks(&parsed),
        "assoc" => commands::assoc(&parsed),
        "convert" => commands::convert(&parsed),
        "serve" => commands::serve(&parsed),
        "monitor" => commands::monitor(&parsed),
        "tune" => commands::tune(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{}",
            commands::USAGE
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
