//! Command line shared by both binaries.

use crate::workload::{Workload, WORKLOADS};
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The workload of this run; `None` means every workload (only
    /// `--repeat-check` accepts that).
    pub workload: Option<&'static Workload>,
    /// Seed every input and request sequence is derived from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Shapes ÷ 8, one set-up pass: a smoke run, not a measurement.
    pub quick: bool,
    /// Run two sets of runs and compare them against the bounds.
    pub repeat_check: bool,
    /// Runs per workload per set under `--repeat-check`.
    pub runs: usize,
    /// The `gemm-ld` binary under test.
    pub gemm_ld: PathBuf,
    /// Where scratch directories and `trace.json` go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: --gemm-ld PATH --out-dir DIR --workload NAME [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--repeat-check [--runs N]]";

/// Parses `std::env::args`; prints the reason and exits 2 on a bad line.
pub fn parse() -> Args {
    match try_parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        quick: false,
        repeat_check: false,
        runs: 10,
        gemm_ld: PathBuf::new(),
        out_dir: PathBuf::new(),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (one of: {})", names.join(", "))
                })?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = num(&flag, &value()?)?,
            "--seconds" => args.seconds = num(&flag, &value()?)?,
            "--runs" => args.runs = num(&flag, &value()?)?,
            // run.sh picks the binary from --trace; the value is not needed here
            "--trace" => drop(value()?),
            "--gemm-ld" => args.gemm_ld = value()?.into(),
            "--out-dir" => args.out_dir = value()?.into(),
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.gemm_ld.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        return Err("--gemm-ld and --out-dir are required".into());
    }
    if args.workload.is_none() && !args.repeat_check {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.runs < 2 {
        return Err("--seconds must be in (0, 60] and --runs at least 2".into());
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value '{v}' for {flag}"))
}
