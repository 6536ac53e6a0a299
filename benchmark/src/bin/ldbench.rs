//! End-to-end run of one workload through the shipped surfaces only: the
//! `gemm-ld` binary and the LDS1 wire protocol. Prints the end-to-end
//! metrics; the last line of stdout is the result object.

use ldbench::args::{self, Args};
use ldbench::child::{self, Usage};
use ldbench::daemon::Daemon;
use ldbench::loadgen::{self, Op, Pace, Plan};
use ldbench::metrics::{self, Outcome, END_TO_END};
use ldbench::scratch::Scratch;
use ldbench::workload::{self, Kind, Workload, WORKLOADS};
use ldbench::{inputs, oracle, stats, THREADS};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::time::Instant;

fn main() {
    child::shim();
    let args = args::parse();
    if args.repeat_check {
        std::process::exit(repeat_check(&args));
    }
    let w = args.workload.expect("checked by args::parse");
    let result = run(w, &args, args.seed);
    if let Ok(outcome) = &result {
        outcome.print(&END_TO_END);
    }
    if let Some(why) = metrics::failure(w.name, &result) {
        eprintln!("ldbench: {why}");
        std::process::exit(1);
    }
}

/// What the numbers were measured on.
fn header(w: &Workload, args: &Args, seed: u64, scratch: &Scratch) -> io::Result<()> {
    let (snps, samples) = w.shape(args.quick);
    println!(
        "workload     : {} ({snps} SNPs x {samples} samples)",
        w.name
    );
    println!("seed         : {seed}");
    println!("seconds      : {}", args.seconds);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("nproc        : {nproc} (compute threads {THREADS}, generator threads {THREADS})");
    println!(
        "scratch      : {} ({})",
        scratch.path().display(),
        scratch.fs_type()
    );
    println!("git commit   : {}", git_commit());
    // TSC rate and the kernel `auto` resolves to, as the binary reports them.
    let info = child::gemm_ld(&args.gemm_ld).arg("info").output()?;
    for line in String::from_utf8_lossy(&info.stdout).lines() {
        if ["tsc", "auto selects", "cpu features"]
            .iter()
            .any(|k| line.starts_with(k))
        {
            println!("{line}");
        }
    }
    Ok(())
}

/// The checked-out commit, when the run happens inside a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None if head.is_empty() => "none (not a git work tree)".to_string(),
        None => head.to_string(),
    }
}

/// CPU seconds the hypervisor has withheld from this guest so far (the
/// `steal` column of `/proc/stat`, in 10 ms ticks).
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Runs one workload once and returns its end-to-end metrics.
fn run(w: &Workload, args: &Args, seed: u64) -> io::Result<Outcome> {
    let scratch = Scratch::new(&args.out_dir)?;
    let dir = scratch.path();
    header(w, args, seed, &scratch)?;

    // Set-up, three times over so `setup_s` is a median; the products of
    // the last pass are the ones measured. It is never inside another
    // metric: input generation, `import`, daemon start + `--preload`.
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut g = None;
    for _ in 0..if args.quick { 1 } else { 3 } {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let m = inputs::generate(w, seed, args.quick);
        inputs::write(&dir.join(w.input), &m)?;
        if w.store {
            let store = dir.join(workload::STORE_DIR);
            let _ = std::fs::remove_dir_all(&store);
            let mut cmd = child::gemm_ld(&args.gemm_ld);
            cmd.arg("import").arg("-i").arg(dir.join(w.input));
            cmd.arg("--store").arg(&store);
            cmd.args(["--chunk-snps", &workload::STORE_CHUNK_SNPS.to_string()]);
            if !child::run(&cmd, None)?.ok {
                return Err(io::Error::other("gemm-ld import failed"));
            }
        }
        if w.kind != Kind::Batch {
            daemon = Some(Daemon::start(&args.gemm_ld, &dir.join(w.input))?);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        g = Some(m);
    }
    let g = g.expect("at least one set-up pass");
    let truth = oracle::r2_matrix(&g);

    // Measure; if the hypervisor withheld more than 5 % of the guest's
    // CPU time meanwhile, the numbers describe the host, not the program:
    // measure once more and keep that. Failures count from both phases.
    let limit_s =
        0.05 * args.seconds * std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
    let (mut attempted, mut failed) = (0, 0);
    let mut outcome = loop {
        let stolen = steal_s();
        let mut o = match &daemon {
            None => batch(w, args, dir, &truth)?,
            Some(d) => serve(w, args, seed, d, &truth)?,
        };
        let stolen = steal_s() - stolen;
        let again = stolen > limit_s && attempted == 0 && !args.quick;
        println!(
            "host steal   : {stolen:.2} s{}",
            if again {
                " — too much, measuring again"
            } else {
                ""
            }
        );
        attempted += o.attempted;
        failed += o.failed;
        if !again {
            (o.attempted, o.failed) = (attempted, failed);
            break o;
        }
    };
    if let Some(d) = daemon {
        outcome.attempted += 1;
        outcome.failed += usize::from(!d.stop()?.ok);
    }
    outcome.values.push(("setup_s", stats::median(&setup_s)));
    Ok(outcome)
}

/// Whole `gemm-ld r2` processes back to back for `--seconds`, after one
/// untimed warm-up; every output is compared with the oracle's.
fn batch(w: &Workload, args: &Args, dir: &Path, truth: &ld_core::LdMatrix) -> io::Result<Outcome> {
    let (out_path, expected) = if w.table {
        let table = oracle::pair_table(truth, 0, truth.n_snps(), w.min_r2_value());
        (dir.join(workload::TABLE), table)
    } else {
        let listing = oracle::top_listing(truth, w.min_r2_value());
        (dir.join(workload::LISTING), listing)
    };
    // One buffer for every output: a fresh 49 MB allocation per process
    // would spend its time in page faults between the timed processes.
    let mut out = Vec::with_capacity(expected.len() + 1);
    let mut rep = || -> io::Result<(Usage, bool)> {
        let mut cmd = child::gemm_ld(&args.gemm_ld);
        cmd.args(w.r2_args(dir, w.min_r2));
        let usage = child::run(&cmd, (!w.table).then_some(out_path.as_path()))?;
        out.clear();
        let read = File::open(&out_path).and_then(|mut f| f.read_to_end(&mut out));
        let right = usage.ok
            && read.is_ok()
            && match w.table {
                true => oracle::table_matches(&out, &expected, w.min_r2_value()),
                false => oracle::listing_matches(&out, &expected, truth),
            };
        // a later failing process must not find this output
        let _ = std::fs::remove_file(&out_path);
        Ok((usage, right))
    };

    let (mut attempted, mut failed) = (1, 0);
    if !rep()?.1 {
        failed += 1;
    }
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    while wall.is_empty() || (!args.quick && phase.elapsed().as_secs_f64() < args.seconds) {
        let (usage, right) = rep()?;
        attempted += 1;
        if right {
            wall.push(usage.wall_s);
            rss.push(usage.peak_rss_mb);
        } else {
            failed += 1;
            if failed > 3 {
                return Err(io::Error::other(
                    "gemm-ld r2 keeps failing or printing wrong output",
                ));
            }
        }
    }
    // The host reports free guest pages back to the hypervisor, so a
    // process that touches fresh memory runs up to 4x slower, in bursts.
    // The noise is one-sided: summarise the faster half of the processes.
    stats::sort(&mut wall);
    let wall_s = stats::median(&wall[..wall.len().div_ceil(2)]);
    println!("samples      : {} processes", wall.len());
    let ms: Vec<String> = wall.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    println!("walls, ms    : {}", ms.join(" "));
    Ok(Outcome {
        attempted,
        failed,
        values: vec![
            ("wall_s", wall_s),
            ("mld_per_s", w.ld_values(args.quick) / wall_s / 1e6),
            ("peak_rss_mb", stats::median(&rss)),
            // a run holds too few processes for steady percentiles: both
            // latency metrics restate the process wall
            ("latency_p50_us", wall_s * 1e6),
            ("latency_p95_us", wall_s * 1e6),
            ("throughput_rps", 1.0 / wall_s),
        ],
    })
}

/// One load phase against the running daemon; every 16th response is
/// re-derived from the oracle. The caller stops the daemon.
fn serve(
    w: &Workload,
    args: &Args,
    seed: u64,
    daemon: &Daemon,
    truth: &ld_core::LdMatrix,
) -> io::Result<Outcome> {
    let open = w.kind == Kind::ServeOpen;
    let plan = Plan {
        addr: &daemon.addr,
        op: if open {
            Op::Pair
        } else {
            Op::Region(workload::REGION_ROWS)
        },
        pace: if open {
            Pace::Open(workload::OPEN_RATE)
        } else {
            Pace::Closed
        },
        fresh: open,
        threads: THREADS,
        warmup_s: if args.quick { 0.2 } else { 1.0 },
        seconds: args.seconds,
        seed,
        n_snps: truth.n_snps(),
    };
    let phase = loadgen::run(&plan);
    let peak_rss_mb = daemon.peak_rss_mb()?;
    if phase.latency_us.is_empty() {
        return Err(io::Error::other("no request succeeded"));
    }
    let failed = phase.failed + phase.mismatches(truth);
    let p50 = stats::median(&phase.latency_us);
    let tail_us = stats::p95(&phase.latency_us);
    println!(
        "samples      : {} responses ({} re-derived)",
        phase.latency_us.len(),
        phase.kept.len()
    );
    if open {
        let late = stats::p95(&phase.late_us);
        let verdict = if late > 1000.0 {
            " — VOID: the generator ran late"
        } else {
            ""
        };
        println!(
            "generator    : open loop {} req/s, lateness p95 {late:.0} us{verdict}",
            workload::OPEN_RATE
        );
    } else {
        println!("generator    : closed loop, {THREADS} persistent connections");
    }
    Ok(Outcome {
        attempted: phase.attempted,
        failed,
        values: vec![
            ("wall_s", p50 / 1e6),
            ("mld_per_s", phase.ld_values as f64 / phase.wall_s / 1e6),
            ("peak_rss_mb", peak_rss_mb),
            ("latency_p50_us", p50),
            ("latency_p95_us", tail_us),
            (
                "throughput_rps",
                phase.latency_us.len() as f64 / phase.wall_s,
            ),
        ],
    })
}

/// `--repeat-check`: two sets of runs of this build, workloads
/// interleaved round-robin so a slow minute on the shared host taxes
/// every sample set equally. Prints, per metric × workload, each set's
/// median and quartile spread and how much worse the second median is;
/// returns non-zero if a spread or a difference exceeds the bound.
fn repeat_check(args: &Args) -> i32 {
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    // samples[set][workload][metric] -> one value per run
    let mut samples = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    for (set, per_set) in samples.iter_mut().enumerate() {
        for r in 0..args.runs {
            for (wi, w) in workloads.iter().enumerate() {
                let seed = args.seed + (set * args.runs + r) as u64;
                let result = run(w, args, seed);
                if let Some(why) = metrics::failure(w.name, &result) {
                    eprintln!("ldbench: {why}");
                    return 1;
                }
                let o = result.expect("failure() reports errors");
                print!("set {} run {:>2}   :", set + 1, r + 1);
                for (mi, m) in END_TO_END.iter().enumerate() {
                    per_set[wi][mi].push(o.get(m.name));
                    print!(" {}={:.6}", m.name, o.get(m.name));
                }
                println!();
            }
        }
    }
    println!(
        "\n{:<22} {:<16} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "iqr 1", "median 2", "iqr 2", "worse", "bound"
    );
    let mut over = 0;
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let q: Vec<[f64; 3]> = (0..2)
                .map(|s| stats::quartiles(&samples[s][wi][mi]))
                .collect();
            let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1];
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse = sign * (q[1][1] - q[0][1]) / q[0][1];
            // set-up's spread is reported but not held to the bound
            let wide = m.name != "setup_s" && q.iter().any(|q| spread(q) > m.bound);
            let bad = worse > m.bound || wide;
            over += usize::from(bad);
            println!(
                "{:<22} {:<16} {:>12.5} {:>7.1}% {:>12.5} {:>7.1}% {:>+7.1}% {:>5.0}%{}",
                w.name,
                m.name,
                q[0][1],
                100.0 * spread(&q[0]),
                q[1][1],
                100.0 * spread(&q[1]),
                100.0 * worse,
                100.0 * m.bound,
                if bad { "  OVER" } else { "" }
            );
        }
    }
    println!("{over} metric x workload pair(s) over their bound");
    i32::from(over > 0)
}
