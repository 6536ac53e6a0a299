//! Subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use ld_bitmat::BitMatrix;
use ld_core::{
    CancelToken, CheckpointPlan, CheckpointState, Deadline, Input, LdEngine, NanPolicy, RunControl,
    Source,
};
use ld_data::HaplotypeSimulator;
use ld_data::SweepSimulator;
use ld_ext::tanimoto::{tanimoto_matrix, top_k_neighbors};
use ld_io::atomic::{write_atomic, write_atomic_with};
use ld_io::text::{push_r2_rows, r2_keeps, r2_row_bound, R2_TABLE_HEADER};
use ld_io::MatrixFormat;
use ld_kernels::{BlockSizes, CpuProfile, KernelKind, TunedParams};
use ld_omega::OmegaScan;
use ld_popcount::{CpuFeatures, CpuFingerprint};
use ld_trace::analyze::analyze;
use ld_trace::recorder::TraceSnapshot;
use ld_trace::Counter;
use std::io::BufReader;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "gemm-ld — linkage disequilibrium as dense linear algebra

USAGE:
  gemm-ld <command> [options]

COMMANDS:
  info        show CPU features and available micro-kernels
  simulate    generate haplotype data
              --samples N --snps M [--seed S] [--founders F]
              [--sweep CENTER [--sweep-width W]] -o out.{ms,txt,vcf}
  r2          all-pairs LD
              -i in.{ms,txt,vcf} [--min-r2 X] [--threads T]
              [--kernel auto|scalar|avx2-mula|avx512-vpopcnt]
              [--stat r2|d|dprime] [-o pairs.tsv]
              [--profile[=text|json]] [--profile-out metrics.json]
              [--trace-out trace.json]
              (--profile reports per-layer time, counters and the
              kernel roofline, as text on stderr or stable-schema JSON;
              --trace-out records a span timeline, writes Chrome
              trace-event JSON loadable in Perfetto / chrome://tracing,
              and adds its analysis — busy/idle, imbalance, layer
              shares — to the --profile report)
              [--timeout SECS] [--checkpoint FILE [--resume]]
              (SIGINT or an expired --timeout stops at the next slab
              boundary with exit code 5; --checkpoint makes the run
              resumable, --resume picks it back up bit-identically)
              [--shard i/N] (compute only shard i of an N-way row-slab
              plan and write its slabs to -o FILE in the checkpoint
              interchange format; run every i in 1..=N — in parallel,
              on separate machines, or under run-sharded — then stitch
              with merge. Every shard must cut the same slab grid with
              the same kernel: a cached CPU profile sets both, so on
              separate machines pin them with --slab-rows and --kernel,
              or set LD_NO_CPU_PROFILE=1)
              [--store DIR] (read the genotype matrix from a chunked
              tile store written by 'import' instead of -i; the matrix
              is read in windows sized to --memory-budget-mb (without
              it, the smallest), so it never has to fit in memory.
              -o, --checkpoint/--resume, --shard and --memory-budget-mb
              work the same and the output bytes are identical. With
              --min-r2 t > 0 and a --memory-budget-mb that holds the
              whole store, it is read once and the run computes only
              the pairs whose allele frequencies can reach t; without a
              budget every pair is computed)
              [--memory-budget-mb N] (cap working memory, for -i and
              --store alike: the slab height shrinks to fit and results
              stay bit-identical; a budget too small for even one slab
              row is a resource error, exit 4. A --store whose whole
              packed matrix fits the budget is read once, each chunk
              verified once, and computed in memory on every thread)
  import      chunk a genotype matrix into an out-of-core tile store
              -i in.{ms,txt,vcf} --store DIR [--chunk-snps N]
              (fixed-size CRC-checked chunks + a fingerprinted manifest;
              'r2 --store DIR' reads it, any damage is a typed error
              naming the chunk)
  merge       stitch shard outputs into one pair table
              gemm-ld merge shard1.bin shard2.bin ... -o pairs.tsv
              [--min-r2 X] [-i in (verify the shard fingerprints against
              this input)] [--shards N (name the shards to re-run in the
              gap report)]
              (every input is CRC- and fingerprint-validated; overlapping
              or missing slab spans abort with a gap report instead of a
              truncated panel)
  run-sharded one command = N shard processes + supervised merge
              -i in -o pairs.tsv --shards N [--retries R] [--backoff-ms B]
              [--work-dir DIR] [--threads T] [--min-r2 X] [--timeout SECS]
              [--stat ...] [--kernel ...] [--fault-kill i]
              (spawns one r2 --shard process per shard, classifies every
              exit — success / resumable / crash / corrupt output — and
              re-dispatches failures with capped exponential backoff,
              resuming from each shard's own checkpoint; SIGINT/--timeout
              interrupt the whole tree resumably; the run manifest is
              written to DIR/manifest.json; --fault-kill SIGKILLs one
              shard's first attempt to exercise the recovery path)
  omega       selective-sweep scan (omega statistic)
              -i in.{ms,txt,vcf} [--window W] [--step S] [--threads T]
  tanimoto    all-vs-all fingerprint similarity
              -i fingerprints.txt [--top-k K] [--threads T]
  prune       LD pruning (plink --indep-pairwise style)
              -i in [--window W] [--step S] [--threshold X] [--threads T]
              [-o kept.txt]
  decay       mean r-squared by SNP distance
              -i in [--max-dist D] [--bin W] [--threads T]
  blocks      haplotype blocks (solid spine of LD on D')
              -i in [--threshold X] [--threads T]
  assoc       case/control association scan + LD clumping
              -i in [--causal i,j,...] [--beta X] [--p X] [--clump-r2 X]
              [--clump-window W] [--seed S]
  convert     convert between formats: -i in.{ms,txt,vcf} -o out.{ms,txt,vcf}
  serve       LD query daemon: answer point/region queries over TCP
              gemm-ld serve [name=]input ... [--addr HOST:PORT]
              [--workers N] [--queue DEPTH] [--max-conns N]
              [--memory-budget-mb MB] [--request-timeout-ms MS]
              [--drain-ms MS] [--preload] [--threads T] [--kernel ...]
              [--profile[=text|json] [--profile-out FILE]]
              (panels are text inputs or 'import' tile stores; resident
              LD matrices are cached LRU under the memory budget —
              admission overload and budget exhaustion shed with typed
              responses instead of stalling or dying. SIGINT/SIGTERM
              stop accepting and drain in-flight work under --drain-ms:
              exit 0 on a clean drain, 5 if the deadline expired. Prints
              'listening on HOST:PORT' at startup; --addr host:0 picks a
              free port)
              [--metrics-addr HOST:PORT] (plain-HTTP GET /metrics
              Prometheus endpoint + GET /health; prints 'metrics on
              HOST:PORT'; port 0 picks a free port)
              [--request-log FILE] (append-only JSON-lines request log,
              one event per lifecycle transition; see
              schemas/request_log.schema.json)
              [--slow-ms MS] (mirror slower requests to stderr)
              [--trace-dump FILE] (arm the flight recorder at boot;
              'kill -USR1 <pid>' — or the dump_trace opcode — snapshots
              a Perfetto-loadable trace from the live daemon without
              restarting it)
  monitor     live terminal dashboard over a running daemon
              gemm-ld monitor HOST:PORT [--interval-ms N] [--once]
              [--raw] (polls the 'metrics' opcode: queue depth,
              in-flight, shed rate, rolling p50/p99 windows, panel
              residency; --raw prints the Prometheus text verbatim)
  tune        autotune kernel + blocking for this CPU and cache the result
              [--quick|--full] [--threads T] [--out profile.json]
              (staged coordinate descent over kernel, kc/mc/nc blocks
              and slab height, scored best-of-N by
              words/cycle from the metrics counters; the winning profile
              is written atomically, keyed to this CPU's fingerprint,
              and picked up automatically by later r2/bench runs)
  help        this message

ENVIRONMENT:
  LD_KERNEL          kernel name forced wherever 'auto' would resolve
                     (invalid values warn once and fall back)
  LD_CPU_PROFILE     tuned-profile path (default
                     $XDG_CACHE_HOME/gemm-ld/cpu-profile.json)
  LD_NO_CPU_PROFILE  set to 1 to ignore any cached profile

Tuned-parameter precedence: explicit flags > LD_KERNEL > cached CPU
profile > built-in defaults.";

type CmdResult = Result<(), CliError>;

/// Parses a `--kernel` flag value.
fn parse_kernel(args: &Args) -> Result<KernelKind, CliError> {
    match args.get("kernel") {
        None => Ok(KernelKind::Auto),
        Some(name) => name.parse().map_err(CliError::Usage),
    }
}

/// Parses a keep-threshold flag (`--min-r2`, `--threshold`). NaN is
/// refused: every comparison against it is false, so the run would compute
/// everything and then keep nothing, exit 0.
fn parse_threshold(args: &Args, key: &str, default: f64) -> Result<f64, CliError> {
    let v = args.get_parsed(key, default)?;
    if v.is_nan() {
        return Err(CliError::Usage(format!(
            "invalid value '{}' for --{key} (not a number)",
            args.get(key).unwrap_or_default()
        )));
    }
    Ok(v)
}

/// Parses `--timeout SECS`.
fn parse_timeout(args: &Args) -> Result<Option<Duration>, CliError> {
    let Some(v) = args.get("timeout").filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    let secs: f64 = v
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid value '{v}' for --timeout")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(CliError::Usage(format!(
            "--timeout must be a non-negative number of seconds, got '{v}'"
        )));
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// Parses a count flag that must be at least `min`; `None` when absent
/// (several defaults depend on the input, which is read only after every
/// flag has been checked).
fn parse_at_least(args: &Args, key: &str, min: usize) -> Result<Option<usize>, CliError> {
    if !args.has(key) {
        return Ok(None);
    }
    let v = args.get_parsed(key, min)?;
    if v < min {
        return Err(CliError::Usage(format!(
            "--{key} must be at least {min}, got {v}"
        )));
    }
    Ok(Some(v))
}

/// Builds an [`LdEngine`] honoring the tuning precedence: explicit CLI
/// flags > `LD_KERNEL` env > cached per-CPU profile (`gemm-ld tune`) >
/// built-in defaults.
///
/// The profile supplies kernel, `kc/mc/nc` blocking and slab height;
/// `--kernel` and `--slab-rows` each override their own parameter
/// without discarding the rest. A present `LD_KERNEL` suppresses only
/// the profile's kernel choice (the env override itself is applied
/// inside `auto` resolution).
fn tuned_engine(args: &Args, threads: usize) -> Result<LdEngine, CliError> {
    let mut engine = LdEngine::new().threads(threads);
    let cli_kernel = args.get("kernel").is_some();
    let env_kernel = std::env::var("LD_KERNEL")
        .map(|v| !v.trim().is_empty())
        .unwrap_or(false);
    if let Some(p) = ld_kernels::profile::load_active() {
        let t = &p.tuned;
        engine = engine.blocks(t.blocks).slab_rows(t.slab_rows);
        if !cli_kernel && !env_kernel {
            engine = engine.kernel(t.kernel);
        }
    }
    if cli_kernel {
        engine = engine.kernel(parse_kernel(args)?);
    }
    if args.get("slab-rows").is_some() {
        engine = engine.slab_rows(args.get_parsed("slab-rows", 64usize)?);
    }
    Ok(engine)
}

/// Parses `--profile[=json|text]`: absent → `None`, bare / `=text` → text
/// rendering on stderr, `=json` → the stable-schema JSON document.
fn parse_profile(args: &Args) -> Result<Option<&'static str>, CliError> {
    match args.get("profile") {
        None => Ok(None),
        Some("") | Some("text") => Ok(Some("text")),
        Some("json") => Ok(Some("json")),
        Some(other) => Err(CliError::Usage(format!(
            "unknown profile mode '{other}' (expected --profile, --profile=text or --profile=json)"
        ))),
    }
}

/// Fails fast when the directory that will receive `path` is missing or
/// unwritable: probed at argument-parse time with a create-then-remove
/// marker file, so a doomed `-o`/`--checkpoint`/`--trace-out` destination
/// costs an exit-4 error up front instead of hours of compute followed by
/// a failed write.
fn probe_writable(path: &str, flag: &str) -> Result<(), CliError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static PROBE_SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = match Path::new(path).parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let probe = parent.join(format!(
        ".gemm-ld-probe-{}-{}",
        std::process::id(),
        PROBE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&probe)
    {
        Ok(f) => {
            drop(f);
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(CliError::Resource(format!(
            "{flag} {path}: directory {} is not writable: {e}",
            parent.display()
        ))),
    }
}

/// Probes every writable destination a command was given, before any
/// input is read or compute starts.
fn probe_output_flags(args: &Args, keys: &[(&str, &str)]) -> Result<(), CliError> {
    for (flag, key) in keys {
        if let Some(p) = args.get(key).filter(|s| !s.is_empty()) {
            probe_writable(p, flag)?;
        }
    }
    Ok(())
}

/// Parses `--shard i/N`: a 1-based shard index over an N-way plan.
fn parse_shard(args: &Args) -> Result<Option<(usize, usize)>, CliError> {
    let Some(v) = args.get("shard").filter(|s| !s.is_empty()) else {
        return Ok(None);
    };
    let bad = || {
        CliError::Usage(format!(
            "invalid value '{v}' for --shard (expected i/N, e.g. --shard 2/4)"
        ))
    };
    let (i, n) = v.split_once('/').ok_or_else(bad)?;
    let i: usize = i.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i == 0 || i > n {
        return Err(CliError::Usage(format!(
            "--shard index out of range: got '{v}', need 1 <= i <= N"
        )));
    }
    Ok(Some((i, n)))
}

/// Parsed interruption/recovery flags of a long-running command.
struct Interruption {
    /// Tripped by SIGINT (via the watcher) or cancelled to reap it.
    token: CancelToken,
    /// `--timeout SECS` as a monotonic deadline.
    deadline: Option<Deadline>,
    /// `--checkpoint FILE` destination.
    checkpoint_path: Option<String>,
    /// Parsed `--resume` state (validated against the input by the engine).
    resume_state: Option<CheckpointState>,
}

impl Interruption {
    /// Parses `--timeout` / `--checkpoint` / `--resume` and, when any
    /// interruption feature is requested, installs the SIGINT handler
    /// (plain runs keep the default SIGINT disposition).
    fn parse(args: &Args) -> Result<Self, CliError> {
        let timeout = parse_timeout(args)?;
        let checkpoint_path = args
            .get("checkpoint")
            .filter(|s| !s.is_empty())
            .map(str::to_owned);
        let resume_state = if args.has("resume") {
            let Some(path) = checkpoint_path.as_deref() else {
                return Err(CliError::Usage(
                    "--resume requires --checkpoint FILE".into(),
                ));
            };
            match ld_io::checkpoint::read_checkpoint_path(path) {
                Ok(state) => Some(state),
                // A missing file is the normal first run of a resumable
                // job — only absence may fall through to a fresh start.
                Err(ld_io::IoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    eprintln!("no checkpoint at {path}; starting fresh");
                    None
                }
                // Anything else (unreadable, truncated, CRC/parse
                // failure) is a damaged snapshot: surface it (exit 3/4 by
                // class) instead of silently recomputing from scratch.
                Err(e) => return Err(e.into()),
            }
        } else {
            None
        };
        let token = CancelToken::new();
        if timeout.is_some() || checkpoint_path.is_some() {
            crate::interrupt::install_sigint_watcher(&token);
        }
        Ok(Self {
            token,
            deadline: timeout.map(Deadline::after),
            checkpoint_path,
            resume_state,
        })
    }

    /// True when any interruption feature was requested.
    fn active(&self) -> bool {
        self.deadline.is_some() || self.checkpoint_path.is_some()
    }

    /// A cancelled run that flushed a checkpoint is *interrupted* (exit 5,
    /// naming the snapshot to resume from); everything else keeps its own
    /// class.
    fn classify(&self, e: ld_core::LdError) -> CliError {
        match (&e, &self.checkpoint_path) {
            (ld_core::LdError::Cancelled { .. }, Some(p)) => CliError::Interrupted(format!(
                "{e}; resumable checkpoint saved to {p} (rerun with --resume)"
            )),
            _ => e.into(),
        }
    }

    /// The `what` ("run", "shard") completed: its snapshot is now
    /// redundant.
    fn remove_checkpoint(&self, what: &str) {
        if let Some(p) = &self.checkpoint_path {
            if std::fs::remove_file(p).is_ok() {
                eprintln!("{what} complete; removed checkpoint {p}");
            }
        }
    }

    /// Reaps the SIGINT watcher thread after a finished run (tripping the
    /// token after completion changes nothing — the loop already drained).
    fn finish(&self) {
        if self.active() && !self.token.is_cancelled() {
            self.token.cancel_with_reason("run complete");
        }
    }
}

impl Drop for Interruption {
    /// Runs on every exit path (success *and* error returns), so the
    /// watcher thread never outlives the command.
    fn drop(&mut self) {
        self.finish();
    }
}

/// Captures the run report — the per-layer metrics accumulated since the
/// last [`ld_trace::reset`], the roofline of the kernel `kind` resolves
/// to, and the analysis of the span `trace` when the run recorded one —
/// and emits it: text to stderr, JSON to stdout or to `--profile-out FILE`.
fn emit_profile(
    mode: &str,
    out: Option<&str>,
    wall_ns: u64,
    threads: usize,
    kind: KernelKind,
    trace: Option<&TraceSnapshot>,
) -> Result<(), CliError> {
    // Analytical peak of the resolved kernel (§IV/§V model: `lanes`
    // 64-bit word-pairs per cycle at 3 fused ops/cycle).
    let peak = ld_kernels::Kernel::resolve(kind)
        .ok()
        .map(|k| k.lanes() as f64);
    let report = ld_trace::MetricsReport::capture()
        .with_wall_ns(wall_ns)
        .with_threads(threads)
        .with_tsc_hz(ld_kernels::clock::tsc_hz())
        .with_peak_words_per_cycle(peak)
        .with_timeline(trace.map(|snap| analyze(snap, Some(wall_ns), threads as u64)));
    if mode == "json" {
        let body = report.to_json();
        match out {
            Some(path) if !path.is_empty() => {
                write_atomic(path, (body + "\n").as_bytes())?;
                eprintln!("wrote profile to {path}");
            }
            _ => println!("{body}"),
        }
    } else {
        eprintln!("{}", report.render_text());
    }
    Ok(())
}

/// Loads a haplotype matrix in the format its extension names
/// ([`MatrixFormat`]): an unsupported extension is a usage error (exit 2),
/// an unopenable file a resource error (4), a malformed one a parse
/// error (3).
pub fn load_matrix(path: &str) -> Result<BitMatrix, CliError> {
    let p = Path::new(path);
    let format = MatrixFormat::from_path(p).map_err(|ext| {
        CliError::Usage(format!(
            "unsupported input extension '.{ext}' (expected ms/vcf/txt)"
        ))
    })?;
    let file = std::fs::File::open(p)
        .map_err(|e| CliError::Resource(format!("cannot open {path}: {e}")))?;
    Ok(format.read(BufReader::with_capacity(
        MatrixFormat::READ_BUFFER_BYTES,
        file,
    ))?)
}

/// Saves a haplotype matrix in the format its extension names. The write
/// is atomic (temp + fsync + rename): an interrupted run never leaves a
/// truncated file under the final name.
pub fn save_matrix(path: &str, g: &BitMatrix) -> Result<(), CliError> {
    let format = MatrixFormat::from_path(Path::new(path))
        .map_err(|ext| CliError::Usage(format!("unsupported output extension '.{ext}'")))?;
    // ld-io format errors inside the atomic closure ride on io::Error;
    // they all classify as resource failures here anyway.
    write_atomic_with(path, |w| {
        format
            .write(w, g)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| CliError::Resource(format!("cannot write {path}: {e}")))
}

/// `gemm-ld info`
pub fn info(_args: &Args) -> CmdResult {
    let f = CpuFeatures::detect();
    println!("gemm-ld {}", env!("CARGO_PKG_VERSION"));
    println!("cpu features : {}", f.summary());
    println!("hw threads   : {}", ld_parallel::available_threads());
    match ld_kernels::clock::tsc_hz() {
        Some(hz) => println!("tsc          : {:.2} GHz", hz / 1e9),
        None => println!("tsc          : unavailable"),
    }
    println!("micro-kernels:");
    for k in ld_kernels::micro::supported_kernels() {
        println!(
            "  {:<22} MR={} NR={} lanes={}",
            k.kind().to_string(),
            k.mr(),
            k.nr(),
            k.lanes()
        );
    }
    let auto = ld_kernels::Kernel::resolve(KernelKind::Auto).map_err(|e| e.to_string())?;
    println!("auto selects : {}", auto.kind());
    Ok(())
}

/// `gemm-ld simulate`
pub fn simulate(args: &Args) -> CmdResult {
    let samples = args.get_parsed("samples", 1000usize)?;
    let snps = args.get_parsed("snps", 500usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let founders = args.get_parsed("founders", 16usize)?;
    let out = args.require("output")?;
    let base = HaplotypeSimulator::new(samples, snps)
        .seed(seed)
        .founders(founders);
    let g = if args.has("sweep") {
        let center = args.get_parsed("sweep", snps / 2)?;
        let width = args.get_parsed("sweep-width", snps / 10)?;
        SweepSimulator::new(base, center, width)
            .seed(seed ^ 0xdead)
            .generate()
    } else {
        base.generate()
    };
    save_matrix(out, &g)?;
    println!(
        "wrote {} samples x {} SNPs (density {:.3}) to {}",
        g.n_samples(),
        g.n_snps(),
        g.density(),
        out
    );
    Ok(())
}

/// `gemm-ld r2` — all-pairs LD from `-i FILE` (the matrix is loaded
/// whole) or `--store DIR` (a chunked tile store written by `import`,
/// read in windows sized to `--memory-budget-mb` so the input never has
/// to fit in memory, or once when the budget holds all of it).
///
/// The two inputs become one [`Input`] and share everything after it:
/// identical statistics and identical output bytes, the same `--shard`,
/// `--checkpoint`/`--resume`, `--memory-budget-mb`, streaming `-o` and
/// trace/profile plumbing. What the input changes — parallel axis, slab
/// order, budget model, whether a store is read once — and which pairs a
/// thresholded run computes are the engine's business: the table and the
/// listing are one call of `LdEngine::try_rows_in_order_with`, next to the
/// shard and checkpoint arms.
pub fn r2(args: &Args) -> CmdResult {
    use std::io::Write as _;
    let profile = parse_profile(args)?;
    let trace_out = args.get("trace-out").filter(|s| !s.is_empty());
    if profile.is_some() || trace_out.is_some() {
        // Fresh counters for this run (parse errors above leave the
        // accumulated state alone).
        ld_trace::reset();
    }
    // Every destination this run will eventually write is probed now —
    // a doomed path is an exit-4 error before any compute.
    probe_output_flags(
        args,
        &[
            ("-o", "output"),
            ("--checkpoint", "checkpoint"),
            ("--trace-out", "trace-out"),
            ("--profile-out", "profile-out"),
        ],
    )?;
    let mut intr = Interruption::parse(args)?;
    let min_r2 = parse_threshold(args, "min-r2", 0.0)?;
    let store;
    let input = match args.get("store").filter(|s| !s.is_empty()) {
        Some(dir) => {
            if args.get("input").is_some() {
                return Err(CliError::Usage(
                    "r2 takes either -i FILE or --store DIR, not both".into(),
                ));
            }
            store = ld_io::tilestore::DirTileStore::open(dir)?;
            let meta = ld_core::TileSource::meta(&store);
            eprintln!(
                "reading {} SNPs x {} samples from {dir} ({} chunks of {} SNPs)",
                meta.n_snps,
                meta.n_samples,
                meta.n_chunks(),
                meta.chunk_snps
            );
            Input::Store(&store)
        }
        None => Input::Panel(load_matrix(args.require("input")?)?),
    };
    let (n, n_samples) = (input.source().n_snps(), input.source().n_samples());
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    if trace_out.is_some() {
        ld_trace::recorder::start(threads);
    }
    let stat = match args.get("stat") {
        None | Some("r2") => ld_core::LdStats::RSquared,
        Some("d") => ld_core::LdStats::D,
        Some("dprime") | Some("d'") => ld_core::LdStats::DPrime,
        Some(other) => return Err(CliError::Usage(format!("unknown stat '{other}'"))),
    };
    let mut engine = tuned_engine(args, threads)?.nan_policy(NanPolicy::Zero);
    if let Some(v) = args.get("memory-budget-mb").filter(|s| !s.is_empty()) {
        let mib: usize = v
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value '{v}' for --memory-budget-mb")))?;
        engine = engine.memory_budget(ld_core::MemoryBudget::mib(mib));
    }
    // Run control: SIGINT token + --timeout deadline + --checkpoint plan.
    // The sink must outlive the plan borrowing it.
    let sink = intr
        .checkpoint_path
        .clone()
        .map(ld_io::checkpoint::AtomicFileSink::new);
    let mut ctl = RunControl::new().with_token(&intr.token);
    if let Some(d) = intr.deadline {
        ctl = ctl.with_deadline(d);
    }
    if let Some(s) = &sink {
        let mut plan = CheckpointPlan::new(s).every_secs(5.0);
        if let Some(state) = intr.resume_state.take() {
            plan = plan.resume_from(state);
        }
        ctl = ctl.with_checkpoint(plan);
    }
    let t0 = std::time::Instant::now();
    let pairs = n * (n + 1) / 2;
    let print_summary = |wall: std::time::Duration| {
        let dt = wall.as_secs_f64();
        eprintln!(
            "{n} SNPs x {n_samples} samples: {pairs} LD values in {dt:.3}s ({:.1} MLD/s)",
            pairs as f64 / dt / 1e6
        );
    };
    let output = args.get("output").filter(|s| !s.is_empty());
    // Compute-region wall time (excludes the result post-processing),
    // captured where each arm finishes its LD computation — this is the
    // denominator of the profile's layer-coverage figure.
    let compute_wall_ns = if let Some((idx, n_shards)) = parse_shard(args)? {
        // `--shard i/N`: compute one shard of the N-way slab plan and write
        // it in the checkpoint interchange format — the pair table comes
        // later, from `merge` over all N shard outputs. The plan is cut on
        // the grid this source will actually run (its own budget model).
        let Some(out) = output else {
            return Err(CliError::Usage(
                "--shard requires -o FILE (the shard output path)".into(),
            ));
        };
        let range = engine.shard_plan_from(&input.source(), n_shards)?[idx - 1];
        ctl = ctl.with_shard(range);
        let state = engine
            .try_stat_shard_with(input.source(), stat, &ctl)
            .map_err(|e| intr.classify(e))?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        write_atomic(out, &state.to_bytes())
            .map_err(|e| CliError::Resource(format!("cannot write {out}: {e}")))?;
        intr.remove_checkpoint("shard");
        let (r0, r1) = range.rows(state.slab as usize, n);
        eprintln!("shard {idx}/{n_shards}: slabs {range} (rows {r0}..{r1}) of {n} SNPs -> {out}");
        wall_ns
    } else if sink.is_some() {
        // Packed-matrix path: only under --checkpoint (completed slabs
        // live in the packed triangle the engine snapshots).
        let m = engine
            .try_stat_matrix_with(input.source(), stat, &ctl)
            .map_err(|e| intr.classify(e))?;
        let wall = t0.elapsed();
        print_summary(wall);
        intr.remove_checkpoint("run");
        emit_pairs(output, &m, min_r2)?;
        wall.as_nanos() as u64
    } else {
        // The rows of the table or listing, in row order, from whichever
        // plan the engine picks (a thresholded run computes only the pairs
        // whose allele frequencies let them pass, when that pays). Each
        // part is formatted, or cut down to its strongest pairs, on the
        // thread that produced it; only the write and the fold are
        // serialised. Memory stays at the run's scratch bound: no triangle
        // and no list of kept pairs exists.
        let mut best = Vec::new();
        match output {
            Some(path) => {
                // Written atomically: the table appears under `path` only
                // complete — a cancelled run leaves no torn file. Written
                // blocks go back to the workers, so a run touches a few
                // blocks' worth of pages, not every block's.
                let mut ld_err = None;
                let res = write_atomic_with(path, |w| {
                    w.write_all(R2_TABLE_HEADER.as_bytes())?;
                    let mut io_err: Option<std::io::Error> = None;
                    let spare: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
                    let spare = || spare.lock().unwrap_or_else(PoisonError::into_inner);
                    let format = |rows: &ld_core::Rows<'_>| {
                        let mut block = spare().pop().unwrap_or_default();
                        let bound = rows.iter().map(|(_, _, v)| r2_row_bound(n, v, min_r2));
                        block.reserve(bound.sum());
                        push_r2_rows(&mut block, rows, min_r2);
                        block
                    };
                    let write = |mut block: Vec<u8>| {
                        if io_err.is_none() {
                            io_err = w.write_all(&block).err();
                        }
                        block.clear();
                        spare().push(block);
                    };
                    let run =
                        engine.try_rows_in_order_with(input, stat, min_r2, format, write, &ctl);
                    if let Err(e) = run {
                        ld_err = Some(e);
                        return Err(std::io::Error::other("LD computation failed"));
                    }
                    io_err.map_or(Ok(()), Err)
                });
                if let Some(e) = ld_err {
                    return Err(intr.classify(e));
                }
                res.map_err(|e| CliError::Resource(format!("cannot write {path}: {e}")))?;
            }
            None => {
                let strongest = |rows: &ld_core::Rows<'_>| top_pairs(rows.pairs(), min_r2);
                let fold = |part: Vec<Pair>| fold_top_pairs(&mut best, part.into_iter(), min_r2);
                engine
                    .try_rows_in_order_with(input, stat, min_r2, strongest, fold, &ctl)
                    .map_err(|e| intr.classify(e))?;
            }
        }
        let wall = t0.elapsed();
        print_summary(wall);
        match output {
            Some(path) => eprintln!("wrote pair table to {path}"),
            None => print_top_pairs(&best, min_r2),
        }
        wall.as_nanos() as u64
    };
    let trace = match trace_out {
        Some(path) => Some(emit_trace(path)?),
        None => None,
    };
    if let Some(mode) = profile {
        let out = args.get("profile-out");
        let kind = engine.kernel_kind();
        emit_profile(mode, out, compute_wall_ns, threads, kind, trace.as_ref())?;
    }
    Ok(())
}

/// `gemm-ld import` — chunk a genotype matrix into an out-of-core tile
/// store: fixed-size CRC-32-trailed chunk files plus a fingerprinted,
/// CRC-guarded manifest, all written atomically. `r2 --store DIR`
/// streams the result without ever loading the whole matrix.
pub fn import(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let Some(dir) = args.get("store").filter(|s| !s.is_empty()) else {
        return Err(CliError::Usage(
            "import requires --store DIR (the tile-store directory to create)".into(),
        ));
    };
    let chunk_snps = args.get_parsed("chunk-snps", ld_core::tilestore::DEFAULT_CHUNK_SNPS)?;
    let g = load_matrix(input)?;
    let meta = ld_io::tilestore::import_to_dir(&g, chunk_snps, dir)?;
    println!(
        "imported {} samples x {} SNPs into {} ({} chunks of <= {} SNPs, fingerprint {:#018x})",
        meta.n_samples,
        meta.n_snps,
        dir,
        meta.n_chunks(),
        meta.chunk_snps,
        meta.fingerprint
    );
    Ok(())
}

/// Stops the flight recorder and writes its Chrome trace-event JSON
/// (Perfetto-loadable) atomically to `path` — an unwritable path is a
/// resource error (exit code 4), never a panic or a torn file. Returns
/// the snapshot for the `--profile` report's timeline.
fn emit_trace(path: &str) -> Result<TraceSnapshot, CliError> {
    let snap = ld_trace::recorder::stop().unwrap_or_default();
    let body = ld_trace::export::chrome_trace_json(&snap);
    write_atomic(path, (body + "\n").as_bytes())
        .map_err(|e| CliError::Resource(format!("cannot write {path}: {e}")))?;
    eprintln!("wrote trace timeline to {path} (open in ui.perfetto.dev)");
    Ok(snap)
}

/// Writes the standard pair table — the exact bytes `r2 -o` produces —
/// atomically to `path`. `merge` and `run-sharded` route through this so
/// a stitched panel is byte-identical to a single-process run.
fn write_pair_table(path: &str, m: &ld_core::LdMatrix, min_r2: f64) -> Result<(), CliError> {
    write_atomic_with(path, |w| {
        ld_io::text::write_r2_table(w, m, min_r2).map_err(|e| match e {
            ld_io::IoError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        })
    })
    .map_err(|e| CliError::Resource(format!("cannot write {path}: {e}")))
}

/// An off-diagonal pair `(i, j, value)`, `i < j`.
type Pair = (usize, usize, f64);

/// How many pairs the stdout listing shows.
const TOP_PAIRS: usize = 20;

/// The listing's selection: the [`TOP_PAIRS`] strongest of the `pairs`
/// the table would keep (not NaN, `≥ min_r2`), strongest first, equal
/// values in `(i, j)` order. That order is total, so the selection of a
/// union is the selection of its parts' selections — which is what lets
/// `r2` fold slabs into it — and it holds at most `TOP_PAIRS` entries at
/// any time.
fn top_pairs(pairs: impl Iterator<Item = Pair>, min_r2: f64) -> Vec<Pair> {
    let mut best: Vec<Pair> = Vec::with_capacity(TOP_PAIRS + 1);
    fold_top_pairs(&mut best, pairs, min_r2);
    best
}

/// Folds `pairs` into `best`, a selection [`top_pairs`] made: the
/// selection of their union, in place.
fn fold_top_pairs(best: &mut Vec<Pair>, pairs: impl Iterator<Item = Pair>, min_r2: f64) {
    let before = |a: &Pair, b: &Pair| {
        let by_value = b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal);
        by_value.then((a.0, a.1).cmp(&(b.0, b.1))).is_lt()
    };
    for pair in pairs.filter(|&(_, _, v)| r2_keeps(v, min_r2)) {
        if best.len() == TOP_PAIRS && !before(&pair, &best[TOP_PAIRS - 1]) {
            continue;
        }
        let at = best.partition_point(|kept| before(kept, &pair));
        best.insert(at, pair);
        best.truncate(TOP_PAIRS);
    }
}

fn print_top_pairs(best: &[Pair], min_r2: f64) {
    println!("top pairs (threshold {min_r2}):");
    for (i, j, v) in best {
        println!("  snp{i:<6} snp{j:<6} {v:.4}");
    }
}

/// What `r2 --checkpoint` and `merge` do with a finished matrix: the pair
/// table under `-o FILE`, otherwise the strongest pairs on stdout.
fn emit_pairs(output: Option<&str>, m: &ld_core::LdMatrix, min_r2: f64) -> Result<(), CliError> {
    if let Some(path) = output.filter(|s| !s.is_empty()) {
        write_pair_table(path, m, min_r2)?;
        eprintln!("wrote pair table to {path}");
        return Ok(());
    }
    print_top_pairs(&top_pairs(m.iter_pairs(), min_r2), min_r2);
    Ok(())
}

/// `gemm-ld merge` — stitches shard outputs (from `r2 --shard i/N`) into
/// one pair table.
///
/// Every input is fully validated before a single output byte is
/// written: CRC framing on read, then cross-input agreement on matrix
/// fingerprint, statistic, NaN policy, slab geometry and kernel,
/// per-record span geometry, overlap rejection, and completeness of the
/// slab grid. Partial input aborts with a gap report naming the missing
/// slab spans (and, given `--shards N`, which shard to re-run) — never a
/// silently truncated panel.
pub fn merge(args: &Args) -> CmdResult {
    let inputs = args.positional();
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "merge needs shard files: gemm-ld merge shard1.bin shard2.bin ... -o pairs.tsv".into(),
        ));
    }
    probe_output_flags(args, &[("-o", "output")])?;
    let min_r2 = parse_threshold(args, "min-r2", 0.0)?;
    let mut states = Vec::with_capacity(inputs.len());
    for path in inputs {
        let state = ld_io::checkpoint::read_checkpoint_path(path).map_err(|e| match e {
            ld_io::IoError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => CliError::Parse(
                format!("shard input {path} is missing (re-run that shard, then merge again)"),
            ),
            other => other.into(),
        })?;
        states.push(state);
    }
    let grid = states.first().map(|s| (s.n_snps as usize, s.slab as usize));
    let merged = match ld_core::merge_shard_states(states) {
        Ok(m) => m,
        Err(e @ ld_core::LdError::IncompleteShardSet { .. }) => {
            // attribute the gaps to shard indices when the caller told us
            // the plan width
            if let (ld_core::LdError::IncompleteShardSet { missing, .. }, Some((n_snps, slab))) =
                (&e, grid)
            {
                let n_shards = args.get_parsed("shards", 0usize)?;
                if n_shards > 0 {
                    if let Ok(plan) = ld_core::plan_shards(n_snps, slab, n_shards) {
                        for (k, r) in plan.iter().enumerate() {
                            let hit = missing
                                .iter()
                                .any(|&(a, b)| (a as usize) < r.end && r.start < b as usize);
                            if hit {
                                eprintln!(
                                    "gap report: re-run shard {}/{} (slabs {}), then merge again",
                                    k + 1,
                                    n_shards,
                                    r
                                );
                            }
                        }
                    }
                }
            }
            return Err(e.into());
        }
        Err(e) => return Err(e.into()),
    };
    // optional end-to-end check against the actual input matrix
    if let Some(input) = args.get("input").filter(|s| !s.is_empty()) {
        let g = load_matrix(input)?;
        let actual = ld_core::matrix_fingerprint(&g.full_view());
        if actual != merged.matrix_hash {
            return Err(CliError::Parse(format!(
                "shard outputs do not match {input}: matrix fingerprint {:#018x} vs {actual:#018x} \
                 (the shards were computed from a different input)",
                merged.matrix_hash
            )));
        }
        eprintln!("verified shard fingerprints against {input}");
    }
    let m = ld_core::state_to_matrix(&merged)?;
    eprintln!(
        "merged {} shard file(s): {} slabs (slab height {}) covering {} SNPs",
        inputs.len(),
        merged.n_slabs,
        merged.slab,
        merged.n_snps
    );
    emit_pairs(args.get("output"), &m, min_r2)
}

/// Exit classification of a shard child process, driving the
/// supervisor's retry policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardExit {
    /// Exit 0 and the shard output parses against the run's input.
    Success,
    /// Exit 0 but the output is unreadable/corrupt or from another input.
    CorruptOutput,
    /// Exit 5: interrupted, with a resumable checkpoint on disk.
    Resumable,
    /// Exit 3: the child rejected its own state (corrupt checkpoint).
    CorruptState,
    /// Exit 2: the child rejected its command line. The supervisor wrote
    /// that command line, so no retry can change the answer.
    Usage,
    /// Killed by a signal, or any other exit code.
    Crash,
}

impl ShardExit {
    fn name(self) -> &'static str {
        match self {
            ShardExit::Success => "success",
            ShardExit::CorruptOutput => "corrupt-output",
            ShardExit::Resumable => "resumable",
            ShardExit::CorruptState => "corrupt-state",
            ShardExit::Usage => "usage",
            ShardExit::Crash => "crash",
        }
    }
}

/// Maps a child's exit code (None = killed by signal) and output
/// validation result to its classification.
fn classify_shard_exit(code: Option<i32>, output_ok: bool) -> ShardExit {
    match code {
        Some(0) if output_ok => ShardExit::Success,
        Some(0) => ShardExit::CorruptOutput,
        Some(5) => ShardExit::Resumable,
        Some(3) => ShardExit::CorruptState,
        Some(2) => ShardExit::Usage,
        _ => ShardExit::Crash,
    }
}

/// Delay before re-dispatching shard `shard_idx` after `failed_attempts`
/// failures: the shared [`ld_parallel::Backoff`] capped exponential
/// (`base × 2^(failures−1)`, capped at 10 s) with deterministic equal
/// jitter seeded by the shard index, so shards felled by one shared fault
/// don't re-stampede the machine in lock-step.
fn retry_backoff(base_ms: u64, failed_attempts: usize, shard_idx: u64) -> Duration {
    ld_parallel::Backoff::new(
        Duration::from_millis(base_ms),
        Duration::from_millis(10_000),
    )
    .with_seed(shard_idx)
    .delay(failed_attempts)
}

/// One shard tracked by the `run-sharded` supervisor.
struct ShardSlot {
    /// 1-based shard index (`--shard idx/N`).
    idx: usize,
    /// Shard output path (checkpoint interchange format).
    out: String,
    /// The shard's own `--checkpoint` path (resume state).
    ckpt: String,
    /// Per-shard stderr log.
    log: String,
    /// Attempts launched so far.
    attempts: usize,
    /// pending | running | done | resumable | failed.
    state: &'static str,
    /// Exit classification of every finished attempt, in order.
    classifications: Vec<&'static str>,
    child: Option<std::process::Child>,
    spawned_at: Option<std::time::Instant>,
    /// Backoff gate: no respawn before this instant.
    not_before: std::time::Instant,
}

/// Serializes the supervisor's run manifest
/// (`schemas/shard_manifest.schema.json`) and writes it atomically.
#[allow(clippy::too_many_arguments)]
fn write_manifest(
    path: &str,
    input: &str,
    output: &str,
    retries: usize,
    backoff_ms: u64,
    interrupted: bool,
    shards: &[ShardSlot],
) -> Result<(), CliError> {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(512);
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": 1,");
    let _ = writeln!(s, "  \"input\": \"{}\",", ld_trace::escape_json(input));
    let _ = writeln!(s, "  \"output\": \"{}\",", ld_trace::escape_json(output));
    let _ = writeln!(s, "  \"shards\": {},", shards.len());
    let _ = writeln!(s, "  \"retries\": {retries},");
    let _ = writeln!(s, "  \"backoff_ms\": {backoff_ms},");
    let _ = writeln!(s, "  \"interrupted\": {interrupted},");
    s.push_str("  \"shard_states\": [\n");
    for (i, sh) in shards.iter().enumerate() {
        let classes: Vec<String> = sh
            .classifications
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect();
        let _ = write!(
            s,
            "    {{\"shard\": {}, \"state\": \"{}\", \"attempts\": {}, \"classifications\": [{}]}}",
            sh.idx,
            sh.state,
            sh.attempts,
            classes.join(", ")
        );
        s.push_str(if i + 1 == shards.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    write_atomic(path, s.as_bytes())
        .map_err(|e| CliError::Resource(format!("cannot write {path}: {e}")))
}

/// `gemm-ld run-sharded` — the fault-tolerant shard supervisor: spawns
/// one `r2 --shard i/N` process per shard, monitors and classifies every
/// exit, re-dispatches failures with capped exponential backoff (each
/// retry resumes from that shard's own checkpoint), and merges the
/// validated shard outputs into the final pair table. SIGINT or
/// `--timeout` interrupts the whole tree resumably: every child receives
/// SIGINT, lands on its checkpoint, and a re-run of the same command
/// picks all shards back up.
pub fn run_sharded(args: &Args) -> CmdResult {
    let input = args.require("input")?.to_owned();
    let out = args.require("output")?.to_owned();
    let n_shards = parse_at_least(args, "shards", 1)?.unwrap_or(2);
    let retries = args.get_parsed("retries", 2usize)?;
    let backoff_ms = args.get_parsed("backoff-ms", 500u64)?;
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let min_r2 = parse_threshold(args, "min-r2", 0.0)?;
    let timeout = parse_timeout(args)?;
    let mut fault_kill = match args.get("fault-kill") {
        None | Some("") => None,
        Some(v) => {
            let k: usize = v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value '{v}' for --fault-kill")))?;
            if k == 0 || k > n_shards {
                return Err(CliError::Usage(format!(
                    "--fault-kill shard {k} out of range (1..={n_shards})"
                )));
            }
            Some(k)
        }
    };
    let per_threads = (threads / n_shards).max(1);
    // Loading the input up front validates it before any child is
    // spawned and pins the fingerprint every shard output must carry.
    let fingerprint = {
        let g = load_matrix(&input)?;
        // Cut the plan here, with the engine every child will build from
        // the same flags and environment: a shard count the slab grid
        // cannot carry is one usage error now, not N children each failing
        // the same check.
        tuned_engine(args, per_threads)?.shard_plan_from(&Source::from(&g), n_shards)?;
        ld_core::matrix_fingerprint(&g.full_view())
    };
    probe_output_flags(args, &[("-o", "output")])?;
    let work_dir = args
        .get("work-dir")
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{out}.shards"));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| CliError::Resource(format!("cannot create {work_dir}: {e}")))?;
    let manifest_path = args
        .get("manifest")
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{work_dir}/manifest.json"));
    probe_writable(&manifest_path, "--manifest")?;

    if per_threads * n_shards > threads {
        eprintln!(
            "warning: {n_shards} shards x {per_threads} thread(s) each oversubscribe \
             the {threads} available thread(s)"
        );
    }
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Resource(format!("cannot locate own executable: {e}")))?;
    let token = CancelToken::new();
    crate::interrupt::install_sigint_watcher(&token);
    let deadline = timeout.map(Deadline::after);

    let now = std::time::Instant::now();
    let mut shards: Vec<ShardSlot> = (1..=n_shards)
        .map(|i| ShardSlot {
            idx: i,
            out: format!("{work_dir}/shard_{i}.bin"),
            ckpt: format!("{work_dir}/shard_{i}.ckpt"),
            log: format!("{work_dir}/shard_{i}.log"),
            attempts: 0,
            state: "pending",
            classifications: Vec::new(),
            child: None,
            spawned_at: None,
            not_before: now,
        })
        .collect();
    // A previous interrupted run may have left finished shard outputs:
    // reuse the ones that match this input, drop anything stale.
    for s in &mut shards {
        if !Path::new(&s.out).exists() {
            continue;
        }
        match ld_io::checkpoint::read_checkpoint_path(&s.out) {
            Ok(st) if st.matrix_hash == fingerprint => {
                s.state = "done";
                eprintln!(
                    "shard {}/{n_shards}: reusing completed output {}",
                    s.idx, s.out
                );
            }
            _ => {
                let _ = std::fs::remove_file(&s.out);
            }
        }
    }

    let mut interrupted_reason: Option<String> = None;
    loop {
        // 1. Interruption: one trip forwards SIGINT to every running
        // child so the whole tree lands on resumable checkpoints.
        if interrupted_reason.is_none() {
            if token.is_cancelled() {
                interrupted_reason = Some(token.reason().unwrap_or_else(|| "cancelled".into()));
            } else if deadline.is_some_and(|d| d.expired()) {
                interrupted_reason = Some("deadline exceeded".into());
            }
            if interrupted_reason.is_some() {
                for s in &shards {
                    if let Some(c) = &s.child {
                        crate::interrupt::send_signal(c.id(), crate::interrupt::SIGINT);
                    }
                }
            }
        }
        // 2. Fault injection (`--fault-kill i`): SIGKILL shard i's first
        // attempt shortly after launch — a deterministic stand-in for
        // "a shard process died mid-run" (`tests/process_cli.rs`).
        if let Some(k) = fault_kill {
            let s = &shards[k - 1];
            if let (Some(c), Some(t0)) = (&s.child, s.spawned_at) {
                if s.attempts == 1 && t0.elapsed() >= Duration::from_millis(25) {
                    eprintln!(
                        "fault injection: SIGKILL shard {k}/{n_shards} (pid {})",
                        c.id()
                    );
                    crate::interrupt::send_signal(c.id(), crate::interrupt::SIGKILL);
                    fault_kill = None;
                }
            }
        }
        // 3. Reap finished children and classify their exits.
        let mut dirty = false;
        for s in &mut shards {
            let Some(child) = &mut s.child else { continue };
            let status = match child.try_wait() {
                Ok(Some(st)) => st,
                Ok(None) => continue,
                Err(e) => {
                    eprintln!("shard {}/{n_shards}: wait failed: {e}", s.idx);
                    continue;
                }
            };
            s.child = None;
            dirty = true;
            let code = status.code();
            let output_ok = code == Some(0)
                && ld_io::checkpoint::read_checkpoint_path(&s.out)
                    .map(|st| st.matrix_hash == fingerprint)
                    .unwrap_or(false);
            let class = classify_shard_exit(code, output_ok);
            s.classifications.push(class.name());
            match class {
                ShardExit::Success => {
                    s.state = "done";
                    eprintln!(
                        "shard {}/{n_shards}: done after {} attempt(s)",
                        s.idx, s.attempts
                    );
                }
                _ => {
                    // quarantine whatever the classification distrusts
                    match class {
                        ShardExit::CorruptOutput => {
                            let _ = std::fs::remove_file(&s.out);
                        }
                        ShardExit::CorruptState => {
                            let _ = std::fs::remove_file(&s.ckpt);
                        }
                        _ => {}
                    }
                    if interrupted_reason.is_some() {
                        s.state = "resumable";
                    } else if class == ShardExit::Usage {
                        s.state = "failed";
                        eprintln!(
                            "shard {}/{n_shards}: rejected its command line (exit 2) — not \
                             retried; see {}",
                            s.idx, s.log
                        );
                    } else if s.attempts > retries {
                        s.state = "failed";
                        eprintln!(
                            "shard {}/{n_shards}: {} on attempt {} — retry budget ({retries}) \
                             exhausted; see {}",
                            s.idx,
                            class.name(),
                            s.attempts,
                            s.log
                        );
                    } else {
                        s.state = "pending";
                        let delay = retry_backoff(backoff_ms, s.attempts, s.idx as u64);
                        s.not_before = std::time::Instant::now() + delay;
                        ld_trace::add(Counter::ShardRetries, 1);
                        eprintln!(
                            "shard {}/{n_shards}: {} on attempt {}; retrying in {} ms",
                            s.idx,
                            class.name(),
                            s.attempts,
                            delay.as_millis()
                        );
                    }
                }
            }
        }
        // 4. (Re)spawn pending shards whose backoff has elapsed.
        if interrupted_reason.is_none() {
            for i in 0..shards.len() {
                let ready = shards[i].state == "pending"
                    && shards[i].child.is_none()
                    && std::time::Instant::now() >= shards[i].not_before;
                if !ready {
                    continue;
                }
                let mut cmd = std::process::Command::new(&exe);
                cmd.arg("r2")
                    .arg("-i")
                    .arg(&input)
                    .arg("--shard")
                    .arg(format!("{}/{n_shards}", shards[i].idx))
                    .arg("--threads")
                    .arg(per_threads.to_string())
                    .arg("--checkpoint")
                    .arg(&shards[i].ckpt)
                    .arg("--resume")
                    .arg("-o")
                    .arg(&shards[i].out);
                // engine geometry must agree across shards and with the
                // merge, so pass-through flags ride along verbatim
                for key in ["stat", "kernel", "slab-rows"] {
                    if let Some(v) = args.get(key).filter(|v| !v.is_empty()) {
                        cmd.arg(format!("--{key}")).arg(v);
                    }
                }
                let log = std::fs::File::create(&shards[i].log).map_err(|e| {
                    CliError::Resource(format!("cannot create {}: {e}", shards[i].log))
                });
                let spawned = log.and_then(|log| {
                    cmd.stdout(std::process::Stdio::null())
                        .stderr(log)
                        .spawn()
                        .map_err(|e| {
                            CliError::Resource(format!("cannot spawn shard {}: {e}", shards[i].idx))
                        })
                });
                match spawned {
                    Ok(child) => {
                        shards[i].attempts += 1;
                        shards[i].state = "running";
                        shards[i].spawned_at = Some(std::time::Instant::now());
                        eprintln!(
                            "shard {}/{n_shards}: attempt {} launched (pid {})",
                            shards[i].idx,
                            shards[i].attempts,
                            child.id()
                        );
                        shards[i].child = Some(child);
                        ld_trace::add(Counter::ShardsLaunched, 1);
                        dirty = true;
                    }
                    Err(e) => {
                        // a spawn failure is an environment problem, not a
                        // shard problem: interrupt everything resumably
                        for s in &shards {
                            if let Some(c) = &s.child {
                                crate::interrupt::send_signal(c.id(), crate::interrupt::SIGINT);
                            }
                        }
                        interrupted_reason = Some(e.to_string());
                    }
                }
            }
        }
        if dirty {
            write_manifest(
                &manifest_path,
                &input,
                &out,
                retries,
                backoff_ms,
                interrupted_reason.is_some(),
                &shards,
            )?;
        }
        // 5. Exit conditions.
        let running = shards.iter().any(|s| s.child.is_some());
        let pending = shards.iter().any(|s| s.state == "pending");
        if !running && (interrupted_reason.is_some() || !pending) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    if let Some(reason) = &interrupted_reason {
        for s in &mut shards {
            if s.state != "done" && s.state != "failed" {
                s.state = "resumable";
            }
        }
        write_manifest(
            &manifest_path,
            &input,
            &out,
            retries,
            backoff_ms,
            true,
            &shards,
        )?;
        // reap the watcher thread
        token.cancel_with_reason("run complete");
        return Err(CliError::Interrupted(format!(
            "run-sharded interrupted ({reason}); every shard left resumable state in \
             {work_dir} — re-run the same command to resume"
        )));
    }
    token.cancel_with_reason("run complete");
    write_manifest(
        &manifest_path,
        &input,
        &out,
        retries,
        backoff_ms,
        false,
        &shards,
    )?;
    let failed: Vec<usize> = shards
        .iter()
        .filter(|s| s.state == "failed")
        .map(|s| s.idx)
        .collect();
    if !failed.is_empty() {
        let list: Vec<String> = failed.iter().map(|i| i.to_string()).collect();
        return Err(CliError::Other(format!(
            "shard(s) {} failed permanently after {} attempt(s) each; no panel written \
             (logs and manifest in {work_dir})",
            list.join(", "),
            retries + 1
        )));
    }
    // Merge: the same validation wall `gemm-ld merge` applies.
    let mut states = Vec::with_capacity(n_shards);
    for s in &shards {
        states.push(ld_io::checkpoint::read_checkpoint_path(&s.out)?);
    }
    let merged = ld_core::merge_shard_states(states)?;
    if merged.matrix_hash != fingerprint {
        return Err(CliError::Parse(format!(
            "merged shard fingerprint {:#018x} does not match {input} ({fingerprint:#018x})",
            merged.matrix_hash
        )));
    }
    let m = ld_core::state_to_matrix(&merged)?;
    write_pair_table(&out, &m, min_r2)?;
    // intermediates served their purpose; logs + manifest stay for audit
    for s in &shards {
        let _ = std::fs::remove_file(&s.out);
        let _ = std::fs::remove_file(&s.ckpt);
    }
    eprintln!(
        "run-sharded complete: {n_shards} shard(s) merged into {out} (manifest {manifest_path})"
    );
    Ok(())
}

/// `gemm-ld omega`
pub fn omega(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let window = parse_at_least(args, "window", 4)?.unwrap_or(50);
    let step = parse_at_least(args, "step", 1)?.unwrap_or(window / 4);
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let g = load_matrix(input)?;
    let scan = OmegaScan::new(window, step).engine(tuned_engine(args, threads)?);
    let points = scan.scan(&g)?;
    if points.is_empty() {
        return Err(CliError::Usage(format!(
            "input has {} SNPs, fewer than the window ({window})",
            g.n_snps()
        )));
    }
    println!("window_start\twindow_end\tbest_split\tomega");
    for p in &points {
        println!(
            "{}\t{}\t{}\t{:.4}",
            p.window_start, p.window_end, p.best_split, p.omega
        );
    }
    let best = points.iter().max_by(|a, b| {
        a.omega
            .partial_cmp(&b.omega)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if let Some(best) = best {
        eprintln!(
            "strongest signal: omega = {:.3} at split SNP {}",
            best.omega, best.best_split
        );
    }
    Ok(())
}

/// `gemm-ld tanimoto`
pub fn tanimoto(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    // fingerprints as a text matrix: rows = bits, columns = compounds
    let fp = load_matrix(input)?;
    let k = args.get_parsed("top-k", 5usize)?;
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    // the symmetric half: each pair's count once, read back through `get`
    let sim = tanimoto_matrix(&tuned_engine(args, threads)?, &fp.full_view())?;
    println!("compound\tneighbors (tanimoto)");
    for (i, row) in top_k_neighbors(&sim, k).iter().enumerate() {
        let line: Vec<String> = row.iter().map(|(j, s)| format!("{j}:{s:.3}")).collect();
        println!("{i}\t{}", line.join(" "));
    }
    Ok(())
}

/// `gemm-ld prune`
pub fn prune(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    // a window of one SNP holds no pair: the run would keep everything
    let window = parse_at_least(args, "window", 2)?.unwrap_or(100);
    // step 0 would never advance the window
    let step = parse_at_least(args, "step", 1)?.unwrap_or(window / 2);
    let threshold = parse_threshold(args, "threshold", 0.5)?;
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let engine = tuned_engine(args, threads)?;
    let g = load_matrix(input)?;
    let kept = ld_core::prune_pairwise(&engine, &g, window, step, threshold)?;
    eprintln!(
        "kept {}/{} SNPs at r² <= {threshold} (window {window}, step {step})",
        kept.len(),
        g.n_snps()
    );
    match args.get("output") {
        Some(path) if !path.is_empty() => {
            let body: String = kept.iter().map(|i| format!("snp{i}\n")).collect();
            write_atomic(path, body.as_bytes())?;
            eprintln!("wrote kept-SNP list to {path}");
        }
        _ => {
            for i in &kept {
                println!("snp{i}");
            }
        }
    }
    Ok(())
}

/// `gemm-ld decay`
pub fn decay(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let max_dist = parse_at_least(args, "max-dist", 1)?;
    let bin = parse_at_least(args, "bin", 0)?; // `DecayProfile` clamps 0 to 1
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let engine = tuned_engine(args, threads)?.nan_policy(NanPolicy::Zero);
    let g = load_matrix(input)?;
    let max_dist = max_dist.unwrap_or(100usize.min(g.n_snps().saturating_sub(1).max(1)));
    let bin = bin.unwrap_or((max_dist / 20).max(1));
    let profile = ld_core::DecayProfile::compute(&engine, &g, max_dist, bin)?;
    println!("distance\tmean_r2\tpairs");
    for b in profile.bins() {
        println!(
            "{}-{}\t{:.4}\t{}",
            b.min_dist, b.max_dist, b.mean_r2, b.count
        );
    }
    match profile.half_distance() {
        Some(d) => eprintln!(
            "r² halves by distance ~{d} SNPs (near level {:.3})",
            profile.near_r2()
        ),
        None => eprintln!("r² does not halve within {max_dist} SNPs"),
    }
    Ok(())
}

/// `gemm-ld blocks`
pub fn blocks(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let threshold = parse_threshold(args, "threshold", 0.8)?;
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let engine = tuned_engine(args, threads)?.nan_policy(NanPolicy::Zero);
    let g = load_matrix(input)?;
    let found = ld_core::haplotype_blocks(&engine, &g, threshold)?;
    println!("block\tfirst_snp\tlast_snp\tsize");
    for (k, b) in found.iter().enumerate() {
        println!("{k}\t{}\t{}\t{}", b.start, b.end - 1, b.len());
    }
    let covered: usize = found.iter().map(|b| b.len()).sum();
    eprintln!(
        "{} blocks covering {covered}/{} SNPs (D' >= {threshold})",
        found.len(),
        g.n_snps()
    );
    Ok(())
}

/// `gemm-ld assoc`
pub fn assoc(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let g = load_matrix(input)?;
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let seed = args.get_parsed("seed", 17u64)?;
    let beta = args.get_parsed("beta", 1.0f64)?;
    // causal SNPs: explicit list, or the most common SNP as a demo default
    let causal: Vec<usize> = match args.get("causal") {
        Some(list) if !list.is_empty() => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("invalid causal index '{s}'")))
            })
            .collect::<Result<_, _>>()?,
        _ => {
            let best = (0..g.n_snps())
                .max_by_key(|&j| {
                    let ones = g.ones_in_snp(j);
                    ones.min(g.n_samples() as u64 - ones)
                })
                .ok_or("matrix has no SNPs")?;
            eprintln!("no --causal given; planting effect at the most common SNP ({best})");
            vec![best]
        }
    };
    for &c in &causal {
        if c >= g.n_snps() {
            return Err(CliError::Usage(format!(
                "causal SNP {c} out of range (< {})",
                g.n_snps()
            )));
        }
    }
    let (_labels, mask) =
        ld_assoc::PhenotypeSimulator::new(causal.iter().map(|&c| (c, beta)).collect())
            .seed(seed)
            .simulate(&g);
    let results = ld_assoc::allelic_scan(&g.full_view(), &mask, threads);
    let lambda = ld_assoc::genomic_lambda(&results.iter().map(|r| r.chi2).collect::<Vec<_>>());
    let p_cut = args.get_parsed("p", 0.05 / g.n_snps().max(1) as f64)?;
    let clump_r2 = args.get_parsed("clump-r2", 0.3f64)?;
    let window = args.get_parsed("clump-window", 100usize)?;
    let engine = tuned_engine(args, threads)?;
    let clumps = ld_assoc::clump(&g.full_view(), &results, &engine, p_cut, clump_r2, window)?;
    eprintln!(
        "scanned {} SNPs; lambda_GC = {lambda:.3}; {} hits at p <= {p_cut:.2e}; {} clumps",
        g.n_snps(),
        results.iter().filter(|r| r.p <= p_cut).count(),
        clumps.len()
    );
    println!("clump\tindex_snp\tp\todds_ratio\tmembers");
    for (k, c) in clumps.iter().enumerate() {
        let or = results[c.index_snp].odds_ratio;
        println!(
            "{k}\tsnp{}\t{:.3e}\t{or:.3}\t{}",
            c.index_snp,
            c.p,
            c.members.len()
        );
    }
    Ok(())
}

/// One point of the autotuner's search space plus its measured score.
#[derive(Clone)]
struct TuneCandidate {
    kernel: KernelKind,
    blocks: BlockSizes,
    slab: usize,
    score: f64,
}

/// `gemm-ld tune` — staged coordinate descent over the kernel and the
/// scheduling/blocking parameters, scored on a synthetic workload.
///
/// Search order: (1) micro-kernel race at default geometry, then
/// one-dimensional sweeps of (2) `kc`, (3) `mc`, (4) `nc` and (5) slab
/// height — each stage keeps the incumbent for the dimensions it does
/// not touch, so the budget is `O(sum of stage sizes)` instead of the
/// full grid. Every candidate is scored best-of-N
/// (N = 2 quick, 3 full): for throughput, *max* over reps is the right
/// statistic — noise only ever slows a run down.
///
/// The score is words/cycle from the metrics counters (the roofline
/// numerator: packed word-pairs through the micro-kernel per TSC cycle),
/// which isolates kernel+blocking quality from constant setup costs;
/// machines without an invariant TSC fall back to whole-run throughput.
pub fn tune(args: &Args) -> CmdResult {
    let full = args.has("full");
    if full && args.has("quick") {
        return Err(CliError::Usage("--quick and --full are exclusive".into()));
    }
    let threads =
        parse_at_least(args, "threads", 1)?.unwrap_or_else(ld_parallel::available_threads);
    // Quick: a few hundred ms total, enough to separate kernels by 2x+.
    // Full: paper-scale samples (2504 haplotypes -> 40 packed words) so
    // the kc sweep actually has depth to block over.
    let (n_samples, n_snps, reps) = if full { (2504, 4000, 3) } else { (512, 768, 2) };
    let wpc = ld_kernels::clock::tsc_hz().is_some();
    let metric = if wpc {
        "words-per-cycle"
    } else {
        "runs-per-sec"
    };
    eprintln!(
        "tuning on {n_samples} samples x {n_snps} SNPs, threads={threads}, \
         best-of-{reps}, metric={metric}"
    );
    let g = HaplotypeSimulator::new(n_samples, n_snps)
        .seed(0x7u64)
        .generate();

    let score_of = |c: &TuneCandidate| -> Result<f64, CliError> {
        let engine = LdEngine::new()
            .kernel(c.kernel)
            .blocks(c.blocks)
            .threads(threads)
            .slab_rows(c.slab)
            .nan_policy(NanPolicy::Zero);
        let mut best = 0.0f64;
        for _ in 0..reps {
            ld_trace::reset();
            let t0 = std::time::Instant::now();
            let m = engine.try_stat_matrix(&g, ld_core::LdStats::RSquared)?;
            let wall = t0.elapsed().as_nanos().max(1) as u64;
            drop(m);
            let s = if wpc {
                ld_trace::MetricsReport::capture()
                    .with_wall_ns(wall)
                    .with_threads(threads)
                    .with_tsc_hz(ld_kernels::clock::tsc_hz())
                    .words_per_cycle()
                    .unwrap_or(0.0)
            } else {
                1e9 / wall as f64
            };
            best = best.max(s);
        }
        Ok(best)
    };

    // Incumbent: whatever `auto` resolves to, at the built-in geometry.
    let auto = ld_kernels::Kernel::resolve(KernelKind::Auto).map_err(|e| e.to_string())?;
    let mut best = TuneCandidate {
        kernel: auto.kind(),
        blocks: BlockSizes::default(),
        slab: 64,
        score: 0.0,
    };
    best.score = score_of(&best)?;

    // Each stage mutates one dimension of the incumbent; a candidate is
    // skipped (not failed) when its blocks don't fit the kernel's tile.
    let race = |label: &str, cands: Vec<TuneCandidate>, best: &mut TuneCandidate| -> CmdResult {
        eprintln!("stage {label}:");
        for c in cands {
            let (desc, same) = describe(&c, best);
            if same {
                eprintln!("    {desc:<44} {:>9.4} (incumbent)", best.score);
                continue;
            }
            let k = match ld_kernels::Kernel::resolve(c.kernel) {
                Ok(k) => k,
                Err(_) => continue,
            };
            if c.blocks.validate_for(k.mr(), k.nr()).is_err() {
                continue;
            }
            let score = score_of(&c)?;
            let mark = if score > best.score {
                " <- new best"
            } else {
                ""
            };
            eprintln!("    {desc:<44} {score:>9.4}{mark}");
            if score > best.score {
                *best = TuneCandidate { score, ..c };
            }
        }
        Ok(())
    };
    fn describe(c: &TuneCandidate, best: &TuneCandidate) -> (String, bool) {
        let desc = format!(
            "{} kc={} mc={} nc={} slab={}",
            c.kernel.name(),
            c.blocks.kc,
            c.blocks.mc,
            c.blocks.nc,
            c.slab
        );
        let same = c.kernel == best.kernel && c.blocks == best.blocks && c.slab == best.slab;
        (desc, same)
    }

    let kernels: Vec<TuneCandidate> = ld_kernels::micro::supported_kernels()
        .into_iter()
        .map(|k| TuneCandidate {
            kernel: k.kind(),
            ..best.clone()
        })
        .collect();
    race("kernel", kernels, &mut best)?;
    let kc_values: &[usize] = if full {
        &[64, 128, 256, 512, 1024]
    } else {
        &[128, 256, 512]
    };
    let sweep =
        |values: &[usize], f: fn(&TuneCandidate, usize) -> TuneCandidate, best: &TuneCandidate| {
            values.iter().map(|&v| f(best, v)).collect::<Vec<_>>()
        };
    let cands = sweep(
        kc_values,
        |b, v| TuneCandidate {
            blocks: BlockSizes { kc: v, ..b.blocks },
            ..b.clone()
        },
        &best,
    );
    race("kc", cands, &mut best)?;
    let cands = sweep(
        &[256, 512, 1024],
        |b, v| TuneCandidate {
            blocks: BlockSizes { mc: v, ..b.blocks },
            ..b.clone()
        },
        &best,
    );
    race("mc", cands, &mut best)?;
    let cands = sweep(
        &[2048, 4096, 8192],
        |b, v| TuneCandidate {
            blocks: BlockSizes { nc: v, ..b.blocks },
            ..b.clone()
        },
        &best,
    );
    race("nc", cands, &mut best)?;
    let cands = sweep(
        &[16, 32, 64, 128],
        |b, v| TuneCandidate {
            slab: v,
            ..b.clone()
        },
        &best,
    );
    race("slab", cands, &mut best)?;

    let profile = CpuProfile {
        fingerprint: CpuFingerprint::detect().clone(),
        tuned: TunedParams {
            kernel: best.kernel,
            blocks: best.blocks,
            slab_rows: best.slab,
            threads,
            score: best.score,
            metric: metric.to_string(),
        },
    };
    let path = match args.get("out").filter(|s| !s.is_empty()) {
        Some(p) => std::path::PathBuf::from(p),
        None => ld_kernels::profile::profile_path().ok_or_else(|| {
            CliError::Resource(
                "no profile location: set LD_CPU_PROFILE, XDG_CACHE_HOME or HOME".into(),
            )
        })?,
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::Resource(format!("cannot create {}: {e}", parent.display())))?;
    }
    write_atomic(&path, profile.to_json().as_bytes())
        .map_err(|e| CliError::Resource(format!("cannot write {}: {e}", path.display())))?;
    let (desc, _) = describe(&best, &best);
    println!("best: {desc}  ({:.4} {metric})", best.score);
    println!("wrote tuned profile to {}", path.display());
    println!("(picked up automatically by r2/bench on this CPU; LD_NO_CPU_PROFILE=1 disables)");
    Ok(())
}

/// `gemm-ld serve` — the fault-tolerant LD query daemon.
///
/// Positional arguments are panel specs, `[name=]path`, where `path` is
/// a text input (`.ms`/`.vcf`/`.txt`) or a tile-store directory from
/// `import`; a bare path registers under its file stem. The daemon
/// binds `--addr`, prints `listening on HOST:PORT` (so scripts binding
/// port 0 can discover the port), and serves LDS1 queries until SIGINT
/// or SIGTERM, then drains in-flight requests under `--drain-ms`.
///
/// Exit codes follow the CLI contract: `0` clean drain, `5` drain
/// deadline exceeded (in-flight work was abandoned with typed
/// `ShuttingDown` responses), `4` bind failure, `3` a `--preload`
/// panel failed to parse.
pub fn serve(args: &Args) -> CmdResult {
    let profile = parse_profile(args)?;
    if profile.is_some() {
        ld_trace::reset();
    }
    let specs = args.positional();
    if specs.is_empty() {
        return Err(CliError::Usage(
            "serve needs at least one panel: gemm-ld serve [name=]input.ms [--addr HOST:PORT]"
                .into(),
        ));
    }
    let threads = args.get_parsed("threads", ld_parallel::available_threads())?;
    let budget_mb = args.get_parsed("memory-budget-mb", 1024usize)?;
    let engine = tuned_engine(args, threads)?.nan_policy(NanPolicy::Zero);
    let kind = engine.kernel_kind();
    let mut registry = ld_serve::PanelRegistry::new(engine, budget_mb.saturating_mul(1024 * 1024));
    for spec in specs {
        let (name, path) = match spec.split_once('=') {
            Some((n, p)) if !n.is_empty() => (n.to_string(), p),
            _ => {
                let stem = Path::new(spec.as_str())
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(spec.as_str());
                (stem.to_string(), spec.as_str())
            }
        };
        if !Path::new(path).exists() {
            return Err(CliError::Usage(format!(
                "panel '{name}': no such file or directory: {path}"
            )));
        }
        if !registry.add_source(name.clone(), ld_serve::PanelSource::detect(path)) {
            return Err(CliError::Usage(format!(
                "panel name '{name}' registered twice"
            )));
        }
    }

    let workers = args.get_parsed("workers", threads.clamp(1, 8))?;
    let cfg = ld_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7711").to_string(),
        workers,
        queue_depth: args.get_parsed("queue", 64usize)?,
        max_connections: args.get_parsed("max-conns", 256usize)?,
        request_timeout: Duration::from_millis(args.get_parsed("request-timeout-ms", 30_000u64)?),
        drain_timeout: Duration::from_millis(args.get_parsed("drain-ms", 30_000u64)?),
        // Test/CI aids: deterministic overload and panic-isolation
        // windows for the fault-injection harness.
        inject_delay: Duration::from_millis(args.get_parsed("inject-delay-ms", 0u64)?),
        fault_panel: args.has("fault-panel"),
        // Telemetry plane: Prometheus scrape endpoint, structured
        // request log, slow-request mirroring.
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        request_log: args.get("request-log").map(str::to_string),
        slow_ms: match args.get("slow-ms") {
            Some(v) => Some(v.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("--slow-ms wants a millisecond count, got '{v}'"))
            })?),
            None => None,
        },
        ..ld_serve::ServeConfig::default()
    };

    // `--trace-dump PATH`: arm the flight recorder before any panel
    // compute, so `--preload` spans land in the ring too; the SIGUSR1
    // watcher that snapshots it hooks in after bind (it needs the
    // shutdown token).
    let trace_dump = args.get("trace-dump").map(str::to_string);
    if trace_dump.is_some() {
        ld_trace::recorder::start(workers);
    }

    // `--preload`: compute every registered panel before accepting —
    // a parse failure is exit 3 now, not an Internal response later.
    if args.has("preload") {
        let token = CancelToken::new();
        let deadline = Deadline::after(Duration::from_secs(24 * 3600));
        let names = registry.names();
        for name in names {
            registry
                .get(&name, ld_core::LdStats::RSquared, &token, deadline)
                .map_err(|e| match e {
                    ld_serve::RegistryError::Load { .. } => {
                        CliError::Parse(format!("preload failed: {e}"))
                    }
                    other => CliError::Resource(format!("preload failed: {other}")),
                })?;
            eprintln!("preloaded panel '{name}'");
        }
    }

    let started = std::time::Instant::now();
    let server = ld_serve::Server::bind(cfg, registry)
        .map_err(|e| CliError::Resource(format!("cannot bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Resource(format!("cannot resolve bound address: {e}")))?;
    let metrics_addr = server.metrics_addr();
    let shutdown = server.shutdown_token();
    crate::interrupt::install_shutdown_watcher(&shutdown);

    // Each SIGUSR1 snapshots the armed recorder *live* (it stays armed)
    // and writes Perfetto-loadable trace-event JSON atomically.
    if let Some(dump_path) = trace_dump {
        crate::interrupt::install_usr1_watcher(&shutdown, move |n| {
            match ld_trace::recorder::snapshot_live() {
                Some(snap) => {
                    let json = ld_trace::export::chrome_trace_json(&snap);
                    match write_atomic(Path::new(&dump_path), json.as_bytes()) {
                        Ok(()) => eprintln!("trace dump #{n}: wrote {dump_path}"),
                        Err(e) => eprintln!("trace dump #{n}: cannot write {dump_path}: {e}"),
                    }
                }
                None => eprintln!("trace dump #{n}: no recorder armed"),
            }
        });
    }

    // Scripts parse this line to learn the port (`--addr host:0`).
    println!("listening on {addr}");
    if let Some(maddr) = metrics_addr {
        // Same contract for the scrape port.
        println!("metrics on {maddr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let outcome = server.run();
    let reason = shutdown.reason().unwrap_or_else(|| "shutdown".to_string());
    if let Some(mode) = profile {
        emit_profile(
            mode,
            args.get("profile-out"),
            started.elapsed().as_nanos() as u64,
            threads,
            kind,
            None,
        )?;
    }
    match outcome {
        ld_serve::DrainOutcome::Drained => {
            eprintln!("{reason}: drained cleanly, exiting");
            Ok(())
        }
        ld_serve::DrainOutcome::DeadlineExceeded { abandoned } => Err(CliError::Interrupted(
            format!("{reason}: drain deadline exceeded, {abandoned} request(s) abandoned"),
        )),
    }
}

/// One parsed Prometheus sample: `(metric name, labels, value)`.
type PromSample = (String, String, f64);

/// Parses text-exposition sample lines (comments skipped). Tolerant of
/// anything it does not recognize — the dashboard only needs a lookup.
fn prom_samples(text: &str) -> Vec<PromSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((name_labels, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => (n, l.trim_end_matches('}')),
            None => (name_labels, ""),
        };
        out.push((name.to_string(), labels.to_string(), value));
    }
    out
}

/// Looks up one sample by metric name and a label fragment.
fn prom_get(samples: &[PromSample], name: &str, label_frag: &str) -> Option<f64> {
    samples
        .iter()
        .find(|(n, l, _)| n == name && l.contains(label_frag))
        .map(|(_, _, v)| *v)
}

/// `gemm-ld monitor ADDR` — a refreshing terminal dashboard over a live
/// daemon, polled through the `metrics` opcode (the same bytes `GET
/// /metrics` serves). `--once` prints a single snapshot; `--raw` dumps
/// the exposition text verbatim (what `tests/serve_cli.rs` holds against
/// the HTTP scrape); Ctrl-C exits.
pub fn monitor(args: &Args) -> CmdResult {
    let positional = args.positional();
    let addr = positional
        .first()
        .map(|s| s.to_string())
        .or_else(|| args.get("addr").map(str::to_string))
        .ok_or_else(|| {
            CliError::Usage(
                "monitor needs the daemon address: \
                 gemm-ld monitor HOST:PORT [--interval-ms N] [--once] [--raw]"
                    .into(),
            )
        })?;
    let interval = Duration::from_millis(args.get_parsed("interval-ms", 1000u64)?);
    let once = args.has("once") || args.has("raw");
    let fetch = |addr: &str| -> Result<String, CliError> {
        let mut client = ld_serve::Client::connect(addr, Duration::from_secs(5))
            .map_err(|e| CliError::Resource(format!("cannot connect to {addr}: {e}")))?;
        let resp = client
            .request(&ld_serve::Request::Metrics)
            .map_err(|e| CliError::Resource(format!("metrics request failed: {e}")))?;
        if resp.status != ld_serve::Status::Ok {
            return Err(CliError::Resource(format!(
                "metrics request refused: {}",
                resp.message()
            )));
        }
        String::from_utf8(resp.body)
            .map_err(|_| CliError::Resource("metrics body is not UTF-8".into()))
    };
    if args.has("raw") {
        print!("{}", fetch(&addr)?);
        return Ok(());
    }
    let token = CancelToken::new();
    if !once {
        crate::interrupt::install_sigint_watcher(&token);
    }
    let mut prev: Option<(std::time::Instant, f64, f64)> = None; // (when, accepted, shed)
    loop {
        match fetch(&addr) {
            Ok(text) => {
                let s = prom_samples(&text);
                let accepted = prom_get(&s, "gemm_ld_requests_accepted_total", "").unwrap_or(0.0);
                let shed = prom_get(&s, "gemm_ld_requests_shed_total", "").unwrap_or(0.0);
                let now = std::time::Instant::now();
                let (rps, shed_rate) = match prev {
                    Some((t0, a0, s0)) => {
                        let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                        ((accepted - a0) / dt, (shed - s0) / dt)
                    }
                    None => (0.0, 0.0),
                };
                prev = Some((now, accepted, shed));
                if !once {
                    print!("\x1b[2J\x1b[H"); // clear screen, home cursor
                }
                let draining = prom_get(&s, "gemm_ld_draining", "").unwrap_or(0.0) > 0.5;
                println!(
                    "gemm-ld monitor — {addr}  [{}]  up {:.0}s",
                    if draining { "DRAINING" } else { "serving" },
                    prom_get(&s, "gemm_ld_uptime_seconds", "").unwrap_or(0.0),
                );
                println!(
                    "  queue {:>4}   in-flight {:>4}   conns {:>4}   workers {:>2}",
                    prom_get(&s, "gemm_ld_queue_depth", "").unwrap_or(0.0),
                    prom_get(&s, "gemm_ld_in_flight_requests", "").unwrap_or(0.0),
                    prom_get(&s, "gemm_ld_connections", "").unwrap_or(0.0),
                    prom_get(&s, "gemm_ld_workers", "").unwrap_or(0.0),
                );
                println!(
                    "  accepted {:>8}  ({rps:>7.1}/s)   shed {:>6}  ({shed_rate:>6.1}/s)   \
                     failed {:>4}",
                    accepted,
                    shed,
                    prom_get(&s, "gemm_ld_requests_failed_total", "").unwrap_or(0.0),
                );
                for window in ["10s", "1m", "5m"] {
                    let frag = format!("window=\"{window}\"");
                    let p50 = prom_get(
                        &s,
                        "gemm_ld_request_window_seconds",
                        &format!("{frag},quantile=\"0.5\""),
                    );
                    let p99 = prom_get(
                        &s,
                        "gemm_ld_request_window_seconds",
                        &format!("{frag},quantile=\"0.99\""),
                    );
                    let ok = prom_get(
                        &s,
                        "gemm_ld_request_window_count",
                        &format!("{frag},result=\"ok\""),
                    )
                    .unwrap_or(0.0);
                    let err = prom_get(
                        &s,
                        "gemm_ld_request_window_count",
                        &format!("{frag},result=\"err\""),
                    )
                    .unwrap_or(0.0);
                    let q = |v: Option<f64>| match v {
                        Some(secs) => format!("{:.2}ms", secs * 1e3),
                        None => "   -  ".to_string(),
                    };
                    println!(
                        "  {window:>3} window: p50 {:>9}  p99 {:>9}  ok {ok:>6}  err {err:>4}",
                        q(p50),
                        q(p99),
                    );
                }
                println!(
                    "  panels resident {:>3}   bytes {:.1}/{:.1} MiB",
                    prom_get(&s, "gemm_ld_panels_resident", "").unwrap_or(0.0),
                    prom_get(&s, "gemm_ld_registry_used_bytes", "").unwrap_or(0.0)
                        / (1 << 20) as f64,
                    prom_get(&s, "gemm_ld_registry_budget_bytes", "").unwrap_or(0.0)
                        / (1 << 20) as f64,
                );
            }
            Err(e) if once => return Err(e),
            Err(e) => {
                if prev.is_none() {
                    return Err(e);
                }
                println!("connection lost ({e}); retrying …");
            }
        }
        if once || token.is_cancelled() {
            return Ok(());
        }
        std::thread::sleep(interval);
        if token.is_cancelled() {
            return Ok(());
        }
    }
}

/// `gemm-ld convert`
pub fn convert(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let g = load_matrix(input)?;
    save_matrix(output, &g)?;
    println!(
        "converted {input} -> {output} ({} samples x {} SNPs)",
        g.n_samples(),
        g.n_snps()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory unique to one test (pid + a process-wide
    /// counter), removed on drop — tests run in parallel inside one
    /// process, so a shared directory would have them delete each other's
    /// inputs.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn join(&self, name: impl AsRef<std::path::Path>) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir() -> TempDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "gemm_ld_cli_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        TempDir(d)
    }

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn info_runs() {
        info(&args(&[])).unwrap();
    }

    #[test]
    fn simulate_r2_omega_pipeline() {
        let d = tmpdir();
        let ms = d.join("toy.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&[
            "--samples",
            "120",
            "--snps",
            "80",
            "--sweep",
            "40",
            "-o",
            mss,
        ]))
        .unwrap();
        let table = d.join("pairs.tsv");
        r2(&args(&[
            "-i",
            mss,
            "--min-r2",
            "0.5",
            "-o",
            table.to_str().unwrap(),
        ]))
        .unwrap();
        let rows = ld_io::text::read_r2_table(BufReader::new(std::fs::File::open(&table).unwrap()))
            .unwrap();
        assert!(!rows.is_empty(), "a sweep must produce r2 >= 0.5 pairs");
        omega(&args(&["-i", mss, "--window", "20", "--step", "10"])).unwrap();
    }

    #[test]
    fn convert_round_trip() {
        let d = tmpdir();
        let ms = d.join("x.ms");
        let vcf = d.join("x.vcf");
        let txt = d.join("x.txt");
        simulate(&args(&[
            "--samples",
            "30",
            "--snps",
            "10",
            "-o",
            ms.to_str().unwrap(),
        ]))
        .unwrap();
        convert(&args(&[
            "-i",
            ms.to_str().unwrap(),
            "-o",
            vcf.to_str().unwrap(),
        ]))
        .unwrap();
        convert(&args(&[
            "-i",
            vcf.to_str().unwrap(),
            "-o",
            txt.to_str().unwrap(),
        ]))
        .unwrap();
        let a = load_matrix(ms.to_str().unwrap()).unwrap();
        let b = load_matrix(txt.to_str().unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tanimoto_on_text_fingerprints() {
        let d = tmpdir();
        let path = d.join("fp.txt");
        let fp = ld_data::fingerprints::clustered_fingerprints(12, 256, 3, 0.1, 0.02, 5);
        save_matrix(path.to_str().unwrap(), &fp).unwrap();
        tanimoto(&args(&["-i", path.to_str().unwrap(), "--top-k", "3"])).unwrap();
    }

    /// `tanimoto` runs the symmetric half (SYRK), not the square it used
    /// to: fewer `kernel_words` than `tanimoto_cross` of the set with
    /// itself. The counter is process-wide — the tests that reset it hold
    /// `recorder_lock`, and all the others of this binary together add
    /// ~21 M words — so the set is sized for the two forms to differ by
    /// three times that.
    #[test]
    fn tanimoto_runs_the_symmetric_half() {
        let _g = recorder_lock();
        let d = tmpdir();
        let path = d.join("fp.txt");
        let fp = ld_data::fingerprints::clustered_fingerprints(1024, 8192, 8, 0.1, 0.02, 9);
        save_matrix(path.to_str().unwrap(), &fp).unwrap();
        let words_of = |run: &dyn Fn()| {
            let before = ld_trace::get(Counter::KernelWords);
            run();
            ld_trace::get(Counter::KernelWords) - before
        };
        let line = args(&[
            "-i",
            path.to_str().unwrap(),
            "--top-k",
            "1",
            "--threads",
            "2",
        ]);
        let half = words_of(&|| tanimoto(&line).unwrap());
        let v = fp.full_view();
        let square = words_of(&|| {
            ld_ext::tanimoto::tanimoto_cross(&LdEngine::new().threads(2), &v, &v).unwrap();
        });
        assert!(square >= 1024 * 1024 * 128, "{square} words for the square");
        assert!(
            half + 60_000_000 < square,
            "the command ran {half} words, the square form {square}"
        );
    }

    #[test]
    fn prune_decay_blocks_pipeline() {
        let d = tmpdir();
        let ms = d.join("panel.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&[
            "--samples",
            "200",
            "--snps",
            "120",
            "--founders",
            "8",
            "-o",
            mss,
        ]))
        .unwrap();
        let kept = d.join("kept.txt");
        prune(&args(&[
            "-i",
            mss,
            "--window",
            "40",
            "--step",
            "20",
            "--threshold",
            "0.5",
            "-o",
            kept.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&kept).unwrap();
        let n_kept = body.lines().count();
        assert!(
            n_kept > 0 && n_kept < 120,
            "pruning should remove something: {n_kept}"
        );
        decay(&args(&["-i", mss, "--max-dist", "30", "--bin", "5"])).unwrap();
        blocks(&args(&["-i", mss, "--threshold", "0.9"])).unwrap();
    }

    #[test]
    fn assoc_subcommand_runs() {
        let d = tmpdir();
        let ms = d.join("cohort.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "600", "--snps", "80", "-o", mss])).unwrap();
        assoc(&args(&["-i", mss, "--beta", "1.5", "--p", "0.001"])).unwrap();
        assoc(&args(&["-i", mss, "--causal", "10,20", "--beta", "1.0"])).unwrap();
        assert!(assoc(&args(&["-i", mss, "--causal", "999"])).is_err());
        assert!(assoc(&args(&["-i", mss, "--causal", "x"])).is_err());
    }

    #[test]
    fn r2_timeout_checkpoint_resume_cycle() {
        let d = tmpdir();
        let ms = d.join("intr.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "80", "--snps", "60", "-o", mss])).unwrap();
        let ckpt = d.join("intr.ckpt");
        let ckpts = ckpt.to_str().unwrap();
        // An already-expired deadline: zero slabs run, but a checkpoint is
        // flushed so the run is resumable; classified as exit 5.
        let err = r2(&args(&["-i", mss, "--timeout", "0", "--checkpoint", ckpts])).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("--resume"), "{err}");
        assert!(ckpt.exists(), "checkpoint must be flushed on cancellation");
        // Resume finishes the run and removes the now-redundant snapshot.
        r2(&args(&["-i", mss, "--checkpoint", ckpts, "--resume"])).unwrap();
        assert!(!ckpt.exists(), "checkpoint removed after a completed run");
        // --resume without a file starts fresh instead of failing.
        r2(&args(&["-i", mss, "--checkpoint", ckpts, "--resume"])).unwrap();
        // usage errors
        assert_eq!(
            r2(&args(&["-i", mss, "--resume"])).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            r2(&args(&["-i", mss, "--timeout", "-3"]))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn r2_checkpointed_pair_table_matches_streamed() {
        let d = tmpdir();
        let ms = d.join("cmp.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "100", "--snps", "50", "-o", mss])).unwrap();
        let plain = d.join("plain.tsv");
        let ckpt_tab = d.join("ckpt.tsv");
        let ckpt = d.join("cmp.ckpt");
        r2(&args(&[
            "-i",
            mss,
            "--min-r2",
            "0.1",
            "-o",
            plain.to_str().unwrap(),
        ]))
        .unwrap();
        r2(&args(&[
            "-i",
            mss,
            "--min-r2",
            "0.1",
            "-o",
            ckpt_tab.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let a = std::fs::read_to_string(&plain).unwrap();
        let b = std::fs::read_to_string(&ckpt_tab).unwrap();
        assert_eq!(a, b, "packed-path table must match the streamed table");
    }

    /// Serializes tests that touch the process-global flight recorder
    /// (start/stop pairs from concurrent tests would steal each other's
    /// snapshots).
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn r2_trace_out_and_report_are_emitted() {
        let _g = recorder_lock();
        let d = tmpdir();
        let input = d.join("trace_in.txt");
        simulate(&args(&[
            "--samples",
            "64",
            "--snps",
            "48",
            "-o",
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = d.join("trace.json");
        let report = d.join("metrics.json");
        r2(&args(&[
            "-i",
            input.to_str().unwrap(),
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--profile=json",
            "--profile-out",
            report.to_str().unwrap(),
        ]))
        .unwrap();
        let trace_body = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace_body.starts_with("{\"traceEvents\":["),
            "trace must be a Chrome trace-event document"
        );
        assert!(
            trace_body.contains("\"ph\":\"X\""),
            "the recorder must record complete spans"
        );
        // The run report carries the timeline the trace armed.
        let report_body = std::fs::read(&report).unwrap();
        let doc = ld_trace::json::parse(&report_body).unwrap();
        let timeline = doc.get("timeline").expect("a timeline section");
        let field = |key: &str| timeline.get(key).unwrap_or_else(|| panic!("no {key}"));
        assert!(field("open_spans").as_u64().is_some());
        assert!(field("share_sum").as_f64().is_some());
        assert!(field("per_worker").as_array().is_some());
        assert!(field("layers").as_array().is_some());
        // Nothing dropped at the ring capacity. The recorder is
        // process-global and sibling tests run engines on other threads, so
        // the whole-timeline invariants (no open span, shares summing to 1)
        // are asserted on a process of its own: `process_cli.rs`.
        assert_eq!(field("dropped").as_u64(), Some(0));
    }

    #[test]
    fn r2_trace_out_unwritable_is_resource_error() {
        let _g = recorder_lock();
        let d = tmpdir();
        let input = d.join("trace_err_in.txt");
        simulate(&args(&[
            "--samples",
            "32",
            "--snps",
            "16",
            "-o",
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let err = r2(&args(&[
            "-i",
            input.to_str().unwrap(),
            "--trace-out",
            "/nonexistent-dir/trace.json",
        ]))
        .unwrap_err();
        assert!(
            matches!(err, CliError::Resource(_)),
            "unwritable --trace-out must classify as a resource error (exit 4), got {err:?}"
        );
    }

    #[test]
    fn resume_error_taxonomy() {
        let d = tmpdir();
        let ms = d.join("tax.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "40", "--snps", "30", "-o", mss])).unwrap();
        let ckpt = d.join("tax.ckpt");
        let ckpts = ckpt.to_str().unwrap();
        // Missing checkpoint: --resume starts fresh (exit 0).
        r2(&args(&["-i", mss, "--checkpoint", ckpts, "--resume"])).unwrap();
        // Corrupt checkpoint: --resume is a parse failure (exit 3), not a
        // silent fresh start.
        std::fs::write(&ckpt, b"definitely not a checkpoint").unwrap();
        let err = r2(&args(&["-i", mss, "--checkpoint", ckpts, "--resume"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(
            ckpt.exists(),
            "the damaged snapshot must be left for inspection"
        );
    }

    #[test]
    fn unwritable_destinations_fail_before_compute() {
        let d = tmpdir();
        let ms = d.join("probe.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "40", "--snps", "30", "-o", mss])).unwrap();
        for flags in [
            &["-i", mss, "-o", "/nonexistent-dir/pairs.tsv"][..],
            &["-i", mss, "--checkpoint", "/nonexistent-dir/x.ckpt"][..],
            &["-i", mss, "--trace-out", "/nonexistent-dir/t.json"][..],
        ] {
            let err = r2(&args(flags)).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{flags:?}: {err}");
        }
    }

    #[test]
    fn shard_merge_matches_single_run_bit_for_bit() {
        let d = tmpdir();
        let ms = d.join("shards.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "90", "--snps", "70", "-o", mss])).unwrap();
        let one = d.join("one.tsv");
        r2(&args(&[
            "-i",
            mss,
            "--min-r2",
            "0",
            "-o",
            one.to_str().unwrap(),
        ]))
        .unwrap();
        let n_shards = 3usize;
        let mut shard_files = Vec::new();
        for i in 1..=n_shards {
            let f = d.join(format!("s{i}.bin"));
            // --slab-rows 16 gives the 70-SNP panel enough slabs to cut 3
            // ways; the single-run panel above keeps its default slab to
            // prove the merged bytes don't depend on grid choice.
            r2(&args(&[
                "-i",
                mss,
                "--shard",
                &format!("{i}/{n_shards}"),
                "--slab-rows",
                "16",
                "-o",
                f.to_str().unwrap(),
            ]))
            .unwrap();
            shard_files.push(f.to_str().unwrap().to_owned());
        }
        let merged = d.join("merged.tsv");
        let mut argv: Vec<&str> = shard_files.iter().map(String::as_str).collect();
        argv.extend(["--min-r2", "0", "-i", mss, "-o", merged.to_str().unwrap()]);
        merge(&args(&argv)).unwrap();
        let a = std::fs::read(&one).unwrap();
        let b = std::fs::read(&merged).unwrap();
        assert_eq!(
            a, b,
            "merged panel must be byte-identical to the one-shot run"
        );
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_foreign_inputs() {
        let d = tmpdir();
        let ms = d.join("gaps.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "60", "--snps", "50", "-o", mss])).unwrap();
        let s1 = d.join("g1.bin");
        let s2 = d.join("g2.bin");
        for (i, f) in [(1, &s1), (2, &s2)] {
            r2(&args(&[
                "-i",
                mss,
                "--shard",
                &format!("{i}/2"),
                "--slab-rows",
                "16",
                "-o",
                f.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let out = d.join("gap_out.tsv");
        let outs = out.to_str().unwrap();
        // Gap: one shard missing → exit 3, gap report, no output file.
        let err = merge(&args(&[s1.to_str().unwrap(), "--shards", "2", "-o", outs])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
        assert!(!out.exists(), "an incomplete merge must never write output");
        // Overlap: the same shard twice → exit 3 naming the collision.
        let err = merge(&args(&[
            s1.to_str().unwrap(),
            s1.to_str().unwrap(),
            s2.to_str().unwrap(),
            "-o",
            outs,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("overlap"), "{err}");
        assert!(!out.exists());
        // Corrupt shard file: CRC/structure failure → exit 3.
        let bad = d.join("bad.bin");
        let mut bytes = std::fs::read(&s1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&bad, &bytes).unwrap();
        let err = merge(&args(&[
            bad.to_str().unwrap(),
            s2.to_str().unwrap(),
            "-o",
            outs,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("CRC"), "{err}");
        assert!(!out.exists());
        // Fingerprint check against a different input matrix → exit 3.
        let other = d.join("other.ms");
        simulate(&args(&[
            "--samples",
            "60",
            "--snps",
            "50",
            "--seed",
            "777",
            "-o",
            other.to_str().unwrap(),
        ]))
        .unwrap();
        let err = merge(&args(&[
            s1.to_str().unwrap(),
            s2.to_str().unwrap(),
            "-i",
            other.to_str().unwrap(),
            "-o",
            outs,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // The complete, untampered set merges fine.
        merge(&args(&[
            s1.to_str().unwrap(),
            s2.to_str().unwrap(),
            "-i",
            mss,
            "-o",
            outs,
        ]))
        .unwrap();
        assert!(out.exists());
    }

    /// `--store` is invisible in the output: after `import`, every arm of
    /// the one `r2` body produces the same bytes from the store as from
    /// the file it was imported from.
    #[test]
    fn r2_store_matches_in_memory() {
        let d = tmpdir();
        let p = |name: &str| d.join(name).to_str().unwrap().to_owned();
        let (ms, store) = (p("panel.ms"), p("panel.store"));
        simulate(&args(&["--samples", "130", "--snps", "90", "-o", &ms])).unwrap();
        import(&args(&["-i", &ms, "--store", &store, "--chunk-snps", "16"])).unwrap();
        let from_file = ["-i", ms.as_str()];
        let from_store = ["--store", store.as_str()];
        let table = |name: &str, source: &[&str], flags: &[&str]| {
            let out = p(name);
            r2(&args(&[source, flags, &["-o", &out]].concat())).unwrap();
            std::fs::read(&out).unwrap()
        };
        // streamed -o, with and without a threshold: one table, whatever
        // the source, the thread count and so the order slabs finish in
        for min_r2 in [&[][..], &["--min-r2", "0.2"][..]] {
            let flags = |threads| [&["--threads", threads, "--slab-rows", "8"], min_r2].concat();
            let want = table("file.tsv", &from_file, &flags("1"));
            assert!(want.len() > 16, "the table must have rows");
            for threads in ["1", "2", "7"] {
                for (name, source) in [("file.tsv", from_file), ("store.tsv", from_store)] {
                    let got = table(name, &source, &flags(threads));
                    assert!(got == want, "{name} t{threads} {min_r2:?}");
                }
            }
        }
        // the packed arm (mandatory under --checkpoint)
        let one_shot = table("one.tsv", &from_file, &["--threads", "2"]);
        let ckpt = p("store.ckpt");
        let flags = ["--threads", "2", "--checkpoint", ckpt.as_str()];
        assert_eq!(table("ckpt.tsv", &from_store, &flags), one_shot);
        // one plan, shard 1 from the store and shard 2 from the file
        let (s1, s2) = (p("s1.bin"), p("s2.bin"));
        for (shard, source, out) in [("1/2", from_store, &s1), ("2/2", from_file, &s2)] {
            let flags = ["--shard", shard, "--slab-rows", "8", "-o", out.as_str()];
            r2(&args(&[&source[..], &flags].concat())).unwrap();
        }
        let merged = p("merged.tsv");
        merge(&args(&[&s1, &s2, "-i", &ms, "-o", &merged])).unwrap();
        assert_eq!(std::fs::read(&merged).unwrap(), one_shot);
        // neither input alone, nor both
        assert_eq!(r2(&args(&[])).unwrap_err().exit_code(), 2);
        let both = [&from_file[..], &from_store].concat();
        assert_eq!(r2(&args(&both)).unwrap_err().exit_code(), 2);
    }

    /// `--memory-budget-mb` is one flag for both sources: the slab shrinks
    /// to fit without changing a byte, and a budget that cannot hold one
    /// slab row is the same typed refusal (exit 4) from `-i` as from
    /// `--store`. Under a binding budget the two sources run different
    /// slab grids, and each `--shard` is cut on its own source's grid.
    #[test]
    fn r2_memory_budget_applies_to_both_sources() {
        let d = tmpdir();
        let p = |name: &str| d.join(name).to_str().unwrap().to_owned();
        let (ms, store) = (p("panel.ms"), p("panel.store"));
        simulate(&args(&["--samples", "2048", "--snps", "480", "-o", &ms])).unwrap();
        import(&args(&["-i", &ms, "--store", &store, "--chunk-snps", "32"])).unwrap();
        // 1 MiB leaves the packed in-memory model (2 threads x 480 x 4 B per
        // slab row on top of the 0.9 MB triangle) room for 30 rows; beside
        // the triangle the store's smallest windows (two slabs by one
        // 32-SNP chunk: a first window of the chunks two slabs can cover,
        // and per worker u32 counts as wide as it) fit 48
        let sources = [(["-i", ms.as_str()], 30), (["--store", store.as_str()], 48)];
        let one_shot = p("one.tsv");
        r2(&args(&["-i", &ms, "--threads", "2", "-o", &one_shot])).unwrap();
        let one_shot = std::fs::read(&one_shot).unwrap();
        for (source, slab) in sources {
            let out = p("budgeted.tsv");
            let flags = ["--threads", "2", "--memory-budget-mb", "1", "-o", &out];
            r2(&args(&[&source[..], &flags].concat())).unwrap();
            assert_eq!(std::fs::read(&out).unwrap(), one_shot, "{source:?}");
            // 0 MiB cannot hold the transform tables, let alone a slab row
            let flags = ["--memory-budget-mb", "0", "-o", &out];
            let err = r2(&args(&[&source[..], &flags].concat())).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{source:?}: {err}");
            assert!(err.to_string().contains("budget"), "{source:?}: {err}");
            // every shard of the plan runs, on the source's own grid
            let shards: Vec<String> = (1..=2).map(|i| p(&format!("b{i}.bin"))).collect();
            for (i, out) in shards.iter().enumerate() {
                let shard = format!("{}/2", i + 1);
                let budget = [
                    "--threads",
                    "2",
                    "--slab-rows",
                    "64",
                    "--memory-budget-mb",
                    "1",
                ];
                let flags = [&budget[..], &["--shard", &shard, "-o", out]].concat();
                r2(&args(&[&source[..], &flags].concat())).unwrap();
                let state = ld_io::checkpoint::read_checkpoint_path(out).unwrap();
                assert_eq!(state.slab, slab, "{source:?}");
            }
            let merged = p("merged.tsv");
            merge(&args(&[&shards[0], &shards[1], "-o", &merged])).unwrap();
            assert_eq!(std::fs::read(&merged).unwrap(), one_shot, "{source:?}");
        }
        let err = r2(&args(&["-i", &ms, "--memory-budget-mb", "lots"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    /// The stdout listing streams: it runs under a budget the packed
    /// triangle does not fit, from both sources. (What it prints there is
    /// held to the unbudgeted run's bytes by `process_cli.rs`.)
    #[test]
    fn r2_listing_runs_under_a_budget_smaller_than_the_triangle() {
        let d = tmpdir();
        let p = |name: &str| d.join(name).to_str().unwrap().to_owned();
        let (ms, store) = (p("panel.ms"), p("panel.store"));
        // a 600-SNP triangle is 1.44 MB of f64
        simulate(&args(&["--samples", "128", "--snps", "600", "-o", &ms])).unwrap();
        import(&args(&["-i", &ms, "--store", &store, "--chunk-snps", "64"])).unwrap();
        let budget = ["--memory-budget-mb", "1", "--min-r2", "0.8"];
        for source in [["-i", ms.as_str()], ["--store", store.as_str()]] {
            r2(&args(&[&source[..], &budget].concat())).unwrap();
            // the premise: the arm that does build the triangle is refused
            let ckpt = p("run.ckpt");
            let packed = [&source[..], &budget, &["--checkpoint", &ckpt]].concat();
            let err = r2(&args(&packed)).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{source:?}: {err}");
            assert!(err.to_string().contains("budget"), "{source:?}: {err}");
        }
    }

    /// The bounded selection is the parent's `collect` + stable sort by
    /// value, cut at 20 — on inputs that are mostly ties.
    #[test]
    fn top_pairs_is_the_stable_sort_cut_at_twenty() {
        let mut state = 0x70_7061_6972u64;
        for (n, min_r2) in [(0usize, 0.0), (5, 0.0), (9, 0.5), (40, 0.25), (40, -1.0)] {
            let mut pairs = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let v = match state % 7 {
                        0 => f64::NAN,
                        1 => -0.0,
                        k => (k - 2) as f64 * 0.25,
                    };
                    pairs.push((i, j, v));
                }
            }
            let mut want: Vec<Pair> = pairs
                .iter()
                .copied()
                .filter(|&(_, _, v)| !v.is_nan() && v >= min_r2)
                .collect();
            want.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
            want.truncate(20);
            let got = top_pairs(pairs.iter().copied(), min_r2);
            let bits =
                |l: &[Pair]| -> Vec<_> { l.iter().map(|p| (p.0, p.1, p.2.to_bits())).collect() };
            assert_eq!(bits(&got), bits(&want), "{n} SNPs at {min_r2}");
            // and of a union, the selection of its parts' selections
            let (a, b) = pairs.split_at(pairs.len() / 3);
            let parts = [a, b].map(|part| top_pairs(part.iter().copied(), min_r2));
            let folded = top_pairs(parts.concat().into_iter(), min_r2);
            assert_eq!(bits(&folded), bits(&want), "{n} SNPs at {min_r2}, folded");
        }
    }

    #[test]
    fn shard_flag_validation() {
        assert!(parse_shard(&args(&[])).unwrap().is_none());
        assert_eq!(
            parse_shard(&args(&["--shard", "2/4"])).unwrap(),
            Some((2, 4))
        );
        for bad in ["4", "0/4", "5/4", "a/b", "1/0", "/"] {
            assert!(parse_shard(&args(&["--shard", bad])).is_err(), "{bad}");
        }
        let d = tmpdir();
        let ms = d.join("sv.ms");
        let mss = ms.to_str().unwrap();
        simulate(&args(&["--samples", "30", "--snps", "20", "-o", mss])).unwrap();
        // --shard without -o is a usage error
        let err = r2(&args(&["-i", mss, "--shard", "1/2"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn shard_exit_classification_and_backoff() {
        assert_eq!(classify_shard_exit(Some(0), true), ShardExit::Success);
        assert_eq!(
            classify_shard_exit(Some(0), false),
            ShardExit::CorruptOutput
        );
        assert_eq!(classify_shard_exit(Some(5), false), ShardExit::Resumable);
        assert_eq!(classify_shard_exit(Some(3), false), ShardExit::CorruptState);
        assert_eq!(classify_shard_exit(Some(2), false), ShardExit::Usage);
        assert_eq!(classify_shard_exit(Some(1), false), ShardExit::Crash);
        assert_eq!(classify_shard_exit(None, false), ShardExit::Crash);
        // jittered: every delay lands in [envelope/2, envelope] of the
        // legacy capped exponential, and shards get distinct schedules
        for (attempts, env_ms) in [(1u64, 500u64), (2, 1000), (3, 2000), (20, 10_000)] {
            let d = retry_backoff(500, attempts as usize, 1);
            assert!(d >= Duration::from_millis(env_ms / 2), "{attempts}: {d:?}");
            assert!(d <= Duration::from_millis(env_ms), "{attempts}: {d:?}");
        }
        assert!(retry_backoff(u64::MAX, 20, 1) <= Duration::from_millis(10_000));
        assert_eq!(
            retry_backoff(500, 3, 7),
            retry_backoff(500, 3, 7),
            "deterministic per shard seed"
        );
        assert!(
            (1..=24).any(|n| retry_backoff(500, n, 1) != retry_backoff(500, n, 2)),
            "shard seeds must decorrelate the schedules"
        );
    }

    #[test]
    fn manifest_is_schema_shaped() {
        let d = tmpdir();
        let path = d.join("manifest.json");
        let shards = vec![
            ShardSlot {
                idx: 1,
                out: "s1.bin".into(),
                ckpt: "s1.ckpt".into(),
                log: "s1.log".into(),
                attempts: 2,
                state: "done",
                classifications: vec!["crash", "success"],
                child: None,
                spawned_at: None,
                not_before: std::time::Instant::now(),
            },
            ShardSlot {
                idx: 2,
                out: "s2.bin".into(),
                ckpt: "s2.ckpt".into(),
                log: "s2.log".into(),
                attempts: 1,
                state: "failed",
                classifications: vec!["corrupt-output"],
                child: None,
                spawned_at: None,
                not_before: std::time::Instant::now(),
            },
        ];
        write_manifest(
            path.to_str().unwrap(),
            "in \"quoted\".ms",
            "out.tsv",
            2,
            500,
            false,
            &shards,
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"schema_version\": 1",
            "\"shards\": 2",
            "\"interrupted\": false",
            "\"shard_states\"",
            "\"classifications\": [\"crash\", \"success\"]",
            "\"state\": \"failed\"",
            "in \\\"quoted\\\".ms",
        ] {
            assert!(body.contains(key), "manifest missing {key}:\n{body}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(r2(&args(&[])).is_err()); // missing input
        assert!(load_matrix("/nonexistent/x.ms").is_err());
        assert!(load_matrix("/nonexistent/x.weird").is_err());
        assert!(parse_kernel(&args(&["--kernel", "bogus"])).is_err());
        let d = tmpdir();
        let p = d.join("small.txt");
        std::fs::write(&p, "0101\n1010\n").unwrap();
        assert!(omega(&args(&["-i", p.to_str().unwrap(), "--window", "50"])).is_err());
    }
}
