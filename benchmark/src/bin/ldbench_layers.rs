//! The traced run: replays one workload's path from outside — one timed
//! call per public library function, a span per call — and prints the
//! per-layer metrics. Every probe runs on the workload's own matrix, so a
//! layer has a number on every workload; README.md says which end-to-end
//! metric each should move and where it should not. Spans and their
//! counts are kept in memory and written to `out/trace.json` at exit.
//!
//! Nothing here reads the program's own `--profile` or trace output.

use ld_bitmat::{AlignedWords, BitMatrix};
use ld_core::{
    CancelToken, Deadline, LdEngine, LdStats, MemoryBudget, NanPolicy, RunControl, TileSource,
};
use ld_io::tilestore::{import_to_dir, DirTileStore};
use ld_kernels::{clock, BlockSizes, Kernel, KernelKind};
use ld_popcount::strategies::and_popcount_pinned;
use ld_serve::{PanelRegistry, PanelSource};
use ldbench::args::{self, Args};
use ldbench::child;
use ldbench::daemon::Daemon;
use ldbench::loadgen::{self, Op, Pace, Plan};
use ldbench::metrics::{self, Outcome, PER_LAYER};
use ldbench::scratch::Scratch;
use ldbench::workload::{self, Kind, Workload};
use ldbench::{inputs, stats, THREADS};
use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder for the harness's own calls.
struct Tracer {
    t0: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Timed repetitions per probe (after one warm-up).
    reps: usize,
}

impl Tracer {
    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns its result and its duration in seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let s = &mut self.spans[id];
        s.end_ns = self.t0.elapsed().as_nanos();
        let secs = (s.end_ns - s.start_ns) as f64 / 1e9;
        (out, secs)
    }

    /// Attaches a count (words, bytes, pairs, requests) to the open span.
    fn count(&mut self, key: &'static str, value: f64) {
        let id = *self.open.last().expect("count outside a span");
        self.spans[id].counts.push((key, value));
    }

    /// One warm-up call then `reps` timed calls of `f`, each its own
    /// child span of a span named `name`; returns the fastest, in seconds.
    fn timed<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
        let reps = self.reps;
        self.span(name, |tr| {
            tr.span("warm-up", |_| black_box(f()));
            let secs: Vec<f64> = (0..reps)
                .map(|_| tr.span("call", |_| black_box(f())).1)
                .collect();
            fastest(&secs)
        })
        .0
    }

    /// Writes every span as one JSON array.
    fn write(&self, path: &Path) -> io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\", \"counts\": {{",
                sp.name, sp.start_ns, sp.end_ns, self.workload
            );
            for (k, (key, v)) in sp.counts.iter().enumerate() {
                let _ = write!(s, "{}\"{key}\": {v:?}", if k == 0 { "" } else { ", " });
            }
            s.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        s.push_str("]\n");
        std::fs::write(path, s)
    }
}

fn main() {
    child::shim();
    let args = args::parse();
    let w = args.workload.expect("checked by args::parse");
    let mut tr = Tracer {
        t0: Instant::now(),
        workload: w.name,
        spans: Vec::new(),
        open: Vec::new(),
        reps: if args.quick { 1 } else { 3 },
    };
    let result = Scratch::new(&args.out_dir).and_then(|scratch| {
        let outcome = replay(w, &args, &scratch, &mut tr)?;
        tr.write(&args.out_dir.join("trace.json"))?;
        Ok(outcome)
    });
    if let Ok(outcome) = &result {
        outcome.print(&PER_LAYER);
    }
    if let Some(why) = metrics::failure(w.name, &result) {
        eprintln!("ldbench-layers: {why}");
        std::process::exit(1);
    }
}

/// The smallest of a few repeated timings. On this box noise only adds —
/// a second vCPU that has gone idle, guest pages the host took back — and
/// it outlasts one warm-up call, so the fastest of three is the steady
/// reading where the median of three is not.
fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Counts and drops what is written. `io::sink()` will not do: its
/// `write_fmt` skips the formatting the probe exists to time.
struct Discard(usize);

impl io::Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += black_box(buf).len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn other<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

/// Size of `path` in bytes.
fn file_len(path: &Path) -> io::Result<f64> {
    Ok(std::fs::metadata(path)?.len() as f64)
}

/// `1 + reps` whole `gemm-ld r2` processes, as the end-to-end run makes
/// them (output removed after each, so every process writes a new file).
/// Returns the smallest wall and CPU of the timed ones, whether all
/// exited 0, and the output of the last.
fn processes(
    tr: &mut Tracer,
    name: &'static str,
    args: &Args,
    w: &Workload,
    dir: &Path,
    min_r2: Option<&str>,
) -> io::Result<(f64, f64, bool, Vec<u8>)> {
    let out_path = dir.join(if w.table {
        workload::TABLE
    } else {
        workload::LISTING
    });
    let (mut wall, mut cpu, mut ok, mut out) = (Vec::new(), Vec::new(), true, Vec::new());
    for i in 0..=tr.reps {
        let mut cmd = child::gemm_ld(&args.gemm_ld);
        cmd.args(w.r2_args(dir, min_r2));
        let stdout = (!w.table).then_some(out_path.as_path());
        let usage = tr.span(name, |_| child::run(&cmd, stdout)).0?;
        ok &= usage.ok;
        out = std::fs::read(&out_path)?;
        std::fs::remove_file(&out_path)?;
        if i > 0 {
            wall.push(usage.wall_s);
            cpu.push(usage.cpu_s);
        }
    }
    Ok((fastest(&wall), fastest(&cpu), ok, out))
}

/// Bytes the out-of-core driver reads for this geometry, from its
/// documented schedule: per slab, the chunks covering the slab's rows
/// (the A-panel) plus every chunk from the slab's first to the last (the
/// column stream). Computed, not measured.
fn streamed_bytes(meta: &ld_core::TileStoreMeta, slab: usize) -> f64 {
    let mut bytes = 0usize;
    for r0 in (0..meta.n_snps).step_by(slab.max(1)) {
        let r1 = (r0 + slab).min(meta.n_snps);
        let (first, last) = meta
            .chunks_covering(r0, r1)
            .expect("slab spans are non-empty");
        bytes += (first..=last).map(|c| meta.chunk_bytes(c)).sum::<usize>();
        bytes += (first..meta.n_chunks())
            .map(|c| meta.chunk_bytes(c))
            .sum::<usize>();
    }
    bytes as f64
}

fn replay(w: &Workload, args: &Args, scratch: &Scratch, tr: &mut Tracer) -> io::Result<Outcome> {
    let dir = scratch.path();
    let (snps, samples) = w.shape(args.quick);
    let g = inputs::generate(w, args.seed, args.quick);
    let view = g.full_view();
    let wps = g.words_per_snp();
    let matrix_bytes = (g.words().len() * 8) as f64;
    let pairs = |n: usize| (n * n.saturating_sub(1) / 2) as f64;
    let engine = LdEngine::new().threads(THREADS).nan_policy(NanPolicy::Zero);
    let ctl = RunControl::new();
    let kernel = Kernel::resolve(KernelKind::Auto).map_err(other)?;
    let hz = clock::tsc_hz().unwrap_or(1e9);
    let llc_kb = ld_popcount::CpuFingerprint::detect().l3_kb;
    println!(
        "workload     : {} ({snps} SNPs x {samples} samples), seed {}",
        w.name, args.seed
    );
    println!(
        "kernel       : {} (lanes {}), tsc {:.3} GHz, LLC {llc_kb} KiB",
        kernel.kind(),
        kernel.lanes(),
        hz / 1e9
    );
    let mut v: Vec<(&'static str, f64)> = Vec::new();
    let mut failed = 0usize;

    // ── machine: the roofline this run was measured under ──────────────
    let (a, b) = (
        vec![0x5555_5555_5555_5555u64; 1024],
        vec![0x3333_3333_3333_3333u64; 1024],
    );
    let iters = if args.quick { 2_000 } else { 20_000 };
    let popcnt_s = tr.timed("machine.popcnt", || {
        (0..iters)
            .map(|_| and_popcount_pinned(black_box(&a), black_box(&b)))
            .sum::<u64>()
    });
    v.push((
        "machine.popcnt_words_per_cycle",
        (iters * a.len()) as f64 / (popcnt_s * hz),
    ));
    let copy_len = if args.quick { 32 << 20 } else { 256 << 20 };
    let (src, mut dst) = (vec![1u8; copy_len], vec![0u8; copy_len]);
    let copy_s = tr.timed("machine.copy", || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    v.push(("machine.copy_gb_per_s", copy_len as f64 / copy_s / 1e9));
    drop((src, dst));
    let mut spawn = Vec::new();
    for _ in 0..=tr.reps {
        let mut cmd = child::gemm_ld(&args.gemm_ld);
        let usage = tr
            .span("machine.spawn", |_| child::run(cmd.arg("help"), None))
            .0?;
        failed += usize::from(!usage.ok);
        spawn.push(usage.wall_s);
    }
    let spawn_s = fastest(&spawn[1..]);
    v.push(("machine.spawn_s", spawn_s));

    // ── ld-io parsers, ld-bitmat transpose ─────────────────────────────
    let (ms, txt) = (dir.join("replay.ms"), dir.join("replay.txt"));
    inputs::write(&ms, &g)?;
    inputs::write(&txt, &g)?;
    let open = |p: &Path| {
        File::open(p)
            .map(BufReader::new)
            .expect("input was just written")
    };
    let parse_ms_s = tr.timed("io.parse_ms", || {
        ld_io::ms::read_ms_first(open(&ms)).expect("valid ms")
    });
    v.push(("io.parse_ms_s", parse_ms_s));
    v.push(("io.parse_ms_mb_per_s", file_len(&ms)? / 1e6 / parse_ms_s));
    let parse_txt_s = tr.timed("io.parse_txt", || {
        ld_io::text::read_matrix(open(&txt)).expect("valid matrix")
    });
    v.push(("io.parse_txt_mb_per_s", file_len(&txt)? / 1e6 / parse_txt_s));
    let rows = g.to_sample_major_words();
    let transpose_s = tr.timed("bitmat.transpose", || {
        BitMatrix::from_sample_major_words(samples, snps, &rows).expect("consistent shape")
    });
    v.push((
        "bitmat.transpose_gb_per_s",
        matrix_bytes / transpose_s / 1e9,
    ));
    drop(rows);

    // ── ld-kernels: pack, SYRK, GEMM ───────────────────────────────────
    let blocks = BlockSizes::default();
    let mut packed = AlignedWords::new();
    let pack_s = tr.timed("kernels.pack", || {
        for p0 in (0..wps).step_by(blocks.kc) {
            ld_kernels::pack::pack_panels(
                &view,
                0..snps,
                p0..(p0 + blocks.kc).min(wps),
                kernel.nr(),
                &mut packed,
            );
        }
    });
    v.push(("kernels.pack_gb_per_s", matrix_bytes / pack_s / 1e9));
    // n × n u32 counts: cap n so the low-k workload does not allocate 256 MB here
    let sn = snps.min(3000);
    let syrk_view = g.view(0, sn);
    let syrk_words = (sn * (sn + 1) / 2 * wps) as f64;
    let syrk_s = tr.timed("kernels.syrk", || {
        ld_kernels::syrk_counts_mt(&syrk_view, KernelKind::Auto, THREADS)
    });
    let core_cycles = syrk_s * hz * THREADS as f64;
    v.push(("kernels.syrk_words_per_cycle", syrk_words / core_cycles));
    v.push((
        "kernels.syrk_peak_share",
        clock::percent_of_peak(syrk_words, core_cycles, kernel.lanes()),
    ));
    v.push(("kernels.syrk_words", syrk_words));
    let h = (snps / 2).min(2000);
    let (ga, gb) = (g.view(0, h), g.view(h, 2 * h));
    let mut c = vec![0u32; h * h];
    let gemm_s = tr.timed("kernels.gemm", || {
        ld_kernels::gemm_counts_mt(&ga, &gb, &mut c, h, KernelKind::Auto, blocks, THREADS)
    });
    v.push((
        "kernels.gemm_words_per_cycle",
        (h * h * wps) as f64 / (gemm_s * hz * THREADS as f64),
    ));
    drop(c);

    // ── ld-core: the three sinks of one engine, ld-parallel scaling ────
    let stat = LdStats::RSquared;
    let rows_s = tr.timed("core.stat_rows", || {
        engine
            .try_stat_rows_with(&g, stat, |_| {}, &ctl)
            .expect("stat_rows")
    });
    v.push(("core.stat_rows_s", rows_s));
    let matrix_s = tr.timed("core.stat_matrix", || {
        engine.try_stat_matrix(&g, stat).expect("stat_matrix")
    });
    v.push(("core.stat_matrix_s", matrix_s));
    // the packed sink's extra cost: first touch + store of 8·n(n+1)/2 bytes
    let triangle_s = matrix_s - rows_s;
    v.push(("core.triangle_s", triangle_s));
    // a difference inside the noise cannot mean the triangle was written
    // faster than memory copies: cap the rate at the measured copy rate
    let triangle_bytes = 8.0 * w.ld_values(args.quick);
    let copy_floor_s = triangle_bytes / (copy_len as f64 / copy_s);
    v.push((
        "core.triangle_gb_per_s",
        triangle_bytes / triangle_s.max(copy_floor_s) / 1e9,
    ));
    let one = engine.clone().threads(1);
    let rows_1t_s = tr.timed("core.stat_rows_1t", || {
        one.try_stat_rows_with(&g, stat, |_| {}, &ctl)
            .expect("stat_rows")
    });
    v.push((
        "parallel.efficiency_2t",
        rows_1t_s / (THREADS as f64 * rows_s),
    ));

    // ── ld-io: the reference table writer (commands.rs and server.rs each
    //    carry a private copy of this loop) ─────────────────────────────
    let tn = snps.min(2000);
    let small = engine.try_stat_matrix(g.view(0, tn), stat).map_err(other)?;
    let table_s = tr.timed("io.r2_table", || {
        let mut bytes = Discard(0);
        ld_io::text::write_r2_table(&mut bytes, &small, 0.0).expect("infallible writer");
        bytes.0
    });
    v.push(("io.r2_table_ns_per_pair", table_s * 1e9 / pairs(tn)));

    // ── ld-io tile store, ld-core out-of-core driver ───────────────────
    let store_dir = dir.join(workload::STORE_DIR);
    let import_s = tr.timed("io.import", || {
        import_to_dir(&g, workload::STORE_CHUNK_SNPS, &store_dir).expect("import")
    });
    v.push(("io.import_s", import_s));
    v.push(("io.import_mb_per_s", matrix_bytes / 1e6 / import_s));
    let store = DirTileStore::open(&store_dir).map_err(other)?;
    let meta = store.meta().clone();
    let chunks_s = tr.timed("io.chunk_read", || {
        for i in 0..meta.n_chunks() {
            black_box(store.read_chunk(i).expect("chunk"));
        }
    });
    v.push(("io.chunk_read_gb_per_s", matrix_bytes / chunks_s / 1e9));
    let budgeted = engine
        .clone()
        .memory_budget(MemoryBudget::mib(workload::STORE_BUDGET_MB));
    let ooc_s = tr.timed("core.outofcore", || {
        budgeted
            .try_stat_rows_outofcore_with(&store, stat, |_| {}, &ctl)
            .expect("outofcore")
    });
    let slab = budgeted.outofcore_slab_for(&meta, false).map_err(other)?;
    v.push(("core.outofcore_s", ooc_s));
    v.push(("core.outofcore_vs_memory", ooc_s / rows_s));
    v.push((
        "core.outofcore_streamed_mb",
        streamed_bytes(&meta, slab) / 1e6,
    ));

    // ── the process: the workload's own command, then the same command
    //    with the emit cut off (`--min-r2 2` keeps no pair) ─────────────
    inputs::write(&dir.join(w.input), &g)?;
    let (wall_s, cpu_s, ok, out) = processes(tr, "process.r2", args, w, dir, w.min_r2)?;
    failed += usize::from(!ok);
    let out_pairs = (out.iter().filter(|&&b| b == b'\n').count() as f64 - 1.0).max(1.0);
    let (bare_s, _, ok, _) = processes(tr, "process.r2_no_emit", args, w, dir, Some("2"))?;
    failed += usize::from(!ok);
    let emit_s = wall_s - bare_s;
    v.push(("cli.emit_s", emit_s));
    v.push(("cli.emit_ns_per_pair", emit_s * 1e9 / out_pairs));
    v.push((
        "cli.emit_mb_per_s",
        out.len() as f64 / 1e6 / emit_s.max(1e-6),
    ));
    let atomic_s = tr.timed("io.write_atomic", || {
        ld_io::atomic::write_atomic(dir.join("atomic.bin"), &out).expect("write")
    });
    v.push((
        "io.write_atomic_mb_per_s",
        out.len() as f64 / 1e6 / atomic_s,
    ));

    // ── ld-serve: start-up, then the latency floors of one daemon ──────
    let panel = dir.join("replay.txt");
    let mut preload = Vec::new();
    let mut daemon = None;
    for _ in 0..=tr.reps {
        if let Some(d) = daemon.take() {
            failed += usize::from(!Daemon::stop(d)?.ok);
        }
        let d = tr
            .span("serve.preload", |_| Daemon::start(&args.gemm_ld, &panel))
            .0?;
        preload.push(d.ready_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("started above");
    v.push(("serve.preload_s", fastest(&preload[1..])));
    let registry_s = tr.timed("serve.registry_load", || {
        let mut reg = PanelRegistry::new(engine.clone(), 1 << 30);
        reg.add_source(workload::PANEL, PanelSource::detect(&panel));
        let far = Deadline::after(Duration::from_secs(3600));
        reg.get(workload::PANEL, stat, &CancelToken::new(), far)
            .expect("panel loads")
    });
    v.push(("serve.registry_load_s", registry_s));
    let phase_s = if args.quick {
        0.3
    } else {
        (args.seconds / 10.0).max(0.5)
    };
    let mut probe =
        |tr: &mut Tracer, name: &'static str, op: Op, pace: Pace, fresh: bool, threads: usize| {
            let plan = Plan {
                addr: &daemon.addr,
                op,
                pace,
                fresh,
                threads,
                warmup_s: phase_s / 4.0,
                seconds: phase_s,
                seed: args.seed,
                n_snps: snps,
            };
            let (phase, _) = tr.span(name, |tr| {
                let phase = loadgen::run(&plan);
                tr.count("requests", phase.attempted as f64);
                tr.count("body_bytes", phase.body_bytes as f64);
                phase
            });
            failed += phase.failed;
            match phase.latency_us.is_empty() {
                true => Err(io::Error::other(format!("{name}: no request succeeded"))),
                false => Ok(phase),
            }
        };
    let p50 = |p: &loadgen::Phase| stats::median(&p.latency_us);
    let closed = Pace::Closed;
    let connect_health = p50(&probe(
        tr,
        "serve.connect_health",
        Op::Health,
        closed,
        true,
        1,
    )?);
    let persist_health = p50(&probe(
        tr,
        "serve.persist_health",
        Op::Health,
        closed,
        false,
        1,
    )?);
    let persist_pair = p50(&probe(
        tr,
        "serve.persist_pair",
        Op::Pair,
        closed,
        false,
        1,
    )?);
    let region_op = Op::Region(workload::REGION_ROWS);
    let region = probe(tr, "serve.persist_region", region_op, closed, false, 1)?;
    let open = Pace::Open(workload::OPEN_RATE);
    let open_pair = probe(tr, "serve.open_pair", Op::Pair, open, true, THREADS)?;
    failed += usize::from(!daemon.stop()?.ok);
    v.push(("serve.connect_health_us", connect_health));
    v.push(("serve.persist_health_us", persist_health));
    v.push(("serve.persist_pair_us", persist_pair));
    let region_pairs = pairs(workload::REGION_ROWS.min(snps));
    // the whole latency per pair: the small-frame floor above cannot be
    // subtracted while it is larger than a 2 MB response's latency
    v.push((
        "serve.region_ns_per_pair",
        p50(&region) * 1e3 / region_pairs,
    ));
    v.push((
        "serve.region_mb_per_s",
        region.body_bytes as f64 / 1e6 / region.wall_s,
    ));
    v.push(("loadgen.late_p95_us", stats::p95(&open_pair.late_us)));

    // ── the budget: how much of the wall the outside-timed calls name ──
    v.push(("process.wall_s", wall_s));
    v.push(("process.cpu_s", cpu_s));
    let explained = match w.kind {
        // calls the path makes through public functions; the table
        // formatting loop is private to the CLI and stays unexplained
        Kind::Batch => {
            let compute = match (w.store, w.table) {
                (true, _) => ooc_s,
                (false, true) => parse_ms_s + rows_s,
                (false, false) => parse_ms_s + matrix_s,
            };
            (spawn_s + compute + atomic_s) / wall_s
        }
        // the floor under a request: connection set-up + inline answer…
        Kind::ServeOpen => connect_health / p50(&open_pair),
        // …or the share of a Region's latency the public table writer
        // would take to format the same pairs
        Kind::ServeClosed => table_s / pairs(tn) * region_pairs * 1e6 / p50(&region),
    };
    v.push(("budget.explained_share", explained));

    Ok(Outcome {
        attempted: tr.spans.len(),
        failed,
        values: v,
    })
}
