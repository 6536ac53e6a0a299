//! What only a real process can show about the batch commands: `main`'s
//! exit code and last stderr line, `run-sharded`'s children, the `tune` →
//! environment → once-per-process profile load, and a flight-recorder
//! timeline no sibling test writes into. The values these flows produce
//! are proved bit-identical in-process (`commands::tests`, `ld-core`'s
//! suites); this file holds the shipped binary to the part of the contract
//! a function call cannot see.

mod common;

use common::{exists, finish, gemm_ld, read, run, run_for, run_ok, simulate, Scratch, WATCHDOG_S};
use ld_trace::json::{self, Json};

fn parse_json(path: &str) -> Json {
    json::parse(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |at, key| {
        at.get(key)
            .unwrap_or_else(|| panic!("no field {key} in {path:?}"))
    })
}

#[test]
fn interrupted_checkpointed_run_exits_5_and_names_resume() {
    let dir = Scratch::new("proc_interrupt");
    let (input, ckpt, out) = (dir.path("d.ms"), dir.path("d.ckpt"), dir.path("d.tsv"));
    simulate(&input, 100, 120, 11);
    let done = run(&format!(
        "r2 -i {input} --threads 2 --timeout 0 --checkpoint {ckpt} -o {out}"
    ));
    assert_eq!(done.code, Some(5), "{}", done.stderr);
    assert_eq!(
        done.stderr,
        format!(
            "error: run cancelled (deadline exceeded) after 0 completed slab(s); \
             resumable checkpoint saved to {ckpt} (rerun with --resume)\n"
        )
    );
    assert!(exists(&ckpt), "no snapshot on disk");
    assert!(!exists(&out), "a torn table");
}

#[test]
fn traced_run_records_a_complete_timeline() {
    let dir = Scratch::new("proc_trace");
    let (input, out) = (dir.path("d.ms"), dir.path("d.tsv"));
    simulate(&input, 400, 300, 42);
    let (trace, report) = (dir.path("trace.json"), dir.path("metrics.json"));
    run_ok(&format!(
        "r2 -i {input} --threads 7 --trace-out {trace} --profile=json --profile-out {report} -o {out}"
    ));
    // nothing dropped at the ring capacity, every begin ended, and the
    // layer shares tile workers × wall
    let rep = parse_json(&report);
    assert_eq!(field(&rep, &["timeline", "dropped"]).as_u64(), Some(0));
    assert_eq!(field(&rep, &["timeline", "open_spans"]).as_u64(), Some(0));
    let share_sum = field(&rep, &["timeline", "share_sum"])
        .as_f64()
        .expect("number");
    assert!((share_sum - 1.0).abs() <= 0.01, "share_sum {share_sum}");
    // and real spans are in it (`exporter_golden.rs` pins every field of
    // the Perfetto encoding byte for byte)
    let timeline = String::from_utf8(read(&trace)).expect("UTF-8");
    assert!(timeline.starts_with("{\"traceEvents\":["), "{timeline:.80}");
    assert!(
        timeline.contains("\"ph\":\"X\""),
        "no complete span recorded"
    );
}

#[test]
fn tuned_profile_is_loaded_by_the_next_run_and_changes_no_byte() {
    let dir = Scratch::new("proc_tune");
    let profile = dir.path("cpu/profile.json");
    let with_profile = |line: &str| {
        let mut cmd = gemm_ld(line);
        cmd.env_remove("LD_NO_CPU_PROFILE")
            .env("LD_CPU_PROFILE", &profile);
        cmd
    };
    let tuned = run_for(with_profile("tune --quick --threads 2"), 60);
    assert_eq!(tuned.code, Some(0), "{}", tuned.stderr);
    assert_eq!(
        tuned.stdout.lines().nth(1),
        Some(format!("wrote tuned profile to {profile}").as_str())
    );
    let slab = field(&parse_json(&profile), &["payload", "tuned", "slab_rows"]).as_u64();
    let slab = slab.expect("slab_rows");

    const N: u64 = 250;
    let (input, metrics) = (dir.path("d.ms"), dir.path("metrics.json"));
    simulate(&input, 300, N as usize, 13);
    let (on, off) = (dir.path("on.tsv"), dir.path("off.tsv"));
    let flags = format!("--profile=json --profile-out {metrics} -o {on}");
    let line = format!("r2 -i {input} --threads 2 {flags}");
    let loaded = run_for(with_profile(&line), 60);
    assert_eq!(loaded.code, Some(0), "{}", loaded.stderr);
    assert!(
        !loaded.stderr.contains("ignoring CPU profile"),
        "the freshly tuned profile was rejected on load:\n{}",
        loaded.stderr
    );
    // the profile's slab height is the one the run used
    let emitted = field(&parse_json(&metrics), &["counters", "slabs_emitted"]).as_u64();
    assert_eq!(emitted, Some(N.div_ceil(slab)), "slab_rows = {slab}");
    // tuning moves scheduling and blocking only
    run_ok(&format!("r2 -i {input} --threads 2 -o {off}"));
    assert!(read(&on) == read(&off), "tuned and default tables differ");
    // the banded commands run the same engine: the profile reaches them
    // (a damaged one is reported) and moves no byte of their output
    let damaged = dir.path("cpu/damaged.json");
    std::fs::write(&damaged, "{").expect("write");
    for line in [
        format!("decay -i {input} --max-dist 40 --bin 4"),
        format!("blocks -i {input} --threshold 0.7"),
    ] {
        let tuned = run_for(with_profile(&line), 60);
        assert_eq!(tuned.code, Some(0), "{line}: {}", tuned.stderr);
        assert!(tuned.stdout.lines().count() > 1, "{line}: no rows");
        assert_eq!(tuned.stdout, run_ok(&line).stdout, "{line}");
        let mut cmd = with_profile(&line);
        cmd.env("LD_CPU_PROFILE", &damaged);
        let warned = run_for(cmd, 60);
        let warnings = warned.stderr.matches("ignoring CPU profile").count();
        assert_eq!(warnings, 1, "{line}: {}", warned.stderr);
        assert_eq!(warned.stdout, tuned.stdout, "{line}");
    }
}

#[test]
fn incomplete_shard_set_exits_3_with_a_gap_report_and_writes_nothing() {
    let dir = Scratch::new("proc_gap");
    let (input, out) = (dir.path("d.ms"), dir.path("gap.tsv"));
    simulate(&input, 100, 120, 11);
    let (s1, s2) = (dir.path("s1.bin"), dir.path("s2.bin"));
    for (shard, to) in [("1/4", &s1), ("2/4", &s2)] {
        run_ok(&format!(
            "r2 -i {input} --threads 2 --slab-rows 8 --shard {shard} -o {to}"
        ));
    }
    let done = run(&format!("merge {s1} {s2} --shards 4 -o {out}"));
    assert_eq!(done.code, Some(3), "{}", done.stderr);
    assert_eq!(
        done.stderr,
        "gap report: re-run shard 3/4 (slabs 6..9), then merge again\n\
         gap report: re-run shard 4/4 (slabs 9..15), then merge again\n\
         error: incomplete shard set: missing 9 of 15 slab(s) (slab spans 6..15); \
         re-run the shards covering these spans, then merge again\n"
    );
    assert!(!exists(&out), "a partial panel");
}

#[test]
fn supervisor_retries_a_sigkilled_shard_to_an_identical_panel() {
    let dir = Scratch::new("proc_supervisor");
    let input = dir.path("d.ms");
    simulate(&input, 300, 800, 17);
    let (one, sup, work) = (dir.path("one.tsv"), dir.path("sup.tsv"), dir.path("work"));
    run_ok(&format!("r2 -i {input} --threads 2 --min-r2 0 -o {one}"));
    // the supervisor's own harness SIGKILLs shard 1's first attempt
    let done = run(&format!(
        "run-sharded -i {input} -o {sup} --shards 2 --threads 2 --min-r2 0 \
         --retries 2 --backoff-ms 50 --fault-kill 1 --work-dir {work}"
    ));
    assert_eq!(done.code, Some(0), "{}", done.stderr);
    let manifest = format!("{work}/manifest.json");
    assert_eq!(
        done.last_line(),
        format!("run-sharded complete: 2 shard(s) merged into {sup} (manifest {manifest})")
    );
    assert!(read(&one) == read(&sup), "sharded panel differs");

    let doc = parse_json(&manifest);
    assert_eq!(field(&doc, &["interrupted"]).as_bool(), Some(false));
    let states = field(&doc, &["shard_states"]).as_array().expect("array");
    assert_eq!(states.len(), 2);
    for s in states {
        assert_eq!(field(s, &["state"]).as_str(), Some("done"), "{s:?}");
    }
    let first = &states[0];
    let classes = field(first, &["classifications"]).as_array();
    let classes: Vec<_> = classes.expect("array").iter().map(Json::as_str).collect();
    assert_eq!(classes.first(), Some(&Some("crash")), "the fault missed");
    assert_eq!(classes.last(), Some(&Some("success")));
    assert!(field(first, &["attempts"]).as_u64() >= Some(2), "{first:?}");
}

#[test]
fn damaged_chunk_exits_3_naming_the_chunk() {
    damaged_chunk_run("proc_chunk", "");
}

/// The resident arm (a budget that holds the whole store) reads every
/// chunk once, up front: the damaged chunk is the same typed exit, with
/// the same last line, before any table exists.
#[test]
fn damaged_chunk_exits_3_naming_the_chunk_when_resident() {
    damaged_chunk_run("proc_chunk_resident", "--memory-budget-mb 64");
}

/// `r2 --store {store} --threads 2 {flags} -o …` over a store whose chunk
/// 2 has one flipped byte: exit 3, the CRC line naming chunk and file as
/// the last line on stderr, and no partial table.
fn damaged_chunk_run(tag: &str, flags: &str) {
    let dir = Scratch::new(tag);
    let (input, store, out) = (dir.path("d.ms"), dir.path("store"), dir.path("bad.tsv"));
    simulate(&input, 100, 120, 11);
    run_ok(&format!(
        "import -i {input} --store {store} --chunk-snps 16"
    ));
    let chunk = format!("{store}/chunk_000002.bin");
    let mut bytes = read(&chunk);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xAA;
    std::fs::write(&chunk, &bytes).expect("damage the chunk");
    // the trailer is the CRC-32 of everything before it
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = json::crc32(body);

    let done = run(&format!("r2 --store {store} --threads 2 {flags} -o {out}"));
    assert_eq!(done.code, Some(3), "{}", done.stderr);
    assert_eq!(
        done.last_line(),
        format!(
            "error: tile store error: chunk 2: CRC-32 mismatch (stored {stored:#010x}, \
             computed {computed:#010x}) (file {chunk})"
        )
    );
    assert!(!exists(&out), "a partial table");
}

/// A budget that holds the whole store reads each chunk exactly once, as
/// the run report's counters show: `chunks_read` is the store's chunk
/// count and `store_bytes_read` the bytes of its chunk files. The table is
/// the unbudgeted (streamed) run's, byte for byte.
#[test]
fn resident_store_run_reads_each_chunk_once() {
    let dir = Scratch::new("proc_resident");
    let (input, store) = (dir.path("d.ms"), dir.path("store"));
    let (report, resident, streamed) = (dir.path("p.json"), dir.path("r.tsv"), dir.path("s.tsv"));
    simulate(&input, 300, 200, 5);
    run_ok(&format!(
        "import -i {input} --store {store} --chunk-snps 24"
    ));
    run_ok(&format!(
        "r2 --store {store} --threads 2 --memory-budget-mb 64 --profile=json \
         --profile-out {report} -o {resident}"
    ));
    let rep = parse_json(&report);
    let n_chunks = 200u64.div_ceil(24);
    assert_eq!(
        field(&rep, &["counters", "chunks_read"]).as_u64(),
        Some(n_chunks)
    );
    let files: u64 = (0..n_chunks)
        .map(|c| read(format!("{store}/chunk_{c:06}.bin")).len() as u64)
        .sum();
    assert_eq!(
        field(&rep, &["counters", "store_bytes_read"]).as_u64(),
        Some(files)
    );
    run_ok(&format!("r2 --store {store} --threads 2 -o {streamed}"));
    assert_eq!(read(&resident), read(&streamed));
}

/// The stdout listing — streamed by `r2`, read off a finished matrix by
/// `r2 --checkpoint` and `merge` — is the parent's `collect` + stable sort
/// cut at 20, byte for byte, whatever finishes first. The panel carries
/// one SNP eight times: 28 pairs at r² = 1 exactly, more than are printed,
/// so the order among equals decides which appear. Whichever plan the
/// engine picks prints it: `-i` on the staircase and on the dense grid (a
/// threshold at which the staircase holds most pairs), a store read once
/// and a store read in windows — each shown by its counters.
#[test]
fn top_pairs_listing_is_the_stable_sort_from_every_arm() {
    let dir = Scratch::new("proc_listing");
    let (sim, input, store) = (dir.path("sim.txt"), dir.path("d.txt"), dir.path("store"));
    simulate(&sim, 64, 150, 23);
    let mut g = ld_io::text::read_matrix(&read(&sim)[..]).expect("simulated panel");
    let copies = [3, 17, 18, 40, 77, 78, 120, 149];
    for s in 0..g.n_samples() {
        // polymorphic whatever the simulator drew
        let allele = s % 3 == 0;
        copies.iter().for_each(|&j| g.set(s, j, allele));
    }
    let mut txt = Vec::new();
    ld_io::text::write_matrix(&mut txt, &g).expect("in-memory write");
    std::fs::write(&input, txt).expect("write the panel");
    run_ok(&format!(
        "import -i {input} --store {store} --chunk-snps 16"
    ));

    // the reference, kept as the parent wrote it
    let engine = ld_core::LdEngine::new().nan_policy(ld_core::NanPolicy::Zero);
    let m = engine
        .try_stat_matrix(&g, ld_core::LdStats::RSquared)
        .expect("reference matrix");
    let listing = |min_r2: f64| {
        let mut kept: Vec<(usize, usize, f64)> = m
            .iter_pairs()
            .filter(|&(_, _, v)| !v.is_nan() && v >= min_r2)
            .collect();
        kept.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut out = format!("top pairs (threshold {min_r2}):\n");
        for (i, j, v) in kept.into_iter().take(20) {
            out += &format!("  snp{i:<6} snp{j:<6} {v:.4}\n");
        }
        out
    };
    let ones = m.iter_pairs().filter(|p| p.2 == 1.0).count();
    assert!(ones >= 28, "{ones} pairs at r2 = 1");
    assert_eq!(listing(0.0).matches(" 1.0000\n").count(), 20);

    let (s1, s2, ckpt) = (dir.path("s1.bin"), dir.path("s2.bin"), dir.path("ckpt"));
    let thresholds = [(0.0, ""), (0.9, "--min-r2 0.9"), (0.01, "--min-r2 0.01")];
    let sources = [
        format!("-i {input}"),
        format!("--store {store}"),
        format!("--store {store} --memory-budget-mb 64"),
    ];
    for (min_r2, flag) in thresholds {
        let want = listing(min_r2);
        for source in &sources {
            for threads in [1, 2, 7] {
                let line = format!("r2 {source} --threads {threads} --slab-rows 8 {flag}");
                assert_eq!(run_ok(&line).stdout, want, "{line}");
            }
            // the arms that hold a finished matrix
            let line = format!("r2 {source} --threads 2 --checkpoint {ckpt} {flag}");
            assert_eq!(run_ok(&line).stdout, want, "{line}");
            for (shard, to) in [("1/2", &s1), ("2/2", &s2)] {
                run_ok(&format!("r2 {source} --shard {shard} -o {to}"));
            }
            let line = format!("merge {s1} {s2} {flag}");
            assert_eq!(run_ok(&line).stdout, want, "{line}");
        }
    }
    // which plan printed it: (pairs_transformed, chunks_read) at 2 threads
    let report = dir.path("p.json");
    let plan = |line: &str| {
        let line =
            format!("{line} --threads 2 --slab-rows 8 --profile=json --profile-out {report}");
        run_ok(&line);
        let doc = parse_json(&report);
        let count = |name| field(&doc, &["counters", name]).as_u64().expect("a count");
        (count("pairs_transformed"), count("chunks_read"))
    };
    let (all, chunks) = (150 * 151 / 2, 150u64.div_ceil(16));
    let (stair, _) = plan(&format!("r2 -i {input} --min-r2 0.9"));
    assert!(
        stair < all,
        "-i at 0.9: {stair} of {all} values, not the staircase"
    );
    assert_eq!(
        plan(&format!("r2 -i {input} --min-r2 0.01")),
        (all, 0),
        "-i dense"
    );
    let once = format!("r2 {} --min-r2 0.9", sources[2]);
    assert_eq!(
        plan(&once),
        (stair, chunks),
        "{once}: one read, the staircase"
    );
    let (values, reads) = plan(&format!("r2 {} --min-r2 0.9", sources[1]));
    assert!(
        values == all && reads > chunks,
        "windows: {values} values, {reads} reads"
    );

    // a budget the triangle does not fit changes no byte of the listing
    let (big, big_store) = (dir.path("big.ms"), dir.path("big_store"));
    simulate(&big, 128, 600, 5);
    run_ok(&format!(
        "import -i {big} --store {big_store} --chunk-snps 64"
    ));
    let want = run_ok(&format!("r2 -i {big} --min-r2 0.8")).stdout;
    assert!(want.lines().count() > 1, "nothing above 0.8:\n{want}");
    for source in [format!("-i {big}"), format!("--store {big_store}")] {
        let line = format!("r2 {source} --memory-budget-mb 1 --min-r2 0.8");
        assert_eq!(run_ok(&line).stdout, want, "{line}");
    }
}

/// `omega` and `prune` read their windows off one banded run of the
/// driver; what they print is, byte for byte, what one `r²` matrix per
/// window gave — rebuilt here from the library, window by window, with the
/// commands' own format strings.
#[test]
fn omega_and_prune_print_the_bytes_of_the_per_window_computation() {
    let dir = Scratch::new("proc_windows");
    let input = dir.path("d.txt");
    simulate(&input, 400, 3000, 42);
    let g = ld_io::text::read_matrix(&read(&input)[..]).expect("simulated panel");
    let n = g.n_snps();
    let engine = ld_core::LdEngine::new().nan_policy(ld_core::NanPolicy::Zero);

    // omega --window 50 --step 10; the scanner's default keeps window / 10
    // SNPs on each side of a split
    let (window, step, min_region) = (50, 10, 5);
    let mut want = String::from("window_start\twindow_end\tbest_split\tomega\n");
    let mut start = 0;
    loop {
        let r2 = engine
            .try_stat_matrix(g.view(start, start + window), ld_core::LdStats::RSquared)
            .expect("LD matrix");
        let sums = ld_omega::WindowSums::new(&r2);
        let mut best = (0.0f64, min_region);
        for l in min_region..=window - min_region {
            let w = sums.omega_at(l);
            if w > best.0 {
                best = (w, l);
            }
        }
        let (end, split) = (start + window, start + best.1);
        want += &format!("{start}\t{end}\t{split}\t{:.4}\n", best.0);
        if end == n {
            break;
        }
        start = (start + step).min(n - window);
    }
    assert_eq!(want.lines().count(), 297);
    for threads in [1, 2, 7] {
        let line = format!("omega -i {input} --window 50 --step 10 --threads {threads}");
        assert_eq!(run_ok(&line).stdout, want, "{line}");
    }

    // prune --window 100 --step 7 --threshold 0.2: the windowed greedy.
    // (`prune` has no --threads: its team is the machine's, and the fold's
    // thread-invariance is `ld_core::prune`'s suite.)
    let (window, step, threshold) = (100, 7, 0.2);
    let mut keep = vec![true; n];
    let mut start = 0;
    loop {
        let end = (start + window).min(n);
        let r2 = engine
            .try_stat_matrix(g.view(start, end), ld_core::LdStats::RSquared)
            .expect("LD matrix");
        for i in 0..end - start {
            for j in i + 1..end - start {
                if keep[start + i] && keep[start + j] && r2.get(i, j) > threshold {
                    keep[start + j] = false;
                }
            }
        }
        if end == n {
            break;
        }
        start += step;
    }
    let want: String = (0..n)
        .filter(|&i| keep[i])
        .map(|i| format!("snp{i}\n"))
        .collect();
    let kept = want.lines().count();
    assert!(kept > 1000 && kept < 2900, "{kept} kept");
    let line = format!("prune -i {input} --window 100 --step 7 --threshold 0.2");
    let done = run_ok(&line);
    assert_eq!(done.stdout, want, "{line}");
    assert_eq!(
        done.stderr,
        format!("kept {kept}/{n} SNPs at r² <= 0.2 (window 100, step 7)\n")
    );
    let out = dir.path("kept.txt");
    assert_eq!(run_ok(&format!("{line} -o {out}")).stdout, "");
    assert!(read(&out) == want.as_bytes(), "prune -o differs");
}

/// A batch command whose stdout reader leaves after a few bytes
/// (`gemm-ld … | head -c 10`) ends quietly — no panic on the broken pipe,
/// no exit 101.
#[test]
fn a_reader_that_leaves_early_ends_the_command_quietly() {
    use std::io::Read;
    let dir = Scratch::new("proc_sigpipe");
    let (fp, ms) = (dir.path("fp.txt"), dir.path("d.ms"));
    simulate(&fp, 256, 3000, 7);
    simulate(&ms, 200, 3000, 8);
    for line in [
        format!("tanimoto -i {fp} --top-k 5"),
        format!("omega -i {ms} --window 10 --step 1"),
    ] {
        let mut child = gemm_ld(&line)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("gemm-ld spawns");
        let mut head = [0u8; 10];
        let mut stdout = child.stdout.take().expect("stdout piped");
        stdout.read_exact(&mut head).expect("the first bytes");
        drop(stdout);
        let done = finish(child, &line, WATCHDOG_S);
        assert_ne!(done.code, Some(101), "{line}:\n{}", done.stderr);
        assert!(
            !done.stderr.contains("panicked"),
            "{line}:\n{}",
            done.stderr
        );
    }
}

/// `tanimoto` reads the symmetric half (SYRK) where it used to compute
/// the full square: the neighbour lists are the ones the square gave —
/// most similar first, equals by ascending compound — on a set where
/// copies tie at 1 more often than `--top-k` lines are printed.
#[test]
fn tanimoto_neighbours_keep_the_stable_order_among_ties() {
    let dir = Scratch::new("proc_tanimoto");
    let input = dir.path("fp.txt");
    // 14 compounds over 5 patterns: copies tie at 1, and the patterns
    // overlap each other in equal measure
    let mut fp = ld_bitmat::BitMatrix::zeros(60, 14);
    for j in 0..14 {
        let pattern = j % 5;
        (0..60)
            .filter(|bit| bit % 5 == pattern || bit % 3 == pattern % 3)
            .for_each(|bit| fp.set(bit, j, true));
    }
    let mut txt = Vec::new();
    ld_io::text::write_matrix(&mut txt, &fp).expect("in-memory write");
    std::fs::write(&input, txt).expect("write the fingerprints");

    let v = fp.full_view();
    let k = 4;
    let mut want = String::from("compound\tneighbors (tanimoto)\n");
    for i in 0..14 {
        // as the square form listed them: every compound, the query
        // included, stably sorted, cut at k + 1, the query removed
        let mut row: Vec<(usize, f64)> = (0..14)
            .map(|j| (j, ld_ext::tanimoto::tanimoto_pair(&v, i, j)))
            .collect();
        row.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        row.truncate(k + 1);
        let line: Vec<String> = row
            .iter()
            .filter(|(j, _)| *j != i)
            .take(k)
            .map(|(j, s)| format!("{j}:{s:.3}"))
            .collect();
        want += &format!("{i}\t{}\n", line.join(" "));
    }
    assert!(want.matches(":1.000").count() >= 14, "no ties:\n{want}");
    for threads in [1, 2, 7] {
        let line = format!("tanimoto -i {input} --top-k {k} --threads {threads}");
        assert_eq!(run_ok(&line).stdout, want, "{line}");
    }
}

/// A thresholded `r2` from memory computes only its frequency-sorted
/// staircase; `--checkpoint` keeps the dense grid of the whole triangle.
/// The listing and the `-o` table of the two are the same bytes — from an
/// `.ms` and a `.txt` panel with monomorphic and all-carrier sites, at
/// thresholds 0.2 to 1 and 1/2/7 threads — and the profile shows which
/// ran: fewer values transformed than the triangle holds on the staircase,
/// all of them under `--stat d`, which keeps the dense grid.
#[test]
fn staircase_run_prints_and_writes_the_bytes_of_the_dense_grid() {
    let dir = Scratch::new("proc_staircase");
    let (ms, sim, txt) = (dir.path("d.ms"), dir.path("sim.txt"), dir.path("m.txt"));
    let (ckpt, a, b, prof) = (
        dir.path("ckpt"),
        dir.path("a.tsv"),
        dir.path("b.tsv"),
        dir.path("p.json"),
    );
    let n = 240usize;
    simulate(&ms, 160, n, 31);
    simulate(&sim, 96, n, 32);
    let mut g = ld_io::text::read_matrix(&read(&sim)[..]).expect("simulated panel");
    for s in 0..g.n_samples() {
        for j in [0, 7, 8, 100] {
            g.set(s, j, false);
        }
        g.set(s, 150, true);
    }
    let mut bytes = Vec::new();
    ld_io::text::write_matrix(&mut bytes, &g).expect("in-memory write");
    std::fs::write(&txt, bytes).expect("write the panel");
    let transformed = |line: &str| {
        run_ok(&format!("{line} --profile=json --profile-out {prof}"));
        let doc = parse_json(&prof);
        field(&doc, &["counters", "pairs_transformed"])
            .as_u64()
            .expect("a count") as usize
    };
    let all = n * (n + 1) / 2;
    for input in [&ms, &txt] {
        for min_r2 in ["0.2", "0.5", "0.8", "1.0"] {
            for threads in [1, 2, 7] {
                let line = format!("r2 -i {input} --min-r2 {min_r2} --threads {threads}");
                let dense = format!("{line} --checkpoint {ckpt}");
                assert_eq!(run_ok(&line).stdout, run_ok(&dense).stdout, "{line}");
                run_ok(&format!("{line} -o {a}"));
                run_ok(&format!("{dense} -o {b}"));
                assert!(read(&a) == read(&b), "{line} -o");
            }
            let line = format!("r2 -i {input} --min-r2 {min_r2}");
            let stair = transformed(&line);
            assert!(
                stair < all,
                "{line}: {stair} of {all} values: no staircase ran"
            );
        }
        let line = format!("r2 -i {input} --stat d --min-r2 0.2");
        run_ok(&format!("{line} -o {a}"));
        run_ok(&format!("{line} --checkpoint {ckpt} -o {b}"));
        assert!(read(&a) == read(&b), "{line} -o");
        assert_eq!(transformed(&line), all, "{line} must stay unpruned");
    }
}

/// A budget prices a staircase run at one bit per pair it computes, not
/// at the pairs it keeps: under a 1 MiB budget the listing and the `-o`
/// table (here ~1.9 MB of pairs as a list) both take the staircase (the
/// unbudgeted run's `pairs_transformed`), and print and write the
/// unbudgeted run's bytes.
#[test]
fn budgeted_listing_keeps_the_staircase() {
    let dir = Scratch::new("proc_stair_budget");
    let (ms, prof, a, b) = (
        dir.path("d.ms"),
        dir.path("p.json"),
        dir.path("a.tsv"),
        dir.path("b.tsv"),
    );
    let n = 1200usize;
    simulate(&ms, 256, n, 33);
    let run_counted = |line: &str| {
        let done = run_ok(&format!("{line} --profile=json --profile-out {prof}"));
        let doc = parse_json(&prof);
        let count = field(&doc, &["counters", "pairs_transformed"]).as_u64();
        (done.stdout, count.expect("a count") as usize)
    };
    let line = format!("r2 -i {ms} --min-r2 0.8 --threads 2");
    let (listing, stair) = run_counted(&line);
    assert!(
        stair < n * (n + 1) / 2 / 2,
        "{stair} values: no staircase ran"
    );
    let (budgeted, got) = run_counted(&format!("{line} --memory-budget-mb 1"));
    assert_eq!(got, stair, "the budgeted listing left the staircase");
    assert_eq!(budgeted, listing);
    run_ok(&format!("{line} -o {a}"));
    let (_, got) = run_counted(&format!("{line} --memory-budget-mb 1 -o {b}"));
    assert_eq!(got, stair, "the 1 MiB table keeps the staircase");
    assert!(read(&a) == read(&b), "-o under the budget");
}

/// A thresholded `r2 --store` run whose budget holds the store's one
/// window reads every chunk once into memory and takes the staircase
/// there: `chunks_read` is the store's chunk count and `pairs_transformed`
/// the memory staircase's. Below the one-window price (the largest whole
/// MiB under it) the run reads row windows, re-reading chunks, and keeps
/// the dense grid, as it does with no budget. Every listing and `-o`
/// table — at thresholds 0.2 to 1, threads 1/2/7, on a panel with
/// monomorphic and all-carrier sites — is the bytes of `r2 -i` on the
/// same panel and of `--checkpoint` (the packed triangle).
#[test]
fn store_staircase_prints_and_writes_the_bytes_of_memory() {
    let dir = Scratch::new("proc_store_stair");
    let (sim, txt, store) = (dir.path("sim.txt"), dir.path("m.txt"), dir.path("store"));
    let (ckpt, a, b, prof) = (
        dir.path("ckpt"),
        dir.path("a.tsv"),
        dir.path("b.tsv"),
        dir.path("p.json"),
    );
    let (n, samples, chunk) = (600usize, 8192usize, 30usize);
    simulate(&sim, samples, n, 34);
    let mut g = ld_io::text::read_matrix(&read(&sim)[..]).expect("simulated panel");
    for s in 0..g.n_samples() {
        for j in [0, 13, 14, 250] {
            g.set(s, j, false);
        }
        g.set(s, 120, true);
    }
    let mut bytes = Vec::new();
    ld_io::text::write_matrix(&mut bytes, &g).expect("in-memory write");
    std::fs::write(&txt, bytes).expect("write the panel");
    run_ok(&format!(
        "import -i {txt} --store {store} --chunk-snps {chunk}"
    ));
    let n_chunks = n.div_ceil(chunk) as u64;
    let counted = |line: &str| {
        run_ok(&format!("{line} --profile=json --profile-out {prof}"));
        let doc = parse_json(&prof);
        let count = |name| field(&doc, &["counters", name]).as_u64().expect("a count");
        (count("pairs_transformed"), count("chunks_read"))
    };
    // the one-window price of the dense row sink at the default 64-row
    // slab: tables, one chunk load, the panel, and per worker a slab of
    // u32 counts and f64 values
    let chunk_load = read(format!("{store}/chunk_000000.bin")).len();
    let one_window = |threads: usize| 20 * n + chunk_load + n * samples / 8 + threads * 64 * n * 12;
    let all = (n * (n + 1) / 2) as u64;
    for min_r2 in ["0.2", "0.5", "0.8", "1.0"] {
        let memory = format!("r2 -i {txt} --min-r2 {min_r2}");
        let (stair, _) = counted(&memory);
        assert!(stair < all, "{memory}: no staircase ran");
        let listing = run_ok(&memory).stdout;
        run_ok(&format!("{memory} -o {a}"));
        let table = read(&a);
        let dense = format!("r2 --store {store} --min-r2 {min_r2} --checkpoint {ckpt}");
        assert_eq!(run_ok(&dense).stdout, listing, "{dense}");
        run_ok(&format!("{dense} -o {b}"));
        assert!(read(&b) == table, "{dense} -o");
        for threads in [1, 2, 7] {
            let below = (one_window(threads) - 1) >> 20;
            assert!(
                below >= 1,
                "t{threads}: the one window must cost over 1 MiB"
            );
            let budgets = [
                "",
                &format!("--memory-budget-mb {below}"),
                "--memory-budget-mb 64",
            ];
            for budget in budgets {
                let line =
                    format!("r2 --store {store} --min-r2 {min_r2} --threads {threads} {budget}");
                assert_eq!(run_ok(&line).stdout, listing, "{line}");
                let got = counted(&format!("{line} -o {b}"));
                assert!(read(&b) == table, "{line} -o");
                match budget {
                    "--memory-budget-mb 64" => {
                        assert_eq!(got, (stair, n_chunks), "{line}: one read, the staircase")
                    }
                    "" => assert_eq!(got.0, all, "{line}: the dense grid"),
                    _ => {
                        assert_eq!(got.0, all, "{line}: the dense grid");
                        assert!(got.1 > n_chunks, "{line}: {} reads, not windows", got.1);
                    }
                }
            }
        }
    }
}

/// The staircase of `r² ≥ t` over the `.txt` panel at `path`, recomputed
/// from exact integer bounds: the pairs it computes, `Σ_s (e(s) − s − 1)`,
/// `e(s)` one past the last sorted column sorted row `s` reaches. No bound
/// may lie near the threshold, so the plan's margin decides nothing.
fn stair_pairs(path: &str, t: f64) -> u64 {
    let g = ld_io::text::read_matrix(&read(path)[..]).expect("a panel");
    let big_n = g.n_samples() as u64;
    let mut minor: Vec<u64> = (0..g.n_snps())
        .map(|j| g.ones_in_snp(j).min(big_n - g.ones_in_snp(j)))
        .collect();
    minor.sort_unstable();
    let mut pairs = 0;
    for (s, &a) in minor.iter().enumerate() {
        for &b in &minor[s + 1..] {
            let bound = match a {
                0 => 0.0,
                _ => (a * (big_n - b)) as f64 / (b * (big_n - a)) as f64,
            };
            assert!((bound - t).abs() > 1e-6, "a bound sits on the threshold");
            pairs += u64::from(bound >= t);
        }
    }
    pairs
}

/// `(pairs_transformed, chunks_read)` of `gemm-ld {line}` at threads 1, 2
/// and 7, from its `--profile=json` report — the plan the engine picked.
fn plan_counters(dir: &Scratch, line: &str) -> Vec<(u64, u64)> {
    let report = dir.path("plan.json");
    [1, 2, 7]
        .map(|threads| {
            run_ok(&format!(
                "{line} --threads {threads} --profile=json --profile-out {report}"
            ));
            let doc = parse_json(&report);
            let count = |name| field(&doc, &["counters", name]).as_u64().expect("a count");
            (count("pairs_transformed"), count("chunks_read"))
        })
        .to_vec()
}

/// The dense `-o` table (`r2_dense_pairs`' shape): every value of the
/// triangle, `n(n+1)/2`, and no chunk.
#[test]
fn plan_of_the_dense_table_is_the_whole_triangle() {
    let dir = Scratch::new("plan_dense");
    let (input, out) = (dir.path("a.txt"), dir.path("out.tsv"));
    let n = 200u64;
    simulate(&input, 256, n as usize, 41);
    let got = plan_counters(&dir, &format!("r2 -i {input} -o {out}"));
    assert_eq!(got, vec![(n * (n + 1) / 2, 0); 3]);
}

/// The deep thresholded `-o` table (`r2_deep_thresh`' shape): the
/// staircase's pairs, and no chunk.
#[test]
fn plan_of_the_deep_thresholded_table_is_the_staircase() {
    let dir = Scratch::new("plan_deep");
    let (input, out) = (dir.path("c.txt"), dir.path("out.tsv"));
    let n = 150u64;
    simulate(&input, 4096, n as usize, 42);
    let stair = stair_pairs(&input, 0.5);
    assert!(
        stair < n * (n - 1) / 2 * 6 / 10,
        "{stair}: the staircase must pay"
    );
    let got = plan_counters(&dir, &format!("r2 -i {input} -o {out} --min-r2 0.5"));
    assert_eq!(got, vec![(stair, 0); 3]);
}

/// The low-k listing (`r2_lowk_top`' shape, no `-o`): the staircase's
/// pairs, and no chunk.
#[test]
fn plan_of_the_low_k_listing_is_the_staircase() {
    let dir = Scratch::new("plan_lowk");
    let input = dir.path("l.txt");
    let n = 400u64;
    simulate(&input, 128, n as usize, 43);
    let stair = stair_pairs(&input, 0.8);
    assert!(
        stair < n * (n - 1) / 2 * 6 / 10,
        "{stair}: the staircase must pay"
    );
    let got = plan_counters(&dir, &format!("r2 -i {input} --min-r2 0.8"));
    assert_eq!(got, vec![(stair, 0); 3]);
}

/// A thresholded store run whose budget holds the store (`store_stream`'s
/// shape): one read per chunk, then the staircase's pairs on the panel.
#[test]
fn plan_of_a_store_the_budget_holds_is_one_read_and_the_staircase() {
    let dir = Scratch::new("plan_store");
    let (input, store, out) = (dir.path("s.txt"), dir.path("store"), dir.path("out.tsv"));
    let (n, chunk) = (300u64, 32u64);
    simulate(&input, 2048, n as usize, 44);
    run_ok(&format!(
        "import -i {input} --store {store} --chunk-snps {chunk}"
    ));
    let stair = stair_pairs(&input, 0.5);
    assert!(
        stair < n * (n - 1) / 2 * 6 / 10,
        "{stair}: the staircase must pay"
    );
    let line = format!("r2 --store {store} --memory-budget-mb 16 -o {out} --min-r2 0.5");
    let got = plan_counters(&dir, &line);
    assert_eq!(got, vec![(stair, n.div_ceil(chunk)); 3]);
}
