//! The usage contract through the shipped binary (DESIGN §6): a flag
//! value no run can use is exit 2 with exactly one `error:` line, decided
//! before any input is read or child spawned — never a panic, a hang, or
//! a full computation that then keeps nothing.
//!
//! Every child runs under the 10 s watchdog of `common::run`, so the
//! `prune --step 0` loop this file was written against fails here instead
//! of stalling the suite.

mod common;

use common::{exists, gemm_ld, run, run_for, run_ok, simulate, Scratch, WATCHDOG_S};

/// `command line => the one stderr line`. Inputs are named but absent: a
/// command that opened its input first would exit 4 instead.
const REJECTED: &str = "\
decay -i absent.ms --max-dist 0 => --max-dist must be at least 1, got 0
decay -i absent.ms --max-dist -1 => invalid value '-1' for --max-dist
omega -i absent.ms --window 0 => --window must be at least 4, got 0
omega -i absent.ms --window 3 => --window must be at least 4, got 3
omega -i absent.ms --step 0 => --step must be at least 1, got 0
prune -i absent.ms --window 5 --step 0 => --step must be at least 1, got 0
prune -i absent.ms --window 1 => --window must be at least 2, got 1
prune -i absent.ms --threshold nan => invalid value 'nan' for --threshold (not a number)
blocks -i absent.ms --threshold nan => invalid value 'nan' for --threshold (not a number)
r2 -i absent.ms --min-r2 nan => invalid value 'nan' for --min-r2 (not a number)
r2 --store absent.store --min-r2 NaN => invalid value 'NaN' for --min-r2 (not a number)
merge absent.bin --min-r2 nan => invalid value 'nan' for --min-r2 (not a number)
run-sharded -i absent.ms -o absent.tsv --min-r2 nan => invalid value 'nan' for --min-r2 (not a number)
run-sharded -i absent.ms -o absent.tsv --shards 0 => --shards must be at least 1, got 0
tune --quick --threads 0 --out tuned.json => --threads must be at least 1, got 0";

#[test]
fn unusable_flag_values_are_one_usage_error_before_any_input_is_read() {
    let dir = Scratch::new("usage_flags");
    for case in REJECTED.lines() {
        let (line, message) = case.split_once(" => ").expect("`line => message`");
        let mut cmd = gemm_ld(line);
        cmd.current_dir(dir.path(""));
        let done = run_for(cmd, WATCHDOG_S);
        assert_eq!(done.stderr, format!("error: {message}\n"), "{line}");
        assert_eq!(done.code, Some(2), "{line}");
        assert!(done.stdout.is_empty(), "{line} wrote to stdout");
    }
    let left: Vec<_> = std::fs::read_dir(dir.path("")).expect("scratch").collect();
    assert!(left.is_empty(), "a rejected command left files: {left:?}");
}

/// `prune`, `decay` and `blocks` run the engine on `--threads` workers like
/// every other engine command: a bad count is the usual usage error, and
/// the count moves no byte of the output.
#[test]
fn banded_commands_parse_threads_and_keep_their_output() {
    let dir = Scratch::new("usage_threads");
    let input = dir.path("d.ms");
    simulate(&input, 120, 200, 5);
    for command in ["prune", "decay", "blocks"] {
        let line = format!("{command} -i {input}");
        let bad = run(&format!("{line} --threads x"));
        assert_eq!(
            bad.stderr, "error: invalid value 'x' for --threads\n",
            "{command}"
        );
        assert_eq!(bad.code, Some(2), "{command}");
        assert!(bad.stdout.is_empty(), "{command} wrote to stdout");
        let default = run_ok(&line);
        assert!(default.stdout.lines().count() > 1, "{command}: no rows");
        let one = run_ok(&format!("{line} --threads 1"));
        assert_eq!(one.stdout, default.stdout, "{command} --threads 1");
    }
}

#[test]
fn more_shards_than_slabs_is_one_usage_error_and_no_child() {
    let dir = Scratch::new("usage_shards");
    let (input, out) = (dir.path("d.ms"), dir.path("o.tsv"));
    simulate(&input, 60, 40, 3);
    let done = run(&format!("run-sharded -i {input} -o {out} --shards 100"));
    assert_eq!(
        done.stderr,
        "error: invalid config: more shards than row slabs \
         (lower the shard count or the slab height)\n"
    );
    assert_eq!(done.code, Some(2));
    // planned in the parent: no shard was launched, so there is no work
    // directory with per-shard logs and no manifest
    assert!(!exists(&format!("{out}.shards")) && !exists(&out));
}

#[test]
fn tanimoto_of_no_compounds_is_a_header_and_exit_0() {
    let dir = Scratch::new("usage_tanimoto");
    let input = dir.path("empty.txt");
    std::fs::write(&input, "").expect("write empty matrix");
    let done = run_ok(&format!("tanimoto -i {input}"));
    assert_eq!(done.stdout, "compound\tneighbors (tanimoto)\n");
    assert_eq!(done.stderr, "");
}
