//! Fault-injection harness for the panic-free boundary.
//!
//! Three failure modes are injected deliberately and must each surface as
//! a typed [`LdError`] — never a panic, abort, or hang:
//!
//! 1. **Allocation failure.** A counting global allocator refuses the
//!    N-th allocation *inside a fallible scope*
//!    ([`ld_core::error::fault::in_fallible_alloc`]), for every N, so
//!    every `try_reserve` site in the pipeline gets exercised.
//! 2. **Worker panic.** [`ld_core::error::fault::arm_kernel_panic`]
//!    makes the fused workers panic mid-scan; the team must drain and
//!    return [`LdError::Worker`] with the payload message preserved.
//! 3. **Memory pressure.** A tight [`MemoryBudget`] forces the slab to
//!    shrink; the result must stay bit-exact against the two-pass oracle,
//!    and an impossible budget must come back as `BudgetExceeded`.
//!
//! Both sources of the slab driver are covered: every injection runs over
//! the in-memory matrix and over a [`MemoryTileStore`] of the same data.
//!
//! This file is its own integration-test binary so the `#[global_allocator]`
//! hook sees only this test's traffic. The fault state is process-global,
//! so **every** test that runs an engine holds one mutex — an unlocked
//! engine run would otherwise trip over a sibling's armed panic or
//! allocation failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ld_bitmat::BitMatrix;
use ld_core::error::fault;
use ld_core::{
    CheckpointPlan, CheckpointSink, LdEngine, LdError, LdStats, MemoryBudget, MemoryTileStore,
    RunControl, Source,
};
use ld_rng::SmallRng;

/// Fails the `FAIL_AT`-th fallible allocation (1-based) on any thread
/// currently inside a fallible scope. `0` disarms. Infallible allocations
/// (Vec growth in kernels, test bookkeeping, ...) always succeed — failing
/// those would abort the process, which is exactly what the fallible API
/// exists to avoid.
struct InjectingAlloc;

static FAIL_AT: AtomicUsize = AtomicUsize::new(0);
static FALLIBLE_SEEN: AtomicUsize = AtomicUsize::new(0);

impl InjectingAlloc {
    fn should_fail() -> bool {
        if !fault::in_fallible_alloc() {
            return false;
        }
        let target = FAIL_AT.load(Ordering::Relaxed);
        if target == 0 {
            return false;
        }
        FALLIBLE_SEEN.fetch_add(1, Ordering::Relaxed) + 1 == target
    }
}

unsafe impl GlobalAlloc for InjectingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: InjectingAlloc = InjectingAlloc;

/// Serializes tests that arm — or could observe — process-global fault
/// state.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn arm_alloc_failure(nth: usize) {
    FALLIBLE_SEEN.store(0, Ordering::Relaxed);
    FAIL_AT.store(nth, Ordering::Relaxed);
}

fn disarm_alloc_failure() {
    FAIL_AT.store(0, Ordering::Relaxed);
}

fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.next_u64().is_multiple_of(3) {
                g.set(s, j, true);
            }
        }
        // keep every SNP polymorphic so r² is finite everywhere
        g.set(j % n_samples, j, true);
        g.set((j + 1) % n_samples, j, false);
    }
    g
}

fn bits(m: &ld_core::LdMatrix) -> Vec<u64> {
    m.packed().iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// 1. Allocation failure at every fallible site
// ---------------------------------------------------------------------

#[test]
fn every_fallible_allocation_site_fails_cleanly() {
    let _guard = lock_faults();
    let g = random_matrix(96, 48, 0xfa01);
    let store = MemoryTileStore::from_matrix(&g, 10).expect("import");
    let engine = LdEngine::new().threads(2).slab_rows(8);
    let ctl = RunControl::new();
    type Run<'a> = &'a dyn Fn() -> Result<Vec<u64>, LdError>;
    // slab order is unspecified under threading: compare as a multiset
    let collect = |s: &ld_core::RowSlabVisit<'_>, out: &mut Vec<u64>| {
        for (_, row) in s.rows() {
            out.extend(row.iter().map(|v| v.to_bits()));
        }
        out.sort_unstable();
    };
    let entry_points: [(&str, Run<'_>); 4] = [
        ("memory matrix", &|| {
            engine
                .try_stat_matrix(&g, LdStats::RSquared)
                .map(|m| bits(&m))
        }),
        ("store matrix", &|| {
            engine
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                .map(|m| bits(&m))
        }),
        ("memory rows", &|| {
            let out = Mutex::new(Vec::new());
            let visit = |s: &ld_core::RowSlabVisit<'_>| collect(s, &mut out.lock().unwrap());
            engine.try_stat_rows_with(&g, LdStats::RSquared, visit, &ctl)?;
            Ok(out.into_inner().unwrap())
        }),
        ("store rows", &|| {
            let out = Mutex::new(Vec::new());
            let visit = |s: &ld_core::RowSlabVisit<'_>| collect(s, &mut out.lock().unwrap());
            engine.try_stat_rows_outofcore_with(&store, LdStats::RSquared, visit, &ctl)?;
            Ok(out.into_inner().unwrap())
        }),
    ];
    for (what, run) in entry_points {
        let mut failures = 0usize;
        let mut completed = false;
        for nth in 1..=64 {
            arm_alloc_failure(nth);
            let result = run();
            disarm_alloc_failure();
            match result {
                Err(LdError::AllocationFailed { bytes, .. }) => {
                    assert!(
                        bytes > 0,
                        "{what}: failure should report the requested size"
                    );
                    failures += 1;
                }
                Err(other) => panic!("{what}: expected AllocationFailed, got: {other}"),
                Ok(got) => {
                    // nth exceeded the number of fallible allocations in one
                    // run: the pipeline completed untouched. Its output must
                    // match an uninjected run exactly.
                    assert_eq!(got, run().expect("uninjected run"), "{what}");
                    completed = true;
                    break;
                }
            }
        }
        assert!(
            failures >= 3,
            "{what}: expected at least diag/tables/output/scratch sites, saw {failures}"
        );
        assert!(
            completed,
            "{what}: injection never ran past the last fallible site"
        );
    }
}

#[test]
fn counts_matrix_allocation_failure_is_typed() {
    let _guard = lock_faults();
    let g = random_matrix(32, 24, 0xfa02);
    let engine = LdEngine::new().threads(1);
    arm_alloc_failure(1);
    let result = engine.try_counts_matrix(&g);
    disarm_alloc_failure();
    assert!(
        matches!(result, Err(LdError::AllocationFailed { .. })),
        "counts buffer must fail as AllocationFailed"
    );
}

// ---------------------------------------------------------------------
// 2. Worker panic containment
// ---------------------------------------------------------------------

#[test]
fn injected_kernel_panic_surfaces_as_worker_error() {
    let _guard = lock_faults();
    let g = random_matrix(64, 80, 0xfa03);
    let engine = LdEngine::new().threads(4).slab_rows(4);

    fault::arm_kernel_panic(true);
    let result = engine.try_stat_matrix(&g, LdStats::RSquared);
    fault::arm_kernel_panic(false);

    match result {
        Err(LdError::Worker(p)) => {
            assert!(
                p.message.contains("injected kernel panic"),
                "payload message must survive: {:?}",
                p.message
            );
        }
        Err(other) => panic!("expected LdError::Worker, got {other}"),
        Ok(_) => panic!("expected LdError::Worker, got a clean result"),
    }

    // the store source runs under the same trap
    let store = MemoryTileStore::from_matrix(&g, 16).expect("import");
    fault::arm_kernel_panic(true);
    let result =
        engine.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new());
    fault::arm_kernel_panic(false);
    match result {
        Err(LdError::Worker(p)) => assert!(p.message.contains("injected kernel panic")),
        other => panic!("store source: expected LdError::Worker, got {other:?}"),
    }

    // the engine is not poisoned: the next run succeeds and matches the oracle
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("clean run after disarm");
    let oracle = engine.stat_matrix_twopass(&g, LdStats::RSquared);
    assert_eq!(bits(&m), bits(&oracle));
    let m = engine
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
        .expect("clean store run after disarm");
    assert_eq!(bits(&m), bits(&oracle));
}

/// The cross matrix runs its slabs on the same trapped worker team: an
/// injected kernel panic is `LdError::Worker` with its message, at one
/// thread (the caller's) and at four, and the next run is clean and
/// bit-equal to a run before the fault.
#[test]
fn injected_kernel_panic_in_cross_matrix_is_a_worker_error() {
    let _guard = lock_faults();
    let g = random_matrix(64, 80, 0xfa0c);
    let (a, b) = (g.view(0, 30), g.view(30, 80));
    let bits = |m: &ld_core::CrossLdMatrix| -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    };
    for threads in [1usize, 4] {
        let engine = LdEngine::new().threads(threads).slab_rows(4);
        let before = engine
            .try_cross_stat_matrix(a, b, LdStats::RSquared)
            .expect("clean run before the fault");
        fault::arm_kernel_panic(true);
        let result = engine.try_cross_stat_matrix(a, b, LdStats::RSquared);
        fault::arm_kernel_panic(false);
        match result {
            Err(LdError::Worker(p)) => assert!(
                p.message.contains("injected kernel panic"),
                "threads={threads}: payload message must survive: {:?}",
                p.message
            ),
            other => panic!("threads={threads}: expected LdError::Worker, got {other:?}"),
        }
        let after = engine
            .try_cross_stat_matrix(a, b, LdStats::RSquared)
            .expect("clean run after disarm");
        assert_eq!(bits(&after), bits(&before), "threads={threads}");
    }
}

#[test]
fn injected_panic_in_streaming_path_is_contained() {
    let _guard = lock_faults();
    let g = random_matrix(48, 40, 0xfa04);
    let engine = LdEngine::new().threads(3).slab_rows(4);

    fault::arm_kernel_panic(true);
    let result = engine.try_stat_rows_with(&g, LdStats::RSquared, |_slab| {}, &RunControl::new());
    fault::arm_kernel_panic(false);

    assert!(
        matches!(result, Err(LdError::Worker(_))),
        "streaming path must contain worker panics too"
    );

    let store = MemoryTileStore::from_matrix(&g, 7).expect("import");
    let ctl = RunControl::new();
    fault::arm_kernel_panic(true);
    let result = engine.try_stat_rows_outofcore_with(&store, LdStats::RSquared, |_slab| {}, &ctl);
    fault::arm_kernel_panic(false);
    assert!(
        matches!(result, Err(LdError::Worker(_))),
        "store source: streaming path must contain worker panics too"
    );

    // A panic in the *caller's* visitor is contained the same way, from
    // both sources: a typed error, not an unwind through the engine.
    let bomb = |seen: &AtomicUsize| {
        if seen.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
            panic!("visitor bomb");
        }
    };
    let (a, b) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let results = [
        engine.try_stat_rows_with(&g, LdStats::RSquared, |_slab| bomb(&a), &ctl),
        engine.try_stat_rows_outofcore_with(&store, LdStats::RSquared, |_slab| bomb(&b), &ctl),
    ];
    for (source, result) in ["memory", "store"].iter().zip(results) {
        match result {
            Err(LdError::Worker(p)) => assert!(p.message.contains("visitor bomb"), "{source}"),
            other => panic!("{source}: expected LdError::Worker, got {other:?}"),
        }
    }
}

/// The unlocked `make` phase of an ordered visitor runs on the workers,
/// so its panic is a worker panic: `LdError::Worker` from both sources,
/// and a table being written atomically under it never appears.
#[test]
fn panicking_make_phase_is_a_worker_error_and_leaves_no_table() {
    use std::io::Write as _;
    let _guard = lock_faults();
    let g = random_matrix(48, 40, 0xfa05);
    let store = MemoryTileStore::from_matrix(&g, 7).expect("import");
    let engine = LdEngine::new().threads(3).slab_rows(4);
    let ctl = RunControl::new();
    let dir = std::env::temp_dir().join(format!("ld_fault_make_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, src) in [
        ("memory", Source::from(&g)),
        ("store", Source::Store(&store)),
    ] {
        let table = dir.join(format!("{name}.tsv"));
        let made = AtomicUsize::new(0);
        let mut run = None;
        let written = ld_io::atomic::write_atomic_with(&table, |w| {
            let make = |s: &ld_core::RowSlabVisit<'_>| {
                if made.fetch_add(1, Ordering::SeqCst) == 1 {
                    panic!("make bomb");
                }
                format!("rows from {}\n", s.row_start())
            };
            let mut io_err = None;
            let deliver =
                |block: String| io_err = io_err.take().or(w.write_all(block.as_bytes()).err());
            let visit = ld_core::in_row_order(make, deliver);
            run = Some(engine.try_stat_rows_with(src, LdStats::RSquared, visit, &ctl));
            match run {
                Some(Ok(())) => io_err.map_or(Ok(()), Err),
                _ => Err(std::io::Error::other("LD computation failed")),
            }
        });
        match run {
            Some(Err(LdError::Worker(p))) => assert!(p.message.contains("make bomb"), "{name}"),
            other => panic!("{name}: expected LdError::Worker, got {other:?}"),
        }
        assert!(written.is_err(), "{name}");
        assert!(!table.exists(), "{name}: a torn table");
    }
    assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint sink that starts failing mid-run is sticky from both
/// sources: the same typed error, no further write attempts, and the run
/// drains instead of computing unpersistable slabs.
#[test]
fn failing_checkpoint_sink_is_sticky_from_both_sources() {
    struct FailsFrom {
        nth: usize,
        attempts: AtomicUsize,
    }
    impl CheckpointSink for FailsFrom {
        fn write_checkpoint(&self, _bytes: &[u8]) -> Result<(), String> {
            if self.attempts.fetch_add(1, Ordering::SeqCst) + 1 >= self.nth {
                return Err("disk full (injected)".into());
            }
            Ok(())
        }
    }
    let _guard = lock_faults();
    let g = random_matrix(40, 36, 0xfa0a);
    let store = MemoryTileStore::from_matrix(&g, 5).expect("import");
    let engine = LdEngine::new().threads(2).slab_rows(4);
    let mut messages = Vec::new();
    for streamed in [false, true] {
        let sink = FailsFrom {
            nth: 3,
            attempts: AtomicUsize::new(0),
        };
        let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
        let result = if streamed {
            engine.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
        } else {
            engine.try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        };
        match result {
            Err(LdError::Checkpoint { message }) => messages.push(message),
            other => panic!("streamed={streamed}: expected LdError::Checkpoint, got {other:?}"),
        }
        assert_eq!(
            sink.attempts.load(Ordering::SeqCst),
            3,
            "streamed={streamed}: no write is attempted after the first failure \
             (9 slabs would otherwise make 9 attempts)"
        );
    }
    assert_eq!(messages[0], messages[1]);
    assert_eq!(
        messages[0],
        "checkpoint write failed mid-run: disk full (injected)"
    );
}

// ---------------------------------------------------------------------
// 3. Memory budget: shrink-to-fit stays bit-exact, impossible errors
// ---------------------------------------------------------------------

#[test]
fn budget_constrained_run_matches_twopass_oracle_bitexact() {
    let _guard = lock_faults();
    let n = 300usize;
    let threads = 2usize;
    let g = random_matrix(128, n, 0xfa05);

    // fixed footprint of the matrix form: packed output + tables
    let tri = n * (n + 1) / 2;
    let fixed = 8 * tri + 20 * n;
    let per_row = threads * n * 4;

    let unbounded = LdEngine::new().threads(threads).slab_rows(64);
    let oracle = unbounded.stat_matrix_twopass(&g, LdStats::RSquared);

    // room for exactly 3 slab rows: the slab must shrink 64 → 3 and the
    // values must not move by a single bit
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + 3 * per_row));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("budget admits 3 slab rows");
    assert_eq!(bits(&m), bits(&oracle), "slab shrink changed values");

    // one-row budget still works
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + per_row));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("budget admits 1 slab row");
    assert_eq!(bits(&m), bits(&oracle));

    // below one row: typed refusal, with both sides reported
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + per_row - 1));
    match engine.try_stat_matrix(&g, LdStats::RSquared) {
        Err(LdError::BudgetExceeded { required, budget }) => {
            assert_eq!(required, fixed + per_row);
            assert_eq!(budget, fixed + per_row - 1);
        }
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
        Ok(_) => panic!("expected BudgetExceeded, got a clean result"),
    }
}

/// A row stream whose one row over-runs the budget is refused; under a
/// budget that holds a few rows it shrinks its slab and still delivers
/// every row.
#[test]
fn tile_iteration_verifies_budget_instead_of_shrinking() {
    let _guard = lock_faults();
    let g = random_matrix(64, 120, 0xfa06);
    let engine = LdEngine::new()
        .threads(1)
        .slab_rows(64)
        .memory_budget(MemoryBudget::bytes(1024));
    let result = engine.try_stat_rows_with(&g, LdStats::RSquared, |_s| {}, &RunControl::new());
    assert!(
        matches!(result, Err(LdError::BudgetExceeded { .. })),
        "a 120-wide row cannot fit in 1 KiB"
    );
    // 64 KiB holds fewer than 64 rows: the slab shrinks to fit
    let engine = engine.memory_budget(MemoryBudget::bytes(64 << 10));
    let slab = engine.slab_for(&Source::from(&g), false).unwrap();
    assert!(slab < 64, "slab {slab}");
    let rows = AtomicUsize::new(0);
    let visit = |s: &ld_core::RowSlabVisit<'_>| {
        assert!(s.n_rows() <= slab);
        rows.fetch_add(s.n_rows(), Ordering::Relaxed);
    };
    engine
        .try_stat_rows_with(&g, LdStats::RSquared, visit, &RunControl::new())
        .expect("shrunk slabs fit in 64 KiB");
    assert_eq!(rows.into_inner(), 120);
}

// ---------------------------------------------------------------------
// 4. Shape and configuration errors
// ---------------------------------------------------------------------

#[test]
fn zero_samples_is_empty_input() {
    let _guard = lock_faults();
    let g = BitMatrix::zeros(0, 5);
    let err = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap_err();
    assert!(matches!(err, LdError::EmptyInput), "{err}");
    assert!(err.to_string().contains("zero samples"));
}

#[test]
fn absurd_snp_count_is_size_overflow_not_oom() {
    let _guard = lock_faults();
    // 2^40 SNPs of zero samples occupy no memory, but the packed triangle
    // would need ~2^79 entries: must be a typed overflow, not an abort.
    let g = BitMatrix::zeros(0, 1usize << 40);
    let err = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap_err();
    assert!(matches!(err, LdError::SizeOverflow { .. }), "{err}");
}

#[test]
fn cross_matrix_rejects_mismatched_sample_sets() {
    let _guard = lock_faults();
    let a = random_matrix(32, 10, 0xfa07);
    let b = random_matrix(48, 10, 0xfa08);
    let err = LdEngine::new()
        .try_cross_stat_matrix(&a, &b, LdStats::RSquared)
        .unwrap_err();
    match err {
        LdError::DimensionMismatch { left, right, .. } => {
            assert_eq!((left, right), (32, 48));
        }
        other => panic!("expected DimensionMismatch, got {other}"),
    }
}

#[test]
fn cross_matrix_with_an_empty_operand_is_empty_not_a_panic() {
    let _guard = lock_faults();
    let full = random_matrix(32, 10, 0xfa0a);
    let none = BitMatrix::zeros(32, 0);
    for stat in [LdStats::RSquared, LdStats::D, LdStats::DPrime] {
        for (a, b) in [(&full, &none), (&none, &full), (&none, &none)] {
            let m = LdEngine::new()
                .try_cross_stat_matrix(a, b, stat)
                .expect("an empty operand is not an error");
            assert_eq!((m.n_rows(), m.n_cols()), (a.n_snps(), b.n_snps()));
            assert!(m.values().is_empty());
        }
    }
}

/// A row stream over an empty shard window of slabs has nothing it could
/// deliver: refused up front.
#[test]
fn zero_tile_is_invalid_config() {
    let _guard = lock_faults();
    let g = random_matrix(16, 8, 0xfa09);
    let ctl = RunControl::new().with_shard(ld_core::SlabRange::new(0, 0));
    let err = LdEngine::new()
        .try_stat_rows_with(&g, LdStats::RSquared, |_s| {}, &ctl)
        .unwrap_err();
    assert!(matches!(err, LdError::InvalidConfig { .. }), "{err}");
}

#[test]
fn empty_matrix_succeeds_under_any_budget() {
    let _guard = lock_faults();
    let g = BitMatrix::zeros(4, 0);
    let engine = LdEngine::new().memory_budget(MemoryBudget::bytes(1));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("0 SNPs need 0 bytes");
    assert_eq!(m.n_snps(), 0);
}

/// The sinks that store every pair reject a band up front; the row sink,
/// which keeps only in-band columns, takes it.
#[test]
fn band_is_invalid_config_for_the_packed_and_tile_sinks() {
    let _guard = lock_faults();
    let g = random_matrix(40, 12, 0xba2e);
    let e = LdEngine::new().threads(2);
    let ctl = RunControl::new().with_band(3);
    let packed = e.try_stat_matrix_with(&g, LdStats::RSquared, &ctl);
    assert!(matches!(packed, Err(LdError::InvalidConfig { .. })));
    let in_band = |s: &ld_core::RowSlabVisit<'_>| assert!(s.rows().all(|(_, r)| r.len() <= 4));
    let rows = e.try_stat_rows_with(&g, LdStats::RSquared, in_band, &ctl);
    assert!(rows.is_ok(), "{rows:?}");
    // and a shard (a packed run) with it
    let ctl = RunControl::new()
        .with_band(3)
        .with_shard(e.shard_plan_from(&Source::from(&g), 1).unwrap()[0]);
    let shard = e.try_stat_shard_with(&g, LdStats::RSquared, &ctl);
    assert!(matches!(shard, Err(LdError::InvalidConfig { .. })));
}
