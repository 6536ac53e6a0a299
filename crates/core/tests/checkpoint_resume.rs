//! Kill/resume equivalence and checkpoint robustness.
//!
//! The contract under test (DESIGN.md §9): a run cancelled at **any** slab
//! boundary, checkpointed, and resumed produces a packed triangle
//! **bit-identical** to an uninterrupted run — across thread counts, NaN
//! policies and cancellation points — and a corrupted or mismatched
//! checkpoint is a located typed error, never a panic and never silent
//! wrong output.

use ld_bitmat::BitMatrix;
use ld_core::{
    CancelToken, CheckpointPlan, CheckpointSink, CheckpointState, Deadline, LdEngine, LdError,
    LdStats, MemorySink, NanPolicy, RunControl, Source,
};
use ld_rng::SmallRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen_bool(0.3) {
                g.set(s, j, true);
            }
        }
    }
    g
}

/// Adds a monomorphic column so the two NaN policies actually differ.
fn matrix_with_monomorphic(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut g = random_matrix(n_samples, n_snps, seed);
    for s in 0..n_samples {
        g.set(s, n_snps / 2, false);
    }
    g
}

/// A checkpoint sink that trips a token after its `k`-th write — the test
/// stand-in for "the process was killed after k slabs were persisted".
struct TrippingSink {
    inner: MemorySink,
    token: CancelToken,
    trip_after: usize,
    writes: AtomicUsize,
}

impl TrippingSink {
    fn new(token: &CancelToken, trip_after: usize) -> Self {
        Self {
            inner: MemorySink::new(),
            token: token.clone(),
            trip_after,
            writes: AtomicUsize::new(0),
        }
    }
}

impl CheckpointSink for TrippingSink {
    fn write_checkpoint(&self, bytes: &[u8]) -> Result<(), String> {
        self.inner.write_checkpoint(bytes)?;
        if self.writes.fetch_add(1, Ordering::SeqCst) + 1 >= self.trip_after {
            self.token.cancel_with_reason("test kill");
        }
        Ok(())
    }
}

fn engine(threads: usize, slab: usize, policy: NanPolicy) -> LdEngine {
    LdEngine::new()
        .threads(threads)
        .slab_rows(slab)
        .nan_policy(policy)
}

/// Cancel after every possible number of persisted slabs `k ∈ 1..=slabs`,
/// resume from the flushed snapshot, and require the final triangle to be
/// bit-identical to an uninterrupted oracle — for 1/2/7 threads and both
/// NaN policies.
#[test]
fn resume_is_bit_identical_at_every_cancellation_point() {
    let n = 37usize;
    let slab = 5usize;
    let n_slabs = n.div_ceil(slab); // 8
    let g = matrix_with_monomorphic(64, n, 11);
    for policy in [NanPolicy::Propagate, NanPolicy::Zero] {
        for &threads in &[1usize, 2, 7] {
            let oracle = engine(threads, slab, policy)
                .try_stat_matrix(&g, LdStats::RSquared)
                .expect("oracle run");
            for k in 1..=n_slabs {
                // Phase 1: run with every-slab checkpointing; the sink
                // trips the token after k writes.
                let token = CancelToken::new();
                let sink = TrippingSink::new(&token, k);
                let ctl = RunControl::new()
                    .with_token(&token)
                    .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
                let first =
                    engine(threads, slab, policy).try_stat_matrix_with(&g, LdStats::RSquared, &ctl);
                let bytes = sink.inner.latest().expect("snapshot flushed");
                let state = CheckpointState::from_bytes(&bytes).expect("snapshot parses");
                match first {
                    Err(LdError::Cancelled {
                        reason,
                        completed_slabs,
                    }) => {
                        assert_eq!(reason, "test kill", "t{threads} k{k}");
                        assert!(
                            completed_slabs >= k.min(n_slabs),
                            "t{threads} k{k}: at least the persisted slabs completed \
                             ({completed_slabs})"
                        );
                        // the final flush covers everything that completed
                        assert_eq!(
                            state.records.len(),
                            completed_slabs,
                            "t{threads} k{k}: final snapshot holds every done slab"
                        );
                        assert!(completed_slabs < n_slabs, "cancelled runs are partial");
                    }
                    // With many threads the last trip can land after the
                    // final slab was already claimed — then the run simply
                    // completes. That's the documented completeness-over-
                    // token-state contract; nothing to resume.
                    Ok(_) => {
                        assert_eq!(state.records.len(), n_slabs, "t{threads} k{k}");
                        continue;
                    }
                    Err(other) => panic!("t{threads} k{k}: unexpected error {other}"),
                }
                // Phase 2: resume from the snapshot, run to completion.
                let replay_sink = MemorySink::new();
                let ctl = RunControl::new().with_checkpoint(
                    CheckpointPlan::new(&replay_sink)
                        .every_slabs(usize::MAX)
                        .resume_from(state),
                );
                let resumed = engine(threads, slab, policy)
                    .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
                    .unwrap_or_else(|e| panic!("t{threads} k{k}: resume failed: {e}"));
                assert_eq!(
                    oracle.packed().len(),
                    resumed.packed().len(),
                    "t{threads} k{k}"
                );
                for (idx, (a, b)) in oracle.packed().iter().zip(resumed.packed()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "t{threads} k{k} policy {policy:?}: packed[{idx}] {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// An expired deadline cancels before any slab runs; the flushed snapshot
/// (zero records) still resumes cleanly into a bit-identical result.
#[test]
fn expired_deadline_flushes_resumable_empty_snapshot() {
    let g = random_matrix(40, 23, 3);
    let sink = MemorySink::new();
    let ctl = RunControl::new()
        .with_deadline(Deadline::after(Duration::ZERO))
        .with_checkpoint(CheckpointPlan::new(&sink));
    let err = engine(4, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::DPrime, &ctl)
        .expect_err("zero deadline must cancel");
    match err {
        LdError::Cancelled {
            reason,
            completed_slabs,
        } => {
            assert_eq!(reason, "deadline exceeded");
            assert_eq!(completed_slabs, 0);
        }
        other => panic!("unexpected: {other}"),
    }
    let state = CheckpointState::from_bytes(&sink.latest().expect("final flush")).unwrap();
    assert!(state.records.is_empty());
    let oracle = engine(4, 4, NanPolicy::Zero)
        .try_stat_matrix(&g, LdStats::DPrime)
        .unwrap();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).resume_from(state));
    let resumed = engine(4, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::DPrime, &ctl)
        .unwrap();
    for (a, b) in oracle.packed().iter().zip(resumed.packed()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Plain token cancellation (no checkpoint) reports typed partial progress.
#[test]
fn pre_cancelled_token_reports_zero_progress() {
    let g = random_matrix(30, 19, 7);
    let token = CancelToken::new();
    token.cancel_with_reason("operator abort");
    let ctl = RunControl::new().with_token(&token);
    let err = engine(2, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .expect_err("tripped token must cancel");
    match err {
        LdError::Cancelled {
            reason,
            completed_slabs,
        } => {
            assert_eq!(reason, "operator abort");
            assert_eq!(completed_slabs, 0);
        }
        other => panic!("unexpected: {other}"),
    }
}

/// The streaming drivers honor tokens but reject checkpoint plans.
#[test]
fn streaming_rejects_checkpoint_but_honors_token() {
    let g = random_matrix(30, 19, 9);
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink));
    let err = engine(1, 4, NanPolicy::Zero)
        .try_stat_rows_with(&g, LdStats::RSquared, |_s| {}, &ctl)
        .expect_err("streaming + checkpoint is invalid");
    assert!(matches!(err, LdError::InvalidConfig { .. }), "{err}");
    let err = engine(1, 4, NanPolicy::Zero)
        .try_for_each_tile_with(&g, LdStats::RSquared, 4, |_t| {}, &ctl)
        .expect_err("tiling + checkpoint is invalid");
    assert!(matches!(err, LdError::InvalidConfig { .. }), "{err}");
    // token path: pre-tripped → zero slabs delivered
    let token = CancelToken::new();
    token.cancel();
    let ctl = RunControl::new().with_token(&token);
    let mut slabs = 0usize;
    let err = engine(2, 4, NanPolicy::Zero)
        .try_stat_rows_with(&g, LdStats::RSquared, |_s| slabs += 1, &ctl)
        .expect_err("tripped token must cancel the stream");
    assert!(matches!(err, LdError::Cancelled { .. }), "{err}");
    assert_eq!(slabs, 0);
}

/// Every resume-validation dimension is checked with a located message:
/// different input, stat, policy, slab geometry.
#[test]
fn resume_validation_rejects_mismatches() {
    let g = random_matrix(50, 20, 5);
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    engine(1, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .unwrap();
    let bytes = sink.latest().unwrap();
    let state = || CheckpointState::from_bytes(&bytes).unwrap();
    let attempt = |g: &BitMatrix, stat, policy, slab: usize| {
        let s2 = MemorySink::new();
        let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&s2).resume_from(state()));
        engine(1, slab, policy).try_stat_matrix_with(g, stat, &ctl)
    };
    // matching configuration resumes fine
    attempt(&g, LdStats::RSquared, NanPolicy::Zero, 4).expect("identical run resumes");
    let cases: Vec<(&str, LdError)> = vec![
        (
            "stat",
            attempt(&g, LdStats::D, NanPolicy::Zero, 4).expect_err("stat mismatch"),
        ),
        (
            "policy",
            attempt(&g, LdStats::RSquared, NanPolicy::Propagate, 4).expect_err("policy mismatch"),
        ),
        (
            "slab",
            attempt(&g, LdStats::RSquared, NanPolicy::Zero, 5).expect_err("slab mismatch"),
        ),
        (
            "matrix",
            attempt(
                &random_matrix(50, 20, 6),
                LdStats::RSquared,
                NanPolicy::Zero,
                4,
            )
            .expect_err("different input data"),
        ),
    ];
    for (what, err) in cases {
        match err {
            LdError::Checkpoint { message } => {
                assert!(
                    message.contains("resume rejected"),
                    "{what}: message must locate the field: {message}"
                );
            }
            other => panic!("{what}: expected Checkpoint error, got {other}"),
        }
    }
}

/// An engine-produced snapshot survives neither truncation nor single-bit
/// corruption: every mutation is a typed error (and never a panic).
#[test]
fn corrupted_engine_snapshots_never_parse() {
    let g = random_matrix(40, 12, 13);
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    engine(1, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .unwrap();
    let bytes = sink.latest().unwrap();
    CheckpointState::from_bytes(&bytes).expect("pristine bytes parse");
    for cut in 0..bytes.len() {
        assert!(
            CheckpointState::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    for flip in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[flip] ^= 0x01;
        // Either the parse fails (CRC/magic/geometry) — or, never, silent
        // acceptance of different bytes.
        assert!(
            CheckpointState::from_bytes(&bad).is_err(),
            "bit flip at byte {flip} must fail"
        );
    }
}

/// A sink that fails mid-run surfaces as a checkpoint error (not silent
/// data loss, not a panic) and stops the run.
#[test]
fn failing_sink_stops_the_run_with_a_typed_error() {
    struct FailingSink;
    impl CheckpointSink for FailingSink {
        fn write_checkpoint(&self, _bytes: &[u8]) -> Result<(), String> {
            Err("disk full (injected)".into())
        }
    }
    let g = random_matrix(40, 24, 17);
    let sink = FailingSink;
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    let err = engine(2, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .expect_err("failing sink must fail the run");
    match err {
        LdError::Checkpoint { message } => {
            assert!(message.contains("disk full"), "{message}");
        }
        other => panic!("unexpected: {other}"),
    }
}

/// Deadline expiry must not cancel a sibling run sharing the same caller
/// token (the driver trips a *child*).
#[test]
fn deadline_does_not_poison_shared_tokens() {
    let g = random_matrix(40, 16, 19);
    let token = CancelToken::new();
    let ctl = RunControl::new()
        .with_token(&token)
        .with_deadline(Deadline::after(Duration::ZERO));
    let err = engine(1, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .expect_err("expired deadline cancels");
    assert!(matches!(err, LdError::Cancelled { .. }));
    assert!(
        !token.is_cancelled(),
        "deadline expiry must not trip the caller's token"
    );
    // the same token still works for a fresh run
    let ctl = RunControl::new().with_token(&token);
    engine(1, 4, NanPolicy::Zero)
        .try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
        .expect("sibling run unaffected");
}

/// The out-of-core driver honors the same kill/resume contract as the
/// in-memory one — and the two drivers' checkpoints are *interchangeable*:
/// a run killed in memory resumes out-of-core (and vice versa)
/// bit-identically, because both stamp the same matrix fingerprint,
/// kernel and slab geometry into the snapshot header. Chunk-read
/// accounting for the streamed side lives in `outofcore_resume.rs`.
#[test]
fn outofcore_and_in_memory_checkpoints_are_interchangeable() {
    use ld_core::MemoryTileStore;
    let n = 29usize;
    let slab = 4usize;
    let n_slabs = n.div_ceil(slab); // 8
    let chunk = 6usize;
    let g = matrix_with_monomorphic(48, n, 23);
    let store = MemoryTileStore::from_matrix(&g, chunk).expect("import");
    for policy in [NanPolicy::Propagate, NanPolicy::Zero] {
        let oracle = engine(1, slab, policy)
            .try_stat_matrix(&g, LdStats::RSquared)
            .expect("oracle run");
        for k in 1..n_slabs {
            for start_streamed in [false, true] {
                // Phase 1: kill after k persisted slabs, in one driver.
                let token = CancelToken::new();
                let sink = TrippingSink::new(&token, k);
                let e = engine(1, slab, policy);
                let ctl = RunControl::new()
                    .with_token(&token)
                    .with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
                let first = if start_streamed {
                    e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                } else {
                    e.try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
                };
                match first {
                    Err(LdError::Cancelled {
                        completed_slabs, ..
                    }) => assert_eq!(completed_slabs, k, "k{k}: single-threaded is exact"),
                    other => panic!("k{k}: expected cancellation, got {other:?}"),
                }
                let state = CheckpointState::from_bytes(&sink.inner.latest().unwrap())
                    .expect("snapshot parses");
                assert_eq!(state.records.len(), k, "k{k}");
                // Phase 2: resume in the *other* driver.
                let replay = MemorySink::new();
                let ctl = RunControl::new().with_checkpoint(
                    CheckpointPlan::new(&replay)
                        .every_slabs(usize::MAX)
                        .resume_from(state),
                );
                let e = engine(1, slab, policy);
                let resumed = if start_streamed {
                    e.try_stat_matrix_with(&g, LdStats::RSquared, &ctl)
                } else {
                    e.try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &ctl)
                };
                let resumed = resumed.unwrap_or_else(|e| {
                    panic!("k{k} streamed-first={start_streamed}: resume failed: {e}")
                });
                for (idx, (a, b)) in oracle.packed().iter().zip(resumed.packed()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "k{k} streamed-first={start_streamed}: packed[{idx}]"
                    );
                }
            }
        }
    }
}
