//! The out-of-core tile-store driver against the in-memory fused engine.
//!
//! `LdEngine::try_stat_matrix_with` over `Source::Store` streams
//! slab×panel blocks of `GᵀG` from a chunked [`MemoryTileStore`] /
//! `DirTileStore` instead of holding `G` in RAM. Counts are exact u32 either way and both paths
//! run the *same* `Transform` arithmetic, so the packed triangle must be
//! **bit-identical** to `LdEngine::try_stat_matrix` for every chunk
//! size, slab height, memory budget and thread count — no tolerance, any
//! difference is a real bookkeeping bug in the panel/chunk offsets.

use ld_bitmat::BitMatrix;
use ld_core::{
    LdEngine, LdError, LdMatrix, LdStats, MemoryBudget, MemoryTileStore, NanPolicy, RunControl,
    Source,
};
use ld_io::tilestore::{import_to_dir, DirTileStore};
use ld_rng::SmallRng;

const STATS: [LdStats; 3] = [LdStats::RSquared, LdStats::D, LdStats::DPrime];
const POLICIES: [NanPolicy; 2] = [NanPolicy::Propagate, NanPolicy::Zero];
const THREADS: [usize; 3] = [1, 2, 7];

fn random_matrix(rng: &mut SmallRng, n_samples: usize, n_snps: usize) -> BitMatrix {
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    let density = 0.05 + 0.9 * rng.gen::<f64>();
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.gen_bool(density) {
                g.set(s, j, true);
            }
        }
    }
    g
}

fn assert_bit_equal(ooc: &LdMatrix, oracle: &LdMatrix, ctx: &str) {
    assert_eq!(ooc.packed().len(), oracle.packed().len(), "{ctx}");
    for (k, (a, b)) in ooc.packed().iter().zip(oracle.packed()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: packed[{k}] outofcore={a} in-memory={b}"
        );
    }
}

/// The core sweep: shapes crossing word boundaries × chunk sizes
/// bracketing the SNP count × slab heights × thread counts, in-memory
/// store backend. Stat and policy are cycled so every combination is
/// hit without a full cross product.
#[test]
fn outofcore_matrix_matches_in_memory_across_geometries() {
    let mut rng = SmallRng::seed_from_u64(0x00c0_4e11);
    let shapes = [
        (1usize, 1usize),
        (3, 7),
        (63, 12),
        (64, 33),
        (65, 40),
        (130, 65),
        (31, 100),
    ];
    let mut cycle = 0usize;
    for &(n_samples, n_snps) in &shapes {
        let g = random_matrix(&mut rng, n_samples, n_snps);
        for chunk_snps in [1usize, 3, 16, 1000] {
            let store = MemoryTileStore::from_matrix(&g, chunk_snps).unwrap();
            for slab in [1usize, 4, 1000] {
                let stat = STATS[cycle % STATS.len()];
                let policy = POLICIES[cycle % POLICIES.len()];
                let threads = THREADS[cycle % THREADS.len()];
                cycle += 1;
                let e = LdEngine::new()
                    .threads(threads)
                    .slab_rows(slab)
                    .nan_policy(policy);
                let ctx = format!(
                    "{n_samples}x{n_snps} chunk={chunk_snps} slab={slab} \
                     {stat:?} {policy:?} t{threads}"
                );
                let ooc = e
                    .try_stat_matrix_with(Source::Store(&store), stat, &RunControl::new())
                    .unwrap();
                let oracle = e.try_stat_matrix(&g, stat).unwrap();
                assert_bit_equal(&ooc, &oracle, &ctx);
            }
        }
    }
}

/// Same sweep through the *file-backed* store: import to a directory,
/// reopen, stream — still bit-identical.
#[test]
fn file_backed_store_matches_in_memory_engine() {
    let dir = std::env::temp_dir().join(format!("ld_ooc_equiv_{}", std::process::id()));
    let mut rng = SmallRng::seed_from_u64(0xd15c);
    for (round, &(n_samples, n_snps, chunk_snps, slab)) in [
        (5usize, 1usize, 1usize, 1usize),
        (17, 13, 4, 3),
        (64, 33, 8, 5),
        (130, 65, 17, 1000),
    ]
    .iter()
    .enumerate()
    {
        let g = random_matrix(&mut rng, n_samples, n_snps);
        let d = dir.join(format!("round{round}"));
        let meta = import_to_dir(&g, chunk_snps, &d).unwrap();
        assert_eq!(meta.n_chunks(), n_snps.div_ceil(chunk_snps));
        let store = DirTileStore::open(&d).unwrap();
        for &threads in &THREADS {
            let e = LdEngine::new().threads(threads).slab_rows(slab);
            let ctx = format!("{n_samples}x{n_snps} chunk={chunk_snps} slab={slab} t{threads}");
            let ooc = e
                .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
                .unwrap();
            let oracle = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
            assert_bit_equal(&ooc, &oracle, &ctx);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The streaming form: slabs arrive in ascending row order, cover every
/// `(i, j ≥ i)` pair exactly once, and every value is bit-equal to the
/// in-memory matrix.
#[test]
fn outofcore_rows_cover_the_triangle_bit_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x0c0c);
    for round in 0..6 {
        let n_samples = rng.gen_range(1usize..120);
        let n = rng.gen_range(1usize..50);
        let g = random_matrix(&mut rng, n_samples, n);
        let chunk_snps = rng.gen_range(1usize..20);
        let store = MemoryTileStore::from_matrix(&g, chunk_snps).unwrap();
        let e = LdEngine::new()
            .threads(THREADS[round % THREADS.len()])
            .slab_rows(rng.gen_range(1usize..9));
        let full = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
        let mut seen = vec![0u32; n * (n + 1) / 2];
        let mut last_start = 0usize;
        e.try_stat_rows_outofcore_with(
            &store,
            LdStats::RSquared,
            |s| {
                assert!(s.row_start() >= last_start, "slabs out of order");
                last_start = s.row_start();
                for (i, row) in s.rows() {
                    for (t, &v) in row.iter().enumerate() {
                        let j = i + t;
                        let idx = i * n - (i * i - i) / 2 + t;
                        seen[idx] += 1;
                        assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "rows ({i},{j})");
                    }
                }
            },
            &RunControl::new(),
        )
        .unwrap();
        assert!(seen.iter().all(|&c| c == 1), "row coverage");
    }
}

/// The paper-level acceptance criterion: a memory budget **smaller than
/// the packed genotype panel** still produces the bit-identical result —
/// the streamed driver never needs the whole panel resident.
#[test]
fn budget_smaller_than_packed_panel_is_bit_exact() {
    let mut rng = SmallRng::seed_from_u64(0xb06e7);
    let (n_samples, n) = (512usize, 200usize);
    let g = random_matrix(&mut rng, n_samples, n);
    let chunk_snps = 8usize;
    let store = MemoryTileStore::from_matrix(&g, chunk_snps).unwrap();
    let wps = ld_bitmat::words_for(n_samples);
    let panel_bytes = n * wps * 8;
    // The streaming form's modeled floor: tables (20n) + four chunk
    // buffers + one slab row (panel words + u32 counts + f64 values).
    let chunk_bytes = chunk_snps * wps * 8;
    let floor = 20 * n + 4 * chunk_bytes + (wps * 8 + chunk_snps * 4 + n * 8);
    let budget = floor + 256;
    assert!(
        budget < panel_bytes,
        "test geometry must make the budget ({budget}) smaller than the \
         packed panel ({panel_bytes})"
    );
    let full = LdEngine::new()
        .threads(2)
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap();
    let e = LdEngine::new()
        .threads(2)
        .slab_rows(64)
        .memory_budget(MemoryBudget::bytes(budget));
    let mut got = vec![0f64; n * (n + 1) / 2];
    e.try_stat_rows_outofcore_with(
        &store,
        LdStats::RSquared,
        |s| {
            for (i, row) in s.rows() {
                let off = i * n - (i * i - i) / 2;
                for (t, &v) in row.iter().enumerate() {
                    got[off + t] = v;
                }
            }
        },
        &RunControl::new(),
    )
    .unwrap();
    for (k, (a, b)) in got.iter().zip(full.packed()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "packed[{k}]");
    }
    // An over-tight budget fails with the typed error, not a panic.
    let starved = LdEngine::new().memory_budget(MemoryBudget::bytes(64));
    let err = starved
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
        .unwrap_err();
    assert!(matches!(err, LdError::BudgetExceeded { .. }), "{err}");
}

/// Monomorphic columns under both NaN policies — the transform's
/// policy-dependent branch — stay bit-identical to the in-memory path.
#[test]
fn outofcore_monomorphic_policies_match_in_memory() {
    let mut rng = SmallRng::seed_from_u64(0x3035);
    for _ in 0..4 {
        let n_samples = rng.gen_range(1usize..100);
        let n_snps = rng.gen_range(2usize..30);
        let mut g = random_matrix(&mut rng, n_samples, n_snps);
        for s in 0..n_samples {
            g.set(s, 0, false);
            g.set(s, n_snps - 1, true);
        }
        let store = MemoryTileStore::from_matrix(&g, 5).unwrap();
        for policy in POLICIES {
            for stat in STATS {
                let e = LdEngine::new().threads(2).slab_rows(4).nan_policy(policy);
                let ooc = e
                    .try_stat_matrix_with(Source::Store(&store), stat, &RunControl::new())
                    .unwrap();
                let oracle = e.try_stat_matrix(&g, stat).unwrap();
                assert_bit_equal(&ooc, &oracle, &format!("{stat:?} {policy:?}"));
            }
        }
    }
}

/// Degenerate shapes: zero SNPs (empty result), zero samples (typed
/// error), single SNP.
#[test]
fn outofcore_handles_degenerate_shapes() {
    let empty = MemoryTileStore::from_matrix(&BitMatrix::zeros(5, 0), 4).unwrap();
    let m = LdEngine::new()
        .try_stat_matrix_with(Source::Store(&empty), LdStats::RSquared, &RunControl::new())
        .unwrap();
    assert_eq!(m.n_snps(), 0);
    LdEngine::new()
        .try_stat_rows_outofcore_with(
            &empty,
            LdStats::RSquared,
            |_| panic!("no slabs for an empty store"),
            &RunControl::new(),
        )
        .unwrap();

    let no_samples = MemoryTileStore::from_matrix(&BitMatrix::zeros(0, 3), 2).unwrap();
    let err = LdEngine::new()
        .try_stat_matrix_with(
            Source::Store(&no_samples),
            LdStats::RSquared,
            &RunControl::new(),
        )
        .unwrap_err();
    assert!(matches!(err, LdError::EmptyInput), "{err}");

    let mut one = BitMatrix::zeros(6, 1);
    one.set(0, 0, true);
    one.set(3, 0, true);
    let store = MemoryTileStore::from_matrix(&one, 1).unwrap();
    let ooc = LdEngine::new()
        .try_stat_matrix_with(Source::Store(&store), LdStats::RSquared, &RunControl::new())
        .unwrap();
    let oracle = LdEngine::new()
        .try_stat_matrix(&one, LdStats::RSquared)
        .unwrap();
    assert_bit_equal(&ooc, &oracle, "single snp");
}

/// Checkpoint plans are rejected by the streaming form with the typed
/// config error (same contract as the in-memory rows driver).
#[test]
fn outofcore_rows_reject_checkpoint_plans() {
    use ld_core::{CheckpointPlan, MemorySink};
    let g = random_matrix(&mut SmallRng::seed_from_u64(1), 10, 8);
    let store = MemoryTileStore::from_matrix(&g, 4).unwrap();
    let sink = MemorySink::new();
    let ctl = RunControl::new().with_checkpoint(CheckpointPlan::new(&sink).every_slabs(1));
    let err = LdEngine::new()
        .try_stat_rows_outofcore_with(&store, LdStats::RSquared, |_| {}, &ctl)
        .unwrap_err();
    assert!(matches!(err, LdError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("packed-matrix driver"), "{err}");
}

/// Out-of-core sharding: every shard of the grid computed from the
/// store merges into the full in-memory matrix.
#[test]
fn outofcore_shards_merge_to_the_full_matrix() {
    use ld_core::{merge_shard_states, state_to_matrix};
    let mut rng = SmallRng::seed_from_u64(0x54a6d);
    let g = random_matrix(&mut rng, 40, 37);
    let store = MemoryTileStore::from_matrix(&g, 6).unwrap();
    let e = LdEngine::new().threads(2).slab_rows(5);
    let full = e.try_stat_matrix(&g, LdStats::RSquared).unwrap();
    let plan = e.shard_plan_from(&Source::Store(&store), 3).unwrap();
    assert!(plan.len() > 1, "plan should actually shard");
    let mut states = Vec::new();
    for range in plan {
        let ctl = RunControl::new().with_shard(range);
        states.push(
            e.try_stat_shard_with(Source::Store(&store), LdStats::RSquared, &ctl)
                .unwrap(),
        );
    }
    let merged = merge_shard_states(states).unwrap();
    let m = state_to_matrix(&merged).unwrap();
    assert_bit_equal(&m, &full, "sharded out-of-core merge");
}
