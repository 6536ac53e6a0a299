//! The panel registry: fingerprint-keyed LRU cache of resident
//! [`LdMatrix`] panels under a global memory budget.
//!
//! A daemon is configured with named panel *sources* — text inputs
//! (`.ms`/`.vcf`/`.txt`) or chunked tile-store directories (PR 8). A
//! query names a panel; the registry returns the resident statistic
//! matrix, computing it on first touch through the fused engine (with
//! the caller's `CancelToken`/`Deadline` enforced at slab granularity).
//!
//! Residency is keyed by **content, not name**: the cache key is the
//! checkpoint fingerprint (`ld_core::matrix_fingerprint`, also stamped
//! into tile-store manifests) plus the statistic, so two names bound to
//! identical data share one resident triangle, and a panel re-registered
//! after its file changed can never serve stale answers.
//!
//! ## Graceful degradation: evict, then shed
//!
//! Resident triangles are charged against a byte budget. When admitting
//! a new panel would exceed it, least-recently-used panels are evicted
//! first (each counted in `panels_evicted`); only when the cache is
//! empty and the panel *still* does not fit does the registry refuse
//! with [`RegistryError::BudgetExceeded`] — which the server answers as
//! a typed `Shed`, never an OOM kill. Evicted triangles stay alive for
//! requests already holding their `Arc`; the budget models steady-state
//! residency, not transient peaks.

use ld_core::{CancelToken, Deadline, LdEngine, LdError, LdMatrix, LdStats, RunControl, Source};
use ld_io::tilestore::DirTileStore;
use ld_io::MatrixFormat;
use std::collections::HashMap;
use std::fmt;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Where a named panel's genotype data lives.
#[derive(Clone, Debug)]
pub enum PanelSource {
    /// A text input (`.ms`, `.vcf`, `.txt`/`.mat`) loaded whole.
    TextFile(PathBuf),
    /// A chunked on-disk tile store streamed out-of-core.
    TileStore(PathBuf),
}

impl PanelSource {
    /// Classifies `path`: directories are tile stores, files are text
    /// inputs.
    pub fn detect(path: impl AsRef<Path>) -> Self {
        let p = path.as_ref().to_path_buf();
        if p.is_dir() {
            PanelSource::TileStore(p)
        } else {
            PanelSource::TextFile(p)
        }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        match self {
            PanelSource::TextFile(p) | PanelSource::TileStore(p) => p,
        }
    }
}

/// Identity of a loaded panel (learned on first touch, then memoized).
#[derive(Clone, Copy, Debug)]
pub struct PanelMeta {
    /// Whole-matrix FNV-1a fingerprint (the checkpoint fingerprint).
    pub fingerprint: u64,
    /// SNP count.
    pub n_snps: usize,
    /// Sample count.
    pub n_samples: usize,
}

/// Why the registry could not produce a panel.
#[derive(Debug)]
pub enum RegistryError {
    /// No source registered under this name.
    UnknownPanel(String),
    /// The panel cannot fit the memory budget even with the cache
    /// emptied — the caller must shed the request.
    BudgetExceeded {
        /// Panel name.
        panel: String,
        /// Bytes the resident triangle needs.
        need: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Reading or parsing the panel source failed.
    Load {
        /// Panel name.
        panel: String,
        /// Located failure description.
        message: String,
    },
    /// The engine failed (or was cancelled) while computing the panel.
    Compute(LdError),
    /// A concurrent request is loading this panel and the caller's
    /// deadline expired while waiting for it.
    Busy {
        /// Panel name.
        panel: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPanel(p) => write!(f, "unknown panel '{p}'"),
            RegistryError::BudgetExceeded {
                panel,
                need,
                budget,
            } => write!(
                f,
                "panel '{panel}' needs {need} resident bytes, budget is {budget} \
                 (cache already emptied)"
            ),
            RegistryError::Load { panel, message } => {
                write!(f, "panel '{panel}': {message}")
            }
            RegistryError::Compute(e) => write!(f, "panel compute failed: {e}"),
            RegistryError::Busy { panel } => write!(
                f,
                "deadline expired waiting for a concurrent load of panel '{panel}'"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Monotonic cache statistics (see [`PanelRegistry::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Queries answered from a resident panel.
    pub hits: u64,
    /// Queries that had to load + compute their panel.
    pub misses: u64,
    /// Panels evicted to make room under the budget.
    pub evictions: u64,
    /// Loads refused because the panel exceeds the whole budget.
    pub sheds: u64,
}

/// Point-in-time registry state for the health endpoint and tests.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    /// Resident `(fingerprint, statistic, bytes)` triples, LRU first.
    pub resident: Vec<(u64, LdStats, usize)>,
    /// Bytes currently charged against the budget.
    pub used_bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// Registered source names, sorted.
    pub sources: Vec<String>,
    /// Hit/miss/evict/shed counts.
    pub stats: RegistryStats,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: u64,
    stat: LdStats,
}

struct Entry {
    matrix: Arc<LdMatrix>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    meta: HashMap<String, PanelMeta>,
    cache: HashMap<CacheKey, Entry>,
    loading: Vec<(String, LdStats)>,
    used_bytes: usize,
    clock: u64,
    stats: RegistryStats,
}

/// The registry: panel sources, the fingerprint-keyed LRU cache, and
/// the engine that computes panels on miss. Shared across the
/// connection threads behind an `Arc`; all methods take `&self`.
pub struct PanelRegistry {
    engine: LdEngine,
    budget_bytes: usize,
    sources: HashMap<String, PanelSource>,
    inner: Mutex<Inner>,
    loaded: Condvar,
}

impl PanelRegistry {
    /// A registry computing panels with `engine` under `budget_bytes`
    /// of resident-triangle budget.
    pub fn new(engine: LdEngine, budget_bytes: usize) -> Self {
        Self {
            engine,
            budget_bytes,
            sources: HashMap::new(),
            inner: Mutex::new(Inner::default()),
            loaded: Condvar::new(),
        }
    }

    /// Registers `name` → `source`. Returns `false` (and keeps the old
    /// binding) when the name is already taken.
    pub fn add_source(&mut self, name: impl Into<String>, source: PanelSource) -> bool {
        use std::collections::hash_map::Entry as MapEntry;
        match self.sources.entry(name.into()) {
            MapEntry::Occupied(_) => false,
            MapEntry::Vacant(v) => {
                v.insert(source);
                true
            }
        }
    }

    /// Registered panel names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sources.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The configured resident-byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Identity of `name` if it has been loaded at least once.
    pub fn meta(&self, name: &str) -> Option<PanelMeta> {
        lock(&self.inner).meta.get(name).copied()
    }

    /// The resident statistic matrix for panel `name`, loading and
    /// computing it on first touch. `token`/`deadline` bound the load:
    /// the engine polls them at every slab, and a request waiting on a
    /// concurrent load of the same panel gives up at the deadline.
    pub fn get(
        &self,
        name: &str,
        stat: LdStats,
        token: &CancelToken,
        deadline: Deadline,
    ) -> Result<Arc<LdMatrix>, RegistryError> {
        let source = self
            .sources
            .get(name)
            .ok_or_else(|| RegistryError::UnknownPanel(name.to_string()))?;

        // Fast path / load coordination.
        {
            let mut inner = lock(&self.inner);
            loop {
                if let Some(m) = inner.meta.get(name).copied() {
                    let key = CacheKey {
                        fingerprint: m.fingerprint,
                        stat,
                    };
                    if let Some(found) = touch(&mut inner, &key) {
                        inner.stats.hits += 1;
                        return Ok(found);
                    }
                }
                let slot = (name.to_string(), stat);
                if !inner.loading.contains(&slot) {
                    inner.loading.push(slot);
                    inner.stats.misses += 1;
                    break;
                }
                // another request is computing this panel: wait for it
                let remaining = deadline.remaining();
                if remaining.is_zero() || token.is_cancelled() {
                    return Err(RegistryError::Busy {
                        panel: name.to_string(),
                    });
                }
                let (guard, _timeout) = self
                    .loaded
                    .wait_timeout(inner, remaining.min(std::time::Duration::from_millis(100)))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner = guard;
            }
        }

        // Slow path: this request owns the load. Always clear the
        // loading slot and wake waiters, whatever happens below.
        let result = self.load_and_admit(name, source, stat, token, deadline);
        let mut inner = lock(&self.inner);
        inner.loading.retain(|(n, s)| !(n == name && *s == stat));
        self.loaded.notify_all();
        drop(inner);
        result
    }

    /// Loads the source, computes the statistic matrix, and admits it
    /// to the cache under the budget (evict-then-shed).
    fn load_and_admit(
        &self,
        name: &str,
        source: &PanelSource,
        stat: LdStats,
        token: &CancelToken,
        deadline: Deadline,
    ) -> Result<Arc<LdMatrix>, RegistryError> {
        let ctl = RunControl::new().with_token(token).with_deadline(deadline);
        // Whichever backing the panel has, it becomes one `Source`: the
        // identity, the budget reservation and the compute call below do
        // not care where the genotypes live.
        let (g, store);
        let src = match source {
            PanelSource::TextFile(path) => {
                g = load_text_panel(name, path)?;
                Source::from(&g)
            }
            PanelSource::TileStore(dir) => {
                store = DirTileStore::open(dir).map_err(|e| RegistryError::Load {
                    panel: name.to_string(),
                    message: e.to_string(),
                })?;
                Source::Store(&store)
            }
        };
        let meta = PanelMeta {
            fingerprint: src.fingerprint(),
            n_snps: src.n_snps(),
            n_samples: src.n_samples(),
        };
        self.reserve(name, meta)?;
        let matrix = self
            .engine
            .try_stat_matrix_with(src, stat, &ctl)
            .map_err(|e| self.unreserve_on(meta, e))?;

        let bytes = triangle_bytes(meta.n_snps);
        let matrix = Arc::new(matrix);
        let mut inner = lock(&self.inner);
        inner.meta.insert(name.to_string(), meta);
        let key = CacheKey {
            fingerprint: meta.fingerprint,
            stat,
        };
        // A concurrent load of a same-fingerprint alias may have won the
        // race; keep the resident one and release our reservation.
        if let Some(existing) = touch(&mut inner, &key) {
            inner.used_bytes = inner.used_bytes.saturating_sub(bytes);
            return Ok(existing);
        }
        inner.clock += 1;
        let last_used = inner.clock;
        inner.cache.insert(
            key,
            Entry {
                matrix: Arc::clone(&matrix),
                bytes,
                last_used,
            },
        );
        Ok(matrix)
    }

    /// Charges `meta`'s triangle against the budget, evicting LRU
    /// panels first and shedding only when eviction cannot make room.
    fn reserve(&self, name: &str, meta: PanelMeta) -> Result<(), RegistryError> {
        let need = triangle_bytes(meta.n_snps);
        let mut inner = lock(&self.inner);
        while inner.used_bytes.saturating_add(need) > self.budget_bytes {
            let Some((&victim, _)) = inner
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k, e.last_used))
            else {
                break; // cache empty: nothing left to evict
            };
            if let Some(e) = inner.cache.remove(&victim) {
                inner.used_bytes = inner.used_bytes.saturating_sub(e.bytes);
                inner.stats.evictions += 1;
                ld_trace::add(ld_trace::Counter::PanelsEvicted, 1);
            }
        }
        if inner.used_bytes.saturating_add(need) > self.budget_bytes {
            inner.stats.sheds += 1;
            return Err(RegistryError::BudgetExceeded {
                panel: name.to_string(),
                need,
                budget: self.budget_bytes,
            });
        }
        inner.used_bytes += need;
        Ok(())
    }

    /// Releases a reservation after a failed compute and wraps the error.
    fn unreserve_on(&self, meta: PanelMeta, e: LdError) -> RegistryError {
        let bytes = triangle_bytes(meta.n_snps);
        let mut inner = lock(&self.inner);
        inner.used_bytes = inner.used_bytes.saturating_sub(bytes);
        RegistryError::Compute(e)
    }

    /// Current cache state + counters.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        let mut resident: Vec<(u64, LdStats, usize, u64)> = inner
            .cache
            .iter()
            .map(|(k, e)| (k.fingerprint, k.stat, e.bytes, e.last_used))
            .collect();
        resident.sort_by_key(|&(_, _, _, used)| used);
        RegistrySnapshot {
            resident: resident
                .into_iter()
                .map(|(fp, s, b, _)| (fp, s, b))
                .collect(),
            used_bytes: inner.used_bytes,
            budget_bytes: self.budget_bytes,
            sources: {
                let mut v: Vec<String> = self.sources.keys().cloned().collect();
                v.sort_unstable();
                v
            },
            stats: inner.stats,
        }
    }
}

/// Bytes of a resident packed triangle for `n` SNPs.
pub fn triangle_bytes(n: usize) -> usize {
    n.saturating_add(1).saturating_mul(n).saturating_mul(8) / 2
}

/// Loads a text panel in the format its extension names — the same
/// [`MatrixFormat`] decision the CLI's `-i` goes through.
fn load_text_panel(name: &str, path: &Path) -> Result<ld_bitmat::BitMatrix, RegistryError> {
    let load_err = |message: String| RegistryError::Load {
        panel: name.to_string(),
        message,
    };
    let format = MatrixFormat::from_path(path).map_err(|ext| {
        load_err(format!(
            "unsupported panel extension '.{ext}' (expected ms/vcf/txt or a store directory)"
        ))
    })?;
    let file = std::fs::File::open(path)
        .map_err(|e| load_err(format!("cannot open {}: {e}", path.display())))?;
    format
        .read(BufReader::with_capacity(
            MatrixFormat::READ_BUFFER_BYTES,
            file,
        ))
        .map_err(|e| load_err(e.to_string()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bumps `key`'s recency and returns its matrix when resident.
fn touch(inner: &mut Inner, key: &CacheKey) -> Option<Arc<LdMatrix>> {
    inner.clock += 1;
    let clock = inner.clock;
    inner.cache.get_mut(key).map(|e| {
        e.last_used = clock;
        Arc::clone(&e.matrix)
    })
}
