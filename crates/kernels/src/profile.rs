//! Tuned per-CPU profiles: the autotuner's persistent output.
//!
//! `ld-cli tune` measures the best kernel/blocking/slab/chunk parameters
//! on the running machine and stores them in a small JSON file keyed by
//! the [`CpuFingerprint`]. Subsequent runs load the profile and use the
//! tuned parameters as defaults; explicit CLI flags and environment
//! overrides always win.
//!
//! File format (`schema_version` 1):
//!
//! ```json
//! {"schema_version":1,"crc32":3735928559,"payload":{
//!    "fingerprint":{...},"tuned":{...}}}
//! ```
//!
//! The CRC-32 (IEEE) is computed over the exact byte span of the
//! `payload` value as it appears in the file, so any bit damage to the
//! tuned parameters — truncation, flipped bits, a partial write — is
//! detected and the loader falls back to the built-in defaults with a
//! single warning. The profile is additionally rejected when its
//! fingerprint does not match the running CPU (the tuning is only valid
//! on the machine class that produced it). The envelope — version check,
//! payload CRC, and the trailing newline the loader demands back so that
//! no truncation parses — is `ld_trace::json`'s, shared with the
//! tile-store manifest.
//!
//! Loading is opt-out: `LD_NO_CPU_PROFILE=1` ignores any cached profile
//! and `LD_CPU_PROFILE=<path>` overrides the default location
//! (`$XDG_CACHE_HOME/gemm-ld/cpu-profile.json`, falling back to
//! `~/.cache`). Writing is the CLI's job (atomic rename via `ld-io`);
//! this module only defines the format, the serializer, and the loader.

use crate::micro::KernelKind;
use crate::params::BlockSizes;
use ld_popcount::{CpuFeatures, CpuFingerprint};
use std::fmt;
use std::path::PathBuf;

/// Version of the on-disk profile format this build reads and writes.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// The parameters the tuner searches, with their measured score.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedParams {
    /// Winning micro-kernel.
    pub kernel: KernelKind,
    /// Winning cache-blocking parameters.
    pub blocks: BlockSizes,
    /// Winning fused-driver slab height (rows).
    pub slab_rows: usize,
    /// Winning scheduler chunk size (slabs per work unit).
    pub chunk_slabs: usize,
    /// Thread count the measurements were taken at.
    pub threads: usize,
    /// Best observed score (higher is better).
    pub score: f64,
    /// What `score` measures: `"words-per-cycle"` when the trace
    /// recorder + TSC were available, `"runs-per-sec"` otherwise.
    pub metric: String,
}

/// A tuned profile: fingerprint key + tuned parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuProfile {
    /// The CPU the parameters were measured on.
    pub fingerprint: CpuFingerprint,
    /// The measured-best parameters.
    pub tuned: TunedParams,
}

/// Why a profile failed to load. Every variant is a *soft* failure: the
/// caller warns once and falls back to the built-in defaults.
#[derive(Debug)]
pub enum ProfileError {
    /// The file could not be read (missing files are reported separately
    /// by [`CpuProfile::load`] returning `Ok(None)`).
    Io(std::io::Error),
    /// The file is damaged or structurally wrong (bad JSON, failed CRC,
    /// unknown schema version, missing or ill-typed fields).
    Malformed(String),
    /// The file is intact but was measured on a different CPU.
    FingerprintMismatch {
        /// Fingerprint recorded in the profile.
        profile: String,
        /// Fingerprint of the running CPU.
        host: String,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "cannot read profile: {e}"),
            ProfileError::Malformed(m) => write!(f, "malformed profile: {m}"),
            ProfileError::FingerprintMismatch { profile, host } => write!(
                f,
                "profile was tuned for a different CPU (profile: {profile}; host: {host})"
            ),
        }
    }
}
impl std::error::Error for ProfileError {}

// ---------------------------------------------------------------------
// Serialization. The envelope (version, payload CRC, trailing newline),
// the JSON parser and the string escaper are `ld_trace::json`'s — shared
// with the tile-store manifest; this module owns the payload fields.

pub use ld_trace::json::crc32;
use ld_trace::json::{self, escape_json as escape, Json};

fn fingerprint_json(fp: &CpuFingerprint) -> String {
    format!(
        concat!(
            "{{\"arch\":\"{}\",\"vendor\":\"{}\",\"family\":{},\"model\":{},",
            "\"features\":{{\"popcnt\":{},\"avx2\":{},\"avx512f\":{},\"avx512vpopcntdq\":{}}},",
            "\"l1d_kb\":{},\"l2_kb\":{},\"l3_kb\":{}}}"
        ),
        escape(&fp.arch),
        escape(&fp.vendor),
        fp.family,
        fp.model,
        fp.features.popcnt,
        fp.features.avx2,
        fp.features.avx512f,
        fp.features.avx512vpopcntdq,
        fp.l1d_kb,
        fp.l2_kb,
        fp.l3_kb,
    )
}

impl CpuProfile {
    /// Serializes the profile, computing the payload CRC.
    pub fn to_json(&self) -> String {
        let t = &self.tuned;
        let payload = format!(
            concat!(
                "{{\"fingerprint\":{},\"tuned\":{{\"kernel\":\"{}\",",
                "\"kc\":{},\"mc\":{},\"nc\":{},\"slab_rows\":{},\"chunk_slabs\":{},",
                "\"threads\":{},\"score\":{:.6},\"metric\":\"{}\"}}}}"
            ),
            fingerprint_json(&self.fingerprint),
            t.kernel.name(),
            t.blocks.kc,
            t.blocks.mc,
            t.blocks.nc,
            t.slab_rows,
            t.chunk_slabs,
            t.threads,
            t.score,
            escape(&t.metric),
        );
        json::seal(PROFILE_SCHEMA_VERSION, &payload)
    }

    /// Parses and verifies profile bytes (version, CRC, structure).
    pub fn parse(bytes: &[u8]) -> Result<CpuProfile, ProfileError> {
        let payload = json::open(bytes, PROFILE_SCHEMA_VERSION).map_err(ProfileError::Malformed)?;

        let fpj = payload
            .get("fingerprint")
            .ok_or_else(|| ProfileError::Malformed("missing fingerprint".into()))?;
        let featj = fpj
            .get("features")
            .ok_or_else(|| ProfileError::Malformed("missing features".into()))?;
        let feat_bool = |k: &str| {
            featj
                .get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| ProfileError::Malformed(format!("missing feature {k}")))
        };
        let fp_str = |k: &str| {
            fpj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProfileError::Malformed(format!("missing fingerprint.{k}")))
        };
        let fp_u32 = |k: &str| {
            fpj.get(k)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| ProfileError::Malformed(format!("missing fingerprint.{k}")))
        };
        let fingerprint = CpuFingerprint {
            arch: fp_str("arch")?,
            vendor: fp_str("vendor")?,
            family: fp_u32("family")?,
            model: fp_u32("model")?,
            features: CpuFeatures {
                popcnt: feat_bool("popcnt")?,
                avx2: feat_bool("avx2")?,
                avx512f: feat_bool("avx512f")?,
                avx512vpopcntdq: feat_bool("avx512vpopcntdq")?,
            },
            l1d_kb: fp_u32("l1d_kb")?,
            l2_kb: fp_u32("l2_kb")?,
            l3_kb: fp_u32("l3_kb")?,
        };

        let tj = payload
            .get("tuned")
            .ok_or_else(|| ProfileError::Malformed("missing tuned".into()))?;
        let t_usize = |k: &str| {
            tj.get(k)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| ProfileError::Malformed(format!("missing tuned.{k}")))
        };
        let kernel_name = tj
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or_else(|| ProfileError::Malformed("missing tuned.kernel".into()))?;
        let kernel = kernel_name
            .parse::<KernelKind>()
            .map_err(ProfileError::Malformed)?;
        let tuned = TunedParams {
            kernel,
            blocks: BlockSizes {
                kc: t_usize("kc")?,
                mc: t_usize("mc")?,
                nc: t_usize("nc")?,
            },
            slab_rows: t_usize("slab_rows")?,
            chunk_slabs: t_usize("chunk_slabs")?,
            threads: t_usize("threads")?,
            score: tj
                .get("score")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProfileError::Malformed("missing tuned.score".into()))?,
            metric: tj
                .get("metric")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProfileError::Malformed("missing tuned.metric".into()))?,
        };
        if tuned.slab_rows == 0 || tuned.chunk_slabs == 0 {
            return Err(ProfileError::Malformed(
                "tuned slab_rows/chunk_slabs must be at least 1".into(),
            ));
        }
        Ok(CpuProfile { fingerprint, tuned })
    }

    /// Loads and verifies a profile from `path`.
    ///
    /// Returns `Ok(None)` when the file simply does not exist (the
    /// untuned case — not an error), `Err` for every damaged or
    /// mismatched profile, and checks the fingerprint against the
    /// running CPU.
    pub fn load(path: &std::path::Path) -> Result<Option<CpuProfile>, ProfileError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ProfileError::Io(e)),
        };
        let profile = Self::parse(&bytes)?;
        let host = CpuFingerprint::detect();
        if profile.fingerprint != *host {
            return Err(ProfileError::FingerprintMismatch {
                profile: profile.fingerprint.summary(),
                host: host.summary(),
            });
        }
        Ok(Some(profile))
    }
}

// ---------------------------------------------------------------------
// Process-wide active profile.

/// Default profile location: `$LD_CPU_PROFILE`, else
/// `$XDG_CACHE_HOME/gemm-ld/cpu-profile.json`, else
/// `$HOME/.cache/gemm-ld/cpu-profile.json`.
pub fn profile_path() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("LD_CPU_PROFILE") {
        if !p.trim().is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    let cache_root = std::env::var("XDG_CACHE_HOME")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var("HOME")
                .ok()
                .filter(|p| !p.trim().is_empty())
                .map(|h| PathBuf::from(h).join(".cache"))
        })?;
    Some(cache_root.join("gemm-ld").join("cpu-profile.json"))
}

/// True when `LD_NO_CPU_PROFILE` is set to anything but `""`/`"0"`.
pub fn profile_disabled() -> bool {
    match std::env::var("LD_NO_CPU_PROFILE") {
        Ok(v) => !v.trim().is_empty() && v.trim() != "0",
        Err(_) => false,
    }
}

static ACTIVE: std::sync::OnceLock<Option<CpuProfile>> = std::sync::OnceLock::new();

/// The process-wide tuned profile, if one is cached, valid for this CPU,
/// and not disabled via `LD_NO_CPU_PROFILE`. Damaged or mismatched
/// profiles produce exactly one stderr warning per process and are then
/// treated as absent — tuning must never be able to crash a pipeline.
pub fn load_active() -> Option<&'static CpuProfile> {
    ACTIVE
        .get_or_init(|| {
            if profile_disabled() {
                return None;
            }
            let path = profile_path()?;
            match CpuProfile::load(&path) {
                Ok(found) => found,
                Err(e) => {
                    eprintln!(
                        "warning: ignoring CPU profile {}: {e}; using built-in defaults \
                         (re-run `tune` to regenerate)",
                        path.display()
                    );
                    None
                }
            }
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CpuProfile {
        CpuProfile {
            fingerprint: CpuFingerprint::detect().clone(),
            tuned: TunedParams {
                kernel: KernelKind::Avx2HarleySeal,
                blocks: BlockSizes {
                    kc: 128,
                    mc: 256,
                    nc: 2048,
                },
                slab_rows: 96,
                chunk_slabs: 2,
                threads: 2,
                score: 1.234567,
                metric: "words-per-cycle".to_string(),
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let p = sample_profile();
        let json = p.to_json();
        let q = CpuProfile::parse(json.as_bytes()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn version_skew_is_rejected() {
        let p = sample_profile();
        let json = p
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let e = CpuProfile::parse(json.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("schema_version"), "{e}");
    }

    #[test]
    fn load_missing_file_is_ok_none() {
        let r = CpuProfile::load(std::path::Path::new("/nonexistent/profile.json")).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn load_rejects_wrong_fingerprint() {
        let mut p = sample_profile();
        p.fingerprint.model = p.fingerprint.model.wrapping_add(7);
        let dir = std::env::temp_dir().join(format!("ld-profile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-cpu.json");
        std::fs::write(&path, p.to_json()).unwrap();
        let e = CpuProfile::load(&path).unwrap_err();
        assert!(matches!(e, ProfileError::FingerprintMismatch { .. }), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_path_respects_env_contract() {
        // Cannot mutate process env safely in parallel tests; just check
        // the fallback shape is sane for whatever env we run under.
        if let Some(p) = profile_path() {
            assert!(p.to_string_lossy().ends_with("cpu-profile.json"));
        }
    }
}
