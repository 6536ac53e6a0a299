//! Profile-file robustness: damaged profiles must degrade to the
//! built-in defaults — an error report, never a crash, and never a
//! silent acceptance of corrupted tuning parameters.
//!
//! Corpora: every truncation prefix of a valid profile, every single-bit
//! flip of the same, and an intact profile recorded for a different CPU.

use ld_kernels::profile::crc32;
use ld_kernels::{BlockSizes, CpuProfile, KernelKind, ProfileError, TunedParams};
use ld_popcount::CpuFingerprint;

fn valid_profile() -> CpuProfile {
    CpuProfile {
        fingerprint: CpuFingerprint::detect().clone(),
        tuned: TunedParams {
            kernel: KernelKind::Scalar,
            blocks: BlockSizes::default(),
            slab_rows: 64,
            chunk_slabs: 1,
            threads: 1,
            score: 1.25,
            metric: "words-per-cycle".to_string(),
        },
    }
}

#[test]
fn every_truncation_prefix_is_rejected_not_panicking() {
    let json = valid_profile().to_json();
    let bytes = json.as_bytes();
    for cut in 0..bytes.len() {
        let r = CpuProfile::parse(&bytes[..cut]);
        assert!(
            r.is_err(),
            "truncation at {cut}/{} parsed as valid: {:?}",
            bytes.len(),
            r
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_or_crc_caught() {
    // A flipped bit may break the JSON outright, corrupt the version, or
    // land inside the payload — where only the CRC can catch it. No
    // flip may yield a profile whose tuned parameters differ from the
    // original while parsing as valid.
    let p = valid_profile();
    let json = p.to_json();
    let mut accepted_identical = 0usize;
    for byte in 0..json.len() {
        for bit in 0..8 {
            let mut bytes = json.as_bytes().to_vec();
            bytes[byte] ^= 1 << bit;
            match CpuProfile::parse(&bytes) {
                Err(_) => {}
                Ok(q) => {
                    // Only acceptable if the damage was semantically
                    // invisible (e.g. flipping "1.25" to "1.25" cannot
                    // happen, but a flip inside an ignored whitespace
                    // run could in principle parse identically).
                    assert_eq!(
                        q, p,
                        "bit flip at byte {byte} bit {bit} silently changed the profile"
                    );
                    accepted_identical += 1;
                }
            }
        }
    }
    // The CRC covers the whole payload byte-for-byte, so in practice no
    // flip survives; tolerate only provably-identical parses.
    assert_eq!(
        accepted_identical, 0,
        "expected every bit flip to be caught by structure or CRC"
    );
}

#[test]
fn wrong_cpu_fingerprint_is_a_mismatch_not_a_parse_error() {
    let mut p = valid_profile();
    p.fingerprint.family = p.fingerprint.family.wrapping_add(1);
    p.fingerprint.vendor = "ImaginaryCPU".to_string();
    let dir = std::env::temp_dir().join(format!("ld-profile-robust-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("foreign.json");
    std::fs::write(&path, p.to_json()).unwrap();
    // Parsing succeeds (the file is intact)...
    let parsed = CpuProfile::parse(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(parsed.fingerprint.vendor, "ImaginaryCPU");
    // ...but loading rejects it for this host.
    match CpuProfile::load(&path) {
        Err(ProfileError::FingerprintMismatch { profile, host }) => {
            assert!(profile.contains("ImaginaryCPU"));
            assert!(!host.contains("ImaginaryCPU"));
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_and_empty_files_are_rejected() {
    for garbage in [
        &b""[..],
        b"not json at all",
        b"{}",
        b"[]",
        b"{\"schema_version\":1}",
        b"{\"schema_version\":1,\"crc32\":0,\"payload\":{}}",
        b"\xff\xfe\x00\x01binary",
    ] {
        let r = CpuProfile::parse(garbage);
        assert!(r.is_err(), "garbage parsed as valid: {garbage:?}");
    }
}

#[test]
fn hostile_nesting_is_rejected_not_a_stack_overflow() {
    // deeper than any stack: the JSON reader must cap its recursion
    let n = 300_000;
    for (what, doc) in [
        ("unclosed arrays", "[".repeat(n)),
        ("unclosed objects", "{\"payload\":".repeat(n)),
        ("balanced arrays", "[".repeat(n) + &"]".repeat(n)),
    ] {
        // the sealed envelope is only parsed when it ends in a newline
        match CpuProfile::parse((doc + "\n").as_bytes()) {
            Err(ProfileError::Malformed(msg)) => {
                assert!(msg.contains("nesting deeper than"), "{what}: {msg}")
            }
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn zeroed_tuning_parameters_are_rejected_even_with_valid_crc() {
    // A well-formed file whose tuned values are nonsense (zeros) must be
    // rejected up front, not propagated into the engine where a zero
    // slab height would panic much later.
    let mut p = valid_profile();
    p.tuned.slab_rows = 0;
    let json = p.to_json();
    // to_json recomputes the CRC, so the file is "intact" — the loader
    // must still reject the zero.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // sanity: CRC impl alive
    let e = CpuProfile::parse(json.as_bytes()).unwrap_err();
    assert!(e.to_string().contains("at least 1"), "{e}");
}
