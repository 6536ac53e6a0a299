//! The malformed-input corpus through the shipped binary: every text
//! fixture under `crates/io/tests/corpus/` makes `gemm-ld r2 -i` exit with
//! its typed code and exactly one `error: …` line on stderr — never a
//! panic, never a second line. (`ld-io`'s own `corpus.rs` holds the
//! parsers to typed errors; this holds the CLI to how it reports them.)

use std::path::PathBuf;
use std::process::Command;

/// Exit code 3 is a data error; 4 is a resource error, which is how a
/// tripped input limit is classed.
const EXPECTED: [(&str, i32, &str); 17] = [
    (
        "bad_allele.ms",
        3,
        "ms parse error at line 4: invalid allele char '2'",
    ),
    (
        "bad_allele.vcf",
        3,
        "vcf parse error at line 3: unsupported allele '2'",
    ),
    (
        "bad_char.txt",
        3,
        "matrix parse error at line 1: invalid char 'x'",
    ),
    (
        "bad_ploidy.vcf",
        3,
        "vcf parse error at line 3: unsupported ploidy 3",
    ),
    ("bad_pos.vcf", 3, "vcf parse error at line 3: invalid POS"),
    (
        "bad_segsites.ms",
        3,
        "ms parse error at line 2: invalid segsites count",
    ),
    ("dup_sample.vcf", 3, "vcf duplicate sample 'S1' at line 2"),
    (
        "few_columns.vcf",
        3,
        "vcf parse error at line 3: record has fewer than 10 columns",
    ),
    (
        "huge_segsites.ms",
        4,
        "ms input exceeds site count limit (100000000) at line 2",
    ),
    (
        "missing_positions.ms",
        3,
        "ms input truncated: EOF before 'positions:'",
    ),
    (
        "multiallelic.vcf",
        3,
        "vcf parse error at line 3: multi-allelic sites are not supported",
    ),
    (
        "no_rows.ms",
        3,
        "ms input truncated: replicate with no haplotype rows",
    ),
    (
        "position_count_mismatch.ms",
        3,
        "ms parse error at line 3: 2 positions for 3 segsites",
    ),
    (
        "ragged.txt",
        3,
        "matrix parse error at line 2: row width 2 != 3",
    ),
    (
        "ragged_rows.ms",
        3,
        "ms parse error at line 5: haplotype row has 2 chars, expected 3",
    ),
    (
        "record_before_header.vcf",
        3,
        "vcf parse error at line 1: record before #CHROM header",
    ),
    (
        "short_header.vcf",
        3,
        "vcf parse error at line 2: header too short",
    ),
];

#[test]
fn every_text_fixture_is_rejected_with_its_code_and_one_error_line() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../io/tests/corpus");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("corpus directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let ext = p.extension().and_then(|e| e.to_str());
            matches!(ext, Some("ms" | "vcf" | "txt"))
        })
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 15,
        "corpus shrank: only {} text fixtures",
        fixtures.len()
    );

    for path in &fixtures {
        let name = path.file_name().and_then(|n| n.to_str()).expect("name");
        let Some(&(_, code, message)) = EXPECTED.iter().find(|(n, ..)| *n == name) else {
            panic!("{name}: new fixture — add its exit code and error line to EXPECTED");
        };
        let out = Command::new(env!("CARGO_BIN_EXE_gemm-ld"))
            .args(["r2", "-i"])
            .arg(path)
            .env("LD_NO_CPU_PROFILE", "1")
            .output()
            .expect("gemm-ld runs");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(
            !stderr.contains("panicked at"),
            "{name} panicked:\n{stderr}"
        );
        assert_eq!(
            stderr,
            format!("error: {message}\n"),
            "{name}: stderr is not exactly its one error line"
        );
        assert_eq!(out.status.code(), Some(code), "{name}: exit code");
        assert!(out.stdout.is_empty(), "{name}: wrote to stdout");
    }
    for (name, ..) in EXPECTED {
        assert!(
            fixtures.iter().any(|p| p.ends_with(name)),
            "{name} is expected but no longer in the corpus"
        );
    }
}
