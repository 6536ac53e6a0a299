//! CLI error taxonomy → process exit codes.
//!
//! | code | class    | examples                                           |
//! |------|----------|----------------------------------------------------|
//! | 1    | other    | internal failures with no better classification    |
//! | 2    | usage    | unknown command/flag, missing `--input`, bad value |
//! | 3    | parse    | malformed/truncated input file, duplicate samples  |
//! | 4    | resource | I/O failure, allocation failure, limit/budget hit  |
//! | 5    | interrupted | run cancelled (SIGINT / `--timeout`); with `--checkpoint` a resumable snapshot was flushed first |
//!
//! Every failure prints exactly one `error:` line on stderr — no panic
//! backtraces (`tests/corpus_cli.rs` and `tests/usage_cli.rs` assert this
//! through the built binary).

use std::fmt;

/// A classified CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Exit 2: the invocation itself was wrong.
    Usage(String),
    /// Exit 3: an input file violated its format.
    Parse(String),
    /// Exit 4: the system refused a resource (I/O, memory, limits).
    Resource(String),
    /// Exit 5: the run was cancelled cooperatively (SIGINT, `--timeout`);
    /// when `--checkpoint` was given, a resumable snapshot was flushed
    /// before this was reported.
    Interrupted(String),
    /// Exit 1: anything else.
    Other(String),
}

impl CliError {
    /// The process exit code for this class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Resource(_) => 4,
            CliError::Interrupted(_) => 5,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Parse(m)
            | CliError::Resource(m)
            | CliError::Interrupted(m)
            | CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

// Bare strings come from flag validation and similar user-facing checks.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Resource(e.to_string())
    }
}

impl From<ld_io::IoError> for CliError {
    fn from(e: ld_io::IoError) -> Self {
        use ld_io::IoError::*;
        match &e {
            Io(_) | LimitExceeded { .. } => CliError::Resource(e.to_string()),
            Parse { .. } | Truncated { .. } | DuplicateSample { .. } | Structure(_) => {
                CliError::Parse(e.to_string())
            }
        }
    }
}

impl From<ld_core::LdError> for CliError {
    fn from(e: ld_core::LdError) -> Self {
        use ld_core::LdError::*;
        match &e {
            AllocationFailed { .. } | BudgetExceeded { .. } | SizeOverflow { .. } | Worker(_) => {
                CliError::Resource(e.to_string())
            }
            DimensionMismatch { .. } | EmptyInput => CliError::Parse(e.to_string()),
            InvalidConfig { .. } => CliError::Usage(e.to_string()),
            Cancelled { .. } => CliError::Interrupted(e.to_string()),
            Checkpoint { .. } => CliError::Resource(e.to_string()),
            // shard inputs that disagree (fingerprint/header/overlap) or
            // leave gaps are malformed *input files* to the merge: exit 3
            ShardMismatch { .. } | IncompleteShardSet { .. } => CliError::Parse(e.to_string()),
            // a corrupt/truncated/transplanted tile-store chunk or manifest
            // is a malformed input, same class as a truncated .ms file
            TileStore { .. } => CliError::Parse(e.to_string()),
            _ => CliError::Other(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_per_class() {
        assert_eq!(CliError::Other("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Parse("x".into()).exit_code(), 3);
        assert_eq!(CliError::Resource("x".into()).exit_code(), 4);
    }

    #[test]
    fn io_error_classification() {
        let e: CliError = ld_io::IoError::Truncated {
            format: "ms",
            what: "EOF".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 3);
        let e: CliError = std::io::Error::other("disk on fire").into();
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn ld_error_classification() {
        let e: CliError = ld_core::LdError::EmptyInput.into();
        assert_eq!(e.exit_code(), 3);
        let e: CliError = ld_core::LdError::BudgetExceeded {
            required: 10,
            budget: 5,
        }
        .into();
        assert_eq!(e.exit_code(), 4);
        let e: CliError = ld_core::LdError::InvalidConfig {
            message: "tile size must be positive",
        }
        .into();
        assert_eq!(e.exit_code(), 2);
        let e: CliError = ld_core::LdError::Cancelled {
            reason: "SIGINT".into(),
            completed_slabs: 3,
        }
        .into();
        assert_eq!(e.exit_code(), 5);
        assert!(e.to_string().contains("SIGINT"));
        let e: CliError = ld_core::LdError::Checkpoint {
            message: "bad magic".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 4);
        let e: CliError = ld_core::LdError::ShardMismatch {
            message: "input 1 disagrees with input 0 on statistic".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 3);
        let e: CliError = ld_core::LdError::IncompleteShardSet {
            missing: vec![(2, 4)],
            n_slabs: 8,
        }
        .into();
        assert_eq!(e.exit_code(), 3);
        assert!(e.to_string().contains("missing"), "{e}");
        let e: CliError = ld_core::LdError::TileStore {
            message: "chunk 3: CRC mismatch".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 3);
        assert!(e.to_string().contains("chunk 3"), "{e}");
    }
}
