//! Exit-code contract of the `repro` binary.
//!
//! CI jobs and wrapper scripts branch on *why* a run failed — a corrupted
//! checkpoint needs a different escalation than a solver timeout or a bad
//! flag. Every failure class therefore gets a stable, documented exit
//! code, and the mapping from the typed errors ([`HarnessError`],
//! [`ServeError`]) lives here so the binaries and the tests agree on it.
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 1 | generic failure (unknown experiment id, CSV write, exhausted chunk retries) |
//! | 2 | usage / configuration error (bad flags, invalid pipeline config) |
//! | 3–5 | retired with the perf digest; never reused |
//! | 6 | checkpoint corrupt, version-mismatched, or from a different sweep |
//! | 7–9 | reserved: no driver surfaces a pipeline error as an exit code |
//! | 10 | serve daemon failure (shard budget exhausted, socket trouble, drain failed) |

use rwc_harness::{CheckpointError, HarnessError};
use rwc_serve::ServeError;

/// Generic failure without a more specific class.
pub(crate) const EXIT_GENERIC: u8 = 1;
/// Bad command line or invalid pipeline configuration.
pub const EXIT_USAGE: u8 = 2;
/// Checkpoint corrupt, wrong version, or fingerprint mismatch.
pub const EXIT_CHECKPOINT: u8 = 6;
/// Serve daemon failure: shards unhealthy with work stranded, socket or
/// drain trouble.
pub const EXIT_SERVE: u8 = 10;

/// Exit code for a sweep-runtime error.
pub fn harness_exit_code(err: &HarnessError) -> u8 {
    match err {
        HarnessError::Checkpoint(CheckpointError::Io(_)) => EXIT_GENERIC,
        HarnessError::Checkpoint(_) => EXIT_CHECKPOINT,
        HarnessError::ChunkFailed { .. } => EXIT_GENERIC,
    }
}

/// Exit code for a serve-daemon error. Configuration mistakes are usage
/// errors and checkpoint trouble keeps its class; everything the daemon
/// itself caused (shard failure, sockets, shutdown races) is `10`.
pub fn serve_exit_code(err: &ServeError) -> u8 {
    match err {
        ServeError::Config(_) => EXIT_USAGE,
        ServeError::Checkpoint(CheckpointError::Io(_)) => EXIT_SERVE,
        ServeError::Checkpoint(_) => EXIT_CHECKPOINT,
        ServeError::Io(_) | ServeError::ShardFailed { .. } | ServeError::ShuttingDown => {
            EXIT_SERVE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        // 3–5 belonged to the retired perf digest and 7–9 are reserved; both
        // stay unused, so a wrapper that still branches on them can never
        // see a new meaning.
        let codes = [(EXIT_GENERIC, 1), (EXIT_USAGE, 2), (EXIT_CHECKPOINT, 6), (EXIT_SERVE, 10)];
        for (code, pinned) in codes {
            assert_eq!(code, pinned, "exit codes are a published contract");
        }
    }

    #[test]
    fn harness_variants_map_to_their_classes() {
        let corrupt = HarnessError::Checkpoint(CheckpointError::Corrupt("bits".into()));
        assert_eq!(harness_exit_code(&corrupt), EXIT_CHECKPOINT);
        let version = HarnessError::Checkpoint(CheckpointError::VersionMismatch {
            found: 2,
            expected: 1,
        });
        assert_eq!(harness_exit_code(&version), EXIT_CHECKPOINT);
        let config = HarnessError::Checkpoint(CheckpointError::ConfigMismatch("seed".into()));
        assert_eq!(harness_exit_code(&config), EXIT_CHECKPOINT);
        let io = HarnessError::Checkpoint(CheckpointError::Io("enoent".into()));
        assert_eq!(harness_exit_code(&io), EXIT_GENERIC);
        let failed =
            HarnessError::ChunkFailed { chunk: 3, attempts: 3, message: "boom".into() };
        assert_eq!(harness_exit_code(&failed), EXIT_GENERIC);
    }

    #[test]
    fn serve_variants_map_to_their_classes() {
        assert_eq!(serve_exit_code(&ServeError::Config("zero shards".into())), EXIT_USAGE);
        assert_eq!(serve_exit_code(&ServeError::Io("bind".into())), EXIT_SERVE);
        assert_eq!(serve_exit_code(&ServeError::ShuttingDown), EXIT_SERVE);
        let failed = ServeError::ShardFailed { shard: 1, message: "boom".into() };
        assert_eq!(serve_exit_code(&failed), EXIT_SERVE);
        let corrupt = ServeError::Checkpoint(CheckpointError::Corrupt("bits".into()));
        assert_eq!(serve_exit_code(&corrupt), EXIT_CHECKPOINT);
        let io = ServeError::Checkpoint(CheckpointError::Io("enoent".into()));
        assert_eq!(serve_exit_code(&io), EXIT_SERVE);
    }
}
