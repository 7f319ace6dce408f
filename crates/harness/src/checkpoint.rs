//! Versioned, checksummed sweep checkpoints.
//!
//! A checkpoint is a JSON envelope
//!
//! ```json
//! {"version": 1, "checksum": "fnv1a64:…", "payload": { … }}
//! ```
//!
//! whose payload captures sweep progress at **chunk granularity**: the
//! fingerprint of the run (fleet size, seed, chunk size, pipeline label),
//! every completed chunk's [`FleetAccumulator`] partial and per-chunk
//! metrics snapshot, plus the scenario round index and RNG/link cursors
//! for stream-resumable callers. Because links are generated independently
//! from `(seed, link_id)` and merges are slot-ordered, replaying the
//! missing chunks and merging them with the restored partials in chunk
//! order reproduces an uninterrupted run **byte for byte**.
//!
//! Integrity: the checksum is FNV-1a 64 over the canonical payload JSON.
//! The vendored `serde_json` writer/parser pair round-trips its own output
//! exactly (`to_string(&parse(s)?) == s`), so the loader re-serializes the
//! parsed payload and recomputes the hash — any bit flip or truncation
//! either breaks the JSON or breaks the hash, and both are rejected with a
//! typed [`CheckpointError`] instead of a panic or silent corruption.
//!
//! Durability: writes go to a sibling temp file first and are moved into
//! place with `rename`, which is atomic on POSIX filesystems — a kill
//! mid-write leaves either the previous complete checkpoint or a stray
//! temp file, never a torn one.

use rwc_obs::MetricsSnapshot;
use rwc_telemetry::FleetAccumulator;
use serde::{map_field, Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Current checkpoint format version. Bumped on any payload schema change;
/// loaders reject other versions rather than guessing.
pub const CHECKPOINT_VERSION: u64 = 1;

/// FNV-1a 64-bit hash — small, dependency-free, and more than strong
/// enough to catch accidental corruption (it is not a cryptographic MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a checkpoint could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not a valid checkpoint: unparseable JSON, missing
    /// envelope fields, checksum mismatch, or a payload that does not
    /// deserialize. Covers bit flips and truncation.
    Corrupt(String),
    /// The file is a checkpoint from another format version.
    VersionMismatch {
        /// Version recorded in the file.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The checkpoint is valid but belongs to a different run (fingerprint
    /// disagrees — different fleet, seed, chunk size or pipeline label).
    ConfigMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint rejected: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not supported (this build reads version {expected})"
            ),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint belongs to a different run: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The [`SweepFingerprint::mode`] of every fleet sweep this build runs:
/// fused analysis over counter-based generation, the only telemetry
/// pipeline. Checkpoints written under the retired serial sampler say
/// `"fused"` or `"legacy"` and fail [`SweepFingerprint::verify`] — resuming
/// one would merge byte-different traces.
pub const SWEEP_MODE: &str = "fused+batchgen";

/// Identity of a sweep: a checkpoint may only resume a run whose
/// fingerprint matches exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepFingerprint {
    /// Total links in the fleet.
    pub n_links: u64,
    /// Links per chunk (fixed for the lifetime of the checkpoint so a
    /// resume with a different thread count still replays the same
    /// chunk boundaries).
    pub chunk_size: u64,
    /// Master fleet seed.
    pub seed: u64,
    /// Telemetry pipeline label: [`SWEEP_MODE`] on every fleet sweep.
    pub mode: String,
}

impl SweepFingerprint {
    /// Checks that `other` (from a loaded checkpoint) matches this run.
    pub fn verify(&self, other: &SweepFingerprint) -> Result<(), CheckpointError> {
        if self == other {
            return Ok(());
        }
        Err(CheckpointError::ConfigMismatch(format!(
            "expected {self:?}, checkpoint carries {other:?}"
        )))
    }
}

/// One completed chunk: its id, its accumulator partial and (when metrics
/// collection is on) the metrics its links recorded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkCheckpoint {
    /// Chunk index (`links [id·chunk_size, …)`).
    pub id: u64,
    /// Slot-ordered accumulator partial for the chunk's links.
    pub accumulator: FleetAccumulator,
    /// Per-chunk metrics partial, absent when the sweep runs unobserved.
    pub metrics: Option<MetricsSnapshot>,
}

/// The checkpoint payload: everything needed to continue a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Identity of the run this checkpoint belongs to.
    pub fingerprint: SweepFingerprint,
    /// Completed chunks, sorted by id.
    pub chunks: Vec<ChunkCheckpoint>,
    /// Scenario TE-round cursor (0 for pure fleet sweeps); carried so the
    /// same envelope serves scenario-driver resume.
    pub round_index: u64,
    /// RNG stream state for stream-resumable callers; fleet sweeps
    /// regenerate links from `(seed, link_id)` and leave this `None`.
    pub rng_state: Option<[u64; 4]>,
    /// First link id not covered by a completed chunk — the link cursor.
    pub next_link: u64,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a fresh run.
    pub fn new(fingerprint: SweepFingerprint) -> Self {
        Self { fingerprint, chunks: Vec::new(), round_index: 0, rng_state: None, next_link: 0 }
    }

    /// Ids of the chunks this checkpoint has already completed.
    pub fn completed_ids(&self) -> Vec<u64> {
        self.chunks.iter().map(|c| c.id).collect()
    }
}

/// Serializes `checkpoint` and writes it atomically: the envelope goes to
/// a sibling `.tmp` file which is then `rename`d over `path`.
pub fn write_atomic(path: &Path, checkpoint: &SweepCheckpoint) -> Result<(), CheckpointError> {
    let payload = serde_json::to_string(checkpoint)
        .map_err(|e| CheckpointError::Io(format!("serialize: {e:?}")))?;
    let checksum = fnv1a64(payload.as_bytes());
    let envelope = format!(
        "{{\"version\":{CHECKPOINT_VERSION},\"checksum\":\"fnv1a64:{checksum:016x}\",\"payload\":{payload}}}"
    );
    let tmp = tmp_path(path);
    std::fs::write(&tmp, envelope)
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::Io(format!("rename into {}: {e}", path.display())))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Loads and verifies a checkpoint: envelope shape, format version,
/// checksum over the canonical payload bytes, then payload deserialization.
/// Every corruption mode (bit flip, truncation, version bump) maps to a
/// typed [`CheckpointError`].
pub fn load(path: &Path) -> Result<SweepCheckpoint, CheckpointError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    load_str(&text)
}

/// [`load`] over already-read bytes — the seam the corruption tests use.
pub fn load_str(text: &str) -> Result<SweepCheckpoint, CheckpointError> {
    let envelope = serde_json::parse(text)
        .map_err(|e| CheckpointError::Corrupt(format!("unparseable envelope: {e:?}")))?;
    let map = envelope
        .as_map()
        .ok_or_else(|| CheckpointError::Corrupt("envelope is not a JSON object".into()))?;
    let version = map_field(map, "version")
        .as_u64()
        .ok_or_else(|| CheckpointError::Corrupt("envelope has no numeric `version`".into()))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let recorded = map_field(map, "checksum")
        .as_str()
        .ok_or_else(|| CheckpointError::Corrupt("envelope has no `checksum` string".into()))?;
    let payload = match map_field(map, "payload") {
        Content::Null => return Err(CheckpointError::Corrupt("envelope has no `payload`".into())),
        p => p,
    };
    // The writer/parser pair round-trips exactly, so re-serializing the
    // parsed payload reproduces the very bytes the writer hashed.
    let canonical = serde_json::to_string(payload)
        .map_err(|e| CheckpointError::Corrupt(format!("re-serialize payload: {e:?}")))?;
    let actual = format!("fnv1a64:{:016x}", fnv1a64(canonical.as_bytes()));
    if actual != recorded {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch: recorded {recorded}, computed {actual}"
        )));
    }
    SweepCheckpoint::from_content(payload)
        .map_err(|e: DeError| CheckpointError::Corrupt(format!("payload: {e}")))
}

/// Which epoch a [`CheckpointStore`] load was satisfied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointEpoch {
    /// The most recently written checkpoint.
    Current,
    /// The rotated previous epoch — the current one was missing or
    /// rejected.
    Previous,
}

/// Outcome of a [`CheckpointStore::load_or_fallback`] call.
///
/// `rejected` lists the typed errors of every epoch that was present but
/// disqualified (corrupt, wrong version, foreign fingerprint) — callers
/// count these instead of silently starting over.
#[derive(Debug)]
pub enum StoreLoad {
    /// No usable checkpoint: both epochs missing or rejected. Start fresh.
    Fresh {
        /// Errors of the epochs that existed but did not load.
        rejected: Vec<CheckpointError>,
    },
    /// A checkpoint loaded and (when a fingerprint was supplied) verified.
    Loaded {
        /// The restored checkpoint.
        checkpoint: SweepCheckpoint,
        /// Which epoch satisfied the load.
        epoch: CheckpointEpoch,
        /// Errors of newer epochs that were skipped over.
        rejected: Vec<CheckpointError>,
    },
}

/// A two-epoch checkpoint slot: the current file plus a rotated `.prev`.
///
/// [`write_atomic`] already guarantees a single file is never torn; the
/// store extends that to *silent corruption after the write* (bit rot, a
/// truncating copy, an operator editing the file): each write first
/// rotates the current epoch to `<path>.prev`, so a later load that
/// rejects the current epoch falls back one interval of progress instead
/// of starting from zero. A kill between the rotate and the write leaves
/// only the `.prev` epoch — which is exactly the fallback path.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `path`; the previous epoch lives at
    /// `<path>.prev`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The current-epoch file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The previous-epoch file.
    pub fn prev_path(&self) -> PathBuf {
        let mut name = self.path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(".prev");
        self.path.with_file_name(name)
    }

    /// Rotates the current epoch (if any) to `.prev`, then writes
    /// `checkpoint` atomically as the new current epoch.
    pub fn write(&self, checkpoint: &SweepCheckpoint) -> Result<(), CheckpointError> {
        if self.path.exists() {
            let prev = self.prev_path();
            std::fs::rename(&self.path, &prev)
                .map_err(|e| CheckpointError::Io(format!("rotate into {}: {e}", prev.display())))?;
        }
        write_atomic(&self.path, checkpoint)
    }

    /// Loads the newest epoch that parses, verifies, and (when given)
    /// matches `fingerprint`. Missing files are skipped silently; files
    /// that exist but fail are recorded in `rejected`. Only returns `Err`
    /// for I/O trouble reading a file that exists.
    pub fn load_or_fallback(
        &self,
        fingerprint: Option<&SweepFingerprint>,
    ) -> Result<StoreLoad, CheckpointError> {
        let mut rejected = Vec::new();
        for (epoch, path) in
            [(CheckpointEpoch::Current, self.path.clone()), (CheckpointEpoch::Previous, self.prev_path())]
        {
            if !path.exists() {
                continue;
            }
            match load(&path).and_then(|cp| {
                if let Some(fp) = fingerprint {
                    fp.verify(&cp.fingerprint)?;
                }
                Ok(cp)
            }) {
                Ok(checkpoint) => {
                    return Ok(StoreLoad::Loaded { checkpoint, epoch, rejected });
                }
                Err(e @ CheckpointError::Io(_)) => return Err(e),
                Err(e) => rejected.push(e),
            }
        }
        Ok(StoreLoad::Fresh { rejected })
    }

    /// Removes both epochs (ignoring files that are already gone).
    pub fn clear(&self) {
        std::fs::remove_file(&self.path).ok();
        std::fs::remove_file(self.prev_path()).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint() -> SweepFingerprint {
        SweepFingerprint { n_links: 40, chunk_size: 5, seed: 7, mode: "fused".into() }
    }

    fn sample_checkpoint() -> SweepCheckpoint {
        let mut cp = SweepCheckpoint::new(fingerprint());
        cp.chunks.push(ChunkCheckpoint {
            id: 0,
            accumulator: FleetAccumulator::new(),
            metrics: None,
        });
        cp.round_index = 3;
        cp.rng_state = Some([1, 2, 3, 4]);
        cp.next_link = 5;
        cp
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values of the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_load_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rwc_cp_roundtrip_{}.json", std::process::id()));
        let cp = sample_checkpoint();
        write_atomic(&path, &cp).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.completed_ids(), cp.completed_ids());
        assert_eq!(back.round_index, 3);
        assert_eq!(back.rng_state, Some([1, 2, 3, 4]));
        assert_eq!(back.next_link, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_temp_file_left_behind() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rwc_cp_tmpcheck_{}.json", std::process::id()));
        write_atomic(&path, &sample_checkpoint()).unwrap();
        assert!(!tmp_path(&path).exists(), "temp file must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    /// The on-disk text of a sample checkpoint. Tests run on parallel
    /// threads of one process, so each caller passes its own `tag`: a
    /// shared path lets one test remove the temp file another is renaming.
    fn envelope_text(tag: &str) -> String {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rwc_cp_envelope_{tag}_{}.json", std::process::id()));
        write_atomic(&path, &sample_checkpoint()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    }

    #[test]
    fn bit_flip_is_rejected() {
        let text = envelope_text("bit_flip");
        let mut bytes = text.clone().into_bytes();
        // Flip a bit inside the payload (past the envelope prelude).
        let idx = text.find("payload").unwrap() + 20;
        bytes[idx] ^= 0x01;
        if let Ok(flipped) = String::from_utf8(bytes) {
            assert!(load_str(&flipped).is_err(), "bit flip must not load");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let text = envelope_text("truncation");
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(load_str(&text[..cut]).is_err(), "truncation at {cut} must not load");
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let text = envelope_text("version_bump");
        let bumped = text.replacen(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            &format!("\"version\":{}", CHECKPOINT_VERSION + 1),
            1,
        );
        match load_str(&bumped) {
            Err(CheckpointError::VersionMismatch { found, expected }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checksum_tamper_is_rejected() {
        let text = envelope_text("checksum_tamper");
        // Retarget the recorded checksum without touching the payload.
        let tampered = text.replacen("fnv1a64:", "fnv1a64:0", 1);
        assert!(matches!(load_str(&tampered), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let mine = fingerprint();
        let mut other = fingerprint();
        other.seed = 8;
        assert!(mine.verify(&fingerprint()).is_ok());
        assert!(matches!(mine.verify(&other), Err(CheckpointError::ConfigMismatch(_))));
    }

    #[test]
    fn missing_file_is_io() {
        let err = load(Path::new("/definitely/not/here.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let path = std::env::temp_dir()
            .join(format!("rwc_store_{tag}_{}.json", std::process::id()));
        let store = CheckpointStore::new(path);
        store.clear();
        store
    }

    #[test]
    fn store_rotates_epochs_and_loads_current() {
        let store = temp_store("rotate");
        let mut a = sample_checkpoint();
        a.round_index = 1;
        let mut b = sample_checkpoint();
        b.round_index = 2;
        store.write(&a).unwrap();
        store.write(&b).unwrap();
        assert!(store.prev_path().exists(), "first epoch must rotate to .prev");
        match store.load_or_fallback(Some(&fingerprint())).unwrap() {
            StoreLoad::Loaded { checkpoint, epoch, rejected } => {
                assert_eq!(checkpoint.round_index, 2);
                assert_eq!(epoch, CheckpointEpoch::Current);
                assert!(rejected.is_empty());
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        store.clear();
    }

    #[test]
    fn store_falls_back_when_current_is_corrupt() {
        let store = temp_store("fallback");
        let mut a = sample_checkpoint();
        a.round_index = 1;
        let mut b = sample_checkpoint();
        b.round_index = 2;
        store.write(&a).unwrap();
        store.write(&b).unwrap();
        // Corrupt the current epoch in place; the previous must satisfy.
        let text = std::fs::read_to_string(store.path()).unwrap();
        std::fs::write(store.path(), crate::chaos::corrupt_truncate(&text, 3)).unwrap();
        match store.load_or_fallback(Some(&fingerprint())).unwrap() {
            StoreLoad::Loaded { checkpoint, epoch, rejected } => {
                assert_eq!(checkpoint.round_index, 1);
                assert_eq!(epoch, CheckpointEpoch::Previous);
                assert_eq!(rejected.len(), 1);
            }
            other => panic!("expected Previous-epoch load, got {other:?}"),
        }
        store.clear();
    }

    #[test]
    fn store_is_fresh_when_both_epochs_fail() {
        let store = temp_store("fresh");
        store.write(&sample_checkpoint()).unwrap();
        store.write(&sample_checkpoint()).unwrap();
        for path in [store.path().to_path_buf(), store.prev_path()] {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, crate::chaos::corrupt_version_bump(&text)).unwrap();
        }
        match store.load_or_fallback(None).unwrap() {
            StoreLoad::Fresh { rejected } => {
                assert_eq!(rejected.len(), 2);
                assert!(rejected
                    .iter()
                    .all(|e| matches!(e, CheckpointError::VersionMismatch { .. })));
            }
            other => panic!("expected Fresh, got {other:?}"),
        }
        store.clear();
    }

    #[test]
    fn store_with_no_files_is_fresh_and_clean() {
        let store = temp_store("none");
        match store.load_or_fallback(None).unwrap() {
            StoreLoad::Fresh { rejected } => assert!(rejected.is_empty()),
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    #[test]
    fn store_rejects_foreign_fingerprint_then_falls_back() {
        let store = temp_store("foreign");
        store.write(&sample_checkpoint()).unwrap();
        let mut foreign = fingerprint();
        foreign.seed = 999;
        let mut cp = SweepCheckpoint::new(foreign);
        cp.round_index = 9;
        store.write(&cp).unwrap();
        match store.load_or_fallback(Some(&fingerprint())).unwrap() {
            StoreLoad::Loaded { checkpoint, epoch, rejected } => {
                assert_eq!(epoch, CheckpointEpoch::Previous);
                assert_eq!(checkpoint.fingerprint, fingerprint());
                assert!(matches!(rejected[0], CheckpointError::ConfigMismatch(_)));
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        store.clear();
    }
}
