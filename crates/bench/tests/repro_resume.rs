//! `repro --resume DIR` checks the daemon's per-shard checkpoint store
//! before any experiment dispatches. These tests run the binary against
//! hand-made stores and pin the exit codes `rwc_bench::cli` documents:
//! a corrupt, version-bumped or foreign `shard-*.ckpt` exits 6, a missing
//! store exits 1, and a store that verifies lets the run go on.

use rwc_bench::cli::EXIT_CHECKPOINT;
use rwc_bench::Scale;
use rwc_harness::{chaos, checkpoint, ScratchDir, SweepCheckpoint, SweepFingerprint, SWEEP_MODE};
use std::path::Path;
use std::process::Command;

/// The fingerprint a quick-scale fleet sweep's daemon writes.
fn quick_fingerprint() -> SweepFingerprint {
    let fleet = Scale::Quick.fleet();
    SweepFingerprint {
        n_links: fleet.n_links() as u64,
        chunk_size: 1,
        seed: fleet.seed,
        mode: SWEEP_MODE.into(),
    }
}

/// A store holding `shard-0.ckpt` and `shard-1.ckpt` for `fingerprint`;
/// returns the text of `shard-0.ckpt`.
fn write_store(dir: &Path, fingerprint: &SweepFingerprint) -> String {
    for shard in 0..2 {
        let cp = SweepCheckpoint::new(fingerprint.clone());
        checkpoint::write_atomic(&dir.join(format!("shard-{shard}.ckpt")), &cp).unwrap();
    }
    std::fs::read_to_string(dir.join("shard-0.ckpt")).unwrap()
}

/// Runs `repro <id> --quick --resume <dir>`; returns the exit code and
/// everything it printed.
fn resume(id: &str, dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([id, "--quick", "--resume"])
        .arg(dir)
        .arg("--out")
        .arg(dir.join("out"))
        .output()
        .expect("repro runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned()
        + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

#[test]
fn corrupt_shard_checkpoint_exits_with_the_checkpoint_code() {
    let dir = ScratchDir::new("repro_resume_corrupt").unwrap();
    let text = write_store(dir.path(), &quick_fingerprint());
    std::fs::write(dir.path().join("shard-0.ckpt"), chaos::corrupt_bit_flip(&text, 3)).unwrap();
    let (code, out) = resume("fig2a", dir.path());
    assert_eq!(code, Some(i32::from(EXIT_CHECKPOINT)), "{out}");
    assert!(out.contains("shard-0.ckpt"), "the refusal names the file: {out}");
    assert!(!out.contains("running fig2a"), "nothing dispatched: {out}");
}

#[test]
fn version_bumped_and_foreign_checkpoints_exit_with_the_checkpoint_code() {
    let version = ScratchDir::new("repro_resume_version").unwrap();
    let text = write_store(version.path(), &quick_fingerprint());
    std::fs::write(version.path().join("shard-1.ckpt"), chaos::corrupt_version_bump(&text))
        .unwrap();
    // Another seed, and the labels of the retired serial sampler: valid
    // files from a different sweep.
    let mut seed = quick_fingerprint();
    seed.seed ^= 1;
    let mut fused = quick_fingerprint();
    fused.mode = "fused".into();
    let mut legacy = quick_fingerprint();
    legacy.mode = "legacy".into();
    let foreign: Vec<ScratchDir> = [seed, fused, legacy]
        .iter()
        .map(|fp| {
            let dir = ScratchDir::new("repro_resume_foreign").unwrap();
            write_store(dir.path(), fp);
            dir
        })
        .collect();
    for dir in std::iter::once(&version).chain(&foreign) {
        let (code, out) = resume("fig2a", dir.path());
        assert_eq!(code, Some(i32::from(EXIT_CHECKPOINT)), "{out}");
    }
}

#[test]
fn missing_store_is_a_generic_failure() {
    let dir = ScratchDir::new("repro_resume_missing").unwrap();
    let (code, out) = resume("fig2a", &dir.path().join("absent"));
    assert_eq!(code, Some(1), "{out}");
    let (code, out) = resume("fig2a", dir.path());
    assert_eq!(code, Some(1), "a directory without shard checkpoints: {out}");
}

#[test]
fn a_store_that_verifies_lets_the_run_dispatch() {
    let dir = ScratchDir::new("repro_resume_ok").unwrap();
    write_store(dir.path(), &quick_fingerprint());
    // An unknown id fails only after the store verified.
    let (code, out) = resume("no-such-experiment", dir.path());
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("2 shard checkpoints"), "{out}");
    assert!(out.contains("unknown experiment id"), "{out}");
}
