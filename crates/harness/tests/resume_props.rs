//! Resume-determinism properties for the crash-safe sweep runtime.
//!
//! Two promises are pinned on randomized inputs:
//!
//! 1. **Kill/resume identity** — for random fleets and thread counts,
//!    (run → kill after k chunks → write checkpoint → resume, possibly
//!    under a different thread count) produces the *byte-identical*
//!    accumulator and merged metrics of an uninterrupted run. The oracle
//!    is serialized JSON, so every f64 bit participates.
//! 2. **Corruption rejection** — every mutation the chaos module knows
//!    (single bit flip, truncation at a random point, envelope version
//!    bump) makes the loader return a typed error; no mutated checkpoint
//!    ever loads, and no temp file is left behind.

use proptest::prelude::*;
use rwc_harness::{
    chaos, checkpoint, ChaosPlan, CheckpointConfig, CheckpointError, ExecutorConfig, SweepOutcome,
    SweepSpec,
};
use rwc_obs::MetricsSnapshot;
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetConfig, FleetGenerator};
use rwc_util::time::SimDuration;

/// Small randomized fleets: enough links for several chunks, short
/// horizons so the suite stays fast.
fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (0u64..1_000_000, 1usize..3, 2usize..7, 5u64..12).prop_map(
        |(seed, n_fibers, wavelengths_per_fiber, days)| FleetConfig {
            seed,
            n_fibers,
            wavelengths_per_fiber,
            horizon: SimDuration::from_days(days),
            ..FleetConfig::paper()
        },
    )
}

fn spec<'a>(
    gen: &'a FleetGenerator,
    table: &'a ModulationTable,
    n_threads: usize,
) -> SweepSpec<'a> {
    SweepSpec { gen, table, n_threads, collect_metrics: true }
}

fn tmp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rwc_props_{tag}_{}_{seed}.json", std::process::id()))
}

fn run_uninterrupted(
    gen: &FleetGenerator,
    table: &ModulationTable,
    threads: usize,
) -> (String, Option<String>) {
    match rwc_harness::run_fleet_sweep(&spec(gen, table, threads), &ExecutorConfig::default(), None)
        .expect("clean sweep succeeds")
    {
        SweepOutcome::Completed(r) => (
            serde_json::to_string(&r.accumulator).expect("accumulator serializes"),
            r.metrics.as_ref().map(MetricsSnapshot::to_json),
        ),
        SweepOutcome::Killed { .. } => unreachable!("no chaos plan"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// run → kill after k chunks → resume == uninterrupted, byte for
    /// byte, across distinct (kill thread count, resume thread count).
    #[test]
    fn kill_and_resume_is_byte_identical(
        cfg in fleet_strategy(),
        kill_threads in 1usize..5,
        resume_threads in 1usize..5,
        kill_after in 1u64..4,
    ) {
        let gen = FleetGenerator::new(cfg.clone());
        let table = ModulationTable::paper_default();
        let (ref_acc, ref_metrics) = run_uninterrupted(&gen, &table, 1);

        let path = tmp_path("resume", cfg.seed ^ (kill_threads as u64) << 8 ^ kill_after);
        let kill_cfg = ExecutorConfig {
            checkpoint: Some(CheckpointConfig { path: path.clone(), every_chunks: 1 }),
            chaos: Some(ChaosPlan::new(cfg.seed).with_kill_after(kill_after)),
            ..ExecutorConfig::default()
        };
        let outcome = rwc_harness::run_fleet_sweep(&spec(&gen, &table, kill_threads), &kill_cfg, None)
            .expect("killed sweep still writes its checkpoint");
        match outcome {
            SweepOutcome::Killed { completed_chunks, .. } => {
                prop_assert!(completed_chunks >= kill_after);
            }
            // A tiny fleet can complete before the kill budget is hit;
            // its result must still match the reference.
            SweepOutcome::Completed(r) => {
                prop_assert_eq!(
                    serde_json::to_string(&r.accumulator).expect("serializes"),
                    ref_acc
                );
                std::fs::remove_file(&path).ok();
                return Ok(());
            }
        }

        let cp = checkpoint::load(&path).expect("checkpoint loads back");
        let resumed = match rwc_harness::run_fleet_sweep(
            &spec(&gen, &table, resume_threads),
            &ExecutorConfig::default(),
            Some(&cp),
        )
        .expect("resume succeeds")
        {
            SweepOutcome::Completed(r) => r,
            SweepOutcome::Killed { .. } => unreachable!("resume run has no chaos plan"),
        };
        prop_assert!(resumed.stats.chunks_resumed >= kill_after);
        prop_assert_eq!(
            serde_json::to_string(&resumed.accumulator).expect("serializes"),
            ref_acc
        );
        prop_assert_eq!(resumed.metrics.as_ref().map(MetricsSnapshot::to_json), ref_metrics);
        std::fs::remove_file(&path).ok();
    }

    /// Every corruption the chaos module can inflict on a checkpoint file
    /// is rejected with a typed error.
    #[test]
    fn corrupted_checkpoints_are_rejected(
        cfg in fleet_strategy(),
        mutation_seed in 0u64..1_000_000,
    ) {
        let gen = FleetGenerator::new(cfg.clone());
        let table = ModulationTable::paper_default();
        let path = tmp_path("corrupt", cfg.seed ^ mutation_seed);
        let run_cfg = ExecutorConfig {
            checkpoint: Some(CheckpointConfig { path: path.clone(), every_chunks: 1 }),
            ..ExecutorConfig::default()
        };
        rwc_harness::run_fleet_sweep(&spec(&gen, &table, 2), &run_cfg, None)
            .expect("sweep succeeds");
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        std::fs::remove_file(&path).ok();

        // The pristine text loads; every mutation of it must not.
        checkpoint::load_str(&text).expect("pristine checkpoint loads");

        let flipped = chaos::corrupt_bit_flip(&text, mutation_seed);
        prop_assert!(flipped != text);
        prop_assert!(checkpoint::load_str(&flipped).is_err(), "bit flip accepted");

        let truncated = chaos::corrupt_truncate(&text, mutation_seed);
        prop_assert!(truncated.len() < text.len());
        prop_assert!(checkpoint::load_str(&truncated).is_err(), "truncation accepted");

        let bumped = chaos::corrupt_version_bump(&text);
        match checkpoint::load_str(&bumped) {
            Err(CheckpointError::VersionMismatch { found, expected }) => {
                prop_assert_eq!(found, rwc_harness::CHECKPOINT_VERSION + 1);
                prop_assert_eq!(expected, rwc_harness::CHECKPOINT_VERSION);
            }
            other => prop_assert!(false, "version bump not rejected as such: {:?}", other),
        }
    }
}
