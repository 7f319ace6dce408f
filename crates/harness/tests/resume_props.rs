//! Resume-determinism properties for sweep checkpoints.
//!
//! Two promises are pinned on randomized inputs, with serialized JSON as
//! the oracle so every f64 bit participates:
//!
//! 1. **Kill/resume identity** — links analysed in a random order and
//!    written one at a time to per-shard [`CheckpointStore`]s (the way the
//!    serve daemon writes them), killed after k links, then restored and
//!    finished in another order, fold to the byte-identical accumulator
//!    and merged metrics of an uninterrupted ascending pass.
//! 2. **Corruption rejection** — every mutation the chaos module knows
//!    (single bit flip, truncation at a random point, envelope version
//!    bump) makes the loader return a typed error; no mutated checkpoint
//!    ever loads.
//!
//! The same identity through the daemon itself is pinned in
//! `serve/tests/shard_props.rs`.

use proptest::prelude::*;
use rwc_harness::{
    chaos, checkpoint, CheckpointEpoch, CheckpointError, CheckpointStore, ChunkCheckpoint,
    ScratchDir, StoreLoad, SweepCheckpoint, SweepFingerprint, SWEEP_MODE,
};
use rwc_obs::MetricsObserver;
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetAccumulator, FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::rng::Xoshiro256;
use rwc_util::time::SimDuration;
use std::sync::Arc;

/// Small randomized fleets: a handful of links, short horizons so the
/// suite stays fast.
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

fn fingerprint(gen: &FleetGenerator) -> SweepFingerprint {
    SweepFingerprint {
        n_links: gen.n_links() as u64,
        chunk_size: 1,
        seed: gen.config().seed,
        mode: SWEEP_MODE.into(),
    }
}

/// Analyses one link into a single-link chunk carrying its metrics.
fn analyse_link(
    kernel: &mut FleetKernel,
    gen: &FleetGenerator,
    link: usize,
    table: &ModulationTable,
) -> ChunkCheckpoint {
    let obs = Arc::new(MetricsObserver::new());
    kernel.set_observer(obs.clone());
    let mut accumulator = FleetAccumulator::new();
    accumulator.push(&kernel.analyze_generated(gen, link, table));
    ChunkCheckpoint { id: link as u64, accumulator, metrics: Some(obs.snapshot()) }
}

/// Folds per-link chunks in ascending link order and serializes the
/// accumulator and merged metrics.
fn fold(chunks: Vec<ChunkCheckpoint>) -> (String, String) {
    let mut acc = FleetAccumulator::new();
    let mut metrics = MetricsObserver::new().snapshot();
    for chunk in chunks {
        acc.merge(chunk.accumulator);
        metrics.merge(chunk.metrics.as_ref().expect("every chunk carries metrics"));
    }
    (serde_json::to_string(&acc).expect("accumulator serializes"), metrics.to_json())
}

/// Writes a checkpoint covering every link of the fleet to a file in
/// `dir` and returns the file's text.
fn write_fleet_checkpoint(gen: &FleetGenerator, dir: &ScratchDir) -> String {
    let table = ModulationTable::paper_default();
    let mut cp = SweepCheckpoint::new(fingerprint(gen));
    let mut kernel = FleetKernel::new();
    for link in 0..gen.n_links() {
        cp.chunks.push(analyse_link(&mut kernel, gen, link, &table));
    }
    cp.next_link = gen.n_links() as u64;
    let path = dir.path().join("shard-0.ckpt");
    checkpoint::write_atomic(&path, &cp).expect("checkpoint written");
    std::fs::read_to_string(&path).expect("checkpoint written")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// analyse in a random order → checkpoint every link → kill after k
    /// links → restore from the stores → finish in another order ==
    /// uninterrupted ascending pass, byte for byte.
    #[test]
    fn kill_and_resume_is_byte_identical(
        cfg in fleet_strategy(),
        n_stores in 1usize..5,
        kill_after in 1usize..4,
        order_seed in 0u64..1_000_000,
    ) {
        let gen = FleetGenerator::new(cfg);
        let table = ModulationTable::paper_default();
        let fp = fingerprint(&gen);
        let n_links = gen.n_links();
        let mut kernel = FleetKernel::new();
        let want = fold((0..n_links).map(|l| analyse_link(&mut kernel, &gen, l, &table)).collect());

        let mut order: Vec<usize> = (0..n_links).collect();
        Xoshiro256::seed_from_u64(order_seed).shuffle(&mut order);
        let killed_at = kill_after.min(n_links);

        // First life: each link lands in store `link % n_stores`, which is
        // rewritten after every completion; the kill writes nothing more.
        let dir = ScratchDir::new("props_resume").expect("scratch dir");
        let stores: Vec<CheckpointStore> = (0..n_stores)
            .map(|s| CheckpointStore::new(dir.path().join(format!("shard-{s}.ckpt"))))
            .collect();
        {
            let mut cps: Vec<SweepCheckpoint> =
                (0..n_stores).map(|_| SweepCheckpoint::new(fp.clone())).collect();
            let mut kernel = FleetKernel::new();
            for &link in &order[..killed_at] {
                let s = link % n_stores;
                cps[s].chunks.push(analyse_link(&mut kernel, &gen, link, &table));
                stores[s].write(&cps[s]).expect("checkpoint written");
            }
        }

        // Second life: restore every store, then finish the rest with a
        // fresh kernel in reverse order.
        let mut slots: Vec<Option<ChunkCheckpoint>> = (0..n_links).map(|_| None).collect();
        for store in &stores {
            match store.load_or_fallback(Some(&fp)).expect("store readable") {
                StoreLoad::Loaded { checkpoint, epoch, rejected } => {
                    prop_assert_eq!(epoch, CheckpointEpoch::Current);
                    prop_assert!(rejected.is_empty(), "rejected {:?}", rejected);
                    for chunk in checkpoint.chunks {
                        let link = chunk.id as usize;
                        prop_assert!(slots[link].is_none(), "link {} restored twice", link);
                        slots[link] = Some(chunk);
                    }
                }
                StoreLoad::Fresh { rejected } => {
                    prop_assert!(rejected.is_empty(), "rejected {:?}", rejected);
                }
            }
        }
        let restored = slots.iter().filter(|s| s.is_some()).count();
        prop_assert_eq!(restored, killed_at);
        let mut kernel = FleetKernel::new();
        for &link in order.iter().rev() {
            if slots[link].is_none() {
                slots[link] = Some(analyse_link(&mut kernel, &gen, link, &table));
            }
        }
        let got = fold(slots.into_iter().map(|s| s.expect("every link finished")).collect());
        prop_assert_eq!(got.0, want.0, "accumulator must survive kill and resume");
        prop_assert_eq!(got.1, want.1, "metrics must survive kill and resume");
    }

    /// Every corruption the chaos module can inflict on a checkpoint file
    /// is rejected with a typed error.
    #[test]
    fn corrupted_checkpoints_are_rejected(
        cfg in fleet_strategy(),
        mutation_seed in 0u64..1_000_000,
    ) {
        let gen = FleetGenerator::new(cfg);
        let dir = ScratchDir::new("props_corrupt").expect("scratch dir");
        let text = write_fleet_checkpoint(&gen, &dir);

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
