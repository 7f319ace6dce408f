//! Supervisor policy: restart budgets, checkpoint fallback, exact shed
//! accounting.
//!
//! Chaos panics are injected through the harness [`ChaosPlan`] — for the
//! daemon, `panic_chunks` holds *link ids* and `poison_attempts` bounds
//! how many processing attempts of a poisoned link panic the owning
//! shard. Because the per-link attempt counter is global (not per shard),
//! the failure scripts below are fully deterministic.

use rwc_harness::{chaos, checkpoint, ChaosPlan, RetryPolicy};
use rwc_serve::{
    batch_reference, Daemon, ServeCheckpointConfig, ServeConfig, ServeError, ShedPolicy,
};
use rwc_telemetry::{FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::time::SimDuration;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A fleet small enough for millisecond tests (8 links).
fn tiny_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        n_fibers: 2,
        wavelengths_per_fiber: 4,
        horizon: SimDuration::from_days(7),
        ..FleetConfig::paper()
    }
}

fn tiny_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::for_fleet(tiny_fleet(seed));
    cfg.n_shards = 2;
    cfg.restart = RetryPolicy {
        budget: 1,
        base_backoff: Duration::from_millis(1),
        jitter: 0.0,
        seed,
    };
    cfg
}

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rwc_serve_{tag}_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn all_links(daemon: &Daemon) -> Vec<usize> {
    (0..daemon.n_links()).collect()
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn drive_to_completion(daemon: &Daemon) {
    let links = all_links(daemon);
    let n = links.len() as u64;
    wait_for("fleet completion", || {
        if daemon.completed_links() < n {
            daemon.ingest(&links).expect("ingest while converging");
            false
        } else {
            true
        }
    });
}

/// Completes the fleet one link at a time, offering only into empty
/// queues — so shed counters asserted exactly elsewhere in the test
/// cannot move (the test thread is the only producer).
fn drive_gently(daemon: &Daemon) {
    for link in 0..daemon.n_links() {
        wait_for("single-link completion", || {
            if daemon.capacity(link).is_some() {
                return true;
            }
            let queued: usize =
                daemon.shard_statuses().iter().map(|s| s.queue_depth).sum();
            if queued == 0 {
                daemon.ingest(&[link]).expect("single-link ingest");
            }
            false
        });
    }
}

fn chaos_on_link(link: u64, poison_attempts: u32, seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        panic_chunks: BTreeSet::from([link]),
        kill_after_chunks: None,
        poison_attempts,
    }
}

#[test]
fn one_panic_restarts_the_shard_and_converges() {
    let mut cfg = tiny_config(11);
    cfg.chaos = Some(chaos_on_link(3, 1, 11));
    let (want_acc, want_metrics) = batch_reference(&cfg);
    let daemon = Daemon::start(cfg).unwrap();
    drive_to_completion(&daemon);
    assert!(daemon.is_ready(), "one panic stays within the restart budget");
    let report = daemon.drain().unwrap();
    assert_eq!(report.counter("serve.shard_panics"), 1);
    assert_eq!(report.counter("serve.shard_restarts"), 1);
    assert_eq!(report.counter("serve.requeued"), 1);
    assert_eq!(report.counter("serve.shards_unhealthy"), 0);
    assert_eq!(
        serde_json::to_string(&report.accumulator).unwrap(),
        serde_json::to_string(&want_acc).unwrap()
    );
    assert_eq!(report.pipeline_metrics.to_json(), want_metrics.to_json());
}

#[test]
fn budget_exhaustion_marks_shard_unhealthy_and_reroutes() {
    let mut cfg = tiny_config(12);
    // Attempts 0 and 1 panic; the shard's budget of 1 is spent on the
    // first restart, so the second panic takes it out of rotation. The
    // orphaned link reroutes to the other shard, whose attempt 2 passes.
    cfg.chaos = Some(chaos_on_link(3, 2, 12));
    let (want_acc, _) = batch_reference(&cfg);
    let daemon = Daemon::start(cfg).unwrap();
    drive_to_completion(&daemon);
    wait_for("unhealthy shard in /readyz", || !daemon.is_ready());
    let statuses = daemon.shard_statuses();
    assert_eq!(statuses.iter().filter(|s| !s.healthy).count(), 1);
    assert!(daemon.readyz_json().contains("\"ready\":false"));
    let report = daemon.drain().unwrap();
    assert_eq!(report.counter("serve.shard_panics"), 2);
    assert_eq!(report.counter("serve.shard_restarts"), 1);
    assert_eq!(report.counter("serve.shards_unhealthy"), 1);
    // Result bytes are untouched by the whole failure script.
    assert_eq!(
        serde_json::to_string(&report.accumulator).unwrap(),
        serde_json::to_string(&want_acc).unwrap()
    );
}

#[test]
fn losing_every_shard_is_a_typed_failure() {
    let mut cfg = tiny_config(13);
    // A link that panics forever takes out both shards in turn.
    cfg.chaos = Some(chaos_on_link(3, u32::MAX, 13));
    let daemon = Daemon::start(cfg).unwrap();
    daemon.ingest(&all_links(&daemon)).unwrap();
    wait_for("both shards unhealthy", || {
        daemon.shard_statuses().iter().all(|s| !s.healthy)
    });
    match daemon.drain() {
        Err(ServeError::ShardFailed { .. }) => {}
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

fn ledger_closes(counters: &std::collections::BTreeMap<String, u64>) -> bool {
    counters["serve.ingested"]
        == counters["serve.links_completed"]
            + counters["serve.shed_oldest"]
            + counters["serve.shed_deadline"]
            + counters["serve.inflight_drops"]
}

/// The shard publishes a capacity before the collector has merged or
/// checkpointed the link, so a kill can land between the two. What was
/// served must still be the direct analysis, bit for bit, before the kill
/// and after the resume, and both ledgers must close.
#[test]
fn capacities_published_before_a_kill_are_re_served_bit_identical_after_resume() {
    let dir = tmp_dir("publish", 21);
    let mut cfg = tiny_config(21);
    // 64 links of 90 days each: slow enough for the kill to land mid-fleet.
    cfg.fleet.wavelengths_per_fiber = 32;
    cfg.fleet.horizon = SimDuration::from_days(90);
    cfg.queue_capacity = 64;
    // Five completions per checkpoint: most kills strand published links
    // that no checkpoint holds yet.
    cfg.checkpoint = Some(ServeCheckpointConfig { dir: dir.clone(), every_links: 5 });
    let gen = FleetGenerator::new(cfg.fleet.clone());
    let mut kernel = FleetKernel::new();
    let direct: Vec<u64> = (0..cfg.n_links())
        .map(|l| {
            kernel.analyze_generated(&gen, l, &cfg.controller.table).feasible_capacity.value().to_bits()
        })
        .collect();
    let served = |daemon: &Daemon| -> Vec<Option<u64>> {
        (0..daemon.n_links()).map(|l| daemon.capacity(l).map(f64::to_bits)).collect()
    };
    let assert_direct = |served: &[Option<u64>], when: &str| {
        for (link, bits) in served.iter().enumerate() {
            if let Some(bits) = bits {
                assert_eq!(*bits, direct[link], "{when}: link {link} differs from direct analysis");
            }
        }
    };

    let daemon = Daemon::start(cfg.clone()).unwrap();
    daemon.ingest(&all_links(&daemon)).unwrap();
    // Spin, not sleep: the kill should land while most of the fleet is
    // still queued, a checkpoint or two in.
    let start = Instant::now();
    let before_kill = loop {
        let now = served(&daemon);
        if now.iter().flatten().count() >= 8 {
            break now;
        }
        assert!(start.elapsed() < Duration::from_secs(20), "no capacities published");
        std::hint::spin_loop();
    };
    let killed = daemon.kill();
    assert_direct(&before_kill, "before the kill");
    assert!(ledger_closes(&killed.counters), "kill ledger open: {:?}", killed.counters);

    // Resume on the same stores: whatever a checkpoint kept is served at
    // once, the rest is analysed again, and nothing ever changes value.
    let daemon = Daemon::start(cfg.clone()).unwrap();
    assert_direct(&served(&daemon), "restored");
    drive_to_completion(&daemon);
    let after = served(&daemon);
    assert!(after.iter().all(Option::is_some));
    assert_direct(&after, "after the resume");
    let report = daemon.drain().unwrap();
    assert!(ledger_closes(&report.serve_metrics.counters), "drain ledger open");
    assert_eq!(report.links_completed, direct.len() as u64);
    let (want_acc, want_metrics) = batch_reference(&cfg);
    assert_eq!(
        serde_json::to_string(&report.accumulator).unwrap(),
        serde_json::to_string(&want_acc).unwrap()
    );
    assert_eq!(report.pipeline_metrics.to_json(), want_metrics.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every [`rwc_harness::CheckpointError`] variant, exercised through the
/// daemon's two-epoch fallback: corruption and version mutations reject
/// the current epoch and restore from `.prev`; a foreign fingerprint
/// rejects both; an unreadable file is a hard error.
#[test]
fn corrupt_checkpoints_fall_back_to_previous_epoch() {
    type Corruption = fn(&str) -> String;
    let corruptions: [(&str, Corruption); 3] = [
        ("bitflip", |t| chaos::corrupt_bit_flip(t, 7)),
        ("truncate", |t| chaos::corrupt_truncate(t, 7)),
        ("version", chaos::corrupt_version_bump),
    ];
    for (tag, corrupt) in corruptions {
        let dir = tmp_dir(tag, 14);
        let mut cfg = tiny_config(14);
        cfg.checkpoint = Some(ServeCheckpointConfig { dir: dir.clone(), every_links: 1 });
        let (want_acc, _) = batch_reference(&cfg);

        // Run to completion twice so both epochs exist, then corrupt the
        // current epoch of every shard.
        let daemon = Daemon::start(cfg.clone()).unwrap();
        drive_to_completion(&daemon);
        daemon.drain().unwrap();
        let daemon = Daemon::start(cfg.clone()).unwrap();
        daemon.drain().unwrap(); // rotates: current -> .prev
        for shard in 0..cfg.n_shards {
            let path = dir.join(format!("shard-{shard}.ckpt"));
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, corrupt(&text)).unwrap();
        }

        let daemon = Daemon::start(cfg.clone()).unwrap();
        assert_eq!(
            daemon.completed_links(),
            daemon.n_links() as u64,
            "{tag}: previous epoch restores the whole fleet"
        );
        let metrics = daemon.serve_metrics();
        assert_eq!(
            metrics.counters["serve.checkpoint_fallbacks"], cfg.n_shards as u64,
            "{tag}: every shard fell back"
        );
        assert_eq!(metrics.counters["serve.checkpoints_rejected"], cfg.n_shards as u64);
        let report = daemon.drain().unwrap();
        assert_eq!(
            serde_json::to_string(&report.accumulator).unwrap(),
            serde_json::to_string(&want_acc).unwrap(),
            "{tag}: fallback restores byte-identical results"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn foreign_fingerprint_rejects_both_epochs_and_starts_fresh() {
    // `None`: same directory, different fleet seed. `Some(label)`: same
    // fleet, but both epochs relabelled as written under the retired
    // serial sampler — their partials carry byte-different traces.
    for (seed, stale_mode) in [(15, None), (17, Some("fused")), (18, Some("legacy"))] {
        let dir = tmp_dir("foreign", seed);
        let mut cfg = tiny_config(seed);
        cfg.checkpoint = Some(ServeCheckpointConfig { dir: dir.clone(), every_links: 1 });
        let daemon = Daemon::start(cfg.clone()).unwrap();
        drive_to_completion(&daemon);
        daemon.drain().unwrap();
        let daemon = Daemon::start(cfg.clone()).unwrap();
        daemon.drain().unwrap(); // both epochs populated

        let mut foreign = cfg.clone();
        match stale_mode {
            None => foreign.fleet.seed = 999,
            Some(label) => {
                for shard in 0..cfg.n_shards {
                    for file in [format!("shard-{shard}.ckpt"), format!("shard-{shard}.ckpt.prev")] {
                        let path = dir.join(file);
                        let mut cp = checkpoint::load(&path).unwrap();
                        cp.fingerprint.mode = label.into();
                        checkpoint::write_atomic(&path, &cp).unwrap();
                    }
                }
            }
        }
        // ConfigMismatch on every file.
        let daemon = Daemon::start(foreign.clone()).unwrap();
        assert_eq!(
            daemon.completed_links(),
            0,
            "{stale_mode:?}: nothing restores from a foreign sweep"
        );
        let metrics = daemon.serve_metrics();
        assert_eq!(
            metrics.counters["serve.checkpoints_rejected"],
            2 * cfg.n_shards as u64,
            "{stale_mode:?}: both epochs of every shard are rejected"
        );
        drive_to_completion(&daemon);
        let report = daemon.drain().unwrap();
        let (want_acc, _) = batch_reference(&foreign);
        assert_eq!(
            serde_json::to_string(&report.accumulator).unwrap(),
            serde_json::to_string(&want_acc).unwrap(),
            "{stale_mode:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unreadable_checkpoint_is_a_hard_io_error() {
    let dir = tmp_dir("io", 16);
    let mut cfg = tiny_config(16);
    cfg.checkpoint = Some(ServeCheckpointConfig { dir: dir.clone(), every_links: 1 });
    // A directory where the checkpoint file should be: reads fail with a
    // real I/O error, which must propagate instead of "falling back".
    std::fs::create_dir_all(dir.join("shard-0.ckpt")).unwrap();
    match Daemon::start(cfg) {
        Err(ServeError::Checkpoint(rwc_harness::CheckpointError::Io(_))) => {}
        other => panic!("expected a checkpoint I/O error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reject_newest_counts_exactly_the_injected_overload() {
    let mut cfg = tiny_config(17);
    cfg.n_shards = 1;
    cfg.queue_capacity = 3;
    cfg.shed_policy = ShedPolicy::RejectNewest;
    let daemon = Daemon::start(cfg).unwrap();
    daemon.pause_processing();
    let receipt = daemon.ingest(&all_links(&daemon)).unwrap();
    assert_eq!(receipt.accepted, 3, "queue capacity bounds admissions");
    assert_eq!(receipt.rejected, 5, "the rest are rejected, not dropped");
    assert_eq!(receipt.shed, 0);
    let metrics = daemon.serve_metrics();
    assert_eq!(metrics.counters["serve.ingested"], 3);
    assert_eq!(metrics.counters["serve.rejected"], 5);
    daemon.resume_processing();
    drive_to_completion(&daemon);
    let report = daemon.drain().unwrap();
    assert_eq!(report.counter("serve.links_completed"), 8);
    assert_eq!(report.counter("serve.ingested"), 8, "rejected links re-ingested");
}

#[test]
fn shed_oldest_counts_exactly_the_evicted_links() {
    let mut cfg = tiny_config(18);
    cfg.n_shards = 1;
    cfg.queue_capacity = 3;
    cfg.shed_policy = ShedPolicy::ShedOldest;
    let daemon = Daemon::start(cfg).unwrap();
    daemon.pause_processing();
    let receipt = daemon.ingest(&all_links(&daemon)).unwrap();
    assert_eq!(receipt.accepted, 8, "shed-oldest always admits the newest");
    assert_eq!(receipt.shed, 5, "8 offers through a 3-deep queue evict 5");
    assert_eq!(receipt.rejected, 0);
    let metrics = daemon.serve_metrics();
    assert_eq!(metrics.counters["serve.shed_oldest"], 5);
    daemon.resume_processing();
    drive_gently(&daemon);
    let report = daemon.drain().unwrap();
    // Ledger: 8 first-pass + 5 re-ingested admissions = 8 completions + 5
    // sheds.
    assert_eq!(report.counter("serve.ingested"), 13);
    assert_eq!(report.counter("serve.links_completed"), 8);
    assert_eq!(report.counter("serve.shed_oldest"), 5);
}

#[test]
fn deadline_expiry_sheds_stale_work_exactly() {
    let mut cfg = tiny_config(19);
    cfg.n_shards = 1;
    cfg.queue_capacity = 16;
    cfg.deadline = Some(Duration::from_millis(5));
    let daemon = Daemon::start(cfg).unwrap();
    daemon.pause_processing();
    daemon.ingest(&all_links(&daemon)).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // everything goes stale
    daemon.resume_processing();
    wait_for("stale queue drained", || {
        daemon.serve_metrics().counters["serve.shed_deadline"] == 8
    });
    assert_eq!(daemon.completed_links(), 0, "every first-pass link expired");
    drive_gently(&daemon);
    let report = daemon.drain().unwrap();
    assert_eq!(report.counter("serve.shed_deadline"), 8);
    assert_eq!(report.counter("serve.links_completed"), 8);
}
