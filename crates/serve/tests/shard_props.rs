//! Sharded-ingestion determinism properties.
//!
//! The daemon's whole value rests on one promise: *operational* choices —
//! shard count, queue sizing, shed policy, ingest order and chunking —
//! never change the *pipeline* result. These properties pin that promise
//! on randomized inputs with serialized JSON as the oracle (every f64 bit
//! participates), mirroring the harness's `resume_props` suite.

use proptest::prelude::*;
use rwc_serve::{batch_reference, Daemon, ServeConfig, ShedPolicy};
use rwc_telemetry::FleetConfig;
use rwc_util::rng::Xoshiro256;
use rwc_util::time::SimDuration;
use std::time::{Duration, Instant};

/// Small randomized fleets: a handful of links, short horizons.
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

/// Re-offers the whole fleet until every link completes (duplicates are
/// idempotent; rejections under tiny queues retry on the next pass).
fn drive_to_completion(daemon: &Daemon, order: &[usize]) {
    let n = daemon.n_links() as u64;
    let start = Instant::now();
    while daemon.completed_links() < n {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon failed to converge: {}/{} links",
            daemon.completed_links(),
            n
        );
        daemon.ingest(order).expect("daemon accepts ingest while healthy");
        std::thread::sleep(Duration::from_millis(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any shard count, queue capacity, shed policy and ingest order
    /// produces the byte-identical accumulator and merged pipeline
    /// metrics of the single-threaded batch pass.
    #[test]
    fn sharded_serving_is_byte_identical_to_batch(
        fleet in fleet_strategy(),
        n_shards in 1usize..6,
        queue_capacity in 1usize..9,
        shed_oldest in proptest::bool::ANY,
        order_seed in 0u64..1_000_000,
    ) {
        let mut cfg = ServeConfig::for_fleet(fleet);
        cfg.n_shards = n_shards;
        cfg.queue_capacity = queue_capacity;
        cfg.shed_policy =
            if shed_oldest { ShedPolicy::ShedOldest } else { ShedPolicy::RejectNewest };
        let (want_acc, want_metrics) = batch_reference(&cfg);

        let daemon = Daemon::start(cfg).expect("valid config starts");
        let mut order: Vec<usize> = (0..daemon.n_links()).collect();
        Xoshiro256::seed_from_u64(order_seed).shuffle(&mut order);
        drive_to_completion(&daemon, &order);
        let report = daemon.drain().expect("clean drain");

        prop_assert_eq!(
            serde_json::to_string(&report.accumulator).unwrap(),
            serde_json::to_string(&want_acc).unwrap(),
            "accumulator must not depend on sharding"
        );
        prop_assert_eq!(
            report.pipeline_metrics.to_json(),
            want_metrics.to_json(),
            "pipeline metrics must not depend on sharding"
        );

        // The overload ledger closes exactly: every admission is either a
        // completion or an accounted shed/drop; queues are empty after a
        // drain. (Requeues keep the original admission open, so they are
        // deliberately absent from both sides.)
        let admissions = report.counter("serve.ingested");
        let removals = report.counter("serve.links_completed")
            + report.counter("serve.shed_oldest")
            + report.counter("serve.shed_deadline")
            + report.counter("serve.inflight_drops");
        prop_assert_eq!(admissions, removals, "overload ledger must close after drain");
        prop_assert_eq!(report.links_completed, report.accumulator.len() as u64);
    }
}

/// The accumulator is byte-identical across shard counts and to the
/// single-threaded batch reference — shard placement never perturbs the
/// counter streams.
#[test]
fn batch_gen_serving_is_shard_count_invariant() {
    let mut cfg = ServeConfig::small();
    cfg.fleet.n_fibers = 2;
    cfg.fleet.wavelengths_per_fiber = 3;
    let (want_acc, want_metrics) = batch_reference(&cfg);
    for n_shards in [1, 3, 5] {
        let mut c = cfg.clone();
        c.n_shards = n_shards;
        let daemon = Daemon::start(c).expect("valid config starts");
        let order: Vec<usize> = (0..daemon.n_links()).collect();
        drive_to_completion(&daemon, &order);
        let report = daemon.drain().expect("clean drain");
        assert_eq!(
            serde_json::to_string(&report.accumulator).unwrap(),
            serde_json::to_string(&want_acc).unwrap(),
            "batch-gen accumulator must not depend on shard count ({n_shards})"
        );
        assert_eq!(
            report.pipeline_metrics.to_json(),
            want_metrics.to_json(),
            "batch-gen metrics must not depend on shard count ({n_shards})"
        );
    }
}
