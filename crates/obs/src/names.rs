//! The metric name catalogue.
//!
//! Every metric the pipeline emits is registered here up front: the
//! [`crate::MetricsRegistry`] pre-allocates one atomic cell per name at
//! construction, which is what keeps the hot path lock-free (readers
//! binary-search an immutable sorted table; writers touch only atomics).
//! The catalogue is also the documentation of record — DESIGN.md §10
//! mirrors it — and the schema contract for `repro --obs-json`: a
//! snapshot always carries every name below, zero-valued or not, so CI
//! can assert on keys without caring which experiment ran.
//!
//! Naming convention: `<subsystem>.<noun>[.<qualifier>]`, lower-case,
//! dot-separated. Histogram names say their unit in the last segment
//! (`_millis`, `_micros`, `_ticks`). `events.*` counters are maintained by
//! [`crate::MetricsObserver`] itself, one per [`crate::Event`] variant.

/// Monotonic counters, incremented via [`crate::Observer::incr`].
pub const COUNTERS: &[&str] = &[
    // optics: transceiver reconfiguration attempts.
    "bvt.reconfigs",
    "bvt.reconfig_failures",
    "bvt.prepares",
    "bvt.commits",
    "bvt.aborts",
    // controller: decide/execute/prepare/commit/abort outcomes.
    "controller.decisions.hold",
    "controller.decisions.step",
    "controller.decisions.down",
    "controller.changes.applied",
    "controller.changes.failed",
    "controller.changes.rolled_back",
    "controller.retries",
    "controller.quarantines",
    "controller.stale_holds",
    // te round engine: solve outcomes and incremental-path hit rates.
    "te.rounds",
    "te.fallback_rounds",
    "te.static_memo.hits",
    "te.static_memo.misses",
    "te.augment.full_rebuilds",
    "te.augment.in_place_patches",
    "te.augment.suffix_rebuilds",
    // warm-started exact LP (`rwc_te::TeSolver`).
    "lp.cold_solves",
    "lp.warm_attempts",
    "lp.warm_hits",
    "lp.pivots",
    "lp.watchdog_aborts",
    "lp.eta_updates",
    "lp.refactorizations",
    "lp.pricing_scans",
    "lp.warm_singular",
    "lp.repair_aborts",
    "lp.repair_pivots",
    // harness: crash-safe sweep runtime (rwc-harness).
    "harness.chunk_retries",
    "harness.chunk_failures",
    "harness.checkpoints_written",
    "harness.checkpoints_rejected",
    "harness.resume_verified",
    "harness.chaos_panics",
    "harness.chaos_kills",
    // serve: sharded controller daemon (rwc-serve). The ingest ledger
    // closes exactly: ingested = completed + shed_* + inflight_drops +
    // still-queued — overload is counted, never silent. Requeues keep
    // the original admission open and sit outside the ledger.
    "serve.ingested",
    "serve.rejected",
    "serve.duplicates",
    "serve.shed_oldest",
    "serve.shed_deadline",
    "serve.requeued",
    "serve.inflight_drops",
    "serve.links_completed",
    "serve.shard_panics",
    "serve.shard_restarts",
    "serve.shards_unhealthy",
    "serve.checkpoints_written",
    "serve.checkpoint_fallbacks",
    "serve.checkpoints_rejected",
    "serve.http_requests",
    "serve.drains",
    // scenario driver.
    "scenario.ticks",
    "scenario.runs",
    "scenario.counterfactual.hits",
    "scenario.counterfactual.misses",
    "scenario.faults.bvt",
    "scenario.faults.telemetry",
    "scenario.faults.te",
    // fleet-telemetry kernel.
    "fleet.links",
    "fleet.samples",
    "fleet.episodes",
    // one per Event variant, maintained by MetricsObserver::event.
    "events.reconfig_started",
    "events.reconfig_committed",
    "events.reconfig_aborted",
    "events.quarantine",
    "events.warm_solve",
    "events.cold_fallback",
    "events.fault_injected",
    "events.episode_opened",
    "events.episode_closed",
    "events.chunk_retried",
    "events.checkpoint_written",
    "events.resume_verified",
    "events.watchdog_abort",
    "events.shard_restarted",
    "events.shard_unhealthy",
    "events.overload_shed",
    "events.drain_completed",
];

/// Point-in-time gauges, set via [`crate::Observer::gauge`]. Merging
/// snapshots keeps the maximum — gauges are "high-water" readings, not
/// sums.
pub const GAUGES: &[&str] = &[
    "te.warm_hit_rate",
    "scenario.availability",
    "scenario.degraded_share",
    // High-water ingest-queue depth across all shards of the daemon.
    "serve.queue_depth",
];

/// Log-linear histograms, fed via [`crate::Observer::record`] (and
/// [`crate::Span`] for the wall-clock ones). Simulated-time series record
/// `SimDuration` millis; `te.solve_micros`, `te.round_micros` and the
/// `serve.*_micros` series record wall-clock micros.
pub const HISTOGRAMS: &[&str] = &[
    "bvt.phase_millis.laser_power_down",
    "bvt.phase_millis.dsp_reprogram",
    "bvt.phase_millis.laser_power_up_relock",
    "bvt.phase_millis.inline_reprogram",
    "bvt.phase_millis.resync",
    "controller.change_downtime_millis",
    "te.solve_micros",
    "te.round_micros",
    "fleet.episode_ticks",
    // serve: one sample per link (time queued before a shard popped it),
    // per connection (accept to reply) and per shard checkpoint written.
    "serve.queue_wait_micros",
    "serve.http_handler_micros",
    "serve.checkpoint_write_micros",
];
