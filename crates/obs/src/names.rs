//! The metric name catalogue.
//!
//! Every metric the pipeline emits is registered here up front: the
//! [`crate::MetricsRegistry`] pre-allocates one atomic cell per name at
//! construction, which is what keeps the hot path lock-free (a name
//! resolves to its cell through a hash table built once per process from
//! these lists; writers touch only atomics). The catalogue is also the
//! documentation of record — DESIGN.md §10 mirrors it — and the schema
//! contract for `repro --obs-json`: a registry snapshot always carries
//! every name below, zero-valued or not, so CI can assert on keys
//! without caring which experiment ran.
//!
//! Naming convention: `<subsystem>.<noun>[.<qualifier>]`, lower-case,
//! dot-separated. Histogram names say their unit in the last segment
//! (`_millis`, `_micros`, `_ticks`). `events.*` counters are maintained by
//! [`crate::MetricsObserver`] itself, one per [`crate::Event`] variant,
//! except `events.episode_opened` / `events.episode_closed`: the fleet
//! kernel adds each link's episode count to them once, when the link is
//! finished, rather than raising an event per episode.

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
    // te round engine: solve outcomes, static-memo hit rate, rebuilds.
    "te.rounds",
    "te.fallback_rounds",
    "te.static_memo.hits",
    "te.static_memo.misses",
    "te.augment.full_rebuilds",
    // TeSolver solves whose verdict was checked against its certificate.
    "te.certified",
    // TeSolver lowerings that kept their role's last LP shape (values
    // rewritten in place) or built the LP anew.
    "te.shape_hits",
    "te.shape_misses",
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
    // harness: what only the `repro chaos` campaign knows — corrupted
    // checkpoints the loader refused and daemons it killed mid-sweep.
    "harness.checkpoints_rejected",
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
    "scenario.faults.bvt",
    "scenario.faults.telemetry",
    "scenario.faults.te",
    // fleet-telemetry kernel.
    "fleet.links",
    "fleet.samples",
    "fleet.episodes",
    // one per Event variant, maintained by MetricsObserver::event; the
    // fleet kernel adds a link's episode count to the two episode ones.
    "events.reconfig_started",
    "events.reconfig_committed",
    "events.reconfig_aborted",
    "events.quarantine",
    "events.warm_solve",
    "events.cold_fallback",
    "events.fault_injected",
    "events.episode_opened",
    "events.episode_closed",
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
