//! The typed event stream.
//!
//! Events are the low-rate, high-salience channel: state transitions a
//! fleet operator would page on (a reconfiguration aborting mid-commit, a
//! link entering quarantine, the warm LP falling back cold) rather than
//! per-tick samples. Emitters hand a borrowed [`Event`] to
//! [`crate::Observer::event`]; the default observer drops it without
//! looking, [`crate::MetricsObserver`] counts it under `events.*`, and
//! [`crate::ConsoleSink`] pretty-prints the salient ones. Per-sample
//! work is not an event: failure episodes, thousands per 913-day link,
//! reach the observer as per-link counts and one
//! [`crate::Observer::record_each`] batch.
//!
//! The payloads are deliberately primitive (`u64` link ids, `f64` Gbps,
//! micros) so this crate sits below every pipeline crate without
//! depending on their types.

use serde::Serialize;

/// Which layer injected a fault (mirrors the `rwc-faults` scopes without
/// depending on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultDomain {
    /// Transceiver hardware/management-bus fault.
    Bvt,
    /// Telemetry-channel fault (frozen, dropped or spiking readings).
    Telemetry,
    /// TE solver fault.
    Te,
    /// Optical-layer fault (amplifier span, SRLG).
    Optical,
}

/// Why the exact LP solved cold instead of reusing its retained basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ColdReason {
    /// Nothing to reuse: first solve, a reset, or the LP's structure
    /// changed in place.
    NoBasis,
    /// The saved basis, mapped onto the new program, did not factorise.
    Singular,
    /// Dual repair of the warm basis gave up (pivot bound, no eligible
    /// pivot).
    RepairAborted,
    /// The warm basis was neither primal- nor dual-feasible: the matrix
    /// or objective moved, not just rhs and bounds.
    NotDualFeasible,
    /// The solve-deadline watchdog aborted the warm attempt.
    Watchdog,
}

/// One pipeline state transition.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A capacity reconfiguration began (either direct execution or the
    /// prepare leg of a staged make-before-break change).
    ReconfigStarted {
        /// Link being reconfigured.
        link: u64,
        /// Capacity before the change, Gbps.
        from_gbps: f64,
        /// Target capacity, Gbps.
        to_gbps: f64,
        /// `true` for staged (prepare/commit) changes.
        staged: bool,
    },
    /// A reconfiguration completed and the link carries its new rate.
    ReconfigCommitted {
        /// Link that was reconfigured.
        link: u64,
        /// Committed capacity, Gbps.
        to_gbps: f64,
        /// Simulated downtime the change cost, millis.
        downtime_millis: u64,
        /// Retries spent before success.
        retries: u64,
    },
    /// A reconfiguration gave up (retries exhausted, watchdog fired, or
    /// an explicit abort rolled the staged change back).
    ReconfigAborted {
        /// Link whose change failed.
        link: u64,
        /// The capacity that was being installed, Gbps.
        to_gbps: f64,
        /// `true` if a staged change was rolled back to its old rate.
        rolled_back: bool,
    },
    /// A link entered its quarantine hold-down.
    Quarantine {
        /// The quarantined link.
        link: u64,
        /// When the hold-down expires, millis of simulated time.
        until_millis: u64,
    },
    /// The incremental exact LP reused its retained basis.
    WarmSolve {
        /// Pivots the warm solve spent.
        pivots: u64,
    },
    /// The incremental exact LP abandoned its basis and solved cold.
    ColdFallback {
        /// Pivots the solve spent, refused warm attempt included.
        pivots: u64,
        /// Why the basis was not reused.
        reason: ColdReason,
    },
    /// The fault plan injected a fault this tick/round.
    FaultInjected {
        /// Affected link, if the fault targets one.
        link: Option<u64>,
        /// The layer the fault hits.
        domain: FaultDomain,
    },
    /// The daemon wrote a shard checkpoint atomically.
    CheckpointWritten {
        /// Chunks (links) the checkpoint holds.
        completed_chunks: u64,
    },
    /// A resume checkpoint passed its checksum and fingerprint checks.
    ResumeVerified {
        /// Chunks restored from the checkpoint.
        restored_chunks: u64,
    },
    /// The LP solve-deadline watchdog aborted a runaway solve attempt.
    WatchdogAbort {
        /// Pivots spent before the deadline fired.
        pivots: u64,
    },
    /// The daemon supervisor restarted a panicked shard from its last
    /// checkpoint.
    ShardRestarted {
        /// The shard that was restarted.
        shard: u64,
        /// Restarts spent on this shard so far (1 = first restart).
        restarts: u64,
    },
    /// A shard exhausted its restart budget and was marked unhealthy;
    /// its pending work is re-routed to healthy shards.
    ShardUnhealthy {
        /// The shard taken out of rotation.
        shard: u64,
    },
    /// The ingest path shed work under overload (bounded queue full or a
    /// queued item outlived its deadline).
    OverloadShed {
        /// Shard whose queue shed.
        shard: u64,
        /// Link ids shed by this action.
        count: u64,
    },
    /// A graceful drain finished: queues flushed, final checkpoints
    /// written, report sealed.
    DrainCompleted {
        /// Links completed over the daemon's lifetime.
        links_completed: u64,
    },
}

impl Event {
    /// The `events.*` counter this event increments in a
    /// [`crate::MetricsObserver`].
    pub fn counter_name(&self) -> &'static str {
        match self {
            Event::ReconfigStarted { .. } => "events.reconfig_started",
            Event::ReconfigCommitted { .. } => "events.reconfig_committed",
            Event::ReconfigAborted { .. } => "events.reconfig_aborted",
            Event::Quarantine { .. } => "events.quarantine",
            Event::WarmSolve { .. } => "events.warm_solve",
            Event::ColdFallback { .. } => "events.cold_fallback",
            Event::FaultInjected { .. } => "events.fault_injected",
            Event::CheckpointWritten { .. } => "events.checkpoint_written",
            Event::ResumeVerified { .. } => "events.resume_verified",
            Event::WatchdogAbort { .. } => "events.watchdog_abort",
            Event::ShardRestarted { .. } => "events.shard_restarted",
            Event::ShardUnhealthy { .. } => "events.shard_unhealthy",
            Event::OverloadShed { .. } => "events.overload_shed",
            Event::DrainCompleted { .. } => "events.drain_completed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_name_is_in_the_catalogue() {
        let events = [
            Event::ReconfigStarted { link: 0, from_gbps: 100.0, to_gbps: 150.0, staged: false },
            Event::ReconfigCommitted { link: 0, to_gbps: 150.0, downtime_millis: 7, retries: 0 },
            Event::ReconfigAborted { link: 0, to_gbps: 150.0, rolled_back: true },
            Event::Quarantine { link: 0, until_millis: 1 },
            Event::WarmSolve { pivots: 3 },
            Event::ColdFallback { pivots: 40, reason: ColdReason::Singular },
            Event::FaultInjected { link: Some(2), domain: FaultDomain::Bvt },
            Event::CheckpointWritten { completed_chunks: 4 },
            Event::ResumeVerified { restored_chunks: 4 },
            Event::WatchdogAbort { pivots: 512 },
            Event::ShardRestarted { shard: 1, restarts: 2 },
            Event::ShardUnhealthy { shard: 1 },
            Event::OverloadShed { shard: 0, count: 12 },
            Event::DrainCompleted { links_completed: 40 },
        ];
        for e in &events {
            assert!(
                crate::names::COUNTERS.contains(&e.counter_name()),
                "{} missing from names::COUNTERS",
                e.counter_name()
            );
        }
    }
}
