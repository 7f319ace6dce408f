//! Per-link shard processing: the pure function every shard executes.
//!
//! A link's result depends only on `(fleet seed, link id, table)` —
//! never on which shard processed it, how often it was requeued, or what
//! ran before it. That purity is the whole determinism story: the daemon
//! can shed, reroute, restart and resume freely, and the slot-ordered
//! final merge still reproduces the sequential batch pass byte for byte.
//! [`batch_reference`] *is* that sequential pass, exported as the oracle
//! the identity tests and the soak compare against.

use crate::config::ServeConfig;
use rwc_core::controller::{Controller, Decision};
use rwc_obs::{MetricsObserver, MetricsSnapshot, Observer};
use rwc_optics::Modulation;
use rwc_telemetry::{FleetAccumulator, FleetGenerator, FleetKernel};
use rwc_topology::wan::LinkId;
use rwc_util::time::SimTime;
use std::sync::Arc;

/// Link ingest states (one atomic byte per link in the daemon).
pub(crate) const LINK_PENDING: u8 = 0;
/// Admitted to some shard's queue (or in flight on a worker).
pub(crate) const LINK_QUEUED: u8 = 1;
/// Completed; the collector holds its slot.
pub(crate) const LINK_DONE: u8 = 2;

/// One completed link, as handed to the collector.
#[derive(Debug)]
pub(crate) struct LinkDone {
    pub link: usize,
    /// Single-link accumulator partial (exactly one `push`).
    pub acc: FleetAccumulator,
    /// The link's pipeline metrics from a fresh per-attempt observer —
    /// failed attempts never pollute the merged snapshot.
    pub metrics: MetricsSnapshot,
    /// Feasible capacity served by `/capacity/<link>`.
    pub feasible_gbps: f64,
}

/// Analyses one link and runs the controller's pure decision over the
/// result. Identical no matter which shard (or the batch path) calls it.
pub(crate) fn process_link(
    kernel: &mut FleetKernel,
    controller: &Controller,
    gen: &FleetGenerator,
    cfg: &ServeConfig,
    link: usize,
) -> LinkDone {
    let obs = Arc::new(MetricsObserver::new());
    kernel.set_observer(obs.clone());
    let table = &cfg.controller.table;
    let analysis = kernel.analyze_generated(gen, link, table);
    // The run/walk/crawl decision at the link's observed feasibility
    // floor, from the fleet's static 100 G default. `decide` is `&self`
    // over untouched link state, so the outcome is a pure function of the
    // analysis — shard placement cannot change it.
    let decision = controller.decide(
        LinkId(link),
        Modulation::DpQpsk100,
        analysis.hdr.feasibility_floor(),
        SimTime::EPOCH,
    );
    obs.incr(
        match decision {
            Decision::Hold => "controller.decisions.hold",
            Decision::StepTo(_) => "controller.decisions.step",
            Decision::Down => "controller.decisions.down",
        },
        1,
    );
    let mut acc = FleetAccumulator::new();
    acc.push(&analysis);
    // One link moves about five of the catalogue's ~100 names. Zero
    // counters, zero gauges and empty histograms merge as nothing, and the
    // daemon holds (and checkpoints) one of these snapshots per link — so
    // only what the link moved is carried along.
    let mut metrics = obs.snapshot();
    metrics.counters.retain(|_, v| *v > 0);
    metrics.gauges.retain(|_, v| *v != 0.0);
    metrics.histograms.retain(|_, h| h.count > 0);
    LinkDone { link, feasible_gbps: analysis.feasible_capacity.value(), acc, metrics }
}

/// A controller whose per-link state is untouched — the shared starting
/// point every shard (and the batch reference) decides from.
pub(crate) fn fresh_controller(cfg: &ServeConfig) -> Controller {
    Controller::new(cfg.controller.clone(), cfg.n_links(), cfg.fleet.seed)
}

/// The single-threaded batch pass over the whole fleet, in ascending link
/// order: the byte-identity oracle for every daemon configuration.
///
/// Returns the fleet accumulator and the merged pipeline metrics — both
/// must equal what [`crate::Daemon`] reports after serving the same fleet,
/// regardless of shard count, interleaving, shedding, panics, or resume
/// cycles.
pub fn batch_reference(cfg: &ServeConfig) -> (FleetAccumulator, MetricsSnapshot) {
    let gen = FleetGenerator::new(cfg.fleet.clone());
    let mut kernel = FleetKernel::new();
    let controller = fresh_controller(cfg);
    let mut acc = FleetAccumulator::new();
    let mut metrics = MetricsObserver::new().snapshot();
    for link in 0..cfg.n_links() {
        let done = process_link(&mut kernel, &controller, &gen, cfg, link);
        acc.merge(done.acc);
        metrics.merge(&done.metrics);
    }
    (acc, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_reference_accumulator_matches_generator_sweep() {
        let cfg = {
            let mut c = ServeConfig::small();
            c.fleet.n_fibers = 2;
            c.fleet.wavelengths_per_fiber = 4;
            c
        };
        let (acc, metrics) = batch_reference(&cfg);
        let gen = FleetGenerator::new(cfg.fleet.clone());
        let plain = gen.fleet_analysis(&cfg.controller.table);
        assert_eq!(
            serde_json::to_string(&acc).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "per-link serve processing must not disturb the telemetry pipeline"
        );
        let n = cfg.n_links() as u64;
        let decisions = metrics.counters["controller.decisions.hold"]
            + metrics.counters["controller.decisions.step"]
            + metrics.counters["controller.decisions.down"];
        assert_eq!(decisions, n, "one decision per link");
        assert_eq!(metrics.counters["fleet.links"], n);
    }

    #[test]
    fn per_link_snapshot_carries_only_what_the_link_moved() {
        let cfg = ServeConfig::small();
        let gen = FleetGenerator::new(cfg.fleet.clone());
        let controller = fresh_controller(&cfg);
        let mut kernel = FleetKernel::new();
        for link in 0..cfg.n_links() {
            let m = process_link(&mut kernel, &controller, &gen, &cfg, link).metrics;
            assert!(m.counters.values().all(|&v| v > 0), "link {link}: {:?}", m.counters);
            assert!(m.gauges.values().all(|&v| v != 0.0), "link {link}: {:?}", m.gauges);
            assert!(m.histograms.values().all(|h| h.count > 0), "link {link}");
            assert_eq!(m.counters.get("fleet.links"), Some(&1), "link {link}");
            assert!(m.counters.len() < 10, "link {link}: {:?}", m.counters.keys());
        }
    }

    #[test]
    fn process_link_is_shard_agnostic() {
        let cfg = ServeConfig::small();
        let gen = FleetGenerator::new(cfg.fleet.clone());
        let ctrl_a = fresh_controller(&cfg);
        let ctrl_b = fresh_controller(&cfg);
        let mut k_a = FleetKernel::new();
        let mut k_b = FleetKernel::new();
        // Same link through two different kernel/controller instances
        // (with unrelated history on one of them).
        let _ = process_link(&mut k_b, &ctrl_b, &gen, &cfg, 3);
        let a = process_link(&mut k_a, &ctrl_a, &gen, &cfg, 7);
        let b = process_link(&mut k_b, &ctrl_b, &gen, &cfg, 7);
        assert_eq!(
            serde_json::to_string(&a.acc).unwrap(),
            serde_json::to_string(&b.acc).unwrap()
        );
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(a.feasible_gbps, b.feasible_gbps);
    }
}
