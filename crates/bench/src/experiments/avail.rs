//! §2.2's availability argument, replayed end to end.
//!
//! Two views:
//!
//! 1. **Ticket replay** — every failure event whose SNR floor clears some
//!    rung becomes a capacity flap instead of an outage (the paper: ≥25%
//!    of failures avoidable at 50 G alone);
//! 2. **Controller replay** — the run/walk/crawl controller consumes a
//!    fleet's raw SNR traces tick by tick and we count how many
//!    fixed-capacity failures it converts into flaps, plus the downtime it
//!    spends reconfiguring under the legacy vs efficient BVT procedure.

use crate::parallel::parallel_arms;
use crate::{Report, Scale};
use rwc_core::controller::{Controller, ControllerConfig};
use rwc_failures::availability::AvailabilityReport;
use rwc_failures::TicketGenerator;
use rwc_optics::bvt::ReconfigProcedure;
use rwc_optics::ModulationTable;
use rwc_telemetry::FleetGenerator;
use rwc_topology::wan::LinkId;
use rwc_topology::WanTopology;
use rwc_util::time::SimDuration;
use rwc_util::units::{Db, Gbps};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("avail", "availability: failures converted to capacity flaps");

    // --- Ticket replay ------------------------------------------------
    let tickets = TicketGenerator::new(scale.tickets()).generate();
    let table = ModulationTable::paper_default();
    let replay = AvailabilityReport::replay(&tickets, &table, Gbps(100.0));
    report.line(format!(
        "ticket replay: {} events — {} hard outages, {} converted to flaps ({:.1}%; paper ≥25%)",
        replay.total_events,
        replay.hard_outages,
        replay.converted_to_flaps,
        100.0 * replay.events_avoided_fraction()
    ));
    report.line(format!(
        "outage time: binary {:.0} h → dynamic {:.0} h ({:.1}% of outage time avoided); \
         capacity delivered during events: {:.1}% of static rate",
        replay.binary_outage.as_hours_f64(),
        replay.dynamic_outage.as_hours_f64(),
        100.0 * replay.outage_time_avoided_fraction(),
        100.0 * replay.delivered_fraction_during_events
    ));
    let window = scale.tickets().window;
    let n_links = scale.tickets().n_links;
    report.line(format!(
        "fleet availability over the window: binary {:.5} → dynamic {:.5}",
        replay.binary_availability(window, n_links),
        replay.dynamic_availability(window, n_links)
    ));
    let binary_rel =
        rwc_failures::reliability::binary_reliability(&tickets, window, n_links);
    let dynamic_rel =
        rwc_failures::reliability::dynamic_reliability(&tickets, &table, window, n_links);
    report.line(format!(
        "per-link reliability: MTBF {} / MTTR {} ({:.2} nines) binary → MTBF {} / MTTR {} \
         ({:.2} nines) dynamic",
        binary_rel.mtbf,
        binary_rel.mttr,
        rwc_failures::reliability::nines(binary_rel.availability),
        dynamic_rel.mtbf,
        dynamic_rel.mttr,
        rwc_failures::reliability::nines(dynamic_rel.availability),
    ));

    // --- Controller replay ---------------------------------------------
    let mut fleet_cfg = scale.fleet();
    fleet_cfg.n_fibers = fleet_cfg.n_fibers.min(2); // a 2-fiber sample is plenty
    let gen = FleetGenerator::new(fleet_cfg);
    let procedures = [ReconfigProcedure::Efficient, ReconfigProcedure::Legacy];
    // Each procedure replays the same traces independently — run both
    // arms concurrently; results come back in `procedures` order.
    let replays = parallel_arms(
        procedures
            .iter()
            .map(|&procedure| {
                let gen = &gen;
                Box::new(move || controller_replay(gen, procedure))
                    as Box<dyn FnOnce() -> _ + Send>
            })
            .collect(),
    );
    for (procedure, (flaps, downs, downtime)) in procedures.into_iter().zip(replays) {
        report.line(format!(
            "controller replay ({} links, {:?} BVT): {} degradations ridden out as flaps, \
             {} hard downs, {} total reconfiguration downtime",
            gen.n_links(),
            procedure,
            flaps,
            downs,
            downtime
        ));
    }
    report.line(
        "paper conclusion: driving links slower instead of failing them improves availability"
            .to_string(),
    );
    report
}

/// Replays a fleet's SNR traces through the controller on a star topology
/// (one spoke per telemetry link). Returns (flaps, hard downs, downtime).
pub fn controller_replay(
    gen: &FleetGenerator,
    procedure: ReconfigProcedure,
) -> (usize, usize, SimDuration) {
    // Topology: hub-and-spoke so LinkId i ↔ telemetry link i.
    let mut wan = WanTopology::new();
    let hub = wan.add_node("HUB", None);
    for i in 0..gen.n_links() {
        let n = wan.add_node(format!("S{i}"), None);
        wan.add_link(hub, n, 500.0);
    }
    let mut controller = Controller::new(
        ControllerConfig { procedure, ..ControllerConfig::default() },
        wan.n_links(),
        9,
    );
    let mut flaps = 0usize;
    let mut downs = 0usize;
    let mut downtime = SimDuration::ZERO;

    // Stream link by link to keep memory flat; sweep per tick within the
    // link (links are independent in a star).
    for link_id in 0..gen.n_links() {
        let link = gen.link(link_id);
        for (t, snr) in link.trace.iter() {
            let report =
                controller.sweep(&mut wan, &[(LinkId(link_id), Some(Db(snr.value())))], t);
            flaps += report.failures_avoided;
            downs += report.went_down.len();
            downtime += report.downtime;
        }
    }
    (flaps, downs, downtime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_replay_quarter_avoided() {
        let tickets = TicketGenerator::new(Scale::Quick.tickets()).generate();
        let replay = AvailabilityReport::replay(
            &tickets,
            &ModulationTable::paper_default(),
            Gbps(100.0),
        );
        let frac = replay.events_avoided_fraction();
        assert!((0.15..0.45).contains(&frac), "avoided={frac}");
        assert!(replay.dynamic_outage < replay.binary_outage);
    }

    #[test]
    fn controller_converts_failures() {
        let mut cfg = Scale::Quick.fleet();
        cfg.n_fibers = 1;
        cfg.wavelengths_per_fiber = 10;
        let gen = FleetGenerator::new(cfg);
        let (flaps, _downs, downtime) =
            controller_replay(&gen, ReconfigProcedure::Efficient);
        assert!(flaps > 0, "some degradations must be ridden out");
        assert!(downtime > SimDuration::ZERO);
    }

    #[test]
    fn legacy_costs_more_downtime() {
        let mut cfg = Scale::Quick.fleet();
        cfg.n_fibers = 1;
        cfg.wavelengths_per_fiber = 8;
        let gen = FleetGenerator::new(cfg);
        let (_, _, efficient) = controller_replay(&gen, ReconfigProcedure::Efficient);
        let (_, _, legacy) = controller_replay(&gen, ReconfigProcedure::Legacy);
        assert!(
            legacy > efficient * 100,
            "legacy {legacy} must dwarf efficient {efficient}"
        );
    }
}
