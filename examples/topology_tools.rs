//! Operator tooling tour: JSON interchange, Graphviz export, shared-risk
//! analysis and reliability accounting.
//!
//! ```text
//! cargo run --example topology_tools
//! ```

use rwc::failures::reliability::nines;
use rwc::failures::{AvailabilityReport, TicketConfig, TicketGenerator};
use rwc::optics::ModulationTable;
use rwc::te::srlg::{cut_impact, shared_risk_groups, srlg_disjoint_paths};
use rwc::te::{DemandMatrix, TeAlgorithm};
use rwc::topology::builders;
use rwc::topology::export::to_dot;
use rwc::topology::WanTopology;
use rwc::util::units::Gbps;

fn main() {
    let mut wan = builders::abilene();
    let table = ModulationTable::paper_default();

    // --- JSON round-trip (the interchange format) -----------------------
    let json = wan.to_json();
    let restored = WanTopology::from_json(&json).unwrap();
    assert_eq!(wan, restored);
    println!("JSON interchange: {} bytes for Abilene", json.len());

    // --- Graphviz export -------------------------------------------------
    let dot = to_dot(&wan, &table);
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/abilene.dot", &dot).unwrap();
    println!("wrote results/abilene.dot  (render: dot -Tsvg -Kneato results/abilene.dot)");

    // --- Shared-risk groups ----------------------------------------------
    // Put the two Chicago-area routes on one conduit to make it interesting.
    let ipl_chi = rwc::topology::wan::LinkId(9);
    let chi_nyc = rwc::topology::wan::LinkId(11);
    let shared_fiber = wan.link(ipl_chi).fiber_id;
    wan.link_mut(chi_nyc).fiber_id = shared_fiber;
    let groups = shared_risk_groups(&wan);
    println!("\n{} fiber conduits carry {} links", groups.len(), wan.n_links());

    let sea = wan.node_by_name("SEA").unwrap();
    let nyc = wan.node_by_name("NYC").unwrap();
    match srlg_disjoint_paths(&wan, sea, nyc, 8) {
        Some((primary, backup)) => println!(
            "SEA→NYC fiber-disjoint pair: primary {:.0} km over {} hops, backup {:.0} km over {} hops",
            primary.weight,
            primary.len(),
            backup.weight,
            backup.len()
        ),
        None => println!("SEA→NYC has no fiber-disjoint pair!"),
    }

    // --- What does cutting that conduit cost? -----------------------------
    let dm = DemandMatrix::gravity(&wan, Gbps(800.0), 5);
    let problem = rwc::te::problem::TeProblem::from_wan(&wan, &dm);
    let sol = rwc::te::swan::SwanTe::default().try_solve(&problem).expect("TE solve");
    let impact = cut_impact(&wan, &problem, &sol, shared_fiber);
    println!(
        "cutting conduit {}: {} links dark, {} of capacity gone, {:.0} G of live traffic stranded",
        shared_fiber,
        impact.links_down.len(),
        impact.capacity_lost,
        impact.traffic_stranded
    );

    // --- Reliability bookkeeping ------------------------------------------
    let cfg = TicketConfig::paper();
    let tickets = TicketGenerator::new(cfg.clone()).generate();
    let replay = AvailabilityReport::replay(&tickets, &table, Gbps(100.0));
    let (_, binary_mttr, binary) = replay.binary_mtbf_mttr(cfg.window, cfg.n_links);
    let (_, dynamic_mttr, dynamic) = replay.dynamic_mtbf_mttr(cfg.window, cfg.n_links);
    println!(
        "\nfleet reliability: binary {:.2} nines (MTTR {binary_mttr}) → dynamic {:.2} nines \
         (MTTR {dynamic_mttr})",
        nines(binary),
        nines(dynamic),
    );
}
