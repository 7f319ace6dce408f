//! Operator tooling tour: JSON interchange, Graphviz export, the TE cost
//! of a fiber cut and reliability accounting.
//!
//! ```text
//! cargo run --example topology_tools
//! ```

use rwc::failures::reliability::nines;
use rwc::failures::{AvailabilityReport, TicketConfig, TicketGenerator};
use rwc::optics::ModulationTable;
use rwc::te::swan::SwanTe;
use rwc::te::{DemandMatrix, TeAlgorithm, TeProblem};
use rwc::topology::builders;
use rwc::topology::export::to_dot;
use rwc::topology::wan::LinkId;
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

    // --- What does cutting a fiber cost? ----------------------------------
    // Put the two Chicago-area routes on one conduit: its shared-risk group
    // is every link whose `fiber_id` is the cut fiber, and a cut darkens
    // them together.
    let ipl_chi = LinkId(9);
    let chi_nyc = LinkId(11);
    let cut_fiber = wan.link(ipl_chi).fiber_id;
    wan.link_mut(chi_nyc).fiber_id = cut_fiber;
    let dark: Vec<LinkId> =
        wan.links().filter(|(_, l)| l.fiber_id == cut_fiber).map(|(id, _)| id).collect();

    // Re-solve TE on the failure state: the same demands and algorithm,
    // the dark links' capacity zeroed.
    let dm = DemandMatrix::gravity(&wan, Gbps(800.0), 5);
    let swan = SwanTe::default();
    let mut problem = TeProblem::from_wan(&wan, &dm);
    let before = swan.try_solve(&problem).expect("TE solve").total;
    for &id in &dark {
        problem.override_link_capacity(id, 0.0);
    }
    let after = swan.try_solve(&problem).expect("TE solve on the cut state").total;
    let names: Vec<String> = dark
        .iter()
        .map(|&id| {
            let link = wan.link(id);
            format!("{}-{}", wan.node(link.a).name, wan.node(link.b).name)
        })
        .collect();
    println!(
        "\ncutting fiber {cut_fiber}: {} links dark ({}), TE throughput {before:.0} G → \
         {after:.0} G",
        dark.len(),
        names.join(", ")
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
