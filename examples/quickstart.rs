//! Quickstart: the paper's Fig. 7 walk-through, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the four-node example network, grows the demands past the static
//! capacity, augments the topology (Algorithm 1), hands it to an
//! *unmodified* TE algorithm, and translates the result back into capacity
//! upgrades + flows.

use rwc::core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc::te::{DemandMatrix, Priority, TeAlgorithm, TeSolver};
use rwc::topology::builders;
use rwc::topology::wan::LinkId;
use rwc::util::units::{Db, Gbps};

fn main() {
    // --- Topology: Fig. 7a --------------------------------------------
    let mut wan = builders::fig7_example();
    for (id, _) in wan.clone().links() {
        wan.set_snr(id, Db(7.5)); // healthy at 100 G, no headroom
    }
    // Links (A,B) and (C,D) have the SNR to double their capacity.
    wan.set_snr(LinkId(0), Db(13.0));
    wan.set_snr(LinkId(1), Db(13.0));
    println!("topology: {} sites, {} links, total {}", wan.n_nodes(), wan.n_links(), wan.total_capacity());

    // --- Demands grow from 100 to 125 G --------------------------------
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let c = wan.node_by_name("C").unwrap();
    let d = wan.node_by_name("D").unwrap();
    let mut demands = DemandMatrix::new();
    demands.add(a, b, Gbps(125.0), Priority::Elastic);
    demands.add(c, d, Gbps(125.0), Priority::Elastic);
    println!("demands: A→B = C→D = 125 Gbps (links are 100 G)");

    // --- Algorithm 1: augment ------------------------------------------
    let cfg = AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() };
    let aug = augment(&wan, &demands, &cfg, &[]);
    println!(
        "augmented graph: {} real + {} fake edges (penalty 100 per unit)",
        aug.n_real_edges,
        aug.fake_edges.len()
    );

    // --- Unmodified TE on the augmented graph --------------------------
    let te = TeSolver::builder().build().expect("default TE solver");
    let solution = te.try_solve(&aug.problem).expect("TE solve");
    println!("TE routed {:.0} of 250 Gbps", solution.total);

    // --- Translate back ------------------------------------------------
    let result = translate(&aug, &wan, &solution).expect("translation");
    for (link, target) in &result.upgrades {
        let l = wan.link(*link);
        println!(
            "upgrade: {}–{} from {} to {target}",
            wan.node(l.a).name,
            wan.node(l.b).name,
            l.modulation
        );
    }
    println!(
        "{} upgrade(s) needed — the paper's point: ONE reconfiguration serves both grown demands",
        result.upgrades.len()
    );
    assert_eq!(result.upgrades.len(), 1);
}
