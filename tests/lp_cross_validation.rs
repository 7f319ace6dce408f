//! Integration: the simplex LP as ground truth for every combinatorial
//! solver, on structured (non-random) instances that exercise deeper
//! paths than the unit tests.

use rwc::flow::network::FlowNetwork;
use rwc::lp::flows::{max_flow_lp_value, max_multicommodity_lp_total, min_cost_max_flow_lp};
use rwc::te::b4::B4Te;
use rwc::te::cspf::CspfTe;
use rwc::te::demand::{DemandMatrix, Priority};
use rwc::te::problem::TeProblem;
use rwc::te::swan::SwanTe;
use rwc::te::TeAlgorithm;
use rwc::topology::builders;
use rwc::topology::graph::NodeId;
use rwc::util::units::Gbps;

/// Abilene's directed expansion as plain edge lists.
fn abilene_edges() -> (usize, Vec<(usize, usize, f64)>) {
    let wan = builders::abilene();
    let p = TeProblem::from_wan(&wan, &DemandMatrix::new());
    let edges = p.net.edges().iter().map(|e| (e.from, e.to, e.capacity)).collect();
    (p.net.n_nodes(), edges)
}

#[test]
fn dinic_matches_lp_on_abilene() {
    let (n, edges) = abilene_edges();
    let mut net = FlowNetwork::new(n);
    for &(u, v, c) in &edges {
        net.add_edge(u, v, c, 0.0);
    }
    for (src, dst) in [(0usize, 10usize), (2, 9), (5, 0)] {
        let dinic = rwc::flow::max_flow(&net, src, dst);
        let lp = max_flow_lp_value(n, &edges, src, dst);
        assert!(
            (dinic.value - lp).abs() < 1e-6,
            "{src}->{dst}: dinic {} vs lp {lp}",
            dinic.value
        );
    }
}

#[test]
fn min_cost_matches_lp_with_length_costs() {
    // Cost = route length: the min-cost max-flow then prefers short fiber.
    let wan = builders::abilene();
    let mut net = FlowNetwork::new(wan.n_nodes());
    let mut edges = Vec::new();
    for (_, l) in wan.links() {
        let c = l.capacity().value();
        net.add_edge(l.a.0, l.b.0, c, l.length_km);
        edges.push((l.a.0, l.b.0, c, l.length_km));
        net.add_edge(l.b.0, l.a.0, c, l.length_km);
        edges.push((l.b.0, l.a.0, c, l.length_km));
    }
    let mc = rwc::flow::min_cost_max_flow(&net, 0, 10);
    let (lp_value, lp_cost) = min_cost_max_flow_lp(wan.n_nodes(), &edges, 0, 10);
    assert!((mc.flow.value - lp_value).abs() < 1e-6);
    assert!((mc.cost - lp_cost).abs() < 1e-3, "ssp {} vs lp {}", mc.cost, lp_cost);
}

#[test]
fn mcf_solvers_bracket_the_lp_optimum() {
    // Three commodities fighting over Abilene's west-east cut.
    let (n, edges) = abilene_edges();
    let wan = builders::abilene();
    let mut dm = DemandMatrix::new();
    for (from, to) in [(0, 10), (1, 9), (2, 8)] {
        // SEA→NYC, SNV→WDC, LAX→ATL
        dm.add(NodeId(from), NodeId(to), Gbps(150.0), Priority::Elastic);
    }
    let p = TeProblem::from_wan(&wan, &dm);
    let triples: Vec<(usize, usize, f64)> =
        p.commodities.iter().map(|c| (c.source, c.sink, c.demand)).collect();
    let lp = max_multicommodity_lp_total(n, &edges, &triples);
    // One class: SWAN is the TE lowering of the same LP, built independently
    // of the encoder above — the two optima must coincide.
    let swan = SwanTe::default().solve(&p);
    swan.validate(&p).unwrap();
    assert!((swan.total - lp).abs() < 1e-6, "swan {} vs LP {lp}", swan.total);
    for algo in [&B4Te::default() as &dyn TeAlgorithm, &CspfTe::default()] {
        let sol = algo.solve(&p);
        sol.validate(&p).unwrap();
        assert!(sol.total <= lp + 1e-6, "{} {} above LP {lp}", algo.name(), sol.total);
    }
}

#[test]
fn gravity_matrix_total_dominated_by_network_cut() {
    // Sanity: offered >> capacity means satisfaction < 1 and the exact TE
    // cannot exceed the LP bound either.
    let wan = builders::abilene();
    let dm = DemandMatrix::gravity(&wan, Gbps(10_000.0), 1);
    let p = TeProblem::from_wan(&wan, &dm);
    let swan = SwanTe::default().solve(&p);
    swan.validate(&p).unwrap();
    assert!(swan.satisfaction(&p) < 0.6, "sat={}", swan.satisfaction(&p));
}
