//! Integration: the exact LP TE (`TeSolver`, the lowering that ships)
//! against the combinatorial solvers on one-commodity problems, and
//! against a test-local second encoder of the multicommodity LP where no
//! combinatorial solver exists.

use rwc::flow::network::FlowNetwork;
use rwc::lp::{Relation, SparseLpBuilder, SparseSimplexSolver};
use rwc::te::b4::B4Te;
use rwc::te::cspf::CspfTe;
use rwc::te::demand::{DemandMatrix, Priority};
use rwc::te::problem::{Commodity, EdgeOrigin, TeProblem};
use rwc::te::swan::SwanTe;
use rwc::te::{TeAlgorithm, TeSolver};
use rwc::topology::builders;
use rwc::topology::graph::NodeId;
use rwc::util::units::Gbps;

/// `net` as a TE problem routing `commodities` (`(source, sink, demand)`).
fn te_problem(net: &FlowNetwork, commodities: &[(usize, usize, f64)]) -> TeProblem {
    let mut dm = DemandMatrix::new();
    for &(s, t, d) in commodities {
        dm.add(NodeId(s), NodeId(t), Gbps(d), Priority::Elastic);
    }
    TeProblem {
        net: net.clone(),
        origins: vec![EdgeOrigin::Auxiliary; net.n_edges()],
        commodities: commodities
            .iter()
            .map(|&(source, sink, demand)| Commodity { source, sink, demand })
            .collect(),
        demands: dm.demands().to_vec(),
    }
}

/// `TeSolver` on one commodity `source → sink` whose demand exceeds every
/// capacity combined: with the `1e6` throughput weight, edge cost is an
/// exact lexicographic tie-break (every path costs less), so the optimum
/// is a min-cost max-flow. Returns its value and cost.
fn te_min_cost_max_flow(net: &FlowNetwork, source: usize, sink: usize) -> (f64, f64) {
    let demand = 1.0 + net.edges().iter().map(|e| e.capacity).sum::<f64>();
    let problem = te_problem(net, &[(source, sink, demand)]);
    let sol = TeSolver::default().try_solve(&problem).expect("TE solve");
    sol.validate(&problem).unwrap();
    let cost = sol.edge_flows.iter().zip(net.edges()).map(|(f, e)| f * e.cost).sum();
    (sol.total, cost)
}

/// The maximum total throughput of `p`'s commodities from a second
/// encoder of the flow LP, independent of `TeFormulation`:
/// commodity-major columns, every capacity a shared row, no bounds.
fn max_multicommodity_lp_total(p: &TeProblem) -> f64 {
    // Rows: one capacity per edge, one demand cap per commodity, then the
    // conservation rows of each commodity's non-terminal nodes.
    let (n, edges) = (p.net.n_nodes(), p.net.edges());
    let (m, k) = (edges.len(), p.commodities.len());
    let mut conserve = vec![None; k * n];
    let mut n_rows = m + k;
    for (ki, c) in p.commodities.iter().enumerate() {
        for v in (0..n).filter(|&v| v != c.source && v != c.sink) {
            conserve[ki * n + v] = Some(n_rows);
            n_rows += 1;
        }
    }
    let mut b = SparseLpBuilder::new(n_rows);
    for (ei, e) in edges.iter().enumerate() {
        b.set_row(ei, Relation::Le, e.capacity);
    }
    for (ki, c) in p.commodities.iter().enumerate() {
        b.set_row(m + ki, Relation::Le, c.demand);
    }
    for r in m + k..n_rows {
        b.set_row(r, Relation::Eq, 0.0);
    }
    // Column (ki, ei): commodity ki's flow on edge ei, worth its net
    // outflow at the commodity's source.
    for (ki, c) in p.commodities.iter().enumerate() {
        for (ei, e) in edges.iter().enumerate() {
            let out = f64::from(e.from == c.source) - f64::from(e.to == c.source);
            let mut entries = vec![(ei, 1.0)];
            if out != 0.0 {
                entries.push((m + ki, out));
            }
            for (node, sign) in [(e.from, 1.0), (e.to, -1.0)] {
                entries.extend(conserve[ki * n + node].map(|r| (r, sign)));
            }
            entries.sort_by_key(|&(r, _)| r);
            b.push_col(out, f64::INFINITY, &entries);
        }
    }
    SparseSimplexSolver::new().solve_sparse(&b.build()).expect_optimal().objective
}

#[test]
fn dinic_matches_lp_on_abilene() {
    let net = TeProblem::from_wan(&builders::abilene(), &DemandMatrix::new()).net;
    for (src, dst) in [(0usize, 10usize), (2, 9), (5, 0)] {
        let dinic = rwc::flow::max_flow(&net, src, dst);
        let (lp, _) = te_min_cost_max_flow(&net, src, dst);
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
    let mut net = TeProblem::from_wan(&wan, &DemandMatrix::new()).net;
    for (id, l) in wan.links() {
        net.set_cost(2 * id.0, l.length_km);
        net.set_cost(2 * id.0 + 1, l.length_km);
    }
    let mc = rwc::flow::min_cost_max_flow(&net, 0, 10);
    let (lp_value, lp_cost) = te_min_cost_max_flow(&net, 0, 10);
    assert!((mc.flow.value - lp_value).abs() < 1e-6);
    assert!((mc.cost - lp_cost).abs() < 1e-3, "ssp {} vs lp {}", mc.cost, lp_cost);
}

#[test]
fn mcf_solvers_bracket_the_lp_optimum() {
    // Three commodities fighting over Abilene's west-east cut.
    let mut dm = DemandMatrix::new();
    for (from, to) in [(0, 10), (1, 9), (2, 8)] {
        // SEA→NYC, SNV→WDC, LAX→ATL
        dm.add(NodeId(from), NodeId(to), Gbps(150.0), Priority::Elastic);
    }
    let p = TeProblem::from_wan(&builders::abilene(), &dm);
    let lp = max_multicommodity_lp_total(&p);
    // One class: SWAN is the TE lowering of the same LP, built independently
    // of the encoder above — the two optima must coincide.
    let swan = SwanTe::default().try_solve(&p).expect("TE solve");
    swan.validate(&p).unwrap();
    assert!((swan.total - lp).abs() < 1e-6, "swan {} vs LP {lp}", swan.total);
    for algo in [&B4Te::default() as &dyn TeAlgorithm, &CspfTe::default()] {
        let sol = algo.try_solve(&p).expect("TE solve");
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
    let swan = SwanTe::default().try_solve(&p).expect("TE solve");
    swan.validate(&p).unwrap();
    assert!(swan.satisfaction(&p) < 0.6, "sat={}", swan.satisfaction(&p));
    let lp = max_multicommodity_lp_total(&p);
    assert!(swan.total <= lp + 1e-6, "swan {} above LP {lp}", swan.total);
}
