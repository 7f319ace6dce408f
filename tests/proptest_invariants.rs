//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;
use rwc::core::augment::{augment, AugmentConfig};
use rwc::core::penalty::PenaltyPolicy;
use rwc::core::theorem::check_single_commodity;
use rwc::core::translate::translate;
use rwc::flow::network::FlowNetwork;
use rwc::optics::ModulationTable;
use rwc::te::demand::{DemandMatrix, Priority};
use rwc::te::problem::{Commodity, EdgeOrigin, TeProblem, TeSolution};
use rwc::te::{TeAlgorithm, TeSolver};
use rwc::topology::graph::NodeId;
use rwc::topology::WanTopology;
use rwc::util::stats::highest_density_interval;
use rwc::util::units::{Db, Gbps};

/// Strategy: a connected random WAN with randomised SNR per link.
fn arb_wan() -> impl Strategy<Value = WanTopology> {
    (3usize..8, 0u64..1000).prop_map(|(n, seed)| {
        let mut wan = rwc::topology::random::waxman(&rwc::topology::random::WaxmanConfig {
            n_nodes: n,
            seed,
            ..Default::default()
        });
        let mut rng = rwc::util::rng::Xoshiro256::seed_from_u64(seed ^ 0x5eed);
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(rng.uniform_in(6.6, 14.5)));
        }
        wan
    })
}

/// `TeSolver`'s optimum on one commodity `source → sink` whose demand
/// exceeds every capacity combined: with the `1e6` throughput weight,
/// edge cost is an exact lexicographic tie-break (every path costs less),
/// so it is a min-cost max-flow. Returns its value and cost.
fn te_min_cost_max_flow(net: &FlowNetwork, source: usize, sink: usize) -> (f64, f64) {
    let demand = 1.0 + net.edges().iter().map(|e| e.capacity).sum::<f64>();
    let mut dm = DemandMatrix::new();
    dm.add(NodeId(source), NodeId(sink), Gbps(demand), Priority::Elastic);
    let problem = TeProblem {
        net: net.clone(),
        origins: vec![EdgeOrigin::Auxiliary; net.n_edges()],
        commodities: vec![Commodity { source, sink, demand }],
        demands: dm.demands().to_vec(),
    };
    let sol = TeSolver::default().try_solve(&problem).expect("TE solve");
    let cost = sol.edge_flows.iter().zip(net.edges()).map(|(f, e)| f * e.cost).sum();
    (sol.total, cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dinic's flow always satisfies capacity + conservation, and matches
    /// the LP optimum.
    #[test]
    fn max_flow_is_feasible_and_optimal(
        edges in proptest::collection::vec((0usize..6, 0usize..6, 0.5f64..20.0), 4..18)
    ) {
        let mut net = FlowNetwork::new(6);
        for (u, v, cap) in edges {
            if u != v {
                net.add_edge(u, v, cap, 0.0);
            }
        }
        prop_assume!(net.n_edges() > 0);
        let flow = rwc::flow::max_flow(&net, 0, 5);
        prop_assert!(flow.validate(&net, 0, 5).is_ok());
        let (lp, _) = te_min_cost_max_flow(&net, 0, 5);
        prop_assert!((flow.value - lp).abs() < 1e-6, "dinic {} vs lp {}", flow.value, lp);
    }

    /// Min-cost max-flow reaches the max-flow value and never beats the LP
    /// on cost.
    #[test]
    fn min_cost_flow_matches_lp(
        edges in proptest::collection::vec(
            (0usize..5, 0usize..5, 1.0f64..15.0, 0.0f64..10.0), 4..14)
    ) {
        let mut net = FlowNetwork::new(5);
        for (u, v, cap, cost) in edges {
            if u != v {
                net.add_edge(u, v, cap, cost);
            }
        }
        prop_assume!(net.n_edges() > 0);
        let mc = rwc::flow::min_cost_max_flow(&net, 0, 4);
        prop_assert!(mc.flow.validate(&net, 0, 4).is_ok());
        let (lp_value, lp_cost) = te_min_cost_max_flow(&net, 0, 4);
        prop_assert!((mc.flow.value - lp_value).abs() < 1e-6);
        prop_assert!(mc.cost <= lp_cost + 1e-6, "ssp cost {} vs lp {}", mc.cost, lp_cost);
        prop_assert!(mc.cost >= lp_cost - 1e-6, "ssp cost {} vs lp {}", mc.cost, lp_cost);
    }

    /// The 1-D highest-density interval always covers the requested mass
    /// and is bounded by the range.
    #[test]
    fn hdi_invariants(
        mut samples in proptest::collection::vec(-50.0f64..50.0, 1..200),
        coverage in 0.05f64..1.0
    ) {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = highest_density_interval(&samples, coverage);
        prop_assert!(lo <= hi);
        prop_assert!(lo >= samples[0] && hi <= *samples.last().unwrap());
        let inside = samples.iter().filter(|&&x| x >= lo && x <= hi).count();
        let need = (coverage * samples.len() as f64).ceil() as usize;
        prop_assert!(inside >= need.min(samples.len()));
    }

    /// Theorem 1 holds on arbitrary random WANs and endpoint pairs.
    #[test]
    fn theorem1_equivalence(wan in arb_wan(), pair in (0usize..8, 1usize..7)) {
        let src = NodeId(pair.0 % wan.n_nodes());
        let dst = NodeId((pair.0 + pair.1) % wan.n_nodes());
        prop_assume!(src != dst);
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::Uniform(5.0),
            ..Default::default()
        };
        let report = check_single_commodity(&wan, &cfg, src, dst);
        prop_assert!(report.holds, "{report:?}");
        prop_assert!(report.upgraded_value + 1e-9 >= report.static_value);
    }

    /// Translation round-trip: folded flows stay within the upgraded
    /// capacities, totals are preserved, upgrades are minimal rungs.
    #[test]
    fn translation_feasibility(wan in arb_wan(), volume in 10.0f64..400.0, seed in 0u64..100) {
        let demands = DemandMatrix::gravity(&wan, Gbps(volume), seed);
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::Uniform(1.0),
            ..Default::default()
        };
        let aug = augment(&wan, &demands, &cfg, &[]);
        let sol = rwc::te::swan::SwanTe::default().try_solve(&aug.problem).expect("TE solve");
        let tr = translate(&aug, &wan, &sol).unwrap();
        // Aggregate flow preserved by folding.
        let aug_total: f64 = sol.edge_flows.iter().sum();
        let real_total: f64 = tr.real_edge_flows.iter().sum();
        prop_assert!((aug_total - real_total).abs() < 1e-6);
        // Flows feasible on the upgraded topology.
        let mut upgraded = wan.clone();
        for &(id, m) in &tr.upgrades {
            upgraded.set_modulation(id, m);
        }
        for (id, link) in upgraded.links() {
            let cap = link.capacity().value() + 1e-6;
            prop_assert!(tr.real_edge_flows[2 * id.0] <= cap);
            prop_assert!(tr.real_edge_flows[2 * id.0 + 1] <= cap);
        }
        // Each upgrade is the minimal sufficient rung: one rung lower
        // would not cover the folded flow.
        for &(id, m) in &tr.upgrades {
            if let Some(lower) = m.step_down() {
                if lower.capacity() > wan.link(id).capacity() {
                    let needed = tr.real_edge_flows[2 * id.0]
                        .max(tr.real_edge_flows[2 * id.0 + 1]);
                    prop_assert!(
                        lower.capacity().value() + 1e-6 < needed,
                        "link {id:?}: {lower} would already cover {needed}"
                    );
                }
            }
        }
    }

    /// The controller never selects an infeasible modulation and never
    /// upgrades without its hysteresis margin.
    #[test]
    fn controller_decisions_feasible(snr in 0.0f64..20.0, current_idx in 0usize..6) {
        use rwc::core::controller::{Controller, ControllerConfig, Decision};
        let current = rwc::optics::Modulation::LADDER[current_idx];
        let config = ControllerConfig::default();
        let margin = config.upgrade_margin;
        let controller = Controller::new(config, 1, 0);
        let table = ModulationTable::paper_default();
        match controller.decide(
            rwc::topology::wan::LinkId(0),
            current,
            Db(snr),
            rwc::util::time::SimTime::EPOCH + rwc::util::time::SimDuration::from_hours(2),
        ) {
            Decision::StepTo(m) => {
                prop_assert!(table.supports(Db(snr), m), "stepped to infeasible {m}");
                if m.capacity() > current.capacity() {
                    let t = table.threshold(m).unwrap();
                    prop_assert!(Db(snr) >= t + margin, "upgrade without margin");
                }
            }
            Decision::Hold => {
                prop_assert!(table.supports(Db(snr), current), "held an infeasible rate");
            }
            Decision::Down => {
                prop_assert!(table.feasible(Db(snr)).is_none(), "went down with a feasible rung");
            }
        }
    }

    /// Demand matrices survive JSON round-trips (the operator-facing
    /// interchange format).
    #[test]
    fn demand_matrix_serde_roundtrip(volumes in proptest::collection::vec(0.1f64..500.0, 1..20)) {
        let mut dm = DemandMatrix::new();
        for (i, v) in volumes.iter().enumerate() {
            dm.add(
                NodeId(i % 5),
                NodeId((i + 1) % 5 + 5),
                Gbps(*v),
                Priority::ALL[i % 3],
            );
        }
        let json = serde_json::to_string(&dm).unwrap();
        let back: DemandMatrix = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(dm, back);
    }
}

/// Strategy: a WAN from the update-plan families (Fig. 7, one or two
/// scaled-mesh replicas, Waxman) with seeded SNR headroom, and gravity
/// demands loading it at a fraction of its capacity. A third of the
/// demands are kept, each jittered: gravity is symmetric, and on a
/// symmetric matrix a flow that goes missing in both directions leaves
/// every node balanced.
fn arb_round_case() -> impl Strategy<Value = (WanTopology, DemandMatrix)> {
    ((0u8..4, 4usize..8, 0u64..200), (0.2f64..1.5, 0u64..50)).prop_map(
        |((kind, n, seed), (load, dseed))| {
            let mut wan = match kind {
                0 => rwc::topology::builders::fig7_example(),
                1 | 2 => rwc::topology::builders::scaled_mesh(kind as usize, 100.0),
                _ => rwc::topology::random::waxman(&rwc::topology::random::WaxmanConfig {
                    n_nodes: n,
                    seed,
                    ..Default::default()
                }),
            };
            let mut rng = rwc::util::rng::Xoshiro256::seed_from_u64(seed ^ 0x5eed);
            for (id, _) in wan.clone().links() {
                wan.set_snr(id, Db(rng.uniform_in(6.6, 14.5)));
            }
            let volume = load * wan.total_capacity().value();
            let mut dm = DemandMatrix::new();
            for d in DemandMatrix::gravity(&wan, Gbps(volume), dseed).demands() {
                let jitter = rng.uniform_in(0.0, 3.0);
                if jitter < 1.0 {
                    dm.add(d.from, d.to, d.volume * 3.0 * (0.5 + jitter), d.priority);
                }
            }
            (wan, dm)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every round that did not fall back leaves an allocation — the
    /// translated flow, or the drained interim when a staged commit
    /// failed — that is feasible on the WAN as the round left it, with
    /// its per-commodity volumes summing to the round's throughput.
    #[test]
    fn every_round_leaves_a_feasible_allocation(
        (wan, dm) in arb_round_case(),
        hitless in proptest::bool::ANY,
        (armed, pick) in (proptest::bool::ANY, 0usize..1000),
    ) {
        use rwc::core::controller::ControllerConfig;
        use rwc::core::network::DynamicCapacityNetwork;
        use rwc::optics::bvt::{BvtFault, ReconfigProcedure};
        use rwc::util::time::{SimDuration, SimTime};

        let controller = ControllerConfig {
            procedure: if hitless {
                ReconfigProcedure::Efficient
            } else {
                ReconfigProcedure::Legacy
            },
            max_retries: if armed { 0 } else { ControllerConfig::default().max_retries },
            ..ControllerConfig::default()
        };
        let mut net = DynamicCapacityNetwork::new(wan, AugmentConfig::default(), controller, 7);
        prop_assert!(net.make_before_break());
        let solver = TeSolver::default();
        let mut to_arm = armed;
        for (hour, scale) in [1.0, 1.4].into_iter().enumerate() {
            let demands = dm.scaled(scale);
            let now = SimTime::EPOCH + SimDuration::from_hours(hour as u64);
            if to_arm {
                // Arm the fault on a link this round will change, found on
                // a copy of the network (a fresh solver answers as `solver`
                // does in the first round).
                let probe = net.clone().te_round(&demands, &TeSolver::default(), now);
                let upgrades = &probe.translation.upgrades;
                if !upgrades.is_empty() {
                    let (link, _) = upgrades[pick % upgrades.len()];
                    net.inject_bvt_fault(link, BvtFault::RelockFailure);
                    to_arm = false;
                }
            }
            let round = net.te_round(&demands, &solver, now);
            if round.te_fallback {
                continue;
            }
            let allocation = TeSolution {
                routed: round.translation.routed.clone(),
                edge_flows: round.translation.real_edge_flows.clone(),
                total: round.throughput,
            };
            let check = allocation.validate(&TeProblem::from_wan(net.wan(), &demands));
            prop_assert!(check.is_ok(),
                "round {hour} ({} rolled back): {check:?}", round.rolled_back);
        }
    }
}

// Non-proptest helper used above: TeSolution must stay importable from
// integration context (compile-time check of the public API surface).
#[allow(dead_code)]
fn api_surface(_: TeSolution) {}
