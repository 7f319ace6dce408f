//! End-to-end integration: the paper's Fig. 7 scenario driven through the
//! top-level [`DynamicCapacityNetwork`] API with several TE algorithms.

use rwc::core::controller::ControllerConfig;
use rwc::core::network::DynamicCapacityNetwork;
use rwc::core::{AugmentConfig, PenaltyPolicy};
use rwc::te::b4::B4Te;
use rwc::te::cspf::CspfTe;
use rwc::te::swan::SwanTe;
use rwc::te::{DemandMatrix, Priority, TeAlgorithm, TeSolver};
use rwc::topology::builders;
use rwc::topology::wan::{LinkId, WanTopology};
use rwc::util::time::{SimDuration, SimTime};
use rwc::util::units::{Db, Gbps};

fn fig7_wan() -> WanTopology {
    let mut wan = builders::fig7_example();
    for (id, _) in wan.clone().links() {
        wan.set_snr(id, Db(7.5));
    }
    wan.set_snr(LinkId(0), Db(13.0));
    wan.set_snr(LinkId(1), Db(13.0));
    wan
}

fn grown_demands(wan: &WanTopology) -> DemandMatrix {
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let c = wan.node_by_name("C").unwrap();
    let d = wan.node_by_name("D").unwrap();
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(125.0), Priority::Elastic);
    dm.add(c, d, Gbps(125.0), Priority::Elastic);
    dm
}

fn exact() -> TeSolver {
    TeSolver::builder().build().expect("default TE solver")
}

fn network(wan: WanTopology) -> DynamicCapacityNetwork {
    DynamicCapacityNetwork::new(
        wan,
        AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() },
        ControllerConfig::default(),
        1,
    )
}

#[test]
fn exact_te_fully_routes_and_upgrades_once() {
    let wan = fig7_wan();
    let demands = grown_demands(&wan);
    let mut net = network(wan);
    let round = net.te_round(&demands, &exact(), SimTime::EPOCH);
    assert!((round.throughput - 250.0).abs() < 1e-6, "throughput={}", round.throughput);
    assert_eq!(round.translation.upgrades.len(), 1, "{:?}", round.translation.upgrades);
    // Static links could not have carried both demands fully.
    assert!(round.static_throughput < 250.0 - 1.0);
}

#[test]
fn every_te_algorithm_benefits_from_augmentation() {
    let algorithms: Vec<(&str, Box<dyn TeAlgorithm>)> = vec![
        ("swan", Box::new(SwanTe::default())),
        ("b4", Box::new(B4Te::default())),
        ("cspf", Box::new(CspfTe::default())),
        ("exact", Box::new(exact())),
    ];
    for (name, algo) in algorithms {
        let wan = fig7_wan();
        let demands = grown_demands(&wan);
        let mut net = network(wan);
        let round = net.te_round(&demands, algo.as_ref(), SimTime::EPOCH);
        assert!(
            round.throughput >= round.static_throughput - 1.0,
            "{name}: dynamic {} must not trail static {}",
            round.throughput,
            round.static_throughput
        );
        assert!(
            round.throughput > 230.0,
            "{name}: dynamic throughput only {}",
            round.throughput
        );
    }
}

#[test]
fn applied_upgrades_persist_into_next_round() {
    let wan = fig7_wan();
    let demands = grown_demands(&wan);
    let mut net = network(wan);
    let first = net.te_round(&demands, &exact(), SimTime::EPOCH);
    assert!(first.translation.requires_changes());
    // Same demands again: capacity is already there, so no new upgrades.
    let second = net.te_round(
        &demands,
        &exact(),
        SimTime::EPOCH + SimDuration::from_minutes(15),
    );
    assert!(!second.translation.requires_changes(), "{:?}", second.translation.upgrades);
    assert!((second.static_throughput - 250.0).abs() < 1e-6, "upgraded topology carries all");
}

#[test]
fn snr_collapse_walks_down_then_te_adapts() {
    let wan = fig7_wan();
    let demands = grown_demands(&wan);
    let mut net = network(wan);
    let healthy = net.te_round(&demands, &exact(), SimTime::EPOCH);
    // Link 0 collapses to 4 dB: crawl at 50 G instead of failing.
    let sweep =
        net.ingest(&[(LinkId(0), Some(Db(4.0)))], SimTime::EPOCH + SimDuration::from_hours(1));
    assert_eq!(sweep.failures_avoided, 1);
    assert_eq!(net.wan().link(LinkId(0)).modulation, rwc::optics::Modulation::DpBpsk50);
    let degraded = net.te_round(
        &demands,
        &exact(),
        SimTime::EPOCH + SimDuration::from_hours(1) + SimDuration::from_minutes(1),
    );
    // The network reroutes around the crawling link (possibly upgrading
    // the other horizontal link to compensate): throughput never exceeds
    // the healthy value but stays far above a binary-failure topology.
    assert!(degraded.throughput <= healthy.throughput + 1e-6);
    assert!(degraded.throughput > 150.0, "throughput={}", degraded.throughput);
    // A binary policy would have lost the whole 100 G link instead of
    // keeping 50 G of it.
    assert!(net.wan().link(LinkId(0)).capacity() == Gbps(50.0));
}

#[test]
fn consistent_update_plan_accompanies_upgrades() {
    let wan = fig7_wan();
    let demands = grown_demands(&wan);
    let mut net = network(wan);
    let round = net.te_round(&demands, &exact(), SimTime::EPOCH);
    let plan = round.update_plan.expect("upgrades need an update plan");
    // Hitless (efficient BVT): the interim state keeps the links alive at
    // the lower rate, so interim throughput stays close to final — the
    // round's own translated allocation.
    assert!(plan.interim.total > 0.0);
    assert!(round.throughput >= plan.interim.total - 1e-6);
    assert!(round.reconfig_downtime < SimDuration::from_secs(1), "efficient BVT");
}
