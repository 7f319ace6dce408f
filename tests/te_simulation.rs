//! Integration: the throughput-gain simulation across real topologies and
//! TE algorithms (the paper's closing experiment), plus consistent-update
//! behaviour under both BVT procedures.

use rwc::core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc::te::b4::B4Te;
use rwc::te::cspf::CspfTe;
use rwc::te::metrics;
use rwc::te::swan::SwanTe;
use rwc::te::updates::{try_plan_capacity_changes, CapacityChange};
use rwc::te::{DemandMatrix, TeAlgorithm};
use rwc::te::problem::TeProblem;
use rwc::topology::builders;
use rwc::util::units::{Db, Gbps};

#[test]
fn abilene_dynamic_beats_static_under_pressure() {
    let wan = builders::abilene();
    // Load the network to 1.5× its half-capacity gravity baseline.
    let dm = DemandMatrix::gravity(&wan, Gbps(wan.total_capacity().value() * 0.75), 3);
    let algos: Vec<Box<dyn TeAlgorithm>> = vec![
        Box::new(SwanTe::default()),
        Box::new(B4Te::default()),
        Box::new(CspfTe::default()),
    ];
    for algo in algos {
        let static_sol = algo.try_solve(&TeProblem::from_wan(&wan, &dm)).expect("TE solve");
        let cfg = AugmentConfig { penalty: PenaltyPolicy::Uniform(1.0), ..Default::default() };
        let aug = augment(&wan, &dm, &cfg, &[]);
        let dyn_sol = algo.try_solve(&aug.problem).expect("TE solve");
        assert!(
            dyn_sol.total >= static_sol.total - 1.0,
            "{}: dynamic {} < static {}",
            algo.name(),
            dyn_sol.total,
            static_sol.total
        );
        // Translation must produce a feasible plan.
        let tr = translate(&aug, &wan, &dyn_sol).unwrap();
        let mut upgraded = wan.clone();
        for &(id, m) in &tr.upgrades {
            upgraded.set_modulation(id, m);
        }
        for (id, link) in upgraded.links() {
            let cap = link.capacity().value() + 1e-6;
            assert!(tr.real_edge_flows[2 * id.0] <= cap, "{} link {id:?}", algo.name());
            assert!(tr.real_edge_flows[2 * id.0 + 1] <= cap, "{} link {id:?}", algo.name());
        }
    }
}

#[test]
fn swan_gains_exceed_cspf_gains_are_both_positive() {
    // Centralised TE (SWAN) extracts at least as much dynamic-capacity
    // benefit as the order-dependent CSPF baseline on a loaded network.
    let wan = builders::abilene();
    let dm = DemandMatrix::gravity(&wan, Gbps(wan.total_capacity().value() * 1.2), 9);
    let cfg = AugmentConfig { penalty: PenaltyPolicy::Uniform(1.0), ..Default::default() };
    let aug = augment(&wan, &dm, &cfg, &[]);
    let swan = SwanTe::default().try_solve(&aug.problem).expect("TE solve");
    let cspf = CspfTe::default().try_solve(&aug.problem).expect("TE solve");
    assert!(
        swan.total >= cspf.total * 0.95,
        "swan {} should be at least competitive with cspf {}",
        swan.total,
        cspf.total
    );
}

#[test]
fn swan_buys_no_upgrade_it_does_not_need() {
    // The `tput` experiment's light-load cells: static capacity already
    // carries everything offered, so no fake edge is worth its penalty and
    // translation must ask for no upgrade.
    for wan in [builders::abilene(), builders::b4_like()] {
        for load in [0.5, 1.0] {
            let dm = DemandMatrix::gravity(&wan, Gbps(wan.total_capacity().value() * 0.5), 11)
                .scaled(load);
            let static_sol = SwanTe::default()
                .try_solve(&TeProblem::from_wan(&wan, &dm))
                .expect("TE solve");
            let cfg = AugmentConfig { penalty: PenaltyPolicy::Uniform(1.0), ..Default::default() };
            let aug = augment(&wan, &dm, &cfg, &[]);
            let dyn_sol = SwanTe::default().try_solve(&aug.problem).expect("TE solve");
            assert!(
                (dyn_sol.total - static_sol.total).abs() < 1e-6,
                "load {load}: dynamic {} vs static {}",
                dyn_sol.total,
                static_sol.total
            );
            let tr = translate(&aug, &wan, &dyn_sol).unwrap();
            assert!(tr.upgrades.is_empty(), "load {load}: gain 0 but upgrades {:?}", tr.upgrades);
        }
    }
}

#[test]
fn consistent_updates_bound_interim_damage() {
    let mut wan = builders::abilene();
    // Give one loaded link upgrade headroom and plan its upgrade.
    let link = rwc::topology::wan::LinkId(0);
    wan.set_snr(link, Db(13.5));
    let dm = DemandMatrix::gravity(&wan, Gbps(900.0), 5);
    let algo = SwanTe::default();
    let change = CapacityChange { link, to: rwc::optics::Modulation::Dp16Qam200 };
    let current = algo.try_solve(&TeProblem::from_wan(&wan, &dm)).expect("TE solve");
    let plan = |hitless| {
        try_plan_capacity_changes(&wan, &dm, &[change], &algo, hitless, Some(&current))
            .expect("the Abilene upgrade plans")
    };
    let (hitless, legacy) = (plan(true), plan(false));
    // Hitless: the interim keeps the link alive, so it cannot do worse
    // than the drained interim.
    assert!(hitless.interim.total >= legacy.interim.total - 1.0);
    // Both end in the same final state, the upgraded WAN's allocation,
    // and neither interim routes more than it.
    let mut upgraded = wan.clone();
    upgraded.set_modulation(link, change.to);
    let final_total =
        algo.try_solve(&TeProblem::from_wan(&upgraded, &dm)).expect("TE solve").total;
    for interim in [&hitless.interim, &legacy.interim] {
        assert!(interim.total <= final_total + 1e-6, "interim {} above final", interim.total);
    }
    // Churn is accounted and finite.
    assert!(hitless.churn_into_interim.is_finite());
    assert!(legacy.churn_into_interim >= 0.0);
}

#[test]
fn max_utilisation_stays_bounded_after_translation() {
    let wan = builders::abilene();
    let dm = DemandMatrix::gravity(&wan, Gbps(2_000.0), 13);
    let cfg = AugmentConfig { penalty: PenaltyPolicy::Uniform(1.0), ..Default::default() };
    let aug = augment(&wan, &dm, &cfg, &[]);
    let sol = SwanTe::default().try_solve(&aug.problem).expect("TE solve");
    sol.validate(&aug.problem).unwrap();
    assert!(metrics::max_utilisation(&aug.problem, &sol) <= 1.0 + 1e-6);
    // Jain fairness is defined and sane.
    let fairness = metrics::jain_fairness(&aug.problem, &sol);
    assert!((0.0..=1.0 + 1e-9).contains(&fairness));
}
