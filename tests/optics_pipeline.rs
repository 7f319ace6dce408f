//! Integration: the optical-physics chain — link budget → modulation
//! feasibility → constellation error rates → BVT reconfiguration — hangs
//! together consistently.

use rwc::optics::ber::{ser_mqam, ser_mpsk};
use rwc::optics::bvt::{regs, Bvt, ReconfigProcedure};
use rwc::optics::constellation::{awgn_trial, Constellation};
use rwc::optics::{LinkBudget, Modulation, ModulationTable};
use rwc::util::rng::Xoshiro256;
use rwc::util::units::Db;

#[test]
fn reach_determines_ladder_position_monotonically() {
    // As routes lengthen, the feasible rung can only fall.
    let table = ModulationTable::paper_default();
    let mut last_capacity = f64::INFINITY;
    for km in [80.0, 400.0, 800.0, 1600.0, 2400.0, 3200.0, 4800.0, 7000.0] {
        let snr = LinkBudget::for_route_km(km).snr();
        let cap = table.feasible_capacity(snr).value();
        assert!(cap <= last_capacity, "{km} km: {cap} > {last_capacity}");
        last_capacity = cap;
    }
    // The ladder extremes are reachable: metro does 200 G, and even very
    // long routes hold the 50 G crawl rate.
    assert_eq!(
        table.feasible(LinkBudget::for_route_km(100.0).snr()),
        Some(Modulation::Dp16Qam200)
    );
    assert!(table.feasible(LinkBudget::for_route_km(7000.0).snr()).is_some());
}

#[test]
fn thresholds_consistent_with_error_rate_theory() {
    // At each rung's threshold SNR, the (uncoded) symbol error rate of the
    // underlying constellation should be in a FEC-correctable band — and
    // one rung faster at the same SNR should be clearly broken.
    let cases = [
        (Modulation::DpQpsk100, 4usize),
        (Modulation::Dp16Qam200, 16usize),
    ];
    for (m, order) in cases {
        let snr = m.required_snr().to_linear();
        let ser = match order {
            4 => ser_mpsk(4, snr),
            16 => ser_mqam(16, snr),
            _ => unreachable!(),
        };
        assert!(
            (1e-4..0.3).contains(&ser),
            "{m}: SER at threshold = {ser:e} (should be FEC-correctable, not clean)"
        );
    }
    // 16QAM at the QPSK threshold is hopeless.
    let broken = ser_mqam(16, Modulation::DpQpsk100.required_snr().to_linear());
    assert!(broken > 0.1, "ser={broken}");
}

#[test]
fn monte_carlo_confirms_threshold_ordering() {
    let mut rng = Xoshiro256::seed_from_u64(77);
    // At 10 dB: QPSK nearly clean, 16QAM visibly erroring.
    let qpsk = awgn_trial(&Constellation::qpsk(), Db(10.0), 50_000, &mut rng);
    let qam16 = awgn_trial(&Constellation::qam16(), Db(10.0), 50_000, &mut rng);
    assert!(qpsk.symbol_error_rate < 0.01, "qpsk ser={}", qpsk.symbol_error_rate);
    assert!(qam16.symbol_error_rate > 0.05, "16qam ser={}", qam16.symbol_error_rate);
}

#[test]
fn bvt_walks_the_whole_ladder_hitlessly() {
    let mut rng = Xoshiro256::seed_from_u64(88);
    let mut bvt = Bvt::new(Modulation::DpBpsk50);
    bvt.set_procedure(ReconfigProcedure::Efficient);
    let mut total_downtime = rwc::util::time::SimDuration::ZERO;
    for m in Modulation::LADDER.iter().skip(1) {
        let report = bvt.reconfigure(*m, &mut rng).unwrap();
        assert!(bvt.laser_on(), "laser must stay lit");
        total_downtime += report.downtime;
    }
    assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
    // Five hitless steps: well under a second in total.
    assert!(
        total_downtime < rwc::util::time::SimDuration::from_secs(1),
        "{total_downtime}"
    );
    assert_eq!(bvt.mdio_read(regs::RECONFIG_COUNT).unwrap(), 5);
}

#[test]
fn snr_capacity_feedback_loop() {
    // A link budget gives an SNR; the table picks the rate; the BVT
    // reconfigures to it; capacity then matches what the SNR supports.
    let table = ModulationTable::paper_default();
    let mut rng = Xoshiro256::seed_from_u64(99);
    let mut bvt = Bvt::new(Modulation::DpQpsk100);
    bvt.set_procedure(ReconfigProcedure::Efficient);
    for km in [200.0, 2400.0, 900.0] {
        let snr = LinkBudget::for_route_km(km).snr();
        let target = table.feasible(snr).expect("route must carry something");
        bvt.reconfigure(target, &mut rng).unwrap();
        assert!(table.supports(snr, bvt.modulation()), "{km} km");
    }
}
