//! What a steady-state TE round allocates. The closed control loop of the
//! benchmark's `control_calm` workload (105-link `scaled_mesh(6)`, a quiet
//! fleet, a TE round every fourth 15-minute tick under diurnal demand)
//! runs past its warm-up; then each `te_round` is measured with the
//! counting allocator. The test prints allocations and bytes per round
//! and holds the median under a ceiling, which a change that retains a
//! round's buffers lowers. This binary holds one test, so no other thread
//! moves the global counters.
//!
//! A debug build checks every solve against a fresh lowering and its
//! certificate, which allocates, so the two builds have their own ceiling.

use rwc_bench::alloc;
use rwc_core::{DynamicCapacityNetwork, ScenarioConfig};
use rwc_te::{DemandMatrix, Priority, TeSolver};
use rwc_telemetry::{FleetConfig, FleetGenerator};
use rwc_topology::builders;
use rwc_topology::wan::LinkId;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::{Db, Gbps};

const MESH_SCALE: usize = 6;
const TE_EVERY: usize = 4;
const WARM_UP_ROUNDS: usize = 100;
const MEASURED_ROUNDS: usize = 400;
/// Median allocations per measured round, release and debug build.
const P50_CEILING: (u64, u64) = (328, 432);

/// `control_calm`'s fleet: a high, steady baseline and no events.
fn calm_fleet() -> FleetConfig {
    FleetConfig {
        seed: 1,
        n_fibers: 15,
        wavelengths_per_fiber: 7,
        horizon: SimDuration::from_days(21),
        fiber_baseline_mean_db: 14.5,
        fiber_baseline_sd_db: 0.1,
        wavelength_jitter_sd_db: 0.15,
        shallow_dip_rate: 0.0,
        deep_dip_rate: 0.0,
        step_rate: 0.0,
        link_lol_rate: 0.0,
        fiber_cut_rate: 0.0,
        maintenance_rate: 0.0,
        ..FleetConfig::paper()
    }
}

/// `control_calm`'s demands: one saturating cross-replica commodity per
/// replica plus an end-to-end long haul.
fn demands(wan: &rwc_topology::WanTopology) -> DemandMatrix {
    let pick = |name: String| wan.node_by_name(&name).expect("scaled mesh site");
    let mut dm = DemandMatrix::new();
    for i in 0..MESH_SCALE {
        let s = pick(format!("S{i}-{}", 3 + i % 3));
        let t = pick(format!("S{}-{}", (i + 1) % MESH_SCALE, (2 * i + 1) % 6));
        dm.add(s, t, Gbps(160.0 + ((7 * i) % 21) as f64), Priority::Elastic);
    }
    let (s, t) = (pick("S0-5".into()), pick(format!("S{}-5", MESH_SCALE - 1)));
    dm.add(s, t, Gbps(170.0), Priority::Elastic);
    dm
}

/// The `q`-quantile of `values`, by rank.
fn quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn steady_state_te_round_allocations() {
    let wan = builders::scaled_mesh(MESH_SCALE, 500.0);
    let dm = demands(&wan);
    let fleet = calm_fleet();
    let tick = fleet.tick;
    let gen = FleetGenerator::new(fleet);
    let traces: Vec<Vec<f64>> =
        (0..wan.n_links()).map(|l| gen.link(l).trace.values().to_vec()).collect();
    let wiring = ScenarioConfig::default();
    let mut net = DynamicCapacityNetwork::new(
        wan.clone(),
        wiring.augment.clone(),
        wiring.controller.clone(),
        wiring.seed,
    );
    let solver = TeSolver::default();
    let day = SimDuration::from_days(1).as_secs_f64();
    let mut readings = Vec::with_capacity(wan.n_links());
    let (mut counts, mut bytes) = (Vec::new(), Vec::new());
    for i in 0..(WARM_UP_ROUNDS + MEASURED_ROUNDS) * TE_EVERY {
        let now = SimTime::EPOCH + tick * i as u64;
        readings.clear();
        readings.extend(traces.iter().enumerate().map(|(l, t)| (LinkId(l), Some(Db(t[i])))));
        net.ingest(&readings, now);
        if i % TE_EVERY != 0 {
            continue;
        }
        let phase = std::f64::consts::TAU * now.since_epoch().as_secs_f64() / day;
        let scaled = dm.scaled((1.0 + wiring.demand_diurnal_amp * phase.sin()).max(0.0));
        let (round, delta) = alloc::measure(|| net.te_round(&scaled, &solver, now));
        assert!(!round.te_fallback, "tick {i}: the round fell back");
        if i >= WARM_UP_ROUNDS * TE_EVERY {
            counts.push(delta.count);
            bytes.push(delta.bytes);
        }
    }
    let (p50, p90, max) = (quantile(&counts, 0.5), quantile(&counts, 0.9), quantile(&counts, 1.0));
    let kb = |q: f64| quantile(&bytes, q) as f64 / 1024.0;
    println!(
        "te_round over {MEASURED_ROUNDS} calm rounds: allocations p50 {p50} / p90 {p90} / max \
         {max}; KiB p50 {:.0} / p90 {:.0} / max {:.0}",
        kb(0.5),
        kb(0.9),
        kb(1.0)
    );
    let ceiling = if cfg!(debug_assertions) { P50_CEILING.1 } else { P50_CEILING.0 };
    assert!(p50 <= ceiling, "median round makes {p50} allocations, ceiling {ceiling}");
}
