//! The closed control loop of the benchmark's `control_calm` and
//! `control_storm` workloads, for tests that watch what its TE rounds do:
//! the 105-link `scaled_mesh(6)`, seed-1 telemetry over 21 days, and a TE
//! round every fourth 15-minute tick under diurnal demand scaling, on one
//! network and one `TeSolver::default()`.

use rwc_core::network::TeRound;
use rwc_core::{DynamicCapacityNetwork, ScenarioConfig};
use rwc_te::{DemandMatrix, Priority, TeSolver};
use rwc_telemetry::{FleetConfig, FleetGenerator};
use rwc_topology::builders;
use rwc_topology::wan::LinkId;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::{Db, Gbps};

const MESH_SCALE: usize = 6;
const TE_EVERY: usize = 4;

/// The fleet profile: the workload's name without `control_`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // each test binary drives the profiles it needs
pub enum Profile {
    /// A high, steady baseline and no events.
    Calm,
    /// The paper's fleet with its events 10–40 times as frequent.
    Storm,
}

fn fleet(profile: Profile) -> FleetConfig {
    let base = FleetConfig {
        seed: 1,
        n_fibers: 15,
        wavelengths_per_fiber: 7,
        horizon: SimDuration::from_days(21),
        ..FleetConfig::paper()
    };
    match profile {
        Profile::Calm => FleetConfig {
            fiber_baseline_mean_db: 14.5,
            fiber_baseline_sd_db: 0.1,
            wavelength_jitter_sd_db: 0.15,
            shallow_dip_rate: 0.0,
            deep_dip_rate: 0.0,
            step_rate: 0.0,
            link_lol_rate: 0.0,
            fiber_cut_rate: 0.0,
            maintenance_rate: 0.0,
            ..base
        },
        Profile::Storm => FleetConfig {
            shallow_dip_rate: base.shallow_dip_rate * 40.0,
            deep_dip_rate: base.deep_dip_rate * 40.0,
            step_rate: base.step_rate * 10.0,
            link_lol_rate: base.link_lol_rate * 20.0,
            fiber_cut_rate: base.fiber_cut_rate * 20.0,
            maintenance_rate: base.maintenance_rate * 20.0,
            ..base
        },
    }
}

/// One saturating cross-replica commodity per replica plus an
/// end-to-end long haul.
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

/// Runs `rounds` TE rounds of `profile`'s loop from a fresh network on
/// `solver`. `te_round` is handed each round's index and the call that
/// runs it, which it makes (a test may wrap it) and whose round it
/// returns; every round must be answered by the solver.
pub fn run_rounds(
    profile: Profile,
    rounds: usize,
    solver: &TeSolver,
    mut te_round: impl FnMut(usize, &mut dyn FnMut() -> TeRound) -> TeRound,
) {
    let wan = builders::scaled_mesh(MESH_SCALE, 500.0);
    let dm = demands(&wan);
    let fleet = fleet(profile);
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
    let day = SimDuration::from_days(1).as_secs_f64();
    let mut readings = Vec::with_capacity(wan.n_links());
    for i in 0..rounds * TE_EVERY {
        let now = SimTime::EPOCH + tick * i as u64;
        readings.clear();
        readings.extend(traces.iter().enumerate().map(|(l, t)| (LinkId(l), Some(Db(t[i])))));
        net.ingest(&readings, now);
        if i % TE_EVERY != 0 {
            continue;
        }
        let phase = std::f64::consts::TAU * now.since_epoch().as_secs_f64() / day;
        let scaled = dm.scaled((1.0 + wiring.demand_diurnal_amp * phase.sin()).max(0.0));
        let round = te_round(i / TE_EVERY, &mut || net.te_round(&scaled, solver, now));
        assert!(!round.te_fallback, "{profile:?}, tick {i}: the round fell back");
    }
}
