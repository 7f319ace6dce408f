//! Byte-identity of the fused fleet kernel against its oracle.
//!
//! The fused kernel ([`rwc_telemetry::FleetKernel`]) promises *bit-for-bit*
//! the same `LinkAnalysis`/`FleetAccumulator` as `LinkAnalysis::new` over
//! materialised traces. These properties pin that promise on
//! randomized inputs — including loss-of-light floors, all-failing and
//! never-failing links, and episodes still open at trace end — with
//! serialized JSON bytes as the equality oracle, so every field (episode
//! geometry, floors, HDR edges, moments) participates in the comparison.

use proptest::prelude::*;
use rwc_optics::ModulationTable;
use rwc_telemetry::analysis::LinkAnalysis;
use rwc_telemetry::trace::SnrTrace;
use rwc_telemetry::{FleetAccumulator, FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::time::{SimDuration, SimTime};

/// Sample vectors spanning the kernel's episode-geometry edge cases. The
/// `regime` index picks a band: mixed healthy/failing, loss-of-light
/// floors near the noise floor, all-failing (below the lowest rung),
/// never-failing (above the top rung), or healthy-then-failing so the
/// final episode stays open at trace end.
fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    (0u8..5, proptest::collection::vec(0.0f64..1.0, 2..300)).prop_map(|(regime, units)| {
        let n = units.len();
        units
            .into_iter()
            .enumerate()
            .map(|(i, u)| match regime {
                0 => 0.01 + u * 19.99,          // anything in (0, 20]
                1 => 0.15 + u * 0.1,            // loss-of-light noise floor
                2 => 0.01 + u * 2.8,            // all-failing: below every rung
                3 => 14.5 + u * 5.0,            // never-failing: above the top rung
                _ if i >= n.saturating_sub(3) => 0.5 + u, // open episode at end
                _ => 13.0 + u,                  // healthy prefix
            })
            .collect()
    })
}

/// Tiny randomized fleets with event rates boosted so short horizons still
/// draw dips, steps, and loss-of-light events.
fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (0u64..1_000_000, 1usize..3, 1usize..5, 4u64..15).prop_map(
        |(seed, n_fibers, wavelengths_per_fiber, days)| FleetConfig {
            seed,
            n_fibers,
            wavelengths_per_fiber,
            horizon: SimDuration::from_days(days),
            shallow_dip_rate: 40.0,
            deep_dip_rate: 30.0,
            step_rate: 20.0,
            link_lol_rate: 30.0,
            fiber_cut_rate: 20.0,
            maintenance_rate: 30.0,
            ..FleetConfig::paper()
        },
    )
}

proptest! {
    /// Per-trace: fused analysis of a crafted trace serializes to the very
    /// bytes `LinkAnalysis::new` produces.
    #[test]
    fn fused_link_analysis_is_byte_identical(samples in samples_strategy()) {
        let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
        let table = ModulationTable::paper_default();
        let legacy = LinkAnalysis::new(&trace, &table);
        let mut kernel = FleetKernel::new();
        let fused = kernel.analyze_trace(&trace, &table);
        prop_assert_eq!(
            serde_json::to_string(&fused).expect("fused serializes"),
            serde_json::to_string(&legacy).expect("legacy serializes")
        );
    }

    /// Per-fleet: a generated fleet swept by the fused kernel accumulates
    /// to the same bytes as `LinkAnalysis::new` over each materialised
    /// trace, with the kernel's buffers reused across every link.
    #[test]
    fn fused_fleet_accumulator_is_byte_identical(cfg in fleet_strategy()) {
        let gen = FleetGenerator::new(cfg);
        let table = ModulationTable::paper_default();
        let fused = gen.fleet_analysis(&table);
        let mut legacy = FleetAccumulator::new();
        for link_id in 0..gen.n_links() {
            legacy.push(&LinkAnalysis::new(&gen.link(link_id).trace, &table));
        }
        prop_assert_eq!(
            serde_json::to_string(&fused).expect("fused serializes"),
            serde_json::to_string(&legacy).expect("legacy serializes")
        );
    }
}
