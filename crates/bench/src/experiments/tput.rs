//! The paper's closing simulation: "we … simulate the throughput gains
//! from deploying our approach."
//!
//! For each topology (Abilene, B4-like, Waxman) and TE algorithm (SWAN-,
//! B4-, CSPF-style), sweep a gravity demand matrix from light to
//! overloaded and compare the throughput of static 100 G links against
//! dynamic capacities via the graph abstraction. Expected shape: identical
//! under light load, and a widening dynamic-capacity win as demand grows —
//! bounded by each link's SNR headroom.

use crate::{Report, Scale};
use rwc_core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc_te::b4::B4Te;
use rwc_te::cspf::CspfTe;
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::TeProblem;
use rwc_te::swan::SwanTe;
use rwc_te::TeAlgorithm;
use rwc_topology::random::{waxman, WaxmanConfig};
use rwc_topology::{builders, WanTopology};
use rwc_util::units::Gbps;
use std::fmt::Write as _;

fn topologies() -> Vec<(&'static str, WanTopology)> {
    vec![
        ("abilene", builders::abilene()),
        ("b4-like", builders::b4_like()),
        ("waxman16", waxman(&WaxmanConfig { n_nodes: 16, seed: 5, ..Default::default() })),
    ]
}

fn algorithms() -> Vec<(&'static str, Box<dyn TeAlgorithm>)> {
    vec![
        ("swan", Box::new(SwanTe::default())),
        ("b4", Box::new(B4Te::default())),
        ("cspf", Box::new(CspfTe::default())),
    ]
}

/// One measurement cell.
pub struct Cell {
    /// Topology name.
    pub topology: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Demand multiplier.
    pub load: f64,
    /// Static-capacity throughput.
    pub static_tput: f64,
    /// Dynamic-capacity throughput (augmented).
    pub dynamic_tput: f64,
    /// Links upgraded by translation.
    pub upgrades: usize,
}

/// Sweeps all cells.
pub fn sweep(scale: Scale) -> Vec<Cell> {
    let loads: &[f64] = match scale {
        Scale::Quick => &[0.5, 1.0, 1.5, 2.0],
        Scale::Full | Scale::Scaled(_) => &[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0],
    };
    let mut cells = Vec::new();
    for (topo_name, wan) in topologies() {
        // Base demand: total volume ≈ half the network's static capacity.
        let base_volume = wan.total_capacity() * 0.5;
        for (algo_name, algo) in algorithms() {
            for &load in loads {
                let dm = DemandMatrix::gravity(&wan, Gbps(base_volume.value()), 11)
                    .scaled(load);
                let static_problem = TeProblem::from_wan(&wan, &dm);
                let static_sol = algo.solve(&static_problem);
                let cfg = AugmentConfig {
                    penalty: PenaltyPolicy::Uniform(1.0),
                    ..Default::default()
                };
                let aug = augment(&wan, &dm, &cfg, &[]);
                let dyn_sol = algo.solve(&aug.problem);
                let tr = translate(&aug, &wan, &dyn_sol).expect("experiment translation on solver output");
                cells.push(Cell {
                    topology: topo_name,
                    algorithm: algo_name,
                    load,
                    static_tput: static_sol.total,
                    dynamic_tput: dyn_sol.total,
                    upgrades: tr.upgrades.len(),
                });
            }
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("tput", "throughput: static 100 G vs dynamic capacities (TE simulation)");
    let cells = sweep(scale);
    let mut csv =
        String::from("topology,algorithm,load,static_gbps,dynamic_gbps,gain_pct,upgrades\n");
    report.line(format!(
        "{:<10} {:<6} {:>5} {:>12} {:>12} {:>8} {:>9}",
        "topology", "algo", "load", "static Gbps", "dynamic Gbps", "gain%", "upgrades"
    ));
    for c in &cells {
        let gain = if c.static_tput > 0.0 {
            100.0 * (c.dynamic_tput / c.static_tput - 1.0)
        } else {
            0.0
        };
        report.line(format!(
            "{:<10} {:<6} {:>5.2} {:>12.0} {:>12.0} {:>8.1} {:>9}",
            c.topology, c.algorithm, c.load, c.static_tput, c.dynamic_tput, gain, c.upgrades
        ));
        let _ = writeln!(
            csv,
            "{},{},{},{:.1},{:.1},{:.2},{}",
            c.topology, c.algorithm, c.load, c.static_tput, c.dynamic_tput, gain, c.upgrades
        );
    }
    // Headline: gain at the heaviest load, averaged over cells.
    let heavy: Vec<&Cell> =
        cells.iter().filter(|c| c.load == cells.last().unwrap().load).collect();
    let mean_gain = heavy
        .iter()
        .filter(|c| c.static_tput > 0.0)
        .map(|c| c.dynamic_tput / c.static_tput - 1.0)
        .sum::<f64>()
        / heavy.len() as f64;
    report.line(format!(
        "mean throughput gain at the heaviest load: {:.0}% (paper argues 75–100% capacity \
         headroom on most links)",
        100.0 * mean_gain
    ));
    report.csv("tput_static_vs_dynamic.csv", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_never_loses_and_wins_under_load() {
        let cells = sweep(Scale::Quick);
        for c in &cells {
            assert!(
                c.dynamic_tput >= c.static_tput - 1.0,
                "{}/{} load {}: dynamic {} < static {}",
                c.topology,
                c.algorithm,
                c.load,
                c.dynamic_tput,
                c.static_tput
            );
        }
        // Under the heaviest load, dynamic must win somewhere substantial.
        let max_gain = cells
            .iter()
            .filter(|c| c.static_tput > 0.0)
            .map(|c| c.dynamic_tput / c.static_tput)
            .fold(0.0f64, f64::max);
        assert!(max_gain > 1.15, "best gain only {max_gain}");
    }

    #[test]
    fn light_load_has_no_gain() {
        let cells = sweep(Scale::Quick);
        for c in cells.iter().filter(|c| c.load <= 0.5) {
            let gain = c.dynamic_tput / c.static_tput.max(1.0);
            assert!(gain < 1.1, "{}/{}: light-load gain {gain}", c.topology, c.algorithm);
        }
    }

    #[test]
    fn upgrades_grow_with_load() {
        let cells = sweep(Scale::Quick);
        // For swan on abilene, upgrades at load 2.0 >= upgrades at 0.5.
        let ups = |load: f64| {
            cells
                .iter()
                .find(|c| c.topology == "abilene" && c.algorithm == "swan" && c.load == load)
                .unwrap()
                .upgrades
        };
        assert!(ups(2.0) >= ups(0.5));
    }
}
