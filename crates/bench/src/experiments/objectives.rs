//! TE objective zoo on the augmented scaled mesh: every [`TeObjective`]
//! solved on the identical problem, each optimum with its certificate
//! (primal / dual residual and duality gap), plus the min-MLU
//! envelope-dominance and warm-drift sub-stage.

use crate::{Report, Scale};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::TeProblem;
use rwc_te::{TeAlgorithm, TeObjective, TeSolver};
use rwc_topology::builders;
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::units::Gbps;
use std::time::Instant;

/// The large-topology TE instance: a replicated mesh at the given
/// replication factor, one cross-replica commodity per replica plus an
/// end-to-end long haul.
fn large_te_instance(factor: usize) -> (WanTopology, DemandMatrix) {
    let wan = builders::scaled_mesh(factor, 500.0);
    let pick = |name: String| wan.node_by_name(&name).expect("scaled mesh site");
    let mut dm = DemandMatrix::new();
    // One cross-replica commodity per stride-spaced replica, at most 8:
    // columns grow as edges × commodities, so the commodity count must
    // stay bounded for the ≥10k-edge scales to remain about topology
    // size, not LP blow-up.
    let stride = factor.div_ceil(8).max(1);
    for i in (0..factor).step_by(stride) {
        let s = pick(format!("S{i}-{}", 3 + (i % 3)));
        let t = pick(format!("S{}-4", (i + 1) % factor));
        if s != t {
            dm.add(s, t, Gbps(60.0), Priority::Elastic);
        }
    }
    if factor > 1 {
        // End-to-end long haul across all replicas (self-demand at x1).
        let (s, t) = (pick("S0-5".into()), pick(format!("S{}-5", factor - 1)));
        dm.add(s, t, Gbps(80.0), Priority::Elastic);
    }
    (wan, dm)
}

/// One objective's arm of [`ObjectivesPerf`]: a cold solve of
/// the lowered problem, its headline value (total throughput, MLU, or the
/// concurrency factor λ) and its optimality certificate.
#[derive(Debug, Clone)]
struct ObjectiveArm {
    /// The formulation's algorithm name (e.g. `"exact-lp:min-mlu"`).
    objective: String,
    /// Whether the solve reached an optimum that certified.
    solved: bool,
    /// The objective's headline value (NaN when unsolved).
    headline: f64,
    /// Solve time, microseconds (certificate check included).
    solve_micros: u64,
    /// Relative duality gap of the certificate; must stay within
    /// [`rwc_lp::CERTIFICATE_TOL`].
    certificate_gap: f64,
    /// The larger of the certificate's primal and dual residuals.
    certificate_residual: f64,
}

/// The min-MLU sub-stage: envelope dominance plus warm-start behaviour
/// under rhs-only traffic-matrix drift (the `MinMlu` twin of the
/// max-throughput fast-resolve path).
#[derive(Debug, Clone)]
struct MinMluPerf {
    /// Optimal MLU over the whole traffic-matrix envelope.
    envelope_mlu: f64,
    /// Max over the envelope's members of each single-TM optimal MLU.
    /// Must be `<= envelope_mlu + 1e-6`: routing that works for every
    /// matrix at once can never beat routing tuned to one matrix.
    max_single_tm_mlu: f64,
    /// Drift rounds solved.
    rounds: u64,
    /// Warm starts attempted across the drift rounds.
    warm_attempts: u64,
    /// Warm starts that reached optimality without a cold fallback.
    warm_hits: u64,
    /// `warm_hits / warm_attempts` in `[0, 1]`.
    warm_hit_rate: f64,
}

/// What `repro objectives` reports: the whole
/// [`TeObjective`] zoo on one augmented scaled-mesh instance (fake
/// upgrade edges included, so the unsplittable gadget and the reduction
/// readout have real work to do), each objective solved and certified.
#[derive(Debug, Clone)]
struct ObjectivesPerf {
    /// Mesh replication factor used for this stage.
    scale_factor: u64,
    /// Commodities in the demand matrix.
    commodities: u64,
    /// Fake upgrade edges the augmentation injected.
    fake_edges: u64,
    /// One arm per objective, in declaration order.
    arms: Vec<ObjectiveArm>,
    /// Whether every arm solved and certified.
    all_solved: bool,
    /// Worst certificate duality gap across the arms.
    max_certificate_gap: f64,
    /// The min-MLU envelope/drift sub-stage.
    min_mlu: MinMluPerf,
}

/// Headline value of a solve under an objective.
fn headline(objective: &TeObjective, solve: &rwc_te::TeSolve) -> f64 {
    match objective {
        TeObjective::MinMlu { .. } => solve.mlu.expect("min-MLU solve reports MLU"),
        TeObjective::MaxConcurrentFlow => solve.lambda.expect("concurrent solve reports lambda"),
        _ => solve.solution.total,
    }
}

/// Optimal MLU of one traffic-matrix set on `problem`.
fn min_mlu_of(problem: &TeProblem, traffic_matrices: Vec<Vec<f64>>) -> f64 {
    let solver = TeSolver::builder()
        .objective(TeObjective::MinMlu { traffic_matrices })
        .build()
        .expect("min-MLU solver config is valid");
    let solve = solver.solve_detailed(problem).expect("min-MLU instance solves");
    solve.mlu.expect("min-MLU solve reports MLU")
}

/// Runs the objective-zoo stage: augments the scaled mesh (some links get
/// SNR headroom so fake upgrade rungs exist), then solves and certifies
/// every objective on the augmented problem, plus the min-MLU
/// envelope-dominance check and warm-start drift sub-stage.
fn objectives_perf(scale: Scale) -> ObjectivesPerf {
    use rwc_core::{augment, AugmentConfig};
    use rwc_util::units::Db;

    let factor = match scale {
        Scale::Quick => 4,
        Scale::Full => 6,
        // Cold min-MLU is the slow arm (ROADMAP item 2): the stage stays
        // at a size it finishes regardless of `--scale`.
        Scale::Scaled(n) => (n as usize).clamp(1, 8),
    };
    let (mut wan, dm) = large_te_instance(factor);
    // Alternate SNR so every third link has headroom for upgrade rungs
    // (same 7.5/13 dB split as the Fig. 7 worked example): the gadget and
    // the reduction readout need fake edges to be non-trivial.
    for l in 0..wan.n_links() {
        wan.set_snr(LinkId(l), if l % 3 == 0 { Db(13.0) } else { Db(7.5) });
    }
    let aug = augment(&wan, &dm, &AugmentConfig::default(), &[]);
    let problem = &aug.problem;
    let fake_edges = problem
        .origins
        .iter()
        .filter(|o| matches!(o, rwc_te::problem::EdgeOrigin::Fake { .. }))
        .count() as u64;

    // Traffic-matrix envelope for the MinMlu arms: the base demands plus
    // a peak-shifted and a scaled-down variant (per-commodity phase so
    // the matrices genuinely disagree about where load lands).
    let base_tm: Vec<f64> = problem.commodities.iter().map(|c| c.demand).collect();
    let k = base_tm.len();
    let tms: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            (0..k)
                .map(|i| base_tm[i] * (0.7 + 0.15 * j as f64 + 0.1 * ((i + j) % 3) as f64))
                .collect()
        })
        .collect();

    let objectives = [
        TeObjective::MaxThroughput,
        TeObjective::MinMlu { traffic_matrices: tms.clone() },
        TeObjective::MaxConcurrentFlow,
        TeObjective::Unsplittable,
        TeObjective::CapacityReduction,
    ];
    let mut arms = Vec::with_capacity(objectives.len());
    for objective in &objectives {
        let solver = TeSolver::builder()
            .objective(objective.clone())
            .build()
            .expect("objective-zoo solver config is valid");
        let t0 = Instant::now();
        let certified = solver.solve_certified(problem).ok();
        let solve_micros = t0.elapsed().as_micros().max(1) as u64;
        let (value, gap, residual) = certified.as_ref().map_or(
            (f64::NAN, f64::NAN, f64::NAN),
            |(solve, cert)| (headline(objective, solve), cert.gap, cert.primal.max(cert.dual)),
        );
        arms.push(ObjectiveArm {
            objective: objective.algorithm_name().to_string(),
            solved: certified.is_some(),
            headline: value,
            solve_micros,
            certificate_gap: gap,
            certificate_residual: residual,
        });
    }
    let all_solved = arms.iter().all(|a| a.solved);
    let max_certificate_gap = arms.iter().map(|a| a.certificate_gap).fold(0.0f64, f64::max);

    // Envelope dominance: the envelope optimum must cover every member
    // matrix's own optimum.
    let envelope_mlu = min_mlu_of(problem, tms.clone());
    let max_single_tm_mlu = tms
        .iter()
        .map(|tm| min_mlu_of(problem, vec![tm.clone()]))
        .fold(0.0f64, f64::max);

    // Rhs-only TM drift: the same solver re-targeted each round via
    // `set_objective` (identical LP pattern, drifted demand rhs). This is
    // the MinMlu twin of the warm fast-resolve path.
    const DRIFT_ROUNDS: usize = 8;
    let drift_tms = |round: usize| -> Vec<Vec<f64>> {
        let scale = 0.75 + 0.03 * round as f64;
        tms.iter().map(|tm| tm.iter().map(|d| d * scale).collect()).collect()
    };
    let mut drifting = TeSolver::builder()
        .objective(TeObjective::MinMlu { traffic_matrices: drift_tms(0) })
        .build()
        .expect("min-MLU solver config is valid");
    for round in 0..DRIFT_ROUNDS {
        drifting
            .set_objective(TeObjective::MinMlu { traffic_matrices: drift_tms(round) })
            .expect("drifted traffic matrices stay valid");
        drifting.solve_detailed(problem).expect("drift round solves");
    }
    let drift_stats = drifting.warm_stats().unwrap_or_default();

    ObjectivesPerf {
        scale_factor: factor as u64,
        commodities: problem.commodities.len() as u64,
        fake_edges,
        arms,
        all_solved,
        max_certificate_gap,
        min_mlu: MinMluPerf {
            envelope_mlu,
            max_single_tm_mlu,
            rounds: DRIFT_ROUNDS as u64,
            warm_attempts: drift_stats.warm_attempts,
            warm_hits: drift_stats.warm_hits,
            warm_hit_rate: drift_stats.warm_hit_rate(),
        },
    }
}

fn render(report: &mut Report, perf: &ObjectivesPerf) {
    report.line(format!(
        "scaled mesh x{} (augmented: {} commodities, {} fake upgrade edges)",
        perf.scale_factor, perf.commodities, perf.fake_edges
    ));
    report.line(
        "objective                          headline   certificate gap   residual   solve us"
            .to_string(),
    );
    for arm in &perf.arms {
        report.line(format!(
            "{:<32} {:>10.4} {:>17.3e} {:>10.3e}   {:>8}{}",
            arm.objective,
            arm.headline,
            arm.certificate_gap,
            arm.certificate_residual,
            arm.solve_micros,
            if arm.solved { "" } else { "  [FAILED]" },
        ));
    }
    report.line(format!(
        "all objectives solved: {}; worst certificate gap {:.3e} (gate {:.0e})",
        perf.all_solved,
        perf.max_certificate_gap,
        rwc_lp::CERTIFICATE_TOL
    ));
    let mm = &perf.min_mlu;
    report.line(format!(
        "min-MLU envelope {:.4} dominates every member optimum (max single-TM {:.4})",
        mm.envelope_mlu, mm.max_single_tm_mlu
    ));
    report.line(format!(
        "min-MLU rhs-only TM drift ({} rounds): warm hit rate {:.0}% ({}/{} attempts)",
        mm.rounds,
        100.0 * mm.warm_hit_rate,
        mm.warm_hits,
        mm.warm_attempts,
    ));
    report.csv(
        "objectives.csv",
        std::iter::once("objective,solved,headline,certificate_gap".to_string())
            .chain(perf.arms.iter().map(|a| {
                format!("{},{},{},{}", a.objective, a.solved, a.headline, a.certificate_gap)
            }))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
    );
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("objectives", "TE objective zoo: five formulations, each optimum certified");
    let perf = objectives_perf(scale);
    render(&mut report, &perf);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_zoo_solves_and_certifies() {
        let perf = objectives_perf(Scale::Scaled(2));
        assert_eq!(perf.arms.len(), 5, "all five objectives run");
        assert!(perf.all_solved, "{perf:?}");
        assert!(perf.max_certificate_gap <= rwc_lp::CERTIFICATE_TOL, "{perf:?}");
        assert!(perf.fake_edges > 0, "augmentation produced no fake edges");
        let mm = &perf.min_mlu;
        assert!(
            mm.max_single_tm_mlu <= mm.envelope_mlu + 1e-6,
            "envelope dominance broken: {mm:?}"
        );
        // MinMlu TM drift is demand-rhs-only, so after the first cold
        // solve every round must warm-start — the same contract as the
        // MaxThroughput fast-resolve path.
        assert_eq!(mm.warm_attempts, mm.rounds - 1, "{mm:?}");
        assert_eq!(mm.warm_hits, mm.warm_attempts, "{mm:?}");
        let mut report = Report::new("objectives", "test");
        render(&mut report, &perf);
    }

    #[test]
    fn drifting_large_mesh_stays_warm_on_the_eta_chain() {
        // Capacities drift ±9 % every round on the x6 mesh (210 edges): one
        // long-lived solver goes cold once, then every round warm-starts
        // and pivots through product-form eta updates rather than
        // refactorising each time.
        let (wan, dm) = large_te_instance(6);
        let base = TeProblem::from_wan(&wan, &dm);
        let te = TeSolver::default();
        for round in 0..6 {
            let mut p = base.clone();
            for l in 0..wan.n_links() {
                let drift = 0.91 + 0.03 * ((round * (l + 3)) % 7) as f64;
                p.override_link_capacity(LinkId(l), wan.link(LinkId(l)).capacity().value() * drift);
            }
            let sol = te.try_solve(&p).expect("drift round solves");
            sol.validate(&p).expect("drift round is feasible");
        }
        let stats = te.warm_stats().expect("default solver warm-starts");
        assert_eq!((stats.cold_solves, stats.warm_attempts, stats.warm_hits), (1, 5, 5), "{stats:?}");
        assert!(stats.eta_updates > stats.refactorizations, "{stats:?}");
    }
}
