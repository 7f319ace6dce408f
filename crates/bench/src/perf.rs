//! Machine-readable performance digest of the scenario round engine —
//! the payload behind `repro --bench-json` and the CI perf-smoke gate.
//!
//! Two arms of the *same* week-in-the-life scenario, both on the one
//! round engine (dirty-link augmentation + memo):
//!
//! | arm           | TE solver                                   |
//! |---------------|---------------------------------------------|
//! | `exact_cold`  | exact LP, `WarmStartPolicy::AlwaysCold`     |
//! | `exact_warm`  | exact LP, warm-start                        |
//!
//! The pair differs in the warm-start policy and nothing else, so
//! `exact_solve_speedup` is what warm starts buy; both reach an optimum of
//! the same LP each round, so the digest reports the worst per-round
//! throughput delta alongside the warm-start hit rate. (`SwanTe` is a
//! chain of cold exact solves; on this one-class scenario it would be
//! `exact_cold` again.) Then two stages on the replicated mesh: drifting
//! rounds at scale (`large_te`) and the objective zoo, where every solve
//! carries its optimality certificate.
//!
//! Timing lives in [`ScenarioTiming`] sidecars and never in the reports
//! themselves, so the determinism comparisons stay meaningful.

use crate::Scale;
use rwc_core::scenario::{Scenario, ScenarioReport, ScenarioTiming};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::TeProblem;
use rwc_te::{TeAlgorithm, TeFormulation, TeObjective, TeSolver, WarmStartPolicy};
use rwc_telemetry::FleetConfig;
use rwc_topology::builders;
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::time::SimDuration;
use rwc_util::units::Gbps;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Timing digest of one scenario arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArmPerf {
    /// TE rounds the arm completed.
    pub rounds: u64,
    /// Rounds per wall-clock second over the whole run.
    pub rounds_per_sec: f64,
    /// Median per-round solve time (static baseline + augmentation +
    /// augmented solve), microseconds.
    pub solve_p50_micros: u64,
    /// 99th-percentile per-round solve time, microseconds.
    pub solve_p99_micros: u64,
    /// Total microseconds spent in TE solves.
    pub total_solve_micros: u64,
}

impl ArmPerf {
    fn from_timing(t: &ScenarioTiming) -> Self {
        Self {
            rounds: t.solve_micros.len() as u64,
            rounds_per_sec: t.rounds_per_sec(),
            solve_p50_micros: t.solve_percentile_micros(0.50),
            solve_p99_micros: t.solve_percentile_micros(0.99),
            total_solve_micros: t.total_solve_micros(),
        }
    }
}

/// The `BENCH_scenario.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioPerf {
    /// Experiment id (always `"scenario"`).
    pub experiment: String,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Exact LP, reset before every solve.
    pub exact_cold: ArmPerf,
    /// Exact LP, warm-started.
    pub exact_warm: ArmPerf,
    /// `exact_cold.total_solve_micros / exact_warm.total_solve_micros`.
    /// The two arms run the same round engine (both get the static memo
    /// and the counterfactual cache) and differ only by
    /// [`WarmStartPolicy::AlwaysCold`], so this isolates the warm start.
    pub exact_solve_speedup: f64,
    /// Warm starts attempted by the warm exact arm.
    pub warm_attempts: u64,
    /// Warm starts that reached optimality without a cold fallback.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts` in `[0, 1]`.
    pub warm_hit_rate: f64,
    /// Worst per-round |warm − cold| throughput difference (Gbps) between
    /// the exact arms — bounded by LP tolerance, not zero, because warm
    /// and cold may land on different optimal vertices.
    pub max_throughput_delta: f64,
    /// Large-topology TE stage: drifting exact rounds on a
    /// `--scale`-multiplied replicated mesh. `Option` so baselines from
    /// before the stage existed still parse (the shim reads a missing
    /// field as `None`).
    pub large_te: Option<LargeTePerf>,
    /// Objective-zoo stage: every [`TeObjective`] solved and certified on
    /// the augmented scaled mesh, plus the min-MLU envelope/drift
    /// sub-stage. `Option` for the same baseline-compatibility reason as
    /// `large_te`.
    pub objectives: Option<ObjectivesPerf>,
}

/// Timing of the [`LargeTePerf`] stage's rounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LargeTeArm {
    /// Drifted TE rounds solved.
    pub rounds: u64,
    /// Rounds per second of pure solve time (cold first round included).
    pub rounds_per_sec: f64,
    /// Median per-round solve time, microseconds.
    pub solve_p50_micros: u64,
    /// 99th-percentile per-round solve time, microseconds.
    pub solve_p99_micros: u64,
    /// Total microseconds across all rounds.
    pub total_solve_micros: u64,
}

/// The `large_te` stage of `BENCH_scenario.json`: the same drifting
/// sequence of exact TE rounds on a replicated-mesh topology
/// ([`builders::scaled_mesh`]) on one warm `TeSolver` — the regime
/// (≥ 10k links at `--scale 300`) a dense tableau cannot enter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LargeTePerf {
    /// Mesh replication factor used for this run.
    pub scale_factor: u64,
    /// Directed TE edges of the composite topology.
    pub links: u64,
    /// Commodities in the demand matrix.
    pub commodities: u64,
    /// Structural columns of the lowered sparse LP.
    pub lp_cols: u64,
    /// Constraint rows of the lowered sparse LP (capacities are bounds
    /// for single-commodity programs and rows otherwise).
    pub lp_rows: u64,
    /// The rounds' timing. (Named for the solver, as the baseline file
    /// and the CI gates know it.)
    pub sparse: LargeTeArm,
    /// Mean product-form eta updates between basis refactorisations —
    /// the refactorisation-policy health metric.
    pub eta_updates_per_refactor: f64,
}

fn percentile_micros(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn large_te_arm(rounds: &[TeProblem]) -> (LargeTeArm, rwc_lp::SolverStats) {
    let te = TeSolver::default();
    let mut micros: Vec<u64> = Vec::with_capacity(rounds.len());
    for p in rounds {
        let t0 = Instant::now();
        let sol = te.try_solve(p).expect("large TE round solves");
        std::hint::black_box(sol.total);
        micros.push(t0.elapsed().as_micros().max(1) as u64);
    }
    let total: u64 = micros.iter().sum();
    micros.sort_unstable();
    let arm = LargeTeArm {
        rounds: rounds.len() as u64,
        rounds_per_sec: rounds.len() as f64 / (total as f64 / 1e6),
        solve_p50_micros: percentile_micros(&micros, 0.50),
        solve_p99_micros: percentile_micros(&micros, 0.99),
        total_solve_micros: total,
    };
    (arm, te.warm_stats().unwrap_or_default())
}

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

/// Runs the large-topology TE stage: [`large_te_instance`] with
/// capacities drifting every round, solved on one warm solver.
pub fn large_te_perf(scale: Scale) -> LargeTePerf {
    let factor = match scale {
        Scale::Quick => 6,
        Scale::Full => 10,
        Scale::Scaled(n) => (n as usize).max(1),
    };
    let (wan, dm) = large_te_instance(factor);
    let base = TeProblem::from_wan(&wan, &dm);
    const ROUNDS: usize = 6;
    let rounds: Vec<TeProblem> = (0..ROUNDS)
        .map(|round| {
            let mut p = base.clone();
            for l in 0..wan.n_links() {
                // Deterministic ±9% capacity drift.
                let phase = (round * (l + 3)) % 7;
                let factor = 0.91 + 0.03 * phase as f64;
                p.override_link_capacity(LinkId(l), wan.link(LinkId(l)).capacity().value() * factor);
            }
            p
        })
        .collect();
    let lowered = TeFormulation::default()
        .lower(&base)
        .expect("max-throughput lowering is always valid")
        .sparse_lp();
    let (sparse, stats) = large_te_arm(&rounds);
    LargeTePerf {
        scale_factor: factor as u64,
        links: base.net.n_edges() as u64,
        commodities: base.commodities.len() as u64,
        lp_cols: lowered.n_vars() as u64,
        lp_rows: lowered.n_rows() as u64,
        eta_updates_per_refactor: if stats.refactorizations == 0 {
            0.0
        } else {
            stats.eta_updates as f64 / stats.refactorizations as f64
        },
        sparse,
    }
}

/// One objective's arm of the [`ObjectivesPerf`] stage: a cold solve of
/// the lowered problem, its headline value (total throughput, MLU, or the
/// concurrency factor λ) and its optimality certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectiveArm {
    /// The formulation's algorithm name (e.g. `"exact-lp:min-mlu"`).
    pub objective: String,
    /// Whether the solve reached an optimum that certified.
    pub solved: bool,
    /// The objective's headline value (NaN when unsolved).
    pub headline: f64,
    /// Solve time, microseconds (certificate check included).
    pub solve_micros: u64,
    /// Relative duality gap of the certificate — gated at 1e-9 in CI.
    pub certificate_gap: f64,
    /// The larger of the certificate's primal and dual residuals.
    pub certificate_residual: f64,
}

/// The min-MLU sub-stage: envelope dominance plus warm-start behaviour
/// under rhs-only traffic-matrix drift (the `MinMlu` twin of the
/// max-throughput fast-resolve path).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinMluPerf {
    /// Optimal MLU over the whole traffic-matrix envelope.
    pub envelope_mlu: f64,
    /// Max over the envelope's members of each single-TM optimal MLU.
    /// Must be `<= envelope_mlu + 1e-6`: routing that works for every
    /// matrix at once can never beat routing tuned to one matrix.
    pub max_single_tm_mlu: f64,
    /// Drift rounds solved.
    pub rounds: u64,
    /// Warm starts attempted across the drift rounds.
    pub warm_attempts: u64,
    /// Warm starts that reached optimality without a cold fallback.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts` in `[0, 1]`.
    pub warm_hit_rate: f64,
}

/// The `objectives` stage of `BENCH_scenario.json`: the whole
/// [`TeObjective`] zoo on one augmented scaled-mesh instance (fake
/// upgrade edges included, so the unsplittable gadget and the reduction
/// readout have real work to do), each objective solved and certified.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectivesPerf {
    /// Mesh replication factor used for this stage.
    pub scale_factor: u64,
    /// Commodities in the demand matrix.
    pub commodities: u64,
    /// Fake upgrade edges the augmentation injected.
    pub fake_edges: u64,
    /// One arm per objective, in declaration order.
    pub arms: Vec<ObjectiveArm>,
    /// Whether every arm solved and certified.
    pub all_solved: bool,
    /// Worst certificate duality gap across the arms.
    pub max_certificate_gap: f64,
    /// The min-MLU envelope/drift sub-stage.
    pub min_mlu: MinMluPerf,
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
pub fn objectives_perf(scale: Scale) -> ObjectivesPerf {
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

/// Builds the perf scenario: continental-scale Abilene rather than the
/// experiment's 5-link Fig. 7 example, because the round-engine
/// optimisations (warm simplex bases, dirty-link patching) only show
/// their worth once the augmented LP has real size. SNR baselines sit
/// comfortably above the rung thresholds so ladders keep their shape
/// most rounds — the regime warm starts are designed for.
fn perf_build(scale: Scale) -> (Scenario, SimDuration) {
    let wan = builders::abilene();
    let pick = |n: &str| wan.node_by_name(n).expect("abilene site");
    let mut dm = DemandMatrix::new();
    for (s, t) in
        [("SEA", "NYC"), ("LAX", "WDC"), ("SNV", "CHI"), ("DEN", "ATL"), ("KSC", "NYC"), ("HOU", "CHI")]
    {
        dm.add(pick(s), pick(t), Gbps(120.0), Priority::Elastic);
    }
    let horizon = match scale {
        Scale::Quick => SimDuration::from_days(7),
        Scale::Full | Scale::Scaled(_) => SimDuration::from_days(30),
    };
    let fleet = FleetConfig {
        n_fibers: 2,
        wavelengths_per_fiber: 7,
        horizon: horizon + SimDuration::from_days(1),
        fiber_baseline_mean_db: 14.5,
        fiber_baseline_sd_db: 0.1,
        wavelength_jitter_sd_db: 0.15,
        ..FleetConfig::paper()
    };
    let scenario = Scenario::builder(wan, fleet, dm)
        .build()
        .expect("perf scenario wiring is valid");
    (scenario, horizon)
}

fn run_arm(scale: Scale, algorithm: &dyn TeAlgorithm) -> (ScenarioReport, ScenarioTiming) {
    let (mut s, horizon) = perf_build(scale);
    let report = s.run(horizon, algorithm).expect("perf scenario wiring is valid");
    let timing = s.last_timing().cloned().expect("run always records timing");
    (report, timing)
}

/// Runs the two arms (sequentially, so the timings aren't fighting each
/// other for cores) and assembles the digest.
pub fn scenario_perf(scale: Scale) -> ScenarioPerf {
    let cold_algo = TeSolver::builder()
        .warm_start(WarmStartPolicy::AlwaysCold)
        .build()
        .expect("default TE solver");
    let (cold_report, cold_t) = run_arm(scale, &cold_algo);
    let warm_algo = TeSolver::default();
    let (warm_report, warm_t) = run_arm(scale, &warm_algo);
    let stats = warm_algo.warm_stats().unwrap_or_default();

    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let max_throughput_delta = cold_report
        .samples
        .iter()
        .zip(&warm_report.samples)
        .map(|(c, w)| (c.throughput - w.throughput).abs())
        .fold(0.0f64, f64::max);

    ScenarioPerf {
        experiment: "scenario".into(),
        scale: scale.label(),
        exact_solve_speedup: ratio(cold_t.total_solve_micros(), warm_t.total_solve_micros()),
        exact_cold: ArmPerf::from_timing(&cold_t),
        exact_warm: ArmPerf::from_timing(&warm_t),
        warm_attempts: stats.warm_attempts,
        warm_hits: stats.warm_hits,
        warm_hit_rate: stats.warm_hit_rate(),
        max_throughput_delta,
        large_te: Some(large_te_perf(scale)),
        objectives: Some(objectives_perf(scale)),
    }
}

impl ScenarioPerf {
    /// Pretty JSON for `BENCH_scenario.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf digest serializes")
    }

    /// Parses a digest (e.g. the committed baseline).
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// CI regression gate: errors when round-engine throughput has
    /// collapsed to less than half the committed baseline (the 2× band
    /// absorbs runner-to-runner noise while still catching a lost
    /// optimisation, which shows up as ~5–10×), or when an objective's
    /// optimum fails its certificate.
    pub fn check_against_baseline(&self, baseline: &ScenarioPerf) -> Result<(), String> {
        let floor = baseline.exact_warm.rounds_per_sec / 2.0;
        if self.exact_warm.rounds_per_sec < floor {
            return Err(format!(
                "perf regression: round engine at {:.1} rounds/sec, \
                 below half the baseline {:.1}",
                self.exact_warm.rounds_per_sec, baseline.exact_warm.rounds_per_sec
            ));
        }
        if let (Some(lt), Some(base)) = (&self.large_te, &baseline.large_te) {
            let floor = base.sparse.rounds_per_sec / 2.0;
            if lt.sparse.rounds_per_sec < floor {
                return Err(format!(
                    "perf regression: large-TE stage at {:.1} rounds/sec, \
                     below half the baseline {:.1}",
                    lt.sparse.rounds_per_sec, base.sparse.rounds_per_sec
                ));
            }
        }
        if let Some(obj) = &self.objectives {
            if !obj.all_solved {
                return Err("objective-zoo stage: not every objective solved".into());
            }
            if obj.max_certificate_gap > rwc_lp::CERTIFICATE_TOL {
                return Err(format!(
                    "objective-zoo stage: certificate gap {:.3e} (gate {:.0e})",
                    obj.max_certificate_gap,
                    rwc_lp::CERTIFICATE_TOL
                ));
            }
            if obj.min_mlu.max_single_tm_mlu > obj.min_mlu.envelope_mlu + 1e-6 {
                return Err(format!(
                    "objective-zoo stage: a single-TM optimum ({:.6}) beat the \
                     envelope optimum ({:.6}) — envelope dominance broken",
                    obj.min_mlu.max_single_tm_mlu, obj.min_mlu.envelope_mlu
                ));
            }
        }
        Ok(())
    }
}

/// Timing + allocation digest of one fleet pass (fused sweep or
/// generation only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetArmPerf {
    /// Links analysed.
    pub links: u64,
    /// SNR samples generated and analysed (`links × ticks`).
    pub samples: u64,
    /// Wall-clock seconds for the sweep.
    pub elapsed_secs: f64,
    /// Links analysed per wall-clock second.
    pub links_per_sec: f64,
    /// Samples analysed per wall-clock second.
    pub samples_per_sec: f64,
    /// Bytes allocated during the sweep (allocation-counter proxy).
    pub alloc_bytes: u64,
    /// Allocation calls during the sweep.
    pub alloc_count: u64,
    /// Peak live heap bytes while the sweep ran — the RSS proxy.
    pub peak_live_bytes: u64,
}

/// The `BENCH_fleet.json` payload: the fused fleet sweep of the scale's
/// fleet plus the generation-only stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPerf {
    /// Experiment id (always `"fleet"`).
    pub experiment: String,
    /// `"quick"`, `"full"`, or `"fleet_xN"`.
    pub scale: String,
    /// Worker threads used by the fused sweep.
    pub n_threads: u64,
    /// Fused single-pass kernel sweep (generation + analysis).
    pub fused: FleetArmPerf,
    /// Generation only: single-threaded trace synthesis with no analysis
    /// attached (DESIGN.md §13).
    pub generation: FleetArmPerf,
}

/// Times one pass over `gen`'s fleet under the counting allocator.
fn measure_arm<T>(gen: &rwc_telemetry::FleetGenerator, pass: impl FnOnce() -> T) -> FleetArmPerf {
    let started = std::time::Instant::now();
    let (_, alloc) = crate::alloc::measure(pass);
    let elapsed = started.elapsed().as_secs_f64();
    let links = gen.n_links() as u64;
    let samples = links * gen.config().horizon.ticks(gen.config().tick);
    FleetArmPerf {
        links,
        samples,
        elapsed_secs: elapsed,
        links_per_sec: links as f64 / elapsed,
        samples_per_sec: samples as f64 / elapsed,
        alloc_bytes: alloc.bytes,
        alloc_count: alloc.count,
        peak_live_bytes: alloc.peak_live_bytes,
    }
}

/// The fused sweep: generation + analysis across `n_threads` workers.
fn fleet_arm(
    gen: &rwc_telemetry::FleetGenerator,
    table: &rwc_optics::ModulationTable,
    n_threads: usize,
) -> FleetArmPerf {
    measure_arm(gen, || crate::parallel::parallel_fleet_analysis(gen, table, n_threads))
}

/// One single-threaded generation-only pass over the fleet: every link's
/// trace synthesised into a reused buffer, no analysis attached.
fn generation_arm(gen: &rwc_telemetry::FleetGenerator) -> FleetArmPerf {
    measure_arm(gen, || {
        let mut scratch = rwc_telemetry::BatchScratch::default();
        let mut buf: Vec<f64> = Vec::new();
        let mut sink = 0.0f64;
        for link in 0..gen.n_links() {
            gen.generate_link_into(link, &mut scratch, &mut buf);
            sink += buf[buf.len() - 1];
        }
        sink
    })
}

/// Runs the fused fleet sweep and the generation-only stage on the
/// scale's fleet and assembles the digest.
pub fn fleet_perf(scale: Scale) -> FleetPerf {
    let gen = rwc_telemetry::FleetGenerator::new(scale.fleet());
    let table = rwc_optics::ModulationTable::paper_default();
    let n_threads = crate::parallel::default_workers();
    FleetPerf {
        experiment: "fleet".into(),
        scale: scale.label(),
        n_threads: n_threads as u64,
        fused: fleet_arm(&gen, &table, n_threads),
        generation: generation_arm(&gen),
    }
}

impl FleetPerf {
    /// Pretty JSON for `BENCH_fleet.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet digest serializes")
    }

    /// Parses a digest.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// CI regression gate: errors when fused fleet throughput or
    /// generation throughput has fallen below half the committed
    /// baseline. Same 2× noise band as the scenario gate.
    pub fn check_against_baseline(&self, baseline: &FleetPerf) -> Result<(), String> {
        let floor = baseline.fused.links_per_sec / 2.0;
        if self.fused.links_per_sec < floor {
            return Err(format!(
                "perf regression: fused fleet analysis at {:.1} links/sec, \
                 below half the baseline {:.1}",
                self.fused.links_per_sec, baseline.fused.links_per_sec
            ));
        }
        let gen_floor = baseline.generation.samples_per_sec / 2.0;
        if self.generation.samples_per_sec < gen_floor {
            return Err(format!(
                "perf regression: generation at {:.3e} samples/sec, \
                 below half the baseline {:.3e}",
                self.generation.samples_per_sec, baseline.generation.samples_per_sec
            ));
        }
        Ok(())
    }
}

/// The committed `ci/perf_baseline.json`: one scenario digest plus one
/// fleet digest, gated together by `repro --bench-json --perf-baseline`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Round-engine baseline (PR 3 machinery).
    pub scenario: ScenarioPerf,
    /// Fleet-analysis baseline.
    pub fleet: FleetPerf,
}

/// Why a committed perf baseline could not be used. Distinguishing I/O
/// from schema trouble lets `repro` exit with distinct codes: a CI runner
/// that lost the artifact reads differently from a stale baseline format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// The baseline file could not be read at all.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O message.
        message: String,
    },
    /// The file read but is not a valid `PerfBaseline` (truncated mid-
    /// write, hand-edited, or produced by an incompatible revision).
    Schema {
        /// The offending path.
        path: String,
        /// What failed to parse.
        message: String,
    },
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Io { path, message } => {
                write!(f, "cannot read perf baseline {path}: {message}")
            }
            PerfError::Schema { path, message } => {
                write!(f, "perf baseline {path} does not parse: {message}")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl PerfBaseline {
    /// Pretty JSON for the committed baseline file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serializes")
    }

    /// Parses the committed baseline file.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Loads the committed baseline, mapping every failure mode to a
    /// typed [`PerfError`] — a missing, truncated or schema-mismatched
    /// file becomes a clean nonzero exit in `repro`, never a panic.
    pub fn load(path: &std::path::Path) -> Result<Self, PerfError> {
        let shown = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PerfError::Io { path: shown.clone(), message: e.to_string() })?;
        Self::from_json(&text).map_err(|message| PerfError::Schema { path: shown, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_load_maps_failure_modes_to_typed_errors() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // Missing file → Io.
        let missing = dir.join(format!("rwc_perf_missing_{pid}.json"));
        match PerfBaseline::load(&missing) {
            Err(PerfError::Io { path, .. }) => assert!(path.contains("rwc_perf_missing")),
            other => panic!("expected Io, got {other:?}"),
        }

        // Truncated JSON → Schema.
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/perf_baseline.json"),
        )
        .expect("committed baseline exists");
        PerfBaseline::from_json(&committed).expect("committed baseline parses");
        let truncated_path = dir.join(format!("rwc_perf_trunc_{pid}.json"));
        std::fs::write(&truncated_path, &committed[..committed.len() / 2]).unwrap();
        match PerfBaseline::load(&truncated_path) {
            Err(PerfError::Schema { .. }) => {}
            other => panic!("expected Schema for truncation, got {other:?}"),
        }
        std::fs::remove_file(&truncated_path).ok();

        // Valid JSON, wrong shape → Schema.
        let mismatched_path = dir.join(format!("rwc_perf_shape_{pid}.json"));
        std::fs::write(&mismatched_path, r#"{"scenario": 3, "fleet": []}"#).unwrap();
        match PerfBaseline::load(&mismatched_path) {
            Err(PerfError::Schema { .. }) => {}
            other => panic!("expected Schema for shape mismatch, got {other:?}"),
        }
        std::fs::remove_file(&mismatched_path).ok();
    }

    #[test]
    fn fleet_digest_gates_and_round_trips() {
        let quick = Scale::Quick;
        // A reduced-quick fleet keeps this test fast: 2 fibers, 60 days.
        let mut cfg = quick.fleet();
        cfg.n_fibers = 2;
        cfg.horizon = rwc_util::time::SimDuration::from_days(60);
        let gen = rwc_telemetry::FleetGenerator::new(cfg);
        let table = rwc_optics::ModulationTable::paper_default();
        let fused = fleet_arm(&gen, &table, 2);
        assert!(fused.links_per_sec > 0.0);
        let generation = generation_arm(&gen);
        assert_eq!(generation.samples, fused.samples);
        assert!(generation.samples_per_sec > 0.0);
        let perf = FleetPerf {
            experiment: "fleet".into(),
            scale: quick.label(),
            n_threads: 2,
            fused,
            generation,
        };
        let json = perf.to_json();
        let back = FleetPerf::from_json(&json).expect("digest parses back");
        assert_eq!(json, back.to_json(), "digest must round-trip");
        perf.check_against_baseline(&back).expect("self-comparison passes");
        let mut fast = back;
        fast.fused.links_per_sec = perf.fused.links_per_sec * 10.0;
        assert!(perf.check_against_baseline(&fast).is_err());
        let mut gen_fast = perf.clone();
        gen_fast.generation.samples_per_sec = perf.generation.samples_per_sec * 10.0;
        assert!(perf.check_against_baseline(&gen_fast).is_err());
    }

    #[test]
    fn digest_round_trips_and_gates() {
        let perf = scenario_perf(Scale::Quick);
        assert!(perf.exact_warm.rounds > 0);
        assert_eq!(perf.exact_cold.rounds, perf.exact_warm.rounds);
        assert!(perf.warm_attempts > 0, "warm arm never attempted a warm start");
        assert!(
            perf.warm_hit_rate > 0.5,
            "warm starts mostly missing: {:.2}",
            perf.warm_hit_rate
        );
        // Warm and cold exact solves agree to LP tolerance per round.
        assert!(
            perf.max_throughput_delta < 1e-3,
            "warm exact diverged from cold by {} Gbps",
            perf.max_throughput_delta
        );
        let json = perf.to_json();
        let back = ScenarioPerf::from_json(&json).expect("digest parses back");
        assert_eq!(json, back.to_json(), "digest must round-trip");
        // A digest always clears its own baseline.
        perf.check_against_baseline(&back).expect("self-comparison passes");
        // And a 10× faster baseline trips the gate.
        let mut fast = back.clone();
        fast.exact_warm.rounds_per_sec = perf.exact_warm.rounds_per_sec * 10.0;
        assert!(perf.check_against_baseline(&fast).is_err());
    }
}
