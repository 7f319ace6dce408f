//! `te_sweep`: pure TE solves, no control loop and no daemon.
//!
//! One client solves a stream of problems on the augmented `scaled_mesh(8)`
//! (376 edges, 9 commodities, every third link with upgrade headroom). The
//! stream is four chunks; per chunk and per objective (five), a *fresh*
//! `TeSolver` solves the base problem (the cold path), then 24
//! capacity-drift problems (±9 %, the warm path), then 8 failure states (two
//! links crawl to 50 G, the last state also cuts a link to 0: same LP
//! pattern, degenerate vertices). The run repeats the stream — a *pass* —
//! until its time is up, and reports what each solve costs in the quietest
//! pass (`workloads::quiet`). `lp` dominates; lowering and
//! extraction are the only other work. An op is one
//! `TeSolver::solve_detailed` call; a solver error or a watchdog timeout is
//! a failed op.
//!
//! Seed findings that shaped the stream (see `benchmark/README.md`,
//! "Candidate next issues"):
//!
//! - a solver that lives through many failure states gets slower and
//!   slower on the drift problems that follow (5× after twenty chunks),
//!   which is why every chunk starts from a fresh solver;
//! - a *cold* min-MLU solve stalls (well past 5 s) as soon as link
//!   capacities are not all scaled alike, and a min-MLU solve of a state
//!   with a cut link times out even warm and leaves the solver cold for
//!   good. So that no op fails, min-MLU sees the crawl states but not the
//!   cut, and its re-check starts from a solver primed on the base problem
//!   instead of a cold one.

use super::{replay_solver, set_end_to_end_of_passes, timed_setups, RunArgs};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rwc::core::{augment, AugmentConfig};
use rwc::lp::{SolverStats, SparseSimplexSolver};
use rwc::obs::{MetricsObserver, Observer};
use rwc::te::problem::EdgeOrigin;
use rwc::te::{
    DemandMatrix, Priority, TeAlgorithm, TeError, TeObjective, TeProblem, TeSolve, TeSolver,
    WarmStartPolicy,
};
use rwc::topology::builders;
use rwc::topology::wan::LinkId;
use rwc::util::rng::Xoshiro256;
use rwc::util::units::{Db, Gbps};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MESH_SCALE: usize = 8;
const DRIFT_PER_CHUNK: usize = 24;
const FAILURES_PER_CHUNK: usize = 8;
/// Chunks in one pass over the stream (about a second of solves).
const CHUNKS_PER_PASS: usize = 4;
/// Every solver is built with this watchdog; its expiry is a failed op.
/// Far above any solve of the stream (the slowest take tens of ms), because
/// the shared box freezes a process for hundreds of ms now and then and a
/// tighter deadline turned such a freeze into a spurious failure.
const SOLVE_TIMEOUT: Duration = Duration::from_secs(2);
/// Every 16th drift problem is solved again, cold, outside the timed
/// region; the headline must agree with the timed (warm) answer.
const RECHECK_EVERY: usize = 16;
const HEADLINE_TOLERANCE: f64 = 1e-6;

/// Which problem of the stream: all kinds are pure functions of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProblemId {
    Base,
    Drift(usize),
    Failure(usize),
}

struct Built {
    base: TeProblem,
    n_links: usize,
    seed: u64,
    objectives: Vec<TeObjective>,
}

fn objectives(base: &TeProblem) -> Vec<TeObjective> {
    // A three-matrix envelope for min-MLU: the base demands, a
    // peak-shifted and a scaled-down variant, so the matrices disagree
    // about where load lands.
    let volumes: Vec<f64> = base.commodities.iter().map(|c| c.demand).collect();
    let traffic_matrices = (0..3)
        .map(|j| {
            volumes
                .iter()
                .enumerate()
                .map(|(i, v)| v * (0.7 + 0.15 * j as f64 + 0.1 * ((i + j) % 3) as f64))
                .collect()
        })
        .collect();
    vec![
        TeObjective::MaxThroughput,
        TeObjective::MinMlu { traffic_matrices },
        TeObjective::MaxConcurrentFlow,
        TeObjective::Unsplittable,
        TeObjective::CapacityReduction,
    ]
}

fn solver(objective: &TeObjective, warm: WarmStartPolicy) -> TeSolver {
    TeSolver::builder()
        .objective(objective.clone())
        .solve_timeout(SOLVE_TIMEOUT)
        .warm_start(warm)
        .build()
        .expect("objective-zoo solver configuration is valid")
}

/// Set-up: topology, demands, augmentation, and one boot solve of the base
/// problem per objective (what a TE controller does before its first round).
fn build(seed: u64) -> Built {
    let mut wan = builders::scaled_mesh(MESH_SCALE, 500.0);
    // Topology and demands are the same for every seed (one cross-replica
    // commodity per replica plus an end-to-end long haul): they set how hard
    // every problem of the stream is, so drawing them from the seed would
    // make runs with different seeds incomparable. The seed picks which
    // links fail, state by state.
    let pick = |name: String| wan.node_by_name(&name).expect("scaled mesh site");
    let mut dm = DemandMatrix::new();
    for i in 0..MESH_SCALE {
        let s = pick(format!("S{i}-{}", 3 + i % 3));
        let t = pick(format!("S{}-4", (i + 1) % MESH_SCALE));
        dm.add(s, t, Gbps(60.0), Priority::Elastic);
    }
    dm.add(
        pick("S0-5".into()),
        pick(format!("S{}-5", MESH_SCALE - 1)),
        Gbps(80.0),
        Priority::Elastic,
    );
    // Every third link has the SNR for upgrade rungs (the 7.5 / 13 dB split
    // of the paper's Fig. 7 example), so fake edges exist.
    let n_links = wan.n_links();
    for l in 0..n_links {
        wan.set_snr(LinkId(l), if l % 3 == 0 { Db(13.0) } else { Db(7.5) });
    }
    let base = augment(&wan, &dm, &AugmentConfig::default(), &[]).problem;
    let objectives = objectives(&base);
    for o in &objectives {
        std::hint::black_box(primed_solver(o, &base));
    }
    Built {
        base,
        n_links,
        seed,
        objectives,
    }
}

/// A warm-start solver that has already solved the base problem.
fn primed_solver(objective: &TeObjective, base: &TeProblem) -> TeSolver {
    let solver = solver(objective, WarmStartPolicy::default());
    solver
        .solve_detailed(base)
        .expect("every objective solves the base problem");
    solver
}

/// The base problem with every edge's capacity mapped through `cap`.
fn with_capacities(base: &TeProblem, cap: impl Fn(&EdgeOrigin, f64) -> f64) -> TeProblem {
    let mut problem = base.clone();
    for (i, (e, origin)) in base.net.edges().iter().zip(&base.origins).enumerate() {
        problem.net.set_capacity(i, cap(origin, e.capacity));
    }
    problem
}

impl Built {
    fn problem(&self, objective: usize, id: ProblemId) -> TeProblem {
        let cuts_allowed = !matches!(self.objectives[objective], TeObjective::MinMlu { .. });
        match id {
            ProblemId::Base => self.base.clone(),
            // ±9 % drift of every real link's capacity, the same sequence
            // for every seed: the median solve of the stream is a drift
            // solve, and it has to be the same solve whatever the seed.
            ProblemId::Drift(d) => with_capacities(&self.base, |origin, c| match origin {
                EdgeOrigin::Real { link, .. } => {
                    c * (0.91 + 0.03 * ((d * (link.0 + 3)) % 7) as f64)
                }
                _ => c,
            }),
            ProblemId::Failure(f) => {
                let mut rng =
                    Xoshiro256::seed_from_u64(self.seed ^ (f as u64 + 1).wrapping_mul(0x9E37_79B9));
                let crawl = [rng.below(self.n_links), rng.below(self.n_links)];
                let cut = (cuts_allowed && f % FAILURES_PER_CHUNK == FAILURES_PER_CHUNK - 1)
                    .then(|| rng.below(self.n_links));
                with_capacities(&self.base, |origin, c| match origin {
                    EdgeOrigin::Real { link, .. } if cut == Some(link.0) => 0.0,
                    EdgeOrigin::Real { link, .. } if crawl.contains(&link.0) => c.min(50.0),
                    _ => c,
                })
            }
        }
    }

    /// The problems of chunk `c`, in solve order, for one objective.
    fn chunk(c: usize) -> impl Iterator<Item = ProblemId> {
        std::iter::once(ProblemId::Base)
            .chain((0..DRIFT_PER_CHUNK).map(move |i| ProblemId::Drift(c * DRIFT_PER_CHUNK + i)))
            .chain(
                (0..FAILURES_PER_CHUNK)
                    .map(move |i| ProblemId::Failure(c * FAILURES_PER_CHUNK + i)),
            )
    }
}

/// The quantity an objective optimises; what two solves must agree on.
fn headline(objective: &TeObjective, solve: &TeSolve) -> f64 {
    match objective {
        TeObjective::MinMlu { .. } => solve.mlu.unwrap_or(f64::NAN),
        TeObjective::MaxConcurrentFlow => solve.lambda.unwrap_or(f64::NAN),
        _ => solve.solution.total,
    }
}

/// `TeSolution::validate` against the problem the objective actually
/// routes: min-MLU carries the envelope volumes and may load links up to
/// `mlu` times their capacity by design.
fn validate(objective: &TeObjective, problem: &TeProblem, solve: &TeSolve) -> Result<(), String> {
    let checked = match (objective, solve.mlu) {
        (TeObjective::MinMlu { traffic_matrices }, Some(mlu)) => {
            let mut p = with_capacities(problem, |_, c| c * mlu.max(1.0));
            for (k, c) in p.commodities.iter_mut().enumerate() {
                c.demand = traffic_matrices
                    .iter()
                    .map(|tm| tm[k])
                    .fold(c.demand, f64::max);
            }
            solve.solution.validate(&p)
        }
        _ => solve.solution.validate(problem),
    };
    checked.map_err(|e| e.to_string())
}

struct Solved {
    objective: usize,
    id: ProblemId,
    result: Result<TeSolve, TeError>,
}

/// One pass over the stream.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// Per op: completion of the previous op (and of its replay) to
    /// completion of this one.
    intervals_s: Vec<f64>,
    solve_ms: Vec<f64>,
    per_objective_ms: Vec<Vec<f64>>,
    solved: Vec<Solved>,
    solver_stats: SolverStats,
}

/// Benchmark-owned engines for replaying each solve stage by stage.
struct Replay {
    warm: Vec<SparseSimplexSolver>,
    lp_shape: (usize, usize, usize),
    lu_nnz: usize,
    eta_chain_max: usize,
}

impl Replay {
    fn new(n: usize) -> Self {
        Self {
            warm: (0..n).map(|_| replay_solver(SOLVE_TIMEOUT)).collect(),
            lp_shape: (0, 0, 0),
            lu_nnz: 0,
            eta_chain_max: 0,
        }
    }

    fn solve(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        solver: &TeSolver,
        oi: usize,
        id: ProblemId,
        problem: &TeProblem,
    ) {
        tracer.begin("replay", op);
        tracer.begin("te.lower", op);
        let lowered = solver
            .formulation()
            .lower(problem)
            .expect("valid objective lowers");
        let lp = lowered.sparse_lp();
        tracer.end();
        if oi == 0 {
            self.lp_shape = (lp.n_rows(), lp.n_vars(), lp.a.nnz());
        }
        if id == ProblemId::Base {
            // Like the timed solver, the warm engine starts every chunk fresh.
            self.warm[oi] = replay_solver(SOLVE_TIMEOUT);
        }
        // A cold min-MLU solve stalls into the watchdog on every drifted
        // problem (module docs); replaying it would only burn the budget.
        if id == ProblemId::Base || !matches!(solver.objective(), TeObjective::MinMlu { .. }) {
            let cold = tracer.time("lp.solve_cold", op, || {
                replay_solver(SOLVE_TIMEOUT).solve_sparse(&lp)
            });
            std::hint::black_box(&cold);
        }
        let outcome = tracer.time("lp.solve_warm", op, || self.warm[oi].solve_sparse(&lp));
        self.lu_nnz = self.warm[oi].lu_nnz();
        self.eta_chain_max = self.eta_chain_max.max(self.warm[oi].eta_chain_len());
        std::hint::black_box(
            tracer
                .time("te.extract", op, || lowered.extract_sparse(outcome))
                .ok(),
        );
        tracer.end();
    }
}

fn add_stats(sum: &mut SolverStats, st: SolverStats) {
    sum.pivots += st.pivots;
    sum.cold_solves += st.cold_solves;
    sum.warm_attempts += st.warm_attempts;
    sum.warm_hits += st.warm_hits;
    sum.watchdog_aborts += st.watchdog_aborts;
}

/// One pass: every chunk, every objective, every problem, in order.
fn pass(
    b: &Built,
    observer: Option<Arc<dyn Observer>>,
    tracer: &mut Tracer,
    mut replay: Option<&mut Replay>,
) -> Pass {
    let mut out = Pass {
        per_objective_ms: vec![Vec::new(); b.objectives.len()],
        ..Default::default()
    };
    let mut op = 0u64;
    let start = Instant::now();
    let mut previous = start;
    tracer.begin("pass", 0);
    for c in 0..CHUNKS_PER_PASS {
        for (oi, objective) in b.objectives.iter().enumerate() {
            let mut solver = solver(objective, WarmStartPolicy::default());
            if let Some(obs) = &observer {
                solver.set_observer(obs.clone());
            }
            for id in Built::chunk(c) {
                op += 1;
                let problem = tracer.time("loadgen.problem", op, || b.problem(oi, id));
                let t0 = Instant::now();
                let result = tracer.time("te.solve", op, || solver.solve_detailed(&problem));
                let done = Instant::now();
                let ms = (done - t0).as_secs_f64() * 1e3;
                out.solve_ms.push(ms);
                out.per_objective_ms[oi].push(ms);
                out.intervals_s.push((done - previous).as_secs_f64());
                out.solved.push(Solved {
                    objective: oi,
                    id,
                    result,
                });
                if let Some(replay) = replay.as_deref_mut() {
                    replay.solve(tracer, op, &solver, oi, id, &problem);
                }
                previous = Instant::now();
            }
            add_stats(
                &mut out.solver_stats,
                solver.warm_stats().unwrap_or_default(),
            );
        }
    }
    tracer.end();
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Output checks on one pass, outside the timed region: every solve
/// succeeded and validates, every pass reaches the headlines of the first,
/// and on the first pass every 16th drift problem is solved again from
/// scratch. Returns the number of failed ops.
fn check_pass(
    b: &Built,
    pass: &Pass,
    first_headlines: &mut Vec<f64>,
    report: &mut Report,
    timeouts: &mut u64,
) -> u64 {
    let is_first = first_headlines.is_empty();
    let mut failed = 0u64;
    for (i, s) in pass.solved.iter().enumerate() {
        let objective = &b.objectives[s.objective];
        let name = objective.algorithm_name();
        let problem = b.problem(s.objective, s.id);
        let solve = match &s.result {
            Ok(solve) => solve,
            Err(e) => {
                failed += 1;
                *timeouts += u64::from(matches!(e, TeError::SolverTimeout { .. }));
                report.fail(format!("{name} {:?}: {e}", s.id));
                if is_first {
                    first_headlines.push(f64::NAN);
                }
                continue;
            }
        };
        let timed = headline(objective, solve);
        if is_first {
            first_headlines.push(timed);
        }
        if let Err(why) = validate(objective, &problem, solve) {
            failed += 1;
            report.fail(format!("{name} {:?}: invalid solution: {why}", s.id));
            continue;
        }
        let again = if !is_first {
            Some(Ok(first_headlines[i]))
        } else if matches!(s.id, ProblemId::Drift(d) if d % RECHECK_EVERY == 0) {
            // Cold, except for min-MLU (module docs): primed on the base
            // problem, so still a pivot path of its own.
            let fresh = match objective {
                TeObjective::MinMlu { .. } => primed_solver(objective, &b.base),
                _ => solver(objective, WarmStartPolicy::AlwaysCold),
            };
            Some(
                fresh
                    .solve_detailed(&problem)
                    .map(|again| headline(objective, &again)),
            )
        } else {
            None
        };
        match again {
            None => {}
            Some(Ok(h)) if (h - timed).abs() <= HEADLINE_TOLERANCE => {}
            Some(Ok(h)) => {
                failed += 1;
                report.fail(format!(
                    "{name} {:?}: headline {timed} but re-solve {h}",
                    s.id
                ));
            }
            Some(Err(e)) => {
                failed += 1;
                report.fail(format!("{name} {:?}: re-solve: {e}", s.id));
            }
        }
    }
    failed
}

pub fn run(args: &RunArgs) -> Report {
    let (built, setup_s) = timed_setups(|| build(args.seed));
    let mut report = Report::default();
    let mut tracer = Tracer::disabled();
    let mut traced = None;
    if args.trace {
        tracer = Tracer::new(Instant::now(), true);
        traced = Some((
            Arc::new(MetricsObserver::new()),
            Replay::new(built.objectives.len()),
        ));
    }
    // A traced run alternates untraced and traced passes over the same problems.
    let mut untraced_intervals = Vec::new();

    let mut intervals = Vec::new();
    let mut solve_ms = Vec::new();
    let mut per_objective_ms = vec![Vec::new(); built.objectives.len()];
    let mut first_headlines = Vec::new();
    let mut first_stats = SolverStats::default();
    let (mut timeouts, mut busy_s) = (0u64, 0.0);
    tracer.begin("workload", 0);
    while busy_s < args.seconds {
        let p = match &mut traced {
            Some((registry, replay)) => {
                let untraced = tracer.time("untraced_pass", 0, || {
                    pass(&built, None, &mut Tracer::disabled(), None)
                });
                busy_s += untraced.wall_s;
                untraced_intervals.push(untraced.intervals_s);
                pass(&built, Some(registry.clone()), &mut tracer, Some(replay))
            }
            None => pass(&built, None, &mut tracer, None),
        };
        busy_s += p.wall_s;
        if intervals.is_empty() {
            first_stats = p.solver_stats;
        }
        report.attempted += p.solved.len() as u64;
        tracer.begin("check", 0);
        report.failed += check_pass(&built, &p, &mut first_headlines, &mut report, &mut timeouts);
        tracer.end();
        intervals.push(p.intervals_s);
        solve_ms.push(p.solve_ms);
        for (all, ms) in per_objective_ms.iter_mut().zip(p.per_objective_ms) {
            all.extend(ms);
        }
    }
    tracer.end();

    set_end_to_end_of_passes(&mut report, &setup_s, &intervals, &solve_ms);
    report.set("te.timeouts", timeouts as f64, report.attempted as usize);
    for (objective, ms) in built.objectives.iter().zip(&per_objective_ms) {
        let metric = match objective {
            TeObjective::MaxThroughput => "te.solve_ms_p50.max-throughput",
            TeObjective::MinMlu { .. } => "te.solve_ms_p50.min-mlu",
            TeObjective::MaxConcurrentFlow => "te.solve_ms_p50.max-concurrent-flow",
            TeObjective::Unsplittable => "te.solve_ms_p50.unsplittable",
            TeObjective::CapacityReduction => "te.solve_ms_p50.capacity-reduction",
        };
        report.set(metric, stats::median(ms), ms.len());
    }
    report.counts = vec![
        ("pass.solves", intervals[0].len() as u64),
        ("pass.lp.pivots", first_stats.pivots),
        ("pass.lp.cold_solves", first_stats.cold_solves),
        ("pass.lp.warm_hits", first_stats.warm_hits),
        ("pass.lp.watchdog_aborts", first_stats.watchdog_aborts),
    ];
    if let Some((registry, replay)) = &traced {
        super::set_trace_overhead(&mut report, &intervals, &untraced_intervals);
        layer_metrics(&mut report, &tracer, registry, replay);
        super::write_trace(&mut report, &tracer, "te_sweep", args.seed);
    }
    report
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    registry: &MetricsObserver,
    replay: &Replay,
) {
    for (metric, span) in [
        ("te.lower_us_p50", "te.lower"),
        ("te.extract_us_p50", "te.extract"),
        ("lp.solve_cold_us_p50", "lp.solve_cold"),
        ("lp.solve_warm_us_p50", "lp.solve_warm"),
    ] {
        let d = tracer.durations_us(span);
        report.set(metric, stats::median(&d), d.len());
    }
    report.set(
        "trace.coverage_share",
        tracer.coverage_of("workload"),
        tracer.spans().len(),
    );
    let reg = registry.registry();
    let count = |name: &str| reg.counter(name);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let solves = tracer.durations_us("te.solve").len();
    for name in [
        "lp.pivots",
        "lp.refactorizations",
        "lp.eta_updates",
        "lp.pricing_scans",
        "lp.cold_solves",
        "lp.watchdog_aborts",
    ] {
        report.set(name, count(name) as f64, solves);
    }
    report.set(
        "lp.pivots_per_solve",
        ratio(count("lp.pivots"), solves as u64),
        solves,
    );
    report.set(
        "lp.warm_hit_rate",
        ratio(count("lp.warm_hits"), count("lp.warm_attempts")),
        count("lp.warm_attempts") as usize,
    );
    report.set("lp.rows", replay.lp_shape.0 as f64, 1);
    report.set("lp.cols", replay.lp_shape.1 as f64, 1);
    report.set("lp.nnz", replay.lp_shape.2 as f64, 1);
    report.set("lp.lu_nnz", replay.lu_nnz as f64, 1);
    report.set("lp.eta_chain_len_max", replay.eta_chain_max as f64, solves);
}
