//! `control_calm` / `control_storm`: the closed control loop.
//!
//! One client drives `DynamicCapacityNetwork` on `scaled_mesh(6)` (105
//! links): every 15-minute tick hands the links' SNR readings to `ingest`,
//! every fourth tick also runs a default `TeSolver` round under diurnal
//! demand scaling. The two workloads share every line of the loop and
//! differ only in the fleet profile, so they use the same layers
//! differently: quiet telemetry keeps ladders still (static-memo hits,
//! in-place patches, warm LP starts), a hostile fleet keeps them moving
//! (cold solves, suffix rebuilds, update plans, staged BVT commits). An op is one TE round, timed from the moment the tick's
//! readings are handed to `ingest` until `te_round` returns with the plan
//! applied. The run repeats the same 500 rounds — a *pass*, from a fresh
//! network and solver — until its time is up, and reports what each round
//! costs in the quietest pass (`workloads::quiet`).

use super::{replay_solver, set_end_to_end_of_passes, timed_setups, RunArgs};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rwc::core::network::TeRound;
use rwc::core::{
    augment, translate, AugmentConfig, DynamicCapacityNetwork, IncrementalAugmenter, ScenarioConfig,
};
use rwc::lp::{SolverStats, SparseSimplexSolver};
use rwc::obs::MetricsObserver;
use rwc::optics::bvt::ReconfigProcedure;
use rwc::te::updates::{try_plan_capacity_changes, CapacityChange};
use rwc::te::{DemandMatrix, Priority, TeAlgorithm, TeFormulation, TeSolution, TeSolver};
use rwc::telemetry::{FleetConfig, FleetGenerator};
use rwc::topology::builders;
use rwc::topology::wan::{LinkId, WanTopology};
use rwc::util::time::{SimDuration, SimTime};
use rwc::util::units::{Db, Gbps};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mesh replicas: `15·6 + 3·5 = 105` links.
const MESH_SCALE: usize = 6;
/// A TE round every fourth telemetry tick (hourly), as in `Scenario`.
const TE_EVERY: usize = 4;
/// Rounds in one pass: about a second and a half of wall time, 21 days of
/// simulated time.
const PASS_ROUNDS: usize = 500;
/// Telemetry horizon: covers one pass.
const HORIZON_DAYS: u64 = 21;
/// Watchdog on the replay's own LP solves.
const REPLAY_SOLVE_TIMEOUT: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    Calm,
    Storm,
}

pub fn run_calm(args: &RunArgs) -> Report {
    run(Profile::Calm, args)
}

pub fn run_storm(args: &RunArgs) -> Report {
    run(Profile::Storm, args)
}

fn fleet_config(profile: Profile, seed: u64) -> FleetConfig {
    let base = FleetConfig {
        seed,
        n_fibers: 15,
        wavelengths_per_fiber: 7,
        horizon: SimDuration::from_days(HORIZON_DAYS),
        ..FleetConfig::paper()
    };
    match profile {
        // High baseline, low jitter, no events: readings sit well above
        // the rung thresholds, so once TE has made its first upgrades the
        // ladders keep their shape and every seed does the same work.
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

/// Saturating demands (160–180 G against 100 G links): one cross-replica
/// commodity per replica plus an end-to-end long haul. They are the same
/// for every seed: endpoints and volumes decide how many pivots every
/// round's LP takes (±10 % between draws), and runs with different seeds
/// must stay comparable. The seed drives the telemetry.
fn demands(wan: &WanTopology) -> DemandMatrix {
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

/// Everything a pass needs, built from the seed alone.
struct Inputs {
    wan: WanTopology,
    demands: DemandMatrix,
    /// Per-link SNR samples, one per tick.
    traces: Vec<Vec<f64>>,
    tick: SimDuration,
    wiring: ScenarioConfig,
}

impl Inputs {
    /// A network and solver that have seen nothing yet.
    fn fresh(&self) -> (DynamicCapacityNetwork, TeSolver) {
        let net = DynamicCapacityNetwork::new(
            self.wan.clone(),
            self.wiring.augment.clone(),
            self.wiring.controller.clone(),
            self.wiring.seed,
        );
        (net, TeSolver::default())
    }
}

/// Set-up: topology, demands, telemetry, and the first network and solver.
fn build(profile: Profile, seed: u64) -> Inputs {
    let wan = builders::scaled_mesh(MESH_SCALE, 500.0);
    let demands = demands(&wan);
    let fleet = fleet_config(profile, seed);
    let tick = fleet.tick;
    let gen = FleetGenerator::new(fleet);
    let traces: Vec<Vec<f64>> = (0..wan.n_links())
        .map(|l| gen.link(l).trace.values().to_vec())
        .collect();
    assert!(
        traces[0].len() >= PASS_ROUNDS * TE_EVERY,
        "telemetry shorter than a pass"
    );
    // The default scenario wiring: TE owns upgrades, the controller only
    // walks and crawls.
    let inputs = Inputs {
        wan,
        demands,
        traces,
        tick,
        wiring: ScenarioConfig::default(),
    };
    std::hint::black_box(inputs.fresh());
    inputs
}

/// Tallies of what the rounds did; all deterministic in the seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tallies {
    rounds: u64,
    upgrades_committed: u64,
    changes_failed: u64,
    changes_rolled_back: u64,
    update_plans: u64,
    bad_rounds: u64,
}

impl Tallies {
    fn add(&mut self, other: &Tallies) {
        self.rounds += other.rounds;
        self.upgrades_committed += other.upgrades_committed;
        self.changes_failed += other.changes_failed;
        self.changes_rolled_back += other.changes_rolled_back;
        self.update_plans += other.update_plans;
        self.bad_rounds += other.bad_rounds;
    }
}

/// One pass over the rounds.
#[derive(Debug, Default)]
struct Pass {
    tallies: Tallies,
    wall_s: f64,
    /// Per round: completion of the previous round (and of its replay) to
    /// completion of this one, so sweeps and reading construction between
    /// rounds count and replay does not.
    intervals_s: Vec<f64>,
    decision_ms: Vec<f64>,
    lp: SolverStats,
    augment: rwc::core::AugmentStats,
    first_bad_round: Option<String>,
    /// The network as the pass left it (`decide` micro-benchmark).
    net: Option<DynamicCapacityNetwork>,
}

/// A round is good when the solver answered, the dynamic network carries
/// at least what the static one would, and an update plan exists exactly
/// when the round tried to change a link.
fn check_round(round: &TeRound) -> Result<(), String> {
    if round.te_fallback {
        return Err("te_fallback".into());
    }
    if round.throughput < round.static_throughput - 1e-6 {
        return Err(format!(
            "throughput {} below static {}",
            round.throughput, round.static_throughput
        ));
    }
    let attempted = round.translation.upgrades.len() + round.failed_changes;
    if round.update_plan.is_some() != (attempted > 0) {
        return Err(format!(
            "update plan {} with {attempted} attempted changes",
            if round.update_plan.is_some() {
                "present"
            } else {
                "missing"
            }
        ));
    }
    Ok(())
}

/// One pass of the loop from a fresh network and solver; `replay` (traced
/// runs only) re-runs each round's inputs through the layers' public
/// functions under spans.
fn pass(
    inputs: &Inputs,
    registry: Option<&Arc<MetricsObserver>>,
    tracer: &mut Tracer,
    mut replay: Option<&mut Replay>,
) -> Pass {
    let (mut net, mut solver) = inputs.fresh();
    if let Some(registry) = registry {
        net.set_observer(registry.clone());
        solver.set_observer(registry.clone());
    }
    let n_links = inputs.wan.n_links();
    let day = SimDuration::from_days(1).as_secs_f64();
    let mut out = Pass::default();
    let mut readings: Vec<(LinkId, Option<Db>)> = Vec::with_capacity(n_links);
    let start = Instant::now();
    let mut previous = start;
    tracer.begin("pass", 0);
    for i in 0..PASS_ROUNDS * TE_EVERY {
        let is_round = i % TE_EVERY == 0;
        let op = i as u64;
        let now = SimTime::EPOCH + inputs.tick * i as u64;
        tracer.begin("loadgen.readings", op);
        readings.clear();
        readings.extend(
            inputs
                .traces
                .iter()
                .enumerate()
                .map(|(l, t)| (LinkId(l), Some(Db(t[i])))),
        );
        // Diurnal demand scaling exactly as `Scenario::run` computes it:
        // the phase comes from the time since the epoch, so the same hour of
        // two days yields the same demand bits — and a static-memo hit —
        // only about half the time. (Computing it from the tick of the day
        // makes 96 % of the rounds hit, after which the solver sees nothing
        // but the augmented LPs and its warm path degenerates: 195 k pivots
        // per pass instead of 53 k, 33 rounds/s instead of 500. See the
        // README's candidate issues.)
        let scaled = is_round.then(|| {
            let phase = std::f64::consts::TAU * now.since_epoch().as_secs_f64() / day;
            inputs
                .demands
                .scaled((1.0 + inputs.wiring.demand_diurnal_amp * phase.sin()).max(0.0))
        });
        tracer.end();

        let decision_start = Instant::now();
        tracer.time("core.sweep", op, || net.ingest(&readings, now));
        let Some(scaled) = scaled else { continue };
        let before = replay
            .as_ref()
            .map(|_| tracer.time("trace.snapshot", op, || net.wan().clone()));
        let round = tracer.time("core.te_round", op, || net.te_round(&scaled, &solver, now));
        let done = Instant::now();
        // Static baseline + augmentation + solve, as the round timed it.
        tracer.nest_in_last("core.te_round.solve", op, round.solve_time);
        out.decision_ms
            .push((done - decision_start).as_secs_f64() * 1e3);
        out.intervals_s.push((done - previous).as_secs_f64());

        let t = &mut out.tallies;
        t.rounds += 1;
        t.upgrades_committed += round.translation.upgrades.len() as u64;
        t.changes_failed += round.failed_changes as u64;
        t.changes_rolled_back += round.rolled_back as u64;
        t.update_plans += u64::from(round.update_plan.is_some());
        if let Err(why) = check_round(&round) {
            t.bad_rounds += 1;
            out.first_bad_round
                .get_or_insert(format!("round {} (tick {i}): {why}", t.rounds));
        }
        if let (Some(replay), Some(before)) = (replay.as_deref_mut(), before) {
            replay.round(tracer, op, &before, &scaled, &round);
        }
        previous = Instant::now();
    }
    tracer.end();
    out.wall_s = start.elapsed().as_secs_f64();
    out.lp = solver.warm_stats().unwrap_or_default();
    out.augment = net.augment_stats();
    out.net = Some(net);
    out
}

/// Benchmark-owned state for replaying a round's inputs through each
/// layer's public entry point, one span per stage.
struct Replay {
    augment: AugmentConfig,
    formulation: TeFormulation,
    incremental: IncrementalAugmenter,
    warm: SparseSimplexSolver,
    plan_solver: TeSolver,
    hitless: bool,
    /// Mirrors of the network's private per-round bookkeeping.
    link_traffic: Vec<f64>,
    previous_flows: Option<Vec<f64>>,
    shape: LpShape,
}

/// Size of the round's LP and of the warm replay engine's factorisation.
#[derive(Debug, Default, Clone, Copy)]
struct LpShape {
    rows: usize,
    cols: usize,
    nnz: usize,
    lu_nnz: usize,
    eta_chain_max: usize,
}

impl Replay {
    /// Replay state for one pass: it mirrors the network's own per-round
    /// memory, so it starts over whenever the network does.
    fn new(b: &Inputs, shape: LpShape) -> Self {
        Self {
            augment: b.wiring.augment.clone(),
            formulation: TeFormulation::default(),
            incremental: IncrementalAugmenter::new(),
            warm: replay_solver(REPLAY_SOLVE_TIMEOUT),
            plan_solver: TeSolver::default(),
            hitless: matches!(b.wiring.controller.procedure, ReconfigProcedure::Efficient),
            link_traffic: vec![0.0; b.wan.n_links()],
            previous_flows: None,
            shape,
        }
    }

    fn round(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        wan: &WanTopology,
        demands: &DemandMatrix,
        round: &TeRound,
    ) {
        tracer.begin("replay", op);
        let aug = tracer.time("core.augment", op, || {
            augment(wan, demands, &self.augment, &self.link_traffic)
        });
        tracer.time("core.augment_incremental", op, || {
            let patched = self
                .incremental
                .augment(wan, demands, &self.augment, &self.link_traffic);
            std::hint::black_box(patched.problem.net.n_edges());
        });
        tracer.begin("te.lower", op);
        let lowered = self
            .formulation
            .lower(&aug.problem)
            .expect("default formulation lowers");
        let lp = lowered.sparse_lp();
        tracer.end();
        let cold = tracer.time("lp.solve_cold", op, || {
            replay_solver(REPLAY_SOLVE_TIMEOUT).solve_sparse(&lp)
        });
        std::hint::black_box(&cold);
        let outcome = tracer.time("lp.solve_warm", op, || self.warm.solve_sparse(&lp));
        self.shape = LpShape {
            rows: lp.n_rows(),
            cols: lp.n_vars(),
            nnz: lp.a.nnz(),
            lu_nnz: self.warm.lu_nnz(),
            eta_chain_max: self.shape.eta_chain_max.max(self.warm.eta_chain_len()),
        };
        let solve = tracer.time("te.extract", op, || lowered.extract_sparse(outcome));
        if let Ok(solve) = solve {
            let translation = tracer.time("core.translate", op, || {
                translate(&aug, wan, &solve.solution)
            });
            if let Ok(translation) = translation {
                if !translation.upgrades.is_empty() {
                    let changes: Vec<CapacityChange> = translation
                        .upgrades
                        .iter()
                        .map(|&(link, to)| CapacityChange { link, to })
                        .collect();
                    let current = self.previous_flows.as_ref().map(|flows| TeSolution {
                        routed: vec![],
                        edge_flows: flows.clone(),
                        total: 0.0,
                    });
                    let plan = tracer.time("te.plan_updates", op, || {
                        try_plan_capacity_changes(
                            wan,
                            demands,
                            &changes,
                            &self.plan_solver,
                            self.hitless,
                            current.as_ref(),
                        )
                    });
                    std::hint::black_box(plan.ok());
                }
            }
        }
        // What the network remembers for the next round.
        let flows = &round.translation.real_edge_flows;
        for (l, traffic) in self.link_traffic.iter_mut().enumerate() {
            *traffic = flows[2 * l].max(flows[2 * l + 1]);
        }
        self.previous_flows = Some(flows.clone());
        tracer.end();
    }
}

fn run(profile: Profile, args: &RunArgs) -> Report {
    let (inputs, setup_s) = timed_setups(|| build(profile, args.seed));
    let mut report = Report::default();
    let mut tracer = Tracer::disabled();
    let mut traced = None;
    if args.trace {
        tracer = Tracer::new(Instant::now(), true);
        traced = Some(Arc::new(MetricsObserver::new()));
    }
    // A traced run alternates untraced and traced passes over the same ticks.
    let mut untraced_intervals = Vec::new();

    let mut intervals = Vec::new();
    let mut decision_ms = Vec::new();
    let mut first: Option<Pass> = None;
    let mut totals = Tallies::default();
    let mut shape = LpShape::default();
    let mut last_net = None;
    let mut busy_s = 0.0;
    tracer.begin("workload", 0);
    while busy_s < args.seconds {
        let mut p = match &traced {
            Some(registry) => {
                let untraced = tracer.time("untraced_pass", 0, || {
                    pass(&inputs, None, &mut Tracer::disabled(), None)
                });
                busy_s += untraced.wall_s;
                untraced_intervals.push(untraced.intervals_s);
                let mut replay = Replay::new(&inputs, shape);
                let p = pass(&inputs, Some(registry), &mut tracer, Some(&mut replay));
                shape = replay.shape;
                p
            }
            None => pass(&inputs, None, &mut tracer, None),
        };
        busy_s += p.wall_s;
        totals.add(&p.tallies);
        if let Some(why) = &p.first_bad_round {
            report.fail(format!(
                "{} bad rounds in a pass, first: {why}",
                p.tallies.bad_rounds
            ));
        }
        // Every pass does the same rounds: anything else is a
        // non-determinism the counts below would hide.
        if let Some(first) = &first {
            if (first.tallies, first.lp) != (p.tallies, p.lp) {
                report.fail(format!(
                    "pass diverged: {:?} {:?} after {:?} {:?}",
                    p.tallies, p.lp, first.tallies, first.lp
                ));
            }
        }
        intervals.push(std::mem::take(&mut p.intervals_s));
        decision_ms.push(std::mem::take(&mut p.decision_ms));
        last_net = p.net.take();
        first.get_or_insert(p);
    }
    tracer.end();
    let first = first.expect("at least one pass ran");

    report.attempted = totals.rounds;
    report.failed = totals.bad_rounds;
    set_end_to_end_of_passes(&mut report, &setup_s, &intervals, &decision_ms);
    let rounds = totals.rounds as usize;
    report.set(
        "core.upgrades_committed",
        totals.upgrades_committed as f64,
        rounds,
    );
    report.set("core.changes_failed", totals.changes_failed as f64, rounds);
    report.set(
        "core.changes_rolled_back",
        totals.changes_rolled_back as f64,
        rounds,
    );
    report.set("core.update_plans", totals.update_plans as f64, rounds);
    report.counts = vec![
        ("pass.rounds", first.tallies.rounds),
        ("pass.upgrades_committed", first.tallies.upgrades_committed),
        ("pass.update_plans", first.tallies.update_plans),
        ("pass.changes_failed", first.tallies.changes_failed),
        ("pass.lp.pivots", first.lp.pivots),
        ("pass.lp.cold_solves", first.lp.cold_solves),
        ("pass.lp.warm_hits", first.lp.warm_hits),
        (
            "pass.augment.in_place_patches",
            first.augment.in_place_patches,
        ),
        (
            "pass.augment.suffix_rebuilds",
            first.augment.suffix_rebuilds,
        ),
    ];
    if let Some(registry) = &traced {
        super::set_trace_overhead(&mut report, &intervals, &untraced_intervals);
        let net = last_net.expect("the last pass hands its network back");
        layer_metrics(&mut report, &tracer, registry, shape, &net);
        super::write_trace(&mut report, &tracer, profile_name(profile), args.seed);
    }
    report
}

fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Calm => "control_calm",
        Profile::Storm => "control_storm",
    }
}

/// Per-layer numbers of a traced run: stage timings from the spans,
/// counters from the registry the observer hooks fed.
fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    registry: &MetricsObserver,
    shape: LpShape,
    net: &DynamicCapacityNetwork,
) {
    for (metric, span, scale) in [
        ("core.sweep_us_p50", "core.sweep", 1.0),
        ("core.te_round_ms_p50", "core.te_round", 1e-3),
        ("core.augment_us_p50", "core.augment", 1.0),
        (
            "core.augment_incremental_us_p50",
            "core.augment_incremental",
            1.0,
        ),
        ("core.translate_us_p50", "core.translate", 1.0),
        ("te.lower_us_p50", "te.lower", 1.0),
        ("te.extract_us_p50", "te.extract", 1.0),
        ("te.plan_updates_us_p50", "te.plan_updates", 1.0),
        ("lp.solve_cold_us_p50", "lp.solve_cold", 1.0),
        ("lp.solve_warm_us_p50", "lp.solve_warm", 1.0),
    ] {
        let d = tracer.durations_us(span);
        report.set(metric, stats::median(&d) * scale, d.len());
    }

    // What `te_round` spends on neither solving (its own `solve_time`:
    // static baseline, augmentation, LP) nor the translation and update
    // planning replayed above: plan application, the BVT state machines,
    // bookkeeping. Per round, then the median.
    let solve = tracer.per_op_ns("core.te_round.solve");
    let staged = [
        tracer.per_op_ns("core.translate"),
        tracer.per_op_ns("te.plan_updates"),
    ];
    let other: Vec<f64> = tracer
        .per_op_ns("core.te_round")
        .iter()
        .map(|(op, &round_ns)| {
            let accounted: u64 = solve.get(op).copied().unwrap_or(0)
                + staged.iter().filter_map(|m| m.get(op)).sum::<u64>();
            1.0 - accounted as f64 / round_ns.max(1) as f64
        })
        .collect();
    let rounds = other.len();
    report.set("core.round_other_share", stats::median(&other), rounds);
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
    let (hits, misses) = (count("te.static_memo.hits"), count("te.static_memo.misses"));
    report.set(
        "te.static_memo_hit_rate",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
    );
    for name in [
        "te.augment.in_place_patches",
        "te.augment.suffix_rebuilds",
        "te.augment.full_rebuilds",
    ] {
        report.set(name, count(name) as f64, rounds);
    }
    let solves = count("lp.cold_solves") + count("lp.warm_hits");
    for name in [
        "lp.pivots",
        "lp.refactorizations",
        "lp.eta_updates",
        "lp.pricing_scans",
        "lp.cold_solves",
        "lp.watchdog_aborts",
    ] {
        report.set(name, count(name) as f64, solves as usize);
    }
    report.set(
        "lp.pivots_per_solve",
        ratio(count("lp.pivots"), solves),
        solves as usize,
    );
    report.set(
        "lp.warm_hit_rate",
        ratio(count("lp.warm_hits"), count("lp.warm_attempts")),
        count("lp.warm_attempts") as usize,
    );
    report.set("te.timeouts", count("te.fallback_rounds") as f64, rounds);
    report.set("optics.bvt_commits", count("bvt.commits") as f64, rounds);
    report.set("optics.bvt_aborts", count("bvt.aborts") as f64, rounds);
    report.set("lp.rows", shape.rows as f64, 1);
    report.set("lp.cols", shape.cols as f64, 1);
    report.set("lp.nnz", shape.nnz as f64, 1);
    report.set("lp.lu_nnz", shape.lu_nnz as f64, 1);
    report.set("lp.eta_chain_len_max", shape.eta_chain_max as f64, rounds);

    // `Controller::decide` on its own: the pure run/walk/crawl decision.
    let controller = net.controller();
    let wan = net.wan();
    const PASSES: usize = 2_000;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for (id, link) in wan.links() {
            std::hint::black_box(controller.decide(id, link.modulation, link.snr, SimTime::EPOCH));
        }
    }
    let calls = PASSES * wan.n_links();
    report.set(
        "core.decide_ns",
        t0.elapsed().as_nanos() as f64 / calls as f64,
        calls,
    );
}
