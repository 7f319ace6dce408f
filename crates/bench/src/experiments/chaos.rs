//! The `repro chaos` experiment: a seeded fault-injection campaign that
//! proves the crash-safe fleet sweep — the `rwc-serve` daemon — holds its
//! promises end to end.
//!
//! Five scenarios run against the same reduced fleet, all deterministic
//! in the campaign seed, and each is judged against a clean daemon run
//! (the byte-identity oracle):
//!
//! 1. **worker panics** — chaos-poisoned links panic their shard on the
//!    first attempt; the supervisor must restart it and the result must
//!    still match the reference bytes.
//! 2. **kill + resume** (two scenarios) — the daemon is killed
//!    (`Daemon::kill`, no final checkpoint) once at least two completions
//!    are checkpointed, then a new daemon resumes from the per-shard
//!    stores under 2 → 2 and 3 → 5 shards; each result must match the
//!    reference bytes, accumulator and metrics both.
//! 3. **corrupted checkpoints** — a real `shard-0.ckpt` is bit-flipped,
//!    truncated, and version-bumped; every mutation must be rejected with
//!    a typed error.
//! 4. **stalled solve** — a TE round's warm solve is made pathologically
//!    slow; the watchdog must abort it into a typed timeout instead of
//!    hanging.
//!
//! Scenario verdicts land in the report (and CSV) as `pass`/`fail`. Every
//! daemon's `serve.*` counters are absorbed into the installed observer,
//! and the campaign counts what only it knows — mutations rejected
//! (`harness.checkpoints_rejected`) and daemons killed
//! (`harness.chaos_kills`) — when they happen; the chaos-smoke CI job
//! asserts on both.

use super::{run_sweep, sweep_config};
use crate::{Report, Scale};
use rwc_harness::{chaos as chaos_mut, checkpoint, ChaosPlan, CheckpointError, ScratchDir};
use rwc_obs::MetricsSnapshot;
use rwc_optics::ModulationTable;
use rwc_serve::{Daemon, ServeCheckpointConfig, ServeConfig, ServeReport};
use rwc_te::TeAlgorithm;
use rwc_te::TeError;
use rwc_te::TeSolver;
use rwc_telemetry::FleetGenerator;
use rwc_util::time::SimDuration;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Campaign seed: every injection (panic links, corruption offsets)
/// derives from it, so `repro chaos` is reproducible.
const CAMPAIGN_SEED: u64 = 0xC4A0;

/// Checkpointed completions before the kill lands.
const KILL_AFTER: u64 = 2;

fn chaos_fleet(scale: Scale) -> FleetGenerator {
    // A reduced fleet regardless of scale: the campaign exercises the
    // runtime, not the telemetry statistics, so 40 links × 30 days is
    // plenty of work while staying CI-fast.
    let mut cfg = scale.fleet();
    cfg.n_fibers = cfg.n_fibers.min(4);
    cfg.wavelengths_per_fiber = cfg.wavelengths_per_fiber.min(10);
    cfg.horizon = SimDuration::from_days(30);
    FleetGenerator::new(cfg)
}

struct Verdict {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// The serialized accumulator and pipeline metrics: the oracle bytes.
type Bytes = (String, String);

fn config(gen: &FleetGenerator, table: &ModulationTable, n_shards: usize) -> ServeConfig {
    let mut cfg = sweep_config(gen, table);
    cfg.n_shards = n_shards;
    cfg
}

/// Folds one daemon life's `serve.*` counters into the installed observer.
fn absorb(serve_metrics: &MetricsSnapshot) {
    if let Some(registry) = super::registry() {
        registry.absorb(serve_metrics);
    }
}

/// One daemon life to completion; returns its report bytes and report.
fn sweep(cfg: ServeConfig) -> Result<(Bytes, ServeReport), String> {
    let report = run_sweep(cfg).map_err(|e| e.to_string())?;
    absorb(&report.serve_metrics);
    let accumulator = serde_json::to_string(&report.accumulator).expect("accumulator serializes");
    Ok(((accumulator, report.pipeline_metrics.to_json()), report))
}

/// Scenario 1: poisoned links panic their shard, it restarts, and the
/// result matches.
fn panic_scenario(gen: &FleetGenerator, table: &ModulationTable, reference: &Bytes) -> Verdict {
    let plan = ChaosPlan::new(CAMPAIGN_SEED).with_panics(2, gen.n_links() as u64);
    let links = plan.panic_chunks.clone();
    let mut cfg = config(gen, table, 3);
    cfg.chaos = Some(plan);
    match sweep(cfg) {
        Ok((bytes, report)) => {
            let pass = bytes == *reference;
            Verdict {
                name: "worker_panics",
                pass,
                detail: format!(
                    "poisoned links {links:?}: {} shard restarts, result {} reference",
                    report.counter("serve.shard_restarts"),
                    if pass { "matches" } else { "DIVERGED from" }
                ),
            }
        }
        Err(e) => Verdict {
            name: "worker_panics",
            pass: false,
            detail: format!("sweep failed outright: {e}"),
        },
    }
}

/// Scenario 2: kill once `KILL_AFTER` completions are checkpointed, then
/// resume under `resume_shards` and compare.
fn kill_resume_scenario(
    gen: &FleetGenerator,
    table: &ModulationTable,
    reference: &Bytes,
    name: &'static str,
    (kill_shards, resume_shards): (usize, usize),
) -> Verdict {
    match kill_then_resume(gen, table, kill_shards, resume_shards) {
        Ok((at_kill, bytes, report)) => {
            let restored = report.links_completed - report.counter("serve.links_completed");
            let pass = bytes == *reference && restored >= KILL_AFTER;
            Verdict {
                name,
                pass,
                detail: format!(
                    "killed with {at_kill} links done ({kill_shards} shards), {restored} \
                     restored, resumed ({resume_shards} shards): {}",
                    if bytes == *reference {
                        "byte-identical to reference"
                    } else {
                        "DIVERGED from reference"
                    }
                ),
            }
        }
        Err(detail) => Verdict { name, pass: false, detail },
    }
}

fn kill_then_resume(
    gen: &FleetGenerator,
    table: &ModulationTable,
    kill_shards: usize,
    resume_shards: usize,
) -> Result<(u64, Bytes, ServeReport), String> {
    let dir = ScratchDir::new("chaos_resume").map_err(|e| format!("scratch dir: {e}"))?;
    let mut cfg = config(gen, table, kill_shards);
    cfg.checkpoint =
        Some(ServeCheckpointConfig { dir: dir.path().to_path_buf(), every_links: 1 });
    let daemon = Daemon::start(cfg.clone()).map_err(|e| format!("daemon start: {e}"))?;
    // Only half the fleet is offered before the kill, so the resumed
    // daemon always has work of its own left.
    let half: Vec<usize> = (0..gen.n_links() / 2).collect();
    daemon.ingest(&half).map_err(|e| format!("ingest: {e}"))?;
    let written = |m: &MetricsSnapshot| m.counters.get("serve.checkpoints_written").copied();
    let start = Instant::now();
    while written(&daemon.serve_metrics()).unwrap_or(0) < KILL_AFTER {
        if start.elapsed() > Duration::from_secs(60) {
            return Err("no checkpoint written before the kill".into());
        }
        std::thread::yield_now();
    }
    let killed = daemon.kill();
    super::observer().incr("harness.chaos_kills", 1);
    absorb(&killed);
    let at_kill = killed.counters.get("serve.links_completed").copied().unwrap_or(0);
    cfg.n_shards = resume_shards;
    let (bytes, report) = sweep(cfg).map_err(|e| format!("resume failed: {e}"))?;
    Ok((at_kill, bytes, report))
}

/// Scenario 3: every corruption of a real `shard-0.ckpt` is rejected.
fn corruption_scenario(gen: &FleetGenerator, table: &ModulationTable) -> Result<Verdict, String> {
    let dir = ScratchDir::new("chaos_corrupt").map_err(|e| format!("scratch dir: {e}"))?;
    let mut cfg = config(gen, table, 2);
    // Drain writes the only checkpoints.
    cfg.checkpoint = Some(ServeCheckpointConfig {
        dir: dir.path().to_path_buf(),
        every_links: gen.n_links() as u64,
    });
    sweep(cfg).map_err(|e| format!("seed sweep failed: {e}"))?;
    let path = dir.path().join("shard-0.ckpt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
    checkpoint::load(&path).map_err(|e| format!("pristine checkpoint rejected: {e}"))?;

    let mut rejected = 0usize;
    let mut detail = String::new();
    for (label, mutated) in [
        ("bit_flip", chaos_mut::corrupt_bit_flip(&text, CAMPAIGN_SEED)),
        ("truncation", chaos_mut::corrupt_truncate(&text, CAMPAIGN_SEED)),
        ("version_bump", chaos_mut::corrupt_version_bump(&text)),
    ] {
        std::fs::write(&path, mutated).map_err(|e| format!("write {label}: {e}"))?;
        match checkpoint::load(&path) {
            Err(e) => {
                rejected += 1;
                super::observer().incr("harness.checkpoints_rejected", 1);
                let _ = write!(detail, "{label}: rejected ({}); ", error_class(&e));
            }
            Ok(_) => {
                let _ = write!(detail, "{label}: ACCEPTED (bug!); ");
            }
        }
    }
    Ok(Verdict {
        name: "corrupted_checkpoints",
        pass: rejected == 3,
        detail: detail.trim_end_matches("; ").to_string(),
    })
}

fn error_class(e: &CheckpointError) -> &'static str {
    match e {
        CheckpointError::Io(_) => "io",
        CheckpointError::Corrupt(_) => "checksum/parse",
        CheckpointError::VersionMismatch { .. } => "version",
        CheckpointError::ConfigMismatch(_) => "fingerprint",
    }
}

/// Scenario 4: a forced-slow warm solve is aborted by the watchdog into a
/// typed timeout, and recovers once the chaos delay is lifted.
fn watchdog_scenario() -> Verdict {
    use rwc_te::demand::{DemandMatrix, Priority};
    use rwc_te::problem::TeProblem;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    let wan = builders::fig7_example();
    let a = wan.node_by_name("A").expect("fig7 node");
    let b = wan.node_by_name("B").expect("fig7 node");
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(300.0), Priority::Elastic);
    let problem = TeProblem::from_wan(&wan, &dm);

    let te = TeSolver::builder()
        .observer(super::observer())
        .solve_timeout(Duration::from_millis(1))
        .build()
        .expect("default TE solver");
    te.set_pivot_delay(Some(Duration::from_millis(10)));
    let aborted = matches!(te.try_solve(&problem), Err(TeError::SolverTimeout { .. }));
    // Lift the chaos delay: the very same solver must recover.
    te.set_pivot_delay(None);
    te.set_solve_timeout(None);
    let recovered = te.try_solve(&problem).is_ok();
    Verdict {
        name: "stalled_solve_watchdog",
        pass: aborted && recovered,
        detail: format!(
            "forced-slow solve {}; after disarming, solver {}",
            if aborted { "aborted as SolverTimeout" } else { "did NOT abort (bug!)" },
            if recovered { "recovered" } else { "did NOT recover (bug!)" }
        ),
    }
}

/// Runs the chaos campaign.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("chaos", "chaos harness: crash-safe sweep runtime under fault injection");
    let gen = chaos_fleet(scale);
    let table = ModulationTable::paper_default();
    report.line(format!(
        "fleet: {} links, seed {:#x}, campaign seed {CAMPAIGN_SEED:#x}",
        gen.n_links(),
        gen.config().seed
    ));

    let (reference, _) =
        sweep(config(&gen, &table, 2)).expect("reference sweep must succeed");

    let mut verdicts = vec![panic_scenario(&gen, &table, &reference)];
    for (name, shards) in
        [("kill_resume_same_threads", (2, 2)), ("kill_resume_cross_threads", (3, 5))]
    {
        verdicts.push(kill_resume_scenario(&gen, &table, &reference, name, shards));
    }
    verdicts.push(corruption_scenario(&gen, &table).unwrap_or_else(|detail| Verdict {
        name: "corrupted_checkpoints",
        pass: false,
        detail,
    }));
    verdicts.push(watchdog_scenario());

    let mut csv = String::from("scenario,pass\n");
    let mut failed = 0usize;
    for v in &verdicts {
        report.line(format!("{:<26} {}  — {}", v.name, if v.pass { "pass" } else { "FAIL" }, v.detail));
        let _ = writeln!(csv, "{},{}", v.name, v.pass);
        if !v.pass {
            failed += 1;
        }
    }
    report.line(if failed == 0 {
        format!("chaos campaign: all {} scenarios pass", verdicts.len())
    } else {
        format!("chaos campaign: {failed}/{} scenarios FAILED", verdicts.len())
    });
    report.csv("chaos_verdicts.csv", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_campaign_passes_clean() {
        let r = run(Scale::Quick);
        let rendered = r.render();
        assert!(rendered.contains("all 5 scenarios pass"), "report:\n{rendered}");
        assert!(!rendered.contains("FAIL"), "report:\n{rendered}");
    }
}
