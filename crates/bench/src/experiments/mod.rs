//! One module per paper artifact. Every `run(scale)` returns a
//! [`crate::Report`] carrying the printed series and CSV files.

pub mod ablation;
pub mod avail;
pub mod chaos;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod objectives;
pub mod scenario;
pub mod srlg;
pub mod thm1;
pub mod tput;

use crate::{Report, Scale};
use rwc_harness::{CheckpointConfig, ExecutorConfig, SweepCheckpoint, SweepOutcome, SweepSpec};
use rwc_obs::{MetricsObserver, MetricsSnapshot, Observer};
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetAccumulator, FleetGenerator};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Process-wide observability sink for experiment runs: `repro
/// --obs-json` installs a [`MetricsObserver`] before dispatching and every
/// experiment routes the pipelines it builds through [`observer`]. Unset
/// (the default), the shared [`rwc_obs::noop`] observer is handed out and
/// the hot paths stay branchless no-ops.
static OBSERVER: OnceLock<Arc<MetricsObserver>> = OnceLock::new();

/// Installs the process-wide metrics observer. First call wins (the
/// registry must outlive every experiment); later calls return `false`
/// and change nothing.
pub fn set_observer(obs: Arc<MetricsObserver>) -> bool {
    OBSERVER.set(obs).is_ok()
}

/// The observer experiments should hand to the pipelines they build —
/// the installed [`MetricsObserver`], or the shared noop.
pub fn observer() -> Arc<dyn Observer> {
    match OBSERVER.get() {
        Some(obs) => Arc::clone(obs) as Arc<dyn Observer>,
        None => rwc_obs::noop(),
    }
}

/// The installed observer's backing registry — the merge target for the
/// fleet sweep's per-chunk metrics; `None` when observability is off.
pub fn registry() -> Option<&'static rwc_obs::MetricsRegistry> {
    OBSERVER.get().map(|obs| obs.registry())
}

/// Snapshot of the installed observer's metrics; `None` when observability
/// is off.
pub fn metrics() -> Option<MetricsSnapshot> {
    OBSERVER.get().map(|obs| obs.snapshot())
}

/// Checkpoints are written after this many fresh chunk completions. The
/// write happens on the collector thread while workers keep pulling
/// chunks, so the interval trades recovery granularity against checkpoint
/// file churn, not sweep throughput.
pub const CHECKPOINT_EVERY_CHUNKS: u64 = 4;

/// Crash-safety wiring for fleet sweeps, installed once per process by
/// `repro --checkpoint/--resume` (same first-call-wins pattern as the
/// observer above).
#[derive(Debug)]
pub struct CheckpointState {
    /// Where interval checkpoints are written (atomically, temp + rename).
    pub path: PathBuf,
    /// A loaded, envelope-verified checkpoint to restore; `None` starts
    /// the sweep fresh while still writing checkpoints to `path`.
    pub resume: Option<SweepCheckpoint>,
}

static CHECKPOINT: OnceLock<CheckpointState> = OnceLock::new();

/// Installs the process-wide checkpoint plan. First call wins; later
/// calls return `false` and change nothing.
pub fn set_checkpoint(state: CheckpointState) -> bool {
    CHECKPOINT.set(state).is_ok()
}

/// The installed checkpoint plan, if any.
pub fn checkpoint() -> Option<&'static CheckpointState> {
    CHECKPOINT.get()
}

/// The crash-safe fleet sweep every fleet experiment routes through: the
/// process observer and registry, the installed checkpoint plan, and the
/// harness panic-retry policy, all wired into one call. A chunk that
/// panics is retried with jittered backoff; only a chunk that exhausts
/// its budget aborts the experiment.
pub(crate) fn fleet_sweep(gen: &FleetGenerator, table: &ModulationTable) -> FleetAccumulator {
    let state = checkpoint();
    let cfg = ExecutorConfig {
        checkpoint: state.map(|s| CheckpointConfig {
            path: s.path.clone(),
            every_chunks: CHECKPOINT_EVERY_CHUNKS,
        }),
        observer: observer(),
        ..ExecutorConfig::default()
    };
    let resume = state.and_then(|s| s.resume.as_ref());
    let spec = SweepSpec {
        gen,
        table,
        n_threads: crate::parallel::default_workers(),
        collect_metrics: registry().is_some(),
    };
    match rwc_harness::run_fleet_sweep(&spec, &cfg, resume) {
        Ok(SweepOutcome::Completed(result)) => {
            // Counter and histogram-bucket addition commute, so absorbing
            // the chunk-ordered merge equals one sequential kernel's
            // metrics at any thread count.
            if let (Some(registry), Some(metrics)) = (registry(), &result.metrics) {
                registry.absorb(metrics);
            }
            result.accumulator
        }
        Ok(SweepOutcome::Killed { .. }) => unreachable!("no chaos plan configured"),
        Err(err) => panic!("fleet sweep failed: {err}"),
    }
}

/// All experiment ids, in paper order.
pub const ALL: [&str; 17] = [
    "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6b", "fig7", "fig8", "thm1",
    "tput", "avail", "scenario", "faults", "srlg", "objectives",
];

/// Runs one experiment by id (plus the "ablation" extra).
pub fn run(id: &str, scale: Scale) -> Option<Report> {
    Some(match id {
        "fig1" => fig1::run(scale),
        "fig2a" => fig2::run_2a(scale),
        "fig2b" => fig2::run_2b(scale),
        "fig3a" => fig3::run_3a(scale),
        "fig3b" => fig3::run_3b(scale),
        "fig4" | "fig4a" | "fig4b" | "fig4c" => fig4::run(scale),
        "fig5" => fig5::run(scale),
        "fig6b" | "fig6" => fig6::run(scale),
        "fig7" => fig7::run(scale),
        "fig8" => fig8::run(scale),
        "thm1" => thm1::run(scale),
        "tput" => tput::run(scale),
        "avail" => avail::run(scale),
        "scenario" => scenario::run(scale),
        "faults" => faults::run(scale),
        "srlg" => srlg::run(scale),
        "objectives" => objectives::run(scale),
        "ablation" => ablation::run(scale),
        "chaos" => chaos::run(scale),
        _ => return None,
    })
}
