//! One module per paper artifact. Every `run(scale)` returns a
//! [`crate::Report`] carrying the printed series and CSV files.

pub mod ablation;
pub mod avail;
pub mod chaos;
pub mod faults;
pub mod fig1;
pub(crate) mod fig2;
pub(crate) mod fig3;
pub mod fig4;
pub mod fig5;
pub(crate) mod fig6;
pub mod fig7;
pub mod fig8;
pub mod objectives;
pub mod scenario;
pub mod srlg;
pub mod thm1;
pub mod tput;

use crate::{Report, Scale};
use rwc_obs::{MetricsObserver, MetricsSnapshot, Observer};
use rwc_optics::ModulationTable;
use rwc_serve::{Daemon, ServeCheckpointConfig, ServeConfig, ServeError, ServeReport};
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
/// fleet sweep's per-link metrics; `None` when observability is off.
pub fn registry() -> Option<&'static rwc_obs::MetricsRegistry> {
    OBSERVER.get().map(|obs| obs.registry())
}

/// Snapshot of the installed observer's metrics; `None` when observability
/// is off.
pub fn metrics() -> Option<MetricsSnapshot> {
    OBSERVER.get().map(|obs| obs.snapshot())
}

/// Where `repro --checkpoint/--resume` put the daemon's per-shard
/// checkpoint stores (`shard-<i>.ckpt` + `.prev`); installed once per
/// process, first call wins like the observer above.
static CHECKPOINT_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Installs the process-wide checkpoint directory. First call wins;
/// later calls return `false` and change nothing.
pub fn set_checkpoint_dir(dir: PathBuf) -> bool {
    CHECKPOINT_DIR.set(dir).is_ok()
}

/// The daemon config every fleet sweep runs under: one shard per worker,
/// queues that admit the whole fleet at once, and `table` as the ladder.
pub(crate) fn sweep_config(gen: &FleetGenerator, table: &ModulationTable) -> ServeConfig {
    let mut cfg = ServeConfig::for_fleet(gen.config().clone());
    cfg.controller.table = table.clone();
    cfg.n_shards = crate::parallel::default_workers();
    cfg.queue_capacity = gen.n_links();
    cfg
}

/// Start → ingest every link → drain. Each shard's queue has room for the
/// whole fleet (restarts and reroutes included), so one ingest admits it
/// all and the drain runs it to completion; the slot-ordered report
/// equals the sequential pass at any shard count.
pub(crate) fn run_sweep(cfg: ServeConfig) -> Result<ServeReport, ServeError> {
    let daemon = Daemon::start(cfg)?;
    let links: Vec<usize> = (0..daemon.n_links()).collect();
    daemon.ingest(&links)?;
    daemon.drain()
}

/// The crash-safe fleet sweep every fleet experiment routes through: the
/// serve daemon over the generator's fleet, checkpointing into the
/// directory `repro --checkpoint/--resume` installed (about four interval
/// writes per shard, plus the final one) and restoring whatever it holds.
/// A panicking shard is restarted with jittered backoff; only a daemon
/// that loses every shard aborts the experiment.
pub(crate) fn fleet_sweep(gen: &FleetGenerator, table: &ModulationTable) -> FleetAccumulator {
    let mut cfg = sweep_config(gen, table);
    cfg.checkpoint = CHECKPOINT_DIR.get().map(|dir| ServeCheckpointConfig {
        dir: dir.clone(),
        every_links: gen.n_links().div_ceil(4 * cfg.n_shards) as u64,
    });
    let report = run_sweep(cfg).unwrap_or_else(|err| panic!("fleet sweep failed: {err}"));
    assert_eq!(report.links_completed, gen.n_links() as u64, "fleet sweep lost links");
    // Counter and histogram-bucket addition commute, and the pipeline
    // metrics are folded in link order, so absorbing them equals one
    // sequential kernel's metrics at any shard count.
    if let Some(registry) = registry() {
        registry.absorb(&report.pipeline_metrics);
        registry.absorb(&report.serve_metrics);
    }
    report.accumulator
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

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_telemetry::FleetConfig;
    use rwc_util::time::SimDuration;

    /// The daemon config every fleet sweep builds reproduces the
    /// sequential pass — accumulator and pipeline metrics — at any shard
    /// count, and admits the whole fleet in one ingest.
    #[test]
    fn fleet_sweep_matches_sequential_fleet_analysis() {
        let gen = FleetGenerator::new(FleetConfig {
            n_fibers: 2,
            wavelengths_per_fiber: 8,
            horizon: SimDuration::from_days(20),
            ..FleetConfig::paper()
        });
        let table = ModulationTable::paper_default();
        let sequential = serde_json::to_string(&gen.fleet_analysis(&table)).unwrap();
        let (_, want_metrics) = rwc_serve::batch_reference(&sweep_config(&gen, &table));
        for n_shards in [1, 2, 3, 5] {
            let mut cfg = sweep_config(&gen, &table);
            cfg.n_shards = n_shards;
            let report = run_sweep(cfg).unwrap();
            assert_eq!(report.links_completed, gen.n_links() as u64);
            assert_eq!(report.counter("serve.rejected"), 0, "shards={n_shards}");
            assert_eq!(
                serde_json::to_string(&report.accumulator).unwrap(),
                sequential,
                "shards={n_shards}"
            );
            assert_eq!(
                report.pipeline_metrics.to_json(),
                want_metrics.to_json(),
                "per-link metrics merge diverged at shards={n_shards}"
            );
        }
        assert_eq!(serde_json::to_string(&fleet_sweep(&gen, &table)).unwrap(), sequential);
    }
}
