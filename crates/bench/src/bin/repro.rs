//! Figure-reproduction CLI.
//!
//! ```text
//! repro [--quick|--full|--scale N] [--quiet] [--obs-json FILE]
//!       [--checkpoint FILE] [--resume FILE] [--out DIR] <id>... | all
//! ```
//!
//! Ids: fig1 fig2a fig2b fig3a fig3b fig4 fig5 fig6b fig7 fig8 thm1 tput
//! avail scenario faults srlg objectives ablation chaos. Default scale is a
//! reduced fleet (fast); `--quick` spells that default out (handy in CI), `--full` runs
//! the paper-scale corpus (2,000 links × 2.5 years — takes a while), and
//! `--scale N` multiplies the paper fleet (`--scale 10` = 20,000 links)
//! for fleet-pipeline stress runs.
//!
//! `--obs-json FILE` switches observability on for the whole process: a
//! [`rwc_obs::MetricsObserver`] is installed before any experiment
//! dispatches, every pipeline the experiments build publishes into it
//! (controller decisions and reconfigurations, TE round/solve timing and
//! warm-start rates, scenario tick/fault counters, fleet-kernel episode
//! statistics), and the merged snapshot is written to `FILE` as
//! deterministic JSON when the run finishes. Reports stay byte-identical
//! with observability on or off — metrics are a sidecar, never an input.
//!
//! `--quiet` suppresses progress lines and the `[obs]` event echo;
//! experiment findings and errors still print.
//!
//! `--checkpoint FILE` makes every fleet sweep crash-safe: progress is
//! checkpointed to `FILE` every few chunks (atomically, temp + rename),
//! so a killed run can be continued with `--resume FILE`. The resume file
//! is verified up front — envelope checksum, format version, and sweep
//! fingerprint against this invocation's fleet/seed/pipeline label — and a
//! bad file exits with a distinct code (see [`rwc_bench::cli`]) instead
//! of silently starting over. A resumed run reproduces the uninterrupted
//! run's reports byte for byte. `--resume FILE` alone keeps writing
//! updated checkpoints back to the same file.
//!
//! Failure classes map to stable exit codes, documented in
//! [`rwc_bench::cli`]. `repro` reproduces figures and checks them;
//! performance is measured by the `benchmark/` package.

use rwc_bench::experiments::{self, CheckpointState};
use rwc_bench::{cli, Scale};
use rwc_harness::{checkpoint, HarnessError, SweepFingerprint, SWEEP_MODE};
use rwc_obs::{ConsoleSink, MetricsObserver};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(cli::EXIT_USAGE)
}

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut obs_path: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--scale" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => scale = Scale::Scaled(n),
                _ => return usage_error("--scale needs a positive integer fleet multiplier"),
            },
            "--quiet" => quiet = true,
            "--obs-json" => match args.next() {
                Some(file) => obs_path = Some(PathBuf::from(file)),
                None => return usage_error("--obs-json needs a file"),
            },
            "--checkpoint" => match args.next() {
                Some(file) => checkpoint_path = Some(PathBuf::from(file)),
                None => return usage_error("--checkpoint needs a file"),
            },
            "--resume" => match args.next() {
                Some(file) => resume_path = Some(PathBuf::from(file)),
                None => return usage_error("--resume needs a file"),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick|--full|--scale N] [--quiet] \
                     [--obs-json FILE] [--checkpoint FILE] [--resume FILE] [--out DIR] \
                     <id>... | all"
                );
                println!("ids: {} ablation chaos", experiments::ALL.join(" "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    let sink = ConsoleSink::new(quiet);
    if obs_path.is_some() {
        // Install before any experiment dispatches: every pipeline built
        // from here on publishes into this registry, with the salient
        // events echoed through the console sink.
        experiments::set_observer(Arc::new(MetricsObserver::with_forward(Arc::new(sink))));
    }
    if checkpoint_path.is_some() || resume_path.is_some() {
        if let Err(code) =
            install_checkpoint_plan(checkpoint_path, resume_path, scale, &sink)
        {
            return code;
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
        ids.push("ablation".into());
    }

    for id in &ids {
        sink.progress(&format!("running {id} ({} scale)…", scale.label()));
        let Some(report) = experiments::run(id, scale) else {
            sink.error(&format!("unknown experiment id: {id}"));
            return ExitCode::FAILURE;
        };
        sink.result(report.render().trim_end());
        match report.write_csv(&out_dir) {
            Ok(files) => {
                for f in files {
                    sink.progress(&format!("  -> {f}"));
                }
            }
            Err(e) => {
                sink.error(&format!("failed to write CSV: {e}"));
                return ExitCode::FAILURE;
            }
        }
        sink.progress("");
    }
    write_obs_snapshot(obs_path.as_deref(), &sink)
}

/// Loads and verifies the `--resume` file (envelope checksum, format
/// version, fingerprint against this invocation's fleet/seed/pipeline
/// label) and installs the process-wide checkpoint plan. Failures map to
/// the exit codes documented in [`cli`] — notably [`cli::EXIT_CHECKPOINT`]
/// for corrupt, version-mismatched, or foreign checkpoints.
fn install_checkpoint_plan(
    checkpoint_path: Option<PathBuf>,
    resume_path: Option<PathBuf>,
    scale: Scale,
    sink: &ConsoleSink,
) -> Result<(), ExitCode> {
    let resume = match &resume_path {
        Some(path) => {
            let cp = checkpoint::load(path).map_err(|e| {
                sink.error(&format!("--resume {}: {e}", path.display()));
                ExitCode::from(cli::harness_exit_code(&HarnessError::Checkpoint(e)))
            })?;
            // Fail fast on a checkpoint from a different sweep, before any
            // experiment dispatches. Chunk size comes from the checkpoint
            // itself (resume replays the original chunk boundaries no
            // matter the thread count), so only fleet size, seed and the
            // pipeline label are pinned by this invocation.
            let fleet = scale.fleet();
            let expected = SweepFingerprint {
                n_links: fleet.n_links() as u64,
                chunk_size: cp.fingerprint.chunk_size,
                seed: fleet.seed,
                mode: SWEEP_MODE.into(),
            };
            expected.verify(&cp.fingerprint).map_err(|e| {
                sink.error(&format!("--resume {}: {e}", path.display()));
                ExitCode::from(cli::harness_exit_code(&HarnessError::Checkpoint(e)))
            })?;
            sink.progress(&format!(
                "resuming from {} ({} completed chunks verified)",
                path.display(),
                cp.chunks.len()
            ));
            Some(cp)
        }
        None => None,
    };
    // `--resume` without `--checkpoint` keeps writing updated checkpoints
    // back to the file it restored from.
    let path = checkpoint_path.or(resume_path).expect("caller ensured one path is set");
    experiments::set_checkpoint(CheckpointState { path, resume });
    Ok(())
}

/// Writes the installed observer's merged snapshot to `path`; a no-op
/// when `--obs-json` was not given.
fn write_obs_snapshot(path: Option<&std::path::Path>, sink: &ConsoleSink) -> ExitCode {
    let Some(path) = path else {
        return ExitCode::SUCCESS;
    };
    let Some(snapshot) = experiments::metrics() else {
        sink.error("--obs-json: no observer was installed (internal error)");
        return ExitCode::FAILURE;
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            sink.error(&format!("cannot create {}: {e}", dir.display()));
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(path, snapshot.to_json() + "\n") {
        sink.error(&format!("cannot write {}: {e}", path.display()));
        return ExitCode::FAILURE;
    }
    sink.result(&format!(
        "observability snapshot ({} counters, {} gauges, {} histograms) -> {}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        path.display()
    ));
    ExitCode::SUCCESS
}
