//! The fused single-pass fleet-analysis kernel.
//!
//! [`LinkAnalysis::new`] is correct but wasteful on the fleet path: it
//! clones the full trace to sort it for the HDR, then rescans all ~88k
//! samples once per modulation rung for episode detection — ~6 redundant
//! memory passes and two transient allocations per link, times 2,000+
//! links. [`FleetKernel`] computes the identical result in **one data pass
//! plus one O(n) sort**:
//!
//! - samples stream straight from
//!   [`FleetGenerator::generate_link_into`] into a buffer the kernel reuses
//!   across links — no per-link [`SnrTrace`], no per-call `to_vec()`;
//! - mean/min/max/range fold into the generation-order scan;
//! - failure episodes for **all** rungs come out of that same scan: the
//!   threshold ladder is strictly ascending, so the rungs a sample fails
//!   are always the suffix `f..R` of the ladder, where `f` is the number
//!   of thresholds at or below the sample. Episodes open and close only
//!   when `f` moves — O(n + episode edges) instead of O(n × rungs), with
//!   floor updates bounded by the (rare) failing samples;
//! - the HDR comes from [`rwc_util::stats::hdi_of_unsorted`] over a reused
//!   buffer: the 95% window scan only reads the two 5% tails of the sorted
//!   order, so two `select_nth` partitions plus tail sorts replace the
//!   full sort of a fresh clone — still exact, never a full O(n log n).
//!
//! Every arithmetic step reproduces [`LinkAnalysis::new`]'s operation
//! order (same left-fold sums, same `f64::min`/`max` folds, same strict
//! `<` threshold test, same sorted sequence feeding the HDI), so fused
//! output is **bit-identical** to it. `LinkAnalysis::new` stays as the
//! test oracle — pinned by tests here and by the byte-identity proptests
//! in `tests/kernel_equivalence.rs` — but no fleet path calls it.

use crate::analysis::{FailureEpisode, LinkAnalysis, STATIC_CAPACITY};
use crate::generator::FleetGenerator;
use crate::hdr::{Hdr, PAPER_COVERAGE};
use crate::process::BatchScratch;
use crate::trace::SnrTrace;
use rwc_obs::{Event as ObsEvent, Observer};
use rwc_optics::{Modulation, ModulationTable};
use rwc_util::stats::hdi_of_unsorted;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::{Db, Gbps};
use std::sync::Arc;

/// Reusable scratch state for fused per-link analysis.
///
/// One kernel per worker thread: all buffers are allocated on the first
/// link and reused for every subsequent one, so a fleet sweep's
/// steady-state allocation is just the per-link episode vectors.
#[derive(Debug)]
pub struct FleetKernel {
    /// Streamed sample buffer (the would-be trace).
    samples: Vec<f64>,
    /// Working copy of the samples for the HDR's partial sort.
    sorted: Vec<f64>,
    /// Ladder thresholds in dB, ascending (cached per table).
    thresholds: Vec<f64>,
    /// Per-rung open episode: `(start index, running floor)`.
    open: Vec<Option<(usize, f64)>>,
    /// Generation scratch (innovation block, event segments), reused
    /// across links.
    batch_scratch: BatchScratch,
    /// Observability hooks (episode events, fleet counters).
    obs: Arc<dyn Observer>,
    /// The link id stamped on emitted episode events (set by
    /// [`FleetKernel::analyze_generated`]).
    link: u64,
}

impl Default for FleetKernel {
    fn default() -> Self {
        Self {
            samples: Vec::new(),
            sorted: Vec::new(),
            thresholds: Vec::new(),
            open: Vec::new(),
            batch_scratch: BatchScratch::default(),
            obs: rwc_obs::noop(),
            link: 0,
        }
    }
}

impl FleetKernel {
    /// A kernel with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A kernel publishing fleet counters and episode events to `obs` —
    /// typically one collecting registry per worker, merged after the
    /// sweep.
    pub fn with_observer(obs: Arc<dyn Observer>) -> Self {
        Self { obs, ..Self::default() }
    }

    /// Swaps the attached observer.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.obs = obs;
    }

    /// Fused analysis of link `link_id`: streams the link's samples from
    /// the generator into the kernel's buffer and analyses them in place.
    /// Produces exactly what `LinkAnalysis::new(&gen.link(id).trace, table)`
    /// produces, without materialising the link.
    pub fn analyze_generated(
        &mut self,
        gen: &FleetGenerator,
        link_id: usize,
        table: &ModulationTable,
    ) -> LinkAnalysis {
        let cfg = gen.config();
        self.link = link_id as u64;
        let mut samples = std::mem::take(&mut self.samples);
        gen.generate_link_into(link_id, &mut self.batch_scratch, &mut samples);
        let analysis = self.analyze(SimTime::EPOCH, cfg.tick, &samples, table);
        self.samples = samples;
        analysis
    }

    /// Fused analysis of an already-materialised trace (drop-in for
    /// [`LinkAnalysis::new`] when the caller needs the trace anyway).
    pub fn analyze_trace(&mut self, trace: &SnrTrace, table: &ModulationTable) -> LinkAnalysis {
        self.analyze(trace.start(), trace.tick(), trace.values(), table)
    }

    /// The fused pass itself. `values` is borrowed so the caller can hand
    /// in the kernel's own (taken) sample buffer or any trace slice.
    fn analyze(
        &mut self,
        start: SimTime,
        tick: SimDuration,
        values: &[f64],
        table: &ModulationTable,
    ) -> LinkAnalysis {
        assert!(!values.is_empty(), "cannot analyse an empty sample buffer");
        let entries = table.entries();
        let rungs = entries.len();
        self.thresholds.clear();
        self.thresholds.extend(entries.iter().map(|(_, t)| t.value()));
        let top = *self.thresholds.last().expect("table has at least one rung");
        self.open.clear();
        self.open.resize(rungs, None);
        let mut failures: Vec<(Modulation, Vec<FailureEpisode>)> =
            entries.iter().map(|&(m, _)| (m, Vec::new())).collect();
        let observed = self.obs.enabled();
        if observed {
            self.obs.incr("fleet.links", 1);
            self.obs.incr("fleet.samples", values.len() as u64);
        }

        // One generation-order pass: moments + every rung's episodes.
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        // Rungs `prev_f..rungs` have an open episode; none before sample 0.
        let mut prev_f = rungs;
        for (i, &v) in values.iter().enumerate() {
            sum += v;
            min = min.min(v);
            max = max.max(v);
            // Feasibility rung: thresholds ascending, a sample fails rung k
            // iff v < t_k (strict, matching `episodes_below`), so failing
            // rungs are exactly the suffix `f..`. Healthy samples clear the
            // top rung in one comparison.
            let f = if v >= top {
                rungs
            } else {
                let mut f = 0;
                while self.thresholds[f] <= v {
                    f += 1;
                }
                f
            };
            if f < prev_f {
                // Ladder dropped: rungs f..prev_f newly fail, open at (i, v).
                for (k, slot) in self.open[f..prev_f].iter_mut().enumerate() {
                    *slot = Some((i, v));
                    if observed {
                        self.obs.event(&ObsEvent::EpisodeOpened {
                            link: self.link,
                            rung_gbps: entries[f + k].0.capacity().0,
                            at_tick: i as u64,
                        });
                    }
                }
            } else if f > prev_f {
                // Ladder recovered: rungs prev_f..f close their episodes.
                for (k, slot) in self.open[prev_f..f].iter_mut().enumerate() {
                    let (s, floor) = slot.take().expect("failing rung always has an open episode");
                    failures[prev_f + k].1.push(FailureEpisode {
                        start: start + tick * s as u64,
                        duration: tick * (i - s) as u64,
                        floor: Db(floor),
                    });
                    if observed {
                        self.obs.incr("fleet.episodes", 1);
                        self.obs.record("fleet.episode_ticks", (i - s) as f64);
                        self.obs.event(&ObsEvent::EpisodeClosed {
                            link: self.link,
                            rung_gbps: entries[prev_f + k].0.capacity().0,
                            ticks: (i - s) as u64,
                        });
                    }
                }
            }
            // Rungs that were already failing track the running floor.
            for slot in &mut self.open[f.max(prev_f)..rungs] {
                let (_, floor) = slot.as_mut().expect("failing rung always has an open episode");
                *floor = floor.min(v);
            }
            prev_f = f;
        }
        // Episodes still open at trace end close at the horizon.
        let n = values.len();
        for (k, slot) in self.open[prev_f..rungs].iter_mut().enumerate() {
            let (s, floor) = slot.take().expect("failing rung always has an open episode");
            failures[prev_f + k].1.push(FailureEpisode {
                start: start + tick * s as u64,
                duration: tick * (n - s) as u64,
                floor: Db(floor),
            });
            if observed {
                self.obs.incr("fleet.episodes", 1);
                self.obs.record("fleet.episode_ticks", (n - s) as f64);
                self.obs.event(&ObsEvent::EpisodeClosed {
                    link: self.link,
                    rung_gbps: entries[prev_f + k].0.capacity().0,
                    ticks: (n - s) as u64,
                });
            }
        }

        // One O(n) selection feeds the HDR: only the two tails the window
        // scan reads get sorted, and they carry the same values as a
        // full comparison sort (traces are finite and positive, so
        // comparison order and IEEE total order agree).
        self.sorted.clear();
        self.sorted.extend_from_slice(values);
        let (low, high) = hdi_of_unsorted(&mut self.sorted, PAPER_COVERAGE);
        let hdr = Hdr { low: Db(low), high: Db(high), coverage: PAPER_COVERAGE };

        let feasible = table.feasible(hdr.feasibility_floor());
        let feasible_capacity = feasible.map_or(Gbps::ZERO, Modulation::capacity);
        let min = Db(min);
        let max = Db(max);
        LinkAnalysis {
            mean: Db(sum / n as f64),
            min,
            max,
            range: max - min,
            hdr,
            feasible,
            feasible_capacity,
            gain_over_static: feasible_capacity.saturating_sub(STATIC_CAPACITY),
            failures_per_rung: failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::FleetConfig;

    fn trace(samples: Vec<f64>) -> SnrTrace {
        SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples)
    }

    fn assert_identical(t: &SnrTrace, table: &ModulationTable) {
        let legacy = LinkAnalysis::new(t, table);
        let fused = FleetKernel::new().analyze_trace(t, table);
        assert_eq!(
            serde_json::to_string(&fused).unwrap(),
            serde_json::to_string(&legacy).unwrap(),
            "fused kernel diverged from LinkAnalysis::new"
        );
    }

    #[test]
    fn fused_matches_legacy_on_crafted_traces() {
        let table = ModulationTable::paper_default();
        // Healthy.
        assert_identical(&trace(vec![12.8; 200]), &table);
        // One deep outage with recovery.
        let mut s = vec![12.8; 96];
        s.extend([0.2, 0.2, 0.2, 0.2]);
        s.extend(vec![12.8; 30]);
        assert_identical(&trace(s), &table);
        // Episode open at trace end.
        let mut s = vec![12.8; 50];
        s.extend([0.3; 10]);
        assert_identical(&trace(s), &table);
        // All-failing link (never above the bottom rung).
        assert_identical(&trace(vec![0.5; 80]), &table);
        // Staircase wandering across several rungs, with exact-threshold
        // samples (strict `<` must hold the rung).
        let s: Vec<f64> = (0..300)
            .map(|i| match i % 7 {
                0 => 3.0,
                1 => 6.5,
                2 => 7.9,
                3 => 9.5,
                4 => 11.2,
                5 => 12.5,
                _ => 14.0,
            })
            .collect();
        assert_identical(&trace(s), &table);
    }

    #[test]
    fn fused_matches_legacy_on_generated_links() {
        let gen = FleetGenerator::new(FleetConfig {
            n_fibers: 2,
            wavelengths_per_fiber: 3,
            horizon: SimDuration::from_days(45),
            ..FleetConfig::paper()
        });
        let table = ModulationTable::paper_default();
        let mut kernel = FleetKernel::new();
        for link_id in 0..gen.n_links() {
            let fused = kernel.analyze_generated(&gen, link_id, &table);
            let legacy = LinkAnalysis::new(&gen.link(link_id).trace, &table);
            assert_eq!(
                serde_json::to_string(&fused).unwrap(),
                serde_json::to_string(&legacy).unwrap(),
                "link {link_id} diverged"
            );
        }
    }

    #[test]
    fn episode_geometry_survives_fusion() {
        // Two dips at a known rung: starts, durations and floors must be
        // exactly those of `episodes_below`.
        let t = trace(vec![12.0, 5.0, 4.0, 6.0, 12.0, 3.0, 12.0]);
        let table = ModulationTable::paper_default();
        let fused = FleetKernel::new().analyze_trace(&t, &table);
        let eps = fused.failures_at(Modulation::Dp8Qam150);
        let direct = crate::analysis::episodes_below(&t, table.threshold(Modulation::Dp8Qam150).unwrap());
        assert_eq!(eps, direct.as_slice());
    }

    #[test]
    fn kernel_reuse_across_disparate_links_is_clean() {
        // A long noisy link followed by a short clean one: no state bleed.
        let table = ModulationTable::paper_default();
        let mut kernel = FleetKernel::new();
        let mut s = vec![12.8; 400];
        for i in (0..400).step_by(13) {
            s[i] = 0.2;
        }
        let noisy = trace(s);
        kernel.analyze_trace(&noisy, &table);
        let clean = trace(vec![13.0; 60]);
        let fused = kernel.analyze_trace(&clean, &table);
        let legacy = LinkAnalysis::new(&clean, &table);
        assert_eq!(
            serde_json::to_string(&fused).unwrap(),
            serde_json::to_string(&legacy).unwrap()
        );
    }
}
