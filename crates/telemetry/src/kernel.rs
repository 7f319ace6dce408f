//! The fused, streaming fleet-analysis kernel.
//!
//! [`LinkAnalysis::new`] is correct but wasteful on the fleet path: it
//! needs the whole trace, bins and sorts it for the HDR, then rescans it
//! once per modulation rung for episode detection. [`FleetKernel`]
//! computes the identical result in **one pass per generated group that
//! never holds the trace**:
//!
//! - [`FleetGenerator`] hands the kernel each group of up to four
//!   1,024-reading blocks as soon as it is generated and event-patched;
//!   the kernel folds the group and clears it for the next one, so a
//!   913-day link costs the same memory as a 7-day one;
//! - each group is first binned onto the 0.1 dB instrument grid into a
//!   reused `u16` buffer ([`bin_grid`], eight readings per vector on
//!   AVX-512, the same bins as
//!   [`grid_bin`](rwc_util::simd::grid_bin) everywhere); each bin is then
//!   one increment of a 640-bin histogram. The sum, the extremes and the
//!   95% HDR come from the counts at the end ([`hdi_of_counts`]), in
//!   integer arithmetic;
//! - failure episodes for **all** rungs come out of the same scan: the
//!   threshold ladder is strictly ascending, so the rungs a reading fails
//!   are always the suffix `f..R` of the ladder. A per-bin table holds `f`,
//!   built by evaluating the oracle's own `v < t` test on each bin's
//!   value, so any [`ModulationTable`] agrees with the oracle. Episodes
//!   open and close only when `f` moves, and only the innermost open rung
//!   tracks the running floor; it is folded outward when that rung closes.
//!   A reading above every threshold is recognised by its bin alone.
//!
//! The oracle bins the same way and both paths finish in
//! `LinkAnalysis::on_grid`, so fused output is **bit-identical** to it.
//! `LinkAnalysis::new` stays as the test oracle — pinned by tests here and
//! by the byte-identity tests in `tests/kernel_equivalence.rs`, which run
//! at the paper's 913-day length — but no fleet path calls it.

use crate::analysis::{grid_db, FailureEpisode, LinkAnalysis};
use crate::generator::FleetGenerator;
use crate::hdr::{Hdr, PAPER_COVERAGE};
use crate::process::BatchScratch;
use crate::trace::SnrTrace;
use rwc_obs::Observer;
use rwc_optics::{Modulation, ModulationTable};
use rwc_util::simd::{bin_grid, GRID_BINS};
use rwc_util::stats::hdi_of_counts;
use rwc_util::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Reusable per-worker analysis state.
///
/// One kernel per daemon shard: the histogram, the rung table and the
/// generation scratch are allocated on the first link and reused for
/// every later one, so a fleet sweep's steady-state allocation is just the
/// per-link episode vectors.
#[derive(Debug)]
pub struct FleetKernel {
    /// Readings per grid bin; all zero between links.
    counts: Box<[u32; GRID_BINS]>,
    /// The table [`rung_of_bin`](Self::rung_of_bin) was built for.
    thresholds: Vec<f64>,
    /// Per bin, the first rung the bin's value fails (`rungs` if none).
    rung_of_bin: [u8; GRID_BINS],
    /// The least bin that fails no rung.
    healthy_from: usize,
    /// Per rung `f..`, the open episode's start tick and floor bin. Only
    /// the innermost open rung's floor is current; an outer rung's true
    /// floor is the least of its own and every inner one's.
    open: Vec<(usize, usize)>,
    /// The first failing rung of the previous reading (`rungs` if none).
    prev_f: usize,
    /// Readings folded so far in this link.
    n: usize,
    /// Episodes closed so far, per rung.
    failures: Vec<(Modulation, Vec<FailureEpisode>)>,
    /// Time of the link's first reading and the reading interval.
    start: SimTime,
    tick: SimDuration,
    /// Generation scratch (innovation block, event segments), the block
    /// of readings being folded and its grid bins, reused across links.
    batch_scratch: BatchScratch,
    block: Vec<f64>,
    bins: Vec<u16>,
    /// Observability hooks (fleet counters, episode lengths).
    obs: Arc<dyn Observer>,
    /// The finished link's episode lengths in ticks, handed to the
    /// observer in one batch; reused across links.
    episode_ticks: Vec<f64>,
}

impl Default for FleetKernel {
    fn default() -> Self {
        Self {
            counts: Box::new([0; GRID_BINS]),
            thresholds: Vec::new(),
            rung_of_bin: [0; GRID_BINS],
            healthy_from: 0,
            open: Vec::new(),
            prev_f: 0,
            n: 0,
            failures: Vec::new(),
            start: SimTime::EPOCH,
            tick: SimDuration::TELEMETRY_TICK,
            batch_scratch: BatchScratch::default(),
            block: Vec::new(),
            bins: Vec::new(),
            obs: rwc_obs::noop(),
            episode_ticks: Vec::new(),
        }
    }
}

impl FleetKernel {
    /// A kernel with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A kernel publishing fleet counters and episode lengths to `obs` —
    /// typically one collecting registry per worker, merged after the
    /// sweep. The observer hears from the kernel once per link, when the
    /// link is finished, never per reading or per episode.
    pub fn with_observer(obs: Arc<dyn Observer>) -> Self {
        Self { obs, ..Self::default() }
    }

    /// Swaps the attached observer.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.obs = obs;
    }

    /// Fused analysis of link `link_id`: folds each block of the link's
    /// readings as the generator produces it. Produces exactly what
    /// `LinkAnalysis::new(&gen.link(id).trace, table)` produces, without
    /// materialising the link or its trace.
    pub fn analyze_generated(
        &mut self,
        gen: &FleetGenerator,
        link_id: usize,
        table: &ModulationTable,
    ) -> LinkAnalysis {
        self.begin(SimTime::EPOCH, gen.config().tick, table);
        let (mut scratch, mut block) =
            (std::mem::take(&mut self.batch_scratch), std::mem::take(&mut self.block));
        gen.stream_link(link_id, &mut scratch, &mut block, |block| {
            self.fold(block);
            block.clear();
        });
        (self.batch_scratch, self.block) = (scratch, block);
        self.finish(table)
    }

    /// Fused analysis of an already-materialised trace (drop-in for
    /// [`LinkAnalysis::new`] when the caller needs the trace anyway).
    pub fn analyze_trace(&mut self, trace: &SnrTrace, table: &ModulationTable) -> LinkAnalysis {
        self.begin(trace.start(), trace.tick(), table);
        self.fold(trace.values());
        self.finish(table)
    }

    /// Resets the per-link state, rebuilding the rung table if `table`'s
    /// thresholds differ from the last link's.
    fn begin(&mut self, start: SimTime, tick: SimDuration, table: &ModulationTable) {
        let entries = table.entries();
        let rungs = entries.len();
        assert!(rungs < u8::MAX as usize, "a rung table entry is a u8");
        if !self.thresholds.iter().copied().eq(entries.iter().map(|(_, t)| t.value())) {
            self.thresholds = entries.iter().map(|(_, t)| t.value()).collect();
            for (bin, f) in self.rung_of_bin.iter_mut().enumerate() {
                let v = grid_db(bin).value();
                *f = self.thresholds.iter().position(|&t| v < t).unwrap_or(rungs) as u8;
            }
            self.healthy_from = (0..GRID_BINS)
                .rposition(|bin| (self.rung_of_bin[bin] as usize) < rungs)
                .map_or(0, |bin| bin + 1);
        }
        self.open.clear();
        self.open.resize(rungs, (0, 0));
        self.prev_f = rungs;
        self.n = 0;
        self.failures = entries.iter().map(|&(m, _)| (m, Vec::new())).collect();
        (self.start, self.tick) = (start, tick);
    }

    /// Folds the link's next readings: bins them all, then walks the
    /// bins. A healthy reading after a healthy one costs its increment and
    /// two comparisons; a reading that fails the same rungs as the one
    /// before lowers the innermost floor.
    fn fold(&mut self, block: &[f64]) {
        let (rungs, healthy_from) = (self.open.len(), self.healthy_from);
        let first = self.n;
        self.n += block.len();
        let mut bins = std::mem::take(&mut self.bins);
        bins.resize(block.len(), 0);
        bin_grid(block, &mut bins);
        for (i, &bin) in bins.iter().enumerate() {
            let bin = bin as usize;
            self.counts[bin] += 1;
            if bin >= healthy_from && self.prev_f == rungs {
                continue;
            }
            let f = self.rung_of_bin[bin] as usize;
            if f == self.prev_f {
                let floor = &mut self.open[f].1;
                *floor = (*floor).min(bin);
            } else {
                self.step(f, bin, first + i);
            }
        }
        self.bins = bins;
    }

    /// Moves the ladder from `prev_f` to `f ≠ prev_f`, the first rung that
    /// reading `i`, in bin `bin`, fails.
    #[inline(never)]
    fn step(&mut self, f: usize, bin: usize, i: usize) {
        let prev = self.prev_f;
        if f < prev {
            // Ladder dropped: rungs f..prev newly fail, open at (i, bin).
            self.open[f..prev].fill((i, bin));
        } else {
            // Ladder recovered: rungs prev..f close at i, and their floor
            // carries out to rung f if that one still fails.
            let carried = self.close(prev..f, i);
            if let Some((_, floor)) = self.open.get_mut(f) {
                *floor = (*floor).min(carried).min(bin);
            }
        }
        self.prev_f = f;
    }

    /// Closes the episodes of `rungs` (innermost first) before reading
    /// `end`, carrying the floor outward; returns the outermost one's.
    fn close(&mut self, rungs: std::ops::Range<usize>, end: usize) -> usize {
        let mut floor = usize::MAX;
        for k in rungs {
            let (s, own) = self.open[k];
            floor = floor.min(own);
            self.failures[k].1.push(FailureEpisode {
                start: self.start + self.tick * s as u64,
                duration: self.tick * (end - s) as u64,
                floor: grid_db(floor),
            });
        }
        floor
    }

    /// Closes the episodes still open at the horizon, reads the summary
    /// off the histogram (leaving it zeroed) and assembles the analysis.
    fn finish(&mut self, table: &ModulationTable) -> LinkAnalysis {
        let n = self.n;
        assert!(n > 0, "cannot analyse an empty sample buffer");
        assert!(n <= u32::MAX as usize, "bin counters hold at most u32::MAX readings");
        self.close(self.prev_f..self.open.len(), n);
        if self.obs.enabled() {
            self.publish(n);
        }

        let total = &mut *self.counts;
        let min = total.iter().position(|&c| c > 0).expect("n > 0 readings were counted");
        let max = total.iter().rposition(|&c| c > 0).expect("n > 0 readings were counted");
        let sum = (min..=max).map(|b| b as u64 * total[b] as u64).sum();
        let (low, high) = hdi_of_counts(&total[min..=max], PAPER_COVERAGE);
        total[min..=max].fill(0);
        let hdr = Hdr::of_bins(min + low, min + high, PAPER_COVERAGE);
        let failures = std::mem::take(&mut self.failures);
        LinkAnalysis::on_grid(sum, n, (min, max), hdr, table, failures)
    }

    /// Publishes the finished link of `n` readings from its episode
    /// lists: the fleet counters, every episode as opened and closed, and
    /// every episode's length in ticks as one `fleet.episode_ticks` batch.
    fn publish(&mut self, n: usize) {
        let tick = self.tick;
        self.episode_ticks.clear();
        self.episode_ticks.extend(
            self.failures.iter().flat_map(|(_, eps)| eps.iter().map(|e| e.duration.ticks(tick) as f64)),
        );
        let episodes = self.episode_ticks.len() as u64;
        self.obs.incr("fleet.links", 1);
        self.obs.incr("fleet.samples", n as u64);
        self.obs.incr("fleet.episodes", episodes);
        self.obs.incr("events.episode_opened", episodes);
        self.obs.incr("events.episode_closed", episodes);
        self.obs.record_each("fleet.episode_ticks", &self.episode_ticks);
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
    fn observed_kernel_publishes_episode_totals() {
        let gen = FleetGenerator::new(FleetConfig {
            n_fibers: 2,
            wavelengths_per_fiber: 3,
            horizon: SimDuration::from_days(45),
            ..FleetConfig::paper()
        });
        let table = ModulationTable::paper_default();
        let obs = Arc::new(rwc_obs::MetricsObserver::new());
        let mut kernel = FleetKernel::with_observer(obs.clone());
        let mut episodes = 0;
        for link_id in 0..gen.n_links() {
            let analysis = kernel.analyze_generated(&gen, link_id, &table);
            episodes += analysis.failures_per_rung.iter().map(|(_, e)| e.len() as u64).sum::<u64>();
        }
        assert!(episodes > 0, "45 days of six links fail some rung");
        let s = obs.snapshot();
        assert_eq!(s.counters["fleet.episodes"], episodes);
        assert_eq!(s.histograms["fleet.episode_ticks"].count, episodes);
        assert_eq!(s.counters["events.episode_closed"], episodes);
        assert_eq!(s.counters["events.episode_opened"], episodes);
        assert_eq!(s.counters["fleet.links"], gen.n_links() as u64);
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
