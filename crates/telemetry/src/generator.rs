//! Fleet-scale telemetry generation.
//!
//! Reconstructs the paper's observation corpus: `n_fibers` wide-area fiber
//! cables, each carrying `wavelengths_per_fiber` DWDM wavelengths (= IP
//! links), observed every 15 minutes over a configurable horizon. Every
//! quantity is derived deterministically from `(seed, fiber, wavelength)`,
//! so link 1234 is the same link no matter which subset of the fleet a
//! caller materialises — and the fleet can be analysed streaming, one link
//! at a time.
//!
//! Two classes of events are distinguished, mirroring reality:
//!
//! - **fiber-level** events hit every wavelength on the cable (fiber cuts →
//!   loss of light; maintenance windows → correlated dips), which is what
//!   makes the paper's Fig. 1 wavelengths dip together;
//! - **link-level** events hit a single wavelength (transponder/amplifier
//!   hardware trouble, aging).

use crate::analysis::FleetAccumulator;
use crate::events::{Event, EventKind, EventLog};
use crate::kernel::FleetKernel;
use crate::process::{BatchCursor, BatchScratch, SnrProcess};
use crate::trace::SnrTrace;
use rwc_optics::ModulationTable;
use rwc_util::rng::{CounterRng, Xoshiro256};
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The paper's observation window: Feb 2015 – Jul 2017 ≈ 913 days.
pub(crate) const PAPER_HORIZON: SimDuration = SimDuration::from_days(913);

/// Configuration of a synthetic fleet. All event rates are expressed
/// per-link (or per-fiber) over a full `PAPER_HORIZON` (913 days) and scale linearly
/// with the configured horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master seed; the entire fleet is a pure function of it.
    pub seed: u64,
    /// Number of fiber cables.
    pub n_fibers: usize,
    /// Wavelengths (IP links) per cable.
    pub wavelengths_per_fiber: usize,
    /// Observation window.
    pub horizon: SimDuration,
    /// Sampling interval.
    pub tick: SimDuration,

    /// Mean of per-fiber baseline SNR, dB.
    pub fiber_baseline_mean_db: f64,
    /// Std-dev of per-fiber baseline SNR, dB.
    pub fiber_baseline_sd_db: f64,
    /// Std-dev of per-wavelength offset from the fiber baseline, dB.
    pub wavelength_jitter_sd_db: f64,
    /// Baselines are clamped into this range, dB.
    pub baseline_clamp_db: (f64, f64),

    /// Fraction of links with elevated micro-noise (the paper's ~17% of
    /// links whose 95% HDR exceeds 2 dB).
    pub noisy_link_fraction: f64,
    /// OU sigma of quiet links, dB.
    pub quiet_sigma_db: f64,
    /// OU sigma range of noisy links, dB.
    pub noisy_sigma_db: (f64, f64),

    /// Link-level transient dips per link per paper horizon: shallow
    /// (1–4 dB) and deep (7–14 dB).
    pub shallow_dip_rate: f64,
    /// Deep-dip rate (see above).
    pub deep_dip_rate: f64,
    /// Persistent step degradations per link per paper horizon.
    pub step_rate: f64,
    /// Loss-of-light (hardware) events per link per paper horizon.
    pub link_lol_rate: f64,
    /// Fiber cuts per fiber per paper horizon (loss of light on every
    /// wavelength of the cable).
    pub fiber_cut_rate: f64,
    /// Maintenance windows per fiber per paper horizon (correlated dip on
    /// every wavelength).
    pub maintenance_rate: f64,
}

impl FleetConfig {
    /// The paper-scale fleet: 50 cables × 40 wavelengths = 2,000 links over
    /// 2.5 years, calibrated per DESIGN.md §5.
    pub fn paper() -> Self {
        Self {
            seed: 0x52_57_43, // "RWC"
            n_fibers: 50,
            wavelengths_per_fiber: 40,
            horizon: PAPER_HORIZON,
            tick: SimDuration::TELEMETRY_TICK,
            fiber_baseline_mean_db: 13.0,
            fiber_baseline_sd_db: 1.4,
            wavelength_jitter_sd_db: 0.8,
            baseline_clamp_db: (8.0, 17.0),
            noisy_link_fraction: 0.17,
            quiet_sigma_db: 0.35,
            noisy_sigma_db: (0.55, 1.2),
            shallow_dip_rate: 2.2,
            deep_dip_rate: 0.8,
            step_rate: 0.35,
            link_lol_rate: 0.25,
            fiber_cut_rate: 0.3,
            maintenance_rate: 1.5,
        }
    }

    /// A small fleet over a short horizon for tests: 4 cables × 10
    /// wavelengths over 60 days.
    pub fn small() -> Self {
        Self {
            n_fibers: 4,
            wavelengths_per_fiber: 10,
            horizon: SimDuration::from_days(60),
            ..Self::paper()
        }
    }

    /// Total links in the fleet.
    pub fn n_links(&self) -> usize {
        self.n_fibers * self.wavelengths_per_fiber
    }

    fn scale(&self, rate_per_paper_horizon: f64) -> f64 {
        rate_per_paper_horizon * self.horizon.as_days_f64() / PAPER_HORIZON.as_days_f64()
    }
}

/// A link's identity and generative model *without* the sampled trace —
/// everything [`FleetGenerator::link`] derives before sampling. The fused
/// fleet path analyses links from their profile, streaming samples into a
/// reusable buffer instead of materialising a [`LinkTelemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Fleet-wide link index (`fiber · wavelengths_per_fiber + wavelength`).
    pub link_id: usize,
    /// Which cable the wavelength rides.
    pub fiber_id: usize,
    /// Index of the wavelength on its cable.
    pub wavelength_index: usize,
    /// Healthy-state baseline SNR.
    pub baseline: Db,
    /// The stochastic process parameters used.
    pub process: SnrProcess,
    /// Ground-truth impairment schedule (fiber + link events merged).
    pub events: EventLog,
}

/// One fully materialised link: identity, process parameters, ground-truth
/// events and the sampled SNR trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Fleet-wide link index (`fiber · wavelengths_per_fiber + wavelength`).
    pub link_id: usize,
    /// Which cable the wavelength rides.
    pub fiber_id: usize,
    /// Index of the wavelength on its cable.
    pub wavelength_index: usize,
    /// Healthy-state baseline SNR.
    pub baseline: Db,
    /// The stochastic process parameters used.
    pub process: SnrProcess,
    /// Ground-truth impairment schedule (fiber + link events merged).
    pub events: EventLog,
    /// The sampled SNR series.
    pub trace: SnrTrace,
}

/// Deterministic, streaming fleet generator.
#[derive(Debug, Clone)]
pub struct FleetGenerator {
    config: FleetConfig,
    /// Per-fiber `(baseline, events)` memo: `link_profile` is called once
    /// per wavelength, but the fiber schedule and baseline depend only on
    /// the fiber, so without the cache every cable re-runs its
    /// Poisson/lognormal sampling `wavelengths_per_fiber` times. Values are
    /// the output of the same pure derivations, so cached reads are
    /// byte-identical to recomputation; the `Arc` lets clones (one per
    /// sweep worker) share one memo.
    fiber_cache: Arc<Vec<OnceLock<(Db, EventLog)>>>,
}

impl FleetGenerator {
    /// Validates and wraps a configuration.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.n_fibers > 0 && config.wavelengths_per_fiber > 0, "empty fleet");
        assert!(config.horizon >= config.tick, "horizon shorter than a tick");
        assert!((0.0..=1.0).contains(&config.noisy_link_fraction));
        assert!(config.baseline_clamp_db.0 < config.baseline_clamp_db.1);
        let fiber_cache = Arc::new((0..config.n_fibers).map(|_| OnceLock::new()).collect());
        Self { config, fiber_cache }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of links this generator will produce.
    pub fn n_links(&self) -> usize {
        self.config.n_links()
    }

    fn stream(&self, domain: u64, a: u64, b: u64) -> Xoshiro256 {
        // Independent stream per (domain, fiber, wavelength): seed_from_u64
        // SplitMixes the combined key, so nearby keys give unrelated states.
        Xoshiro256::seed_from_u64(
            self.config
                .seed
                .wrapping_add(domain.wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(a.wrapping_mul(0xE703_7ED1_A0B4_28DB))
                .wrapping_add(b.wrapping_mul(0x8EBC_6AF0_9C88_C6E3)),
        )
    }

    fn uniform_start(&self, rng: &mut Xoshiro256) -> SimTime {
        let ms = self.config.horizon.as_millis();
        SimTime::EPOCH + SimDuration::from_millis(rng.next_u64() % ms)
    }

    /// Fiber-level event schedule (cuts + maintenance), shared by all
    /// wavelengths of the cable. Memoized per fiber — the first wavelength
    /// pays the sampling cost, the other `wavelengths_per_fiber − 1` clone
    /// the cached log (byte-identical, it is the same pure derivation).
    pub(crate) fn fiber_events(&self, fiber_id: usize) -> EventLog {
        self.fiber_cached(fiber_id).1.clone()
    }

    /// Fiber baseline SNR (wavelengths scatter around it). Memoized per
    /// fiber alongside [`fiber_events`](Self::fiber_events).
    pub(crate) fn fiber_baseline(&self, fiber_id: usize) -> Db {
        self.fiber_cached(fiber_id).0
    }

    /// The per-fiber memo: both fiber-level derivations are computed on
    /// first access and shared by every wavelength (and generator clone).
    fn fiber_cached(&self, fiber_id: usize) -> &(Db, EventLog) {
        assert!(fiber_id < self.config.n_fibers, "fiber out of range");
        self.fiber_cache[fiber_id].get_or_init(|| {
            (self.fiber_baseline_uncached(fiber_id), self.fiber_events_uncached(fiber_id))
        })
    }

    fn fiber_events_uncached(&self, fiber_id: usize) -> EventLog {
        let cfg = &self.config;
        let mut rng = self.stream(1, fiber_id as u64, 0);
        let mut log = EventLog::new();
        for _ in 0..rng.poisson(cfg.scale(cfg.fiber_cut_rate)) {
            let start = self.uniform_start(&mut rng);
            // Fiber cuts need a splice crew: long, heavy-tailed repairs.
            let duration = SimDuration::from_hours_f64(rng.lognormal_median(8.0, 0.9));
            log.push(Event { kind: EventKind::LossOfLight, start, duration });
        }
        for _ in 0..rng.poisson(cfg.scale(cfg.maintenance_rate)) {
            let start = self.uniform_start(&mut rng);
            let duration = SimDuration::from_hours_f64(rng.lognormal_median(2.0, 0.5));
            let depth_db = rng.uniform_in(1.0, 4.0);
            log.push(Event { kind: EventKind::Dip { depth_db }, start, duration });
        }
        log
    }

    fn fiber_baseline_uncached(&self, fiber_id: usize) -> Db {
        let cfg = &self.config;
        let mut rng = self.stream(2, fiber_id as u64, 0);
        Db(rng
            .normal(cfg.fiber_baseline_mean_db, cfg.fiber_baseline_sd_db)
            .clamp(cfg.baseline_clamp_db.0 + 0.5, cfg.baseline_clamp_db.1 - 0.5))
    }

    /// The counter-RNG a link's trace is sampled from. Domain 5 keeps the
    /// keying disjoint from the Xoshiro stream domains 1–3 that derive
    /// profiles; within it, the sampler derives its own
    /// innovation/jump/floor sub-streams.
    pub fn batch_rng(&self, link_id: usize) -> CounterRng {
        CounterRng::keyed(self.config.seed, link_id as u64, 5)
    }

    /// Writes link `link_id`'s full trace into `out` (cleared first),
    /// bit-identical to [`link`](Self::link)`(link_id).trace`. Pass one
    /// `scratch` per worker to amortise its buffers across links.
    pub fn generate_link_into(
        &self,
        link_id: usize,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(self.config.horizon.ticks(self.config.tick) as usize);
        self.stream_link(link_id, scratch, out, |_| {});
    }

    /// Generates link `link_id`'s trace into `block`, up to four OU blocks
    /// at a time, handing it to `sink` after each group — the generation
    /// half of the fused fleet path, whose sink folds and clears the
    /// group, so the whole trace is never held.
    pub(crate) fn stream_link(
        &self,
        link_id: usize,
        scratch: &mut BatchScratch,
        block: &mut Vec<f64>,
        sink: impl FnMut(&mut Vec<f64>),
    ) {
        let cfg = &self.config;
        let profile = self.link_profile(link_id);
        profile.process.stream_window(
            &mut BatchCursor::begin(),
            cfg.horizon.ticks(cfg.tick),
            SimTime::EPOCH,
            cfg.tick,
            &profile.events,
            &self.batch_rng(link_id),
            scratch,
            block,
            sink,
        );
    }

    /// Derives one link's profile — identity, baseline, process parameters
    /// and event schedule — without sampling its trace (deterministic in
    /// `link_id`, and byte-identical to the corresponding fields of
    /// [`link`](Self::link)).
    pub fn link_profile(&self, link_id: usize) -> LinkProfile {
        assert!(link_id < self.n_links(), "link out of range");
        let cfg = &self.config;
        let fiber_id = link_id / cfg.wavelengths_per_fiber;
        let wavelength_index = link_id % cfg.wavelengths_per_fiber;
        let mut rng = self.stream(3, fiber_id as u64, wavelength_index as u64);

        let baseline = Db((self.fiber_baseline(fiber_id).value()
            + rng.normal(0.0, cfg.wavelength_jitter_sd_db))
        .clamp(cfg.baseline_clamp_db.0, cfg.baseline_clamp_db.1));

        let ou_sigma_db = if rng.chance(cfg.noisy_link_fraction) {
            rng.uniform_in(cfg.noisy_sigma_db.0, cfg.noisy_sigma_db.1)
        } else {
            cfg.quiet_sigma_db
        };

        // Link-level events.
        let mut events = self.fiber_events(fiber_id);
        for _ in 0..rng.poisson(cfg.scale(cfg.shallow_dip_rate)) {
            let start = self.uniform_start(&mut rng);
            let duration = SimDuration::from_hours_f64(rng.lognormal_median(3.0, 0.8));
            let depth_db = rng.uniform_in(1.0, 4.0);
            events.push(Event { kind: EventKind::Dip { depth_db }, start, duration });
        }
        for _ in 0..rng.poisson(cfg.scale(cfg.deep_dip_rate)) {
            let start = self.uniform_start(&mut rng);
            let duration = SimDuration::from_hours_f64(rng.lognormal_median(3.0, 0.8));
            let depth_db = rng.uniform_in(7.0, 14.0);
            events.push(Event { kind: EventKind::Dip { depth_db }, start, duration });
        }
        for _ in 0..rng.poisson(cfg.scale(cfg.step_rate)) {
            let start = self.uniform_start(&mut rng);
            let duration = SimDuration::from_days(rng.lognormal_median(10.0, 0.7).ceil() as u64);
            let delta_db = rng.uniform_in(0.5, 3.0);
            events.push(Event { kind: EventKind::Step { delta_db }, start, duration });
        }
        for _ in 0..rng.poisson(cfg.scale(cfg.link_lol_rate)) {
            let start = self.uniform_start(&mut rng);
            let duration = SimDuration::from_hours_f64(rng.lognormal_median(4.0, 1.0));
            events.push(Event { kind: EventKind::LossOfLight, start, duration });
        }

        let process = SnrProcess {
            baseline_db: baseline.value(),
            ou_sigma_db,
            ou_relaxation: SimDuration::from_hours(6),
            diurnal_amp_db: 0.15,
            diurnal_phase: rng.uniform_in(0.0, std::f64::consts::TAU),
            noise_floor_db: 0.2,
        };
        LinkProfile { link_id, fiber_id, wavelength_index, baseline, process, events }
    }

    /// Materialises one link (deterministic in `link_id`), trace included.
    pub fn link(&self, link_id: usize) -> LinkTelemetry {
        let cfg = &self.config;
        let LinkProfile { link_id, fiber_id, wavelength_index, baseline, process, events } =
            self.link_profile(link_id);
        let trace = process.generate_batch(
            SimTime::EPOCH,
            cfg.horizon,
            cfg.tick,
            &events,
            &self.batch_rng(link_id),
        );
        LinkTelemetry { link_id, fiber_id, wavelength_index, baseline, process, events, trace }
    }

    /// All wavelengths of one cable (Fig. 1 is one such family).
    pub fn fiber(&self, fiber_id: usize) -> Vec<LinkTelemetry> {
        let wpf = self.config.wavelengths_per_fiber;
        (0..wpf).map(|w| self.link(fiber_id * wpf + w)).collect()
    }

    /// Streams the whole fleet through the fused kernel into a
    /// [`FleetAccumulator`] (never a materialised trace).
    pub fn fleet_analysis(&self, table: &ModulationTable) -> FleetAccumulator {
        let mut acc = FleetAccumulator::new();
        let mut kernel = FleetKernel::new();
        for link_id in 0..self.n_links() {
            acc.push(&kernel.analyze_generated(self, link_id, table));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::LinkAnalysis;
    use crate::events::EventKind;

    fn small_gen() -> FleetGenerator {
        FleetGenerator::new(FleetConfig::small())
    }

    #[test]
    fn link_is_deterministic() {
        let g = small_gen();
        let a = g.link(7);
        let b = g.link(7);
        assert_eq!(a, b);
    }

    #[test]
    fn links_differ() {
        let g = small_gen();
        assert_ne!(g.link(0).trace, g.link(1).trace);
        assert_ne!(g.link(0).baseline, g.link(25).baseline);
    }

    #[test]
    fn identity_mapping() {
        let g = small_gen();
        let link = g.link(23); // fiber 2, wavelength 3 (10 per fiber)
        assert_eq!(link.fiber_id, 2);
        assert_eq!(link.wavelength_index, 3);
        assert_eq!(link.link_id, 23);
    }

    #[test]
    fn fiber_events_shared_across_wavelengths() {
        let g = small_gen();
        let fiber_log = g.fiber_events(1);
        for link in g.fiber(1) {
            for e in fiber_log.events() {
                assert!(
                    link.events.events().contains(e),
                    "wavelength {} missing fiber event",
                    link.wavelength_index
                );
            }
        }
    }

    #[test]
    fn baselines_cluster_per_fiber() {
        let g = small_gen();
        for fiber in 0..g.config().n_fibers {
            let base = g.fiber_baseline(fiber).value();
            for link in g.fiber(fiber) {
                // Jitter sd 0.8 clamped: 5 sd is a generous envelope.
                assert!(
                    (link.baseline.value() - base).abs() < 4.0,
                    "fiber {fiber} wavelength {} strays: {} vs {base}",
                    link.wavelength_index,
                    link.baseline
                );
            }
        }
    }

    #[test]
    fn baselines_respect_clamp() {
        let g = small_gen();
        let (lo, hi) = g.config().baseline_clamp_db;
        for id in 0..g.n_links() {
            let b = g.link(id).baseline.value();
            assert!((lo..=hi).contains(&b), "link {id} baseline {b}");
        }
    }

    #[test]
    fn trace_length_matches_horizon() {
        let g = small_gen();
        let link = g.link(0);
        let expected = g.config().horizon.ticks(g.config().tick) as usize;
        assert_eq!(link.trace.len(), expected);
    }

    #[test]
    fn fiber_cut_hits_every_wavelength() {
        // Crank the cut rate so fiber 0 certainly has one, then check every
        // wavelength's trace drops to the floor during it.
        let mut cfg = FleetConfig::small();
        cfg.fiber_cut_rate = 50.0;
        let g = FleetGenerator::new(cfg);
        let cuts = g
            .fiber_events(0)
            .filter(|e| matches!(e.kind, EventKind::LossOfLight));
        assert!(!cuts.is_empty());
        let cut = cuts[0];
        // Find a tick fully inside the cut.
        let tick = g.config().tick;
        let idx = (cut.start.since_epoch().as_millis() / tick.as_millis()) as usize + 1;
        for link in g.fiber(0) {
            if idx < link.trace.len() && cut.active_at(link.trace.time_at(idx)) {
                assert!(
                    link.trace.values()[idx] < 1.0,
                    "wavelength {} not dark during fiber cut",
                    link.wavelength_index
                );
            }
        }
    }

    #[test]
    fn fleet_analysis_streams_all_links() {
        let g = small_gen();
        let table = ModulationTable::paper_default();
        let acc = g.fleet_analysis(&table);
        assert_eq!(acc.len(), g.n_links());
        // Every link must at least carry the 100 G default most of the time:
        // mean SNR above 6.5 for the healthy majority.
        assert!(acc.fraction_feasible_at_least(rwc_util::units::Gbps(100.0)) > 0.9);
    }

    #[test]
    fn event_rates_scale_with_horizon() {
        // Doubling the horizon should roughly double total events.
        let mut short = FleetConfig::small();
        short.seed = 99;
        let mut long = short.clone();
        long.horizon = short.horizon * 2;
        let count = |cfg: FleetConfig| {
            let g = FleetGenerator::new(cfg);
            (0..g.n_links()).map(|i| g.link(i).events.len()).sum::<usize>()
        };
        let s = count(short);
        let l = count(long);
        assert!(l > s, "events must grow with horizon: {s} vs {l}");
    }

    #[test]
    #[should_panic]
    fn rejects_empty_fleet() {
        FleetGenerator::new(FleetConfig { n_fibers: 0, ..FleetConfig::small() });
    }

    #[test]
    fn fiber_memo_is_byte_identical_to_direct_derivation() {
        // The cache stores whatever the pure per-fiber derivation produced
        // first; any access order, on any clone, must see the same bytes a
        // fresh generator computes.
        let a = small_gen();
        let b = small_gen();
        let clone = a.clone();
        for fiber in (0..a.config().n_fibers).rev() {
            assert_eq!(a.fiber_events(fiber), b.fiber_events(fiber));
            assert_eq!(a.fiber_baseline(fiber), b.fiber_baseline(fiber));
            assert_eq!(clone.fiber_events(fiber), b.fiber_events(fiber));
        }
        // And profiles (which consume the memo) stay deterministic.
        for id in [0, 7, 23, 39] {
            assert_eq!(a.link_profile(id), b.link_profile(id));
        }
    }

    #[test]
    fn generate_link_into_matches_link_trace() {
        let g = small_gen();
        let mut scratch = BatchScratch::default();
        let mut buf = Vec::new();
        for id in [0, 13, 39] {
            g.generate_link_into(id, &mut scratch, &mut buf);
            let trace = g.link(id).trace;
            assert_eq!(buf.len(), trace.len(), "link {id}");
            let same = buf
                .iter()
                .zip(trace.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "link {id}: streamed bytes diverged from trace");
        }
    }

    #[test]
    fn fleet_analysis_matches_link_analysis_of_materialised_traces() {
        // The fused fleet fold equals LinkAnalysis::new over each
        // materialised trace, pushed in link order.
        let g = small_gen();
        let table = ModulationTable::paper_default();
        let mut oracle = FleetAccumulator::new();
        for link_id in 0..g.n_links() {
            oracle.push(&LinkAnalysis::new(&g.link(link_id).trace, &table));
        }
        assert_eq!(
            serde_json::to_string(&g.fleet_analysis(&table)).unwrap(),
            serde_json::to_string(&oracle).unwrap(),
            "fused fleet analysis diverged from the per-trace oracle"
        );
    }
}
