//! The per-link stochastic SNR process.
//!
//! A link's SNR series is composed of four layers:
//!
//! 1. a constant **baseline** set by the link budget (route length,
//!    amplifier chain);
//! 2. **micro-noise**: an Ornstein–Uhlenbeck (OU) process — mean-reverting
//!    Gaussian wander with a relaxation time of hours. This is what makes
//!    the 95% highest-density region of a healthy link narrower than 2 dB;
//! 3. a small **diurnal ripple** (temperature cycling of the plant);
//! 4. scheduled [`events`](crate::events) — dips, step degradations and
//!    loss-of-light outages.
//!
//! The OU process is simulated exactly (its transition density is Gaussian),
//! so the sampling interval does not bias the stationary distribution.

use crate::events::EventLog;
use crate::trace::SnrTrace;
use rwc_util::rng::CounterRng;
use rwc_util::simd::fill_normal_pairs;
use rwc_util::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Parameters of one link's SNR process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnrProcess {
    /// Healthy-state mean SNR, dB.
    pub baseline_db: f64,
    /// Stationary standard deviation of the OU micro-noise, dB.
    pub ou_sigma_db: f64,
    /// OU relaxation (mean-reversion) time.
    pub ou_relaxation: SimDuration,
    /// Peak amplitude of the diurnal ripple, dB.
    pub diurnal_amp_db: f64,
    /// Phase offset of the diurnal ripple, radians (differs per link).
    pub diurnal_phase: f64,
    /// SNR reading reported while the light is lost, dB. Real receivers
    /// report a noise-floor estimate of a few tenths of a dB.
    pub noise_floor_db: f64,
}

impl Default for SnrProcess {
    fn default() -> Self {
        Self {
            baseline_db: 12.8,
            ou_sigma_db: 0.35,
            ou_relaxation: SimDuration::from_hours(6),
            diurnal_amp_db: 0.15,
            diurnal_phase: 0.0,
            noise_floor_db: 0.2,
        }
    }
}

/// Ticks per OU block in the batch pipeline. Block boundaries are chained
/// with the closed-form `ρ^B` jump (`S_{b+1} = ρ_B·S_b + σ√(1−ρ_B²)·z`), so
/// the OU state at any boundary costs `O(tick / BATCH_BLOCK)` instead of
/// `O(tick)`, and a window landing mid-block warms up over at most
/// `BATCH_BLOCK − 1` ticks. At the telemetry tick (15 min) and default
/// relaxation (6 h), `ρ^1024 = e^{-42.7} ≈ 3e-19`: the block-boundary
/// correlation the jump chain carries is already numerically zero, so the
/// approximation error of re-anchoring is far below the stationary noise.
pub(crate) const BATCH_BLOCK: u64 = 1024;

/// Diurnal rotation resync period, in ticks. The ripple is advanced by an
/// angle-addition rotation (two mul + one add per component per tick) and
/// re-anchored to an exact `sin_cos` every `DIURNAL_RESYNC` ticks, bounding
/// drift to ~64 ulp-scale rotations (≪ 1e-12 dB) while keeping the value at
/// every tick a pure function of the absolute tick index.
const DIURNAL_RESYNC: u64 = 64;

// Counter-RNG sub-stream salts (via `CounterRng::derive`). Disjoint salts
// keep the OU innovations, the block-boundary jump chain, and the
// loss-of-light floor jitter statistically independent while all remain
// pure functions of `(link key, tick)`.
const DOM_INNOV: u64 = 0;
const DOM_JUMP: u64 = 1;
const DOM_FLOOR: u64 = 2;

/// A resumable position in a link's SNR stream.
///
/// A cursor is *just a tick index*: every sample is a pure function of
/// `(process, events, rng, absolute tick)`, so resuming needs no generator
/// state at all. Windows generated through a cursor are bit-identical to
/// one-shot generation regardless of how the horizon is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchCursor {
    /// Absolute index (from the trace origin) of the next tick to generate.
    tick: u64,
}

impl BatchCursor {
    /// A cursor at the trace origin.
    pub fn begin() -> Self {
        Self { tick: 0 }
    }

    /// A cursor positioned at an arbitrary absolute tick — windows may
    /// start mid-trace without generating their prefix.
    pub fn at_tick(tick: u64) -> Self {
        Self { tick }
    }

    /// Absolute index of the next tick this cursor will generate.
    pub fn next_tick(&self) -> u64 {
        self.tick
    }
}

/// Reusable scratch buffers for batch generation: the SIMD innovation
/// block and the event segments. One instance amortises all allocation
/// across every link and window of a sweep.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    innov: Vec<f64>,
    bounds: Vec<u64>,
    effects: Vec<Option<f64>>,
}

impl SnrProcess {
    /// Generates a trace of `[start, start + horizon)` at the given tick,
    /// applying the event schedule. Every sample is drawn from the
    /// counter-based `rng`, indexed by absolute tick.
    pub fn generate_batch(
        &self,
        start: SimTime,
        horizon: SimDuration,
        tick: SimDuration,
        events: &EventLog,
        rng: &CounterRng,
    ) -> SnrTrace {
        let mut samples = Vec::new();
        let mut scratch = BatchScratch::default();
        self.generate_batch_into(start, horizon, tick, events, rng, &mut scratch, &mut samples);
        SnrTrace::new(start, tick, samples)
    }

    /// Streams the same series as [`generate_batch`](Self::generate_batch)
    /// into a caller-owned buffer (cleared first), reusing one allocation
    /// across links.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_into(
        &self,
        start: SimTime,
        horizon: SimDuration,
        tick: SimDuration,
        events: &EventLog,
        rng: &CounterRng,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        let n = horizon.ticks(tick);
        assert!(n > 0, "horizon shorter than one tick");
        out.clear();
        let mut cursor = BatchCursor::begin();
        self.generate_batch_window(&mut cursor, n, start, tick, events, rng, scratch, out);
    }

    /// Generates the next `n` ticks of the batch stream, **appending** to
    /// `out` and advancing the cursor. `start` is the trace origin (the
    /// time of absolute tick 0), not the window start; the window covers
    /// absolute ticks `[cursor.next_tick(), cursor.next_tick() + n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_window(
        &self,
        cursor: &mut BatchCursor,
        n: u64,
        start: SimTime,
        tick: SimDuration,
        events: &EventLog,
        rng: &CounterRng,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        out.reserve(n as usize);
        self.stream_window(cursor, n, start, tick, events, rng, scratch, out, |_| {});
    }

    /// The one generation loop. Appends each block of at most
    /// `BATCH_BLOCK` readings to `out`, patches its events in place and
    /// then hands `out` to `sink`, in tick order. A sink that consumes and
    /// clears `out` folds the window without ever holding it.
    ///
    /// Every sample is a pure function of the absolute tick index, so any
    /// split of a horizon into windows — across calls, threads, shards or
    /// serialized cursors — concatenates to the same bytes as one call:
    ///
    /// - OU: tick `t` in block `b = t / BATCH_BLOCK` is reached from the
    ///   jump-chain boundary value `S_b` by a serial `x' = ρx + cξ_t` scan,
    ///   with the innovation `ξ_t` indexed by `t` (counter RNG);
    /// - diurnal: re-anchored exactly at every multiple of
    ///   `DIURNAL_RESYNC` and rotated forward, so the state at `t` depends
    ///   only on `t`;
    /// - events: compiled once per window into constant-offset tick
    ///   segments whose boundaries are pure functions of the schedule.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stream_window(
        &self,
        cursor: &mut BatchCursor,
        n: u64,
        start: SimTime,
        tick: SimDuration,
        events: &EventLog,
        rng: &CounterRng,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
        mut sink: impl FnMut(&mut Vec<f64>),
    ) {
        assert!(self.ou_sigma_db >= 0.0, "sigma must be non-negative");
        assert!(self.ou_relaxation > SimDuration::ZERO, "relaxation must be positive");
        if n == 0 {
            return;
        }
        let t0 = cursor.tick;
        let t_end = t0 + n;

        // Exact OU update: x' = x·ρ + σ·sqrt(1−ρ²)·ξ with ρ = exp(−Δt/τ).
        let rho = (-(tick.as_secs_f64() / self.ou_relaxation.as_secs_f64())).exp();
        let innovation = self.ou_sigma_db * (1.0 - rho * rho).sqrt();
        let rho_block = rho.powi(BATCH_BLOCK as i32);
        let jump_innovation = self.ou_sigma_db * (1.0 - rho_block * rho_block).sqrt();

        let innov_rng = rng.derive(DOM_INNOV);
        let jump_rng = rng.derive(DOM_JUMP);
        let floor_rng = rng.derive(DOM_FLOOR);

        // Jump the boundary chain to the window's first block:
        // S_0 = σ·z_0 (stationary init), S_{b+1} = ρ_B·S_b + σ√(1−ρ_B²)·z_{b+1}.
        let first_block = t0 / BATCH_BLOCK;
        let mut chain_block = first_block;
        let mut boundary = self.ou_sigma_db * jump_rng.normal_pair(0).0;
        for b in 1..=first_block {
            boundary = rho_block * boundary + jump_innovation * jump_rng.normal_pair(b).0;
        }

        // Diurnal ripple state: exact anchor + per-tick rotation.
        let day = SimDuration::from_days(1).as_secs_f64();
        let step = std::f64::consts::TAU * (tick.as_secs_f64() / day);
        let (step_sin, step_cos) = step.sin_cos();
        let exact_diurnal = |t: u64| -> (f64, f64) {
            let at = start + tick * t;
            (std::f64::consts::TAU * (at.since_epoch().as_secs_f64() / day) + self.diurnal_phase)
                .sin_cos()
        };
        let (mut dsin, mut dcos) = exact_diurnal(t0 - t0 % DIURNAL_RESYNC);
        for _ in 0..t0 % DIURNAL_RESYNC {
            let (ns, nc) = (dsin * step_cos + dcos * step_sin, dcos * step_cos - dsin * step_sin);
            dsin = ns;
            dcos = nc;
        }

        // OU warm-up: scan from the block boundary up to x_{t0−1}. The main
        // loop below consumes ξ_{t0} itself, so warm-up covers the ticks
        // (block_start, t0) exclusive of both ends' innovations.
        let mut x = boundary;
        let block_start = first_block * BATCH_BLOCK;
        if t0 > block_start + 1 {
            Self::fill_innovations(&innov_rng, block_start + 1, t0, scratch);
            let lo = (block_start + 1) & !1;
            for t in block_start + 1..t0 {
                x = rho * x + innovation * scratch.innov[(t - lo) as usize];
            }
        }

        // Event composition: compile the schedule into constant-offset tick
        // segments tiling [t0, t_end). Segment boundaries are the event
        // start/end ticks, so the offset (evaluated at the segment's first
        // tick, summing `snr_effect_at` in log order; `None` while a
        // loss-of-light blanks it) is constant over the segment.
        let BatchScratch { bounds, effects, .. } = scratch;
        bounds.clear();
        bounds.push(t0);
        bounds.push(t_end);
        let tick_ms = tick.as_millis();
        for e in events.events() {
            let k_lo = e.start.as_millis().saturating_sub(start.as_millis()).div_ceil(tick_ms);
            let k_hi = e.end().as_millis().saturating_sub(start.as_millis()).div_ceil(tick_ms);
            for k in [k_lo, k_hi] {
                if k > t0 && k < t_end {
                    bounds.push(k);
                }
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        effects.clear();
        effects.extend(bounds[..bounds.len() - 1].iter().map(|&lo| {
            let at = start + tick * lo;
            let mut effect = Some(0.0);
            for e in events.events() {
                effect = match (effect, e.snr_effect_at(at)) {
                    (Some(total), Some(o)) => Some(total + o),
                    _ => None,
                };
                if effect.is_none() {
                    break;
                }
            }
            effect
        }));

        // Main scan, block by block: SIMD innovation fill, the serial
        // recurrence writing baseline + OU + diurnal, then the block's
        // event segments patched in place, and `out` goes to `sink`.
        let mut segment = 0;
        let mut t = t0;
        while t < t_end {
            let hi = ((t / BATCH_BLOCK + 1) * BATCH_BLOCK).min(t_end);
            Self::fill_innovations(&innov_rng, t, hi, scratch);
            let lo = t & !1;
            let BatchScratch { innov, bounds, effects } = scratch;
            let base = out.len();
            for tt in t..hi {
                if tt % BATCH_BLOCK == 0 {
                    let b = tt / BATCH_BLOCK;
                    if b > chain_block {
                        boundary =
                            rho_block * boundary + jump_innovation * jump_rng.normal_pair(b).0;
                        chain_block = b;
                    }
                    x = boundary;
                } else {
                    x = rho * x + innovation * innov[(tt - lo) as usize];
                }
                if tt % DIURNAL_RESYNC == 0 {
                    (dsin, dcos) = exact_diurnal(tt);
                }
                out.push(self.baseline_db + x + self.diurnal_amp_db * dsin);
                let (ns, nc) =
                    (dsin * step_cos + dcos * step_sin, dcos * step_cos - dsin * step_sin);
                dsin = ns;
                dcos = nc;
            }
            let block = &mut out[base..];
            loop {
                let end = bounds[segment + 1];
                let (from, to) = (bounds[segment].max(t), end.min(hi));
                let run = &mut block[(from - t) as usize..(to - t) as usize];
                match effects[segment] {
                    Some(offset) => {
                        for v in run.iter_mut() {
                            *v = (*v + offset).max(0.01);
                        }
                    }
                    None => {
                        for (v, k) in run.iter_mut().zip(from..) {
                            *v = (self.noise_floor_db + 0.05 * floor_rng.normal_at(k)).max(0.01);
                        }
                    }
                }
                if end > hi {
                    break; // the segment runs on into the next block
                }
                segment += 1;
                if end == hi {
                    break;
                }
            }
            sink(out);
            t = hi;
        }

        cursor.tick = t_end;
    }

    /// Fills `scratch.innov` with the innovations for absolute ticks
    /// `[lo, hi)` via the SIMD pair kernel. The buffer is pair-aligned:
    /// innovation `ξ_t` lands at index `t - (lo & !1)`.
    fn fill_innovations(innov_rng: &CounterRng, lo: u64, hi: u64, scratch: &mut BatchScratch) {
        let pair_lo = lo >> 1;
        let pair_hi = hi.div_ceil(2);
        let len = 2 * (pair_hi - pair_lo) as usize;
        scratch.innov.resize(len, 0.0);
        fill_normal_pairs(innov_rng, pair_lo, &mut scratch.innov[..len]);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::events::{Event, EventKind};
    use rwc_util::stats::Summary;

    fn quiet_process() -> SnrProcess {
        SnrProcess { diurnal_amp_db: 0.0, ..SnrProcess::default() }
    }

    fn eventful_log() -> EventLog {
        let mut events = EventLog::new();
        events.push(Event {
            kind: EventKind::Dip { depth_db: 4.0 },
            start: SimTime::EPOCH + SimDuration::from_hours(5),
            duration: SimDuration::from_hours(9),
        });
        events.push(Event {
            kind: EventKind::LossOfLight,
            start: SimTime::EPOCH + SimDuration::from_days(2),
            duration: SimDuration::from_hours(3),
        });
        events.push(Event {
            kind: EventKind::Step { delta_db: 1.0 },
            start: SimTime::EPOCH + SimDuration::from_hours(7),
            duration: SimDuration::from_days(4),
        });
        events
    }

    fn batch_trace(
        process: &SnrProcess,
        events: &EventLog,
        days: u64,
        seed: u64,
    ) -> SnrTrace {
        let rng = CounterRng::keyed(seed, 0, 5);
        process.generate_batch(
            SimTime::EPOCH,
            SimDuration::from_days(days),
            SimDuration::TELEMETRY_TICK,
            events,
            &rng,
        )
    }

    #[test]
    fn batch_windowed_matches_one_shot_bitwise() {
        // Uneven windows with a serde round trip of the cursor between them
        // (all the state a resume needs) concatenate to the one-shot bytes.
        let p = SnrProcess::default();
        let events = eventful_log();
        let trace = batch_trace(&p, &events, 7, 13);
        let n = trace.len() as u64;

        let rng = CounterRng::keyed(13, 0, 5);
        let mut scratch = BatchScratch::default();
        let mut cursor = BatchCursor::begin();
        let mut streamed = Vec::new();
        let mut left = n;
        for window in [1u64, 96, 7, 200, 1023, u64::MAX] {
            let take = window.min(left);
            let json = serde_json::to_string(&cursor).unwrap();
            cursor = serde_json::from_str(&json).expect("cursor round trip");
            p.generate_batch_window(
                &mut cursor,
                take,
                SimTime::EPOCH,
                SimDuration::TELEMETRY_TICK,
                &events,
                &rng,
                &mut scratch,
                &mut streamed,
            );
            left -= take;
            if left == 0 {
                break;
            }
        }
        assert_eq!(streamed.len(), trace.len());
        let same = streamed
            .iter()
            .zip(trace.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "windowed batch generation diverged from one-shot");
    }

    #[test]
    fn batch_mid_trace_window_needs_no_prefix() {
        // A window opened at an arbitrary absolute tick — without generating
        // anything before it — must reproduce the matching slice of the
        // one-shot stream bit for bit. This is the jump-ahead property that
        // makes batch generation parallel by construction.
        let p = SnrProcess::default();
        let events = eventful_log();
        let trace = batch_trace(&p, &events, 30, 17);
        let rng = CounterRng::keyed(17, 0, 5);
        let mut scratch = BatchScratch::default();
        for first in [0u64, 1, 63, 64, 511, 1023, 1024, 1025, 400] {
            let n = 150u64.min(trace.len() as u64 - first);
            let mut cursor = BatchCursor::at_tick(first);
            let mut window = Vec::new();
            p.generate_batch_window(
                &mut cursor,
                n,
                SimTime::EPOCH,
                SimDuration::TELEMETRY_TICK,
                &events,
                &rng,
                &mut scratch,
                &mut window,
            );
            let expect = &trace.values()[first as usize..(first + n) as usize];
            let same =
                window.iter().zip(expect).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "window at tick {first} diverged from one-shot slice");
        }
    }

    #[test]
    fn batch_stationary_mean_and_sd() {
        let p = quiet_process();
        let trace = batch_trace(&p, &EventLog::new(), 365, 1);
        let s = Summary::of(trace.values());
        assert!((s.mean - p.baseline_db).abs() < 0.1, "{s}");
        assert!((s.std_dev - p.ou_sigma_db).abs() < 0.12, "{s}");
    }

    #[test]
    fn batch_healthy_link_hdr_is_narrow() {
        let trace = batch_trace(&SnrProcess::default(), &EventLog::new(), 365, 2);
        let hdr = crate::hdr::Hdr::paper(&trace);
        assert!(hdr.width().value() < 2.0, "hdr width = {}", hdr.width());
    }

    #[test]
    fn batch_loss_of_light_reads_noise_floor() {
        let mut events = EventLog::new();
        events.push(Event {
            kind: EventKind::LossOfLight,
            start: SimTime::EPOCH + SimDuration::from_days(1),
            duration: SimDuration::from_hours(6),
        });
        let trace = batch_trace(&quiet_process(), &events, 3, 3);
        let day1 = SimDuration::from_days(1).ticks(SimDuration::TELEMETRY_TICK) as usize;
        let six_h = SimDuration::from_hours(6).ticks(SimDuration::TELEMETRY_TICK) as usize;
        for i in day1..day1 + six_h {
            assert!(trace.values()[i] < 1.0, "sample {i} = {}", trace.values()[i]);
        }
        assert!(trace.values()[day1 - 1] > 10.0);
        assert!(trace.values()[day1 + six_h + 1] > 10.0);
    }

    #[test]
    fn batch_dip_depth_is_respected() {
        let mut events = EventLog::new();
        events.push(Event {
            kind: EventKind::Dip { depth_db: 5.0 },
            start: SimTime::EPOCH + SimDuration::from_hours(10),
            duration: SimDuration::from_hours(5),
        });
        let p = quiet_process();
        let trace = batch_trace(&p, &events, 1, 4);
        let idx = SimDuration::from_hours(12).ticks(SimDuration::TELEMETRY_TICK) as usize;
        let dipped = trace.values()[idx];
        assert!((dipped - (p.baseline_db - 5.0)).abs() < 2.0, "dipped={dipped}");
    }

    #[test]
    fn batch_diurnal_ripple_visible_in_spectrum() {
        let p = SnrProcess {
            diurnal_amp_db: 1.0,
            ou_sigma_db: 0.01,
            ..SnrProcess::default()
        };
        let trace = batch_trace(&p, &EventLog::new(), 30, 5);
        let half_day = SimDuration::from_hours(12).ticks(SimDuration::TELEMETRY_TICK) as usize;
        let vals = trace.values();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let mut cov = 0.0;
        let mut var = 0.0;
        for i in 0..vals.len() - half_day {
            cov += (vals[i] - mean) * (vals[i + half_day] - mean);
            var += (vals[i] - mean).powi(2);
        }
        assert!(cov / var < -0.8, "correlation = {}", cov / var);
    }

    #[test]
    fn batch_snr_never_negative() {
        let mut events = EventLog::new();
        events.push(Event {
            kind: EventKind::Dip { depth_db: 50.0 },
            start: SimTime::EPOCH,
            duration: SimDuration::from_days(1),
        });
        let trace = batch_trace(&quiet_process(), &events, 1, 6);
        assert!(trace.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn batch_generation_is_deterministic() {
        let p = SnrProcess::default();
        let a = batch_trace(&p, &EventLog::new(), 10, 7);
        let b = batch_trace(&p, &EventLog::new(), 10, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_ou_relaxation_controls_correlation() {
        let correlated = SnrProcess {
            ou_relaxation: SimDuration::from_hours(24),
            diurnal_amp_db: 0.0,
            ..SnrProcess::default()
        };
        let uncorrelated = SnrProcess {
            ou_relaxation: SimDuration::from_minutes(1),
            diurnal_amp_db: 0.0,
            ..SnrProcess::default()
        };
        let lag1 = |trace: &SnrTrace| {
            let v = trace.values();
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let mut cov = 0.0;
            let mut var = 0.0;
            for i in 0..v.len() - 1 {
                cov += (v[i] - mean) * (v[i + 1] - mean);
                var += (v[i] - mean).powi(2);
            }
            cov / var
        };
        let c = lag1(&batch_trace(&correlated, &EventLog::new(), 60, 8));
        let u = lag1(&batch_trace(&uncorrelated, &EventLog::new(), 60, 9));
        assert!(c > 0.8, "correlated lag-1 = {c}");
        assert!(u.abs() < 0.1, "uncorrelated lag-1 = {u}");
    }
}
