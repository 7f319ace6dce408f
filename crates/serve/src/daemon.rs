//! The sharded daemon: ingest, supervision, checkpointing, drain.
//!
//! ## Architecture
//!
//! ```text
//!   ingest (HTTP / API)                 supervisor wrappers (one per shard)
//!        │  route = link % n_shards          │  catch_unwind(shard loop)
//!        ▼                                   │  restart w/ jittered backoff
//!   BoundedQueue[shard]  ──pop──▶  shard loop (kernel + controller)
//!                                            │ publishes capacities[link]
//!                                            │ mpsc (poison-free handoff)
//!                                            ▼
//!                                      collector thread
//!                                  slots · pipeline metrics ·
//!                                  per-shard checkpoints
//! ```
//!
//! The shard publishes, the collector owns. A link's feasible capacity is
//! a pure function of `(seed, link)` held in a write-once `OnceLock`, so
//! the shard that computed it sets it before the hand-off and `/capacity`
//! never waits for a slot merge or a checkpoint write. Everything that is
//! merged or written to disk — result slots, pipeline metrics, checkpoint
//! files — has exactly one owner (the collector), mirroring PR 6's
//! executor: a panicking shard can never poison state another thread
//! will later lock. Each link is processed by
//! [`crate::shard::process_link`], which is a pure function of
//! `(seed, link)` — so the slot-ordered final merge is byte-identical to
//! [`crate::batch_reference`] no matter how work was sharded, shed,
//! requeued, restarted, or resumed.
//!
//! ## Overload ledger
//!
//! Admissions are never silently dropped. At any quiet point:
//!
//! ```text
//! serve.ingested = serve.links_completed + serve.shed_oldest
//!                + serve.shed_deadline  + serve.inflight_drops
//!                + (currently queued)
//! ```
//!
//! `serve.requeued` (panic and reroute re-admissions) is informational —
//! a requeue keeps the original admission open rather than opening a new
//! one, which is what makes the ledger close exactly.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::queue::{BoundedQueue, Offer, PopKind, ShedPolicy};
use crate::shard::{
    fresh_controller, process_link, LinkDone, LINK_DONE, LINK_PENDING, LINK_QUEUED,
};
use rwc_harness::{
    CheckpointEpoch, CheckpointStore, ChunkCheckpoint, StoreLoad, SweepCheckpoint,
    SweepFingerprint, SWEEP_MODE,
};
use rwc_obs::{Event, MetricsObserver, MetricsSnapshot, Observer, Span};
use rwc_telemetry::{FleetAccumulator, FleetGenerator, FleetKernel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sentinel for "no link in flight" in a shard's current-link cell.
const NO_LINK: usize = usize::MAX;
/// How long a shard blocks in one pop before re-polling the external
/// shutdown flag (drain, kill and drop wake it through the queue instead).
const POP_WAIT: Duration = Duration::from_millis(5);
/// Sleep while processing is paused (tests stage deterministic overload).
const PAUSE_WAIT: Duration = Duration::from_millis(1);

/// Outcome of one `ingest` call — every id is accounted somewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Ids admitted to a shard queue.
    pub accepted: u64,
    /// Ids refused under backpressure ([`ShedPolicy::RejectNewest`] with a
    /// full queue); the caller may retry later.
    pub rejected: u64,
    /// Ids already queued or already completed (including links restored
    /// from a checkpoint) — idempotent re-ingest.
    pub duplicates: u64,
    /// Older queued ids evicted to admit these
    /// ([`ShedPolicy::ShedOldest`]); they reverted to pending and can be
    /// re-ingested.
    pub shed: u64,
    /// Ids outside the fleet.
    pub invalid: u64,
}

/// One shard's health as reported by `/readyz`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Still in rotation (restart budget not exhausted).
    pub healthy: bool,
    /// Restarts spent so far.
    pub restarts: u32,
    /// Items currently queued.
    pub queue_depth: usize,
}

/// The daemon's final output after a graceful drain.
#[derive(Debug)]
pub struct ServeReport {
    /// Slot-ordered fleet accumulator over every completed link —
    /// byte-identical to the batch path on the same seed.
    pub accumulator: FleetAccumulator,
    /// Pipeline metrics folded in ascending link order (the batch merge
    /// order), so the snapshot is byte-identical too.
    pub pipeline_metrics: MetricsSnapshot,
    /// Operational `serve.*` counters — shedding, restarts, checkpoints.
    pub serve_metrics: MetricsSnapshot,
    /// Links completed (fresh + restored).
    pub links_completed: u64,
}

impl ServeReport {
    /// Convenience read of one `serve.*` counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.serve_metrics.counters.get(name).copied().unwrap_or(0)
    }
}

struct SlotDone {
    acc: FleetAccumulator,
    metrics: MetricsSnapshot,
}

struct DaemonInner {
    cfg: ServeConfig,
    gen: Arc<FleetGenerator>,
    fingerprint: SweepFingerprint,
    queues: Vec<Arc<BoundedQueue<usize>>>,
    /// Per-link ingest state machine (pending / queued / done).
    states: Vec<AtomicU8>,
    /// Per-link processing attempts (chaos panics key off this).
    attempts: Vec<AtomicU32>,
    /// Per-shard in-flight link (NO_LINK when idle).
    currents: Vec<AtomicUsize>,
    healthy: Vec<AtomicBool>,
    restarts: Vec<AtomicU32>,
    kill: AtomicBool,
    draining: AtomicBool,
    paused: AtomicBool,
    /// The daemon's own registry: `serve.*` counters and events.
    obs: Arc<MetricsObserver>,
    /// Incrementally merged pipeline metrics for O(1) `/metrics` scrapes
    /// (operational view; the drain report re-folds in link order).
    pipeline: Mutex<MetricsSnapshot>,
    slots: Mutex<Vec<Option<SlotDone>>>,
    capacities: Vec<OnceLock<f64>>,
    slots_filled: AtomicU64,
    queue_high_water: AtomicUsize,
    fatal: Mutex<Option<ServeError>>,
    /// One two-epoch checkpoint store per shard (empty = checkpointing off).
    stores: Vec<CheckpointStore>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Admit {
    Accepted,
    AcceptedShedding(u64),
    Rejected,
    NoShard,
}

impl DaemonInner {
    fn set_fatal(&self, err: ServeError) {
        let mut slot = lock(&self.fatal);
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// First healthy shard at or after the link's home shard.
    fn route(&self, link: usize) -> Option<usize> {
        let n = self.cfg.n_shards;
        let home = link % n;
        (0..n).map(|i| (home + i) % n).find(|&s| self.healthy[s].load(Ordering::Acquire))
    }

    fn note_depth(&self, shard: usize) {
        let depth = self.queues[shard].len();
        let prev = self.queue_high_water.fetch_max(depth, Ordering::AcqRel);
        if depth > prev {
            self.obs.gauge("serve.queue_depth", depth as f64);
        }
    }

    /// Admits a queued-state link to a shard queue. `counter` names the
    /// admission class (`serve.ingested` for fresh ingest; requeues use
    /// `serve.requeued` and keep the original admission open). `policy`
    /// lets supervision requeues force [`ShedPolicy::ShedOldest`] so an
    /// in-flight link is never lost to a full queue.
    fn admit(&self, link: usize, counter: &'static str, policy: ShedPolicy) -> Admit {
        let n = self.cfg.n_shards;
        let Some(first) = self.route(link) else {
            self.states[link].store(LINK_PENDING, Ordering::Release);
            return Admit::NoShard;
        };
        // Walk healthy shards from the routed one; only a queue closed by
        // a concurrent unhealthy transition moves us along.
        for i in 0..n {
            let shard = (first + i) % n;
            if !self.healthy[shard].load(Ordering::Acquire) {
                continue;
            }
            match self.queues[shard].offer(link, policy) {
                Offer::Accepted => {
                    self.obs.incr(counter, 1);
                    self.note_depth(shard);
                    return Admit::Accepted;
                }
                Offer::AcceptedShedOldest(old) => {
                    self.obs.incr(counter, 1);
                    self.states[old].store(LINK_PENDING, Ordering::Release);
                    self.obs.incr("serve.shed_oldest", 1);
                    self.obs.event(&Event::OverloadShed { shard: shard as u64, count: 1 });
                    self.note_depth(shard);
                    return Admit::AcceptedShedding(1);
                }
                Offer::Rejected(l) => {
                    self.states[l].store(LINK_PENDING, Ordering::Release);
                    self.obs.incr("serve.rejected", 1);
                    return Admit::Rejected;
                }
                Offer::Closed(_) => continue,
            }
        }
        self.states[link].store(LINK_PENDING, Ordering::Release);
        Admit::NoShard
    }

    /// The shard worker loop. Panics (chaos-injected or real) unwind out
    /// to the supervisor wrapper.
    fn shard_loop(&self, shard: usize, tx: &mpsc::Sender<LinkDone>) {
        let mut kernel = FleetKernel::new();
        let controller = fresh_controller(&self.cfg);
        loop {
            if self.kill.load(Ordering::Acquire) {
                self.drop_residual(shard);
                return;
            }
            if let Some(flag) = &self.cfg.shutdown {
                if flag.load(Ordering::Acquire) {
                    self.draining.store(true, Ordering::Release);
                }
            }
            if self.paused.load(Ordering::Acquire) && !self.draining.load(Ordering::Acquire) {
                std::thread::sleep(PAUSE_WAIT);
                continue;
            }
            let popped = self.queues[shard].pop_timeout(self.cfg.deadline, POP_WAIT);
            if !popped.expired.is_empty() {
                let count = popped.expired.len() as u64;
                for &l in &popped.expired {
                    self.states[l].store(LINK_PENDING, Ordering::Release);
                }
                self.obs.incr("serve.shed_deadline", count);
                self.obs.event(&Event::OverloadShed { shard: shard as u64, count });
            }
            match popped.kind {
                PopKind::Closed => return,
                PopKind::TimedOut => {
                    if self.draining.load(Ordering::Acquire) && self.queues[shard].is_empty() {
                        return;
                    }
                }
                PopKind::Item(link) => {
                    self.obs
                        .record("serve.queue_wait_micros", popped.queue_wait.as_micros() as f64);
                    if self.kill.load(Ordering::Acquire) {
                        self.states[link].store(LINK_PENDING, Ordering::Release);
                        self.obs.incr("serve.inflight_drops", 1);
                        self.drop_residual(shard);
                        return;
                    }
                    self.currents[shard].store(link, Ordering::Release);
                    let attempt = self.attempts[link].fetch_add(1, Ordering::AcqRel);
                    if let Some(plan) = &self.cfg.chaos {
                        if plan.should_panic(link as u64, attempt) {
                            panic!(
                                "chaos: injected panic on link {link} (attempt {attempt}, shard {shard})"
                            );
                        }
                    }
                    let done = process_link(&mut kernel, &controller, &self.gen, &self.cfg, link);
                    // Visible to `/capacity` from here on; the collector's
                    // merge and checkpoint happen behind it.
                    self.capacities[link].set(done.feasible_gbps).ok();
                    self.states[link].store(LINK_DONE, Ordering::Release);
                    self.currents[shard].store(NO_LINK, Ordering::Release);
                    tx.send(done).ok();
                }
            }
        }
    }

    /// Accounts for everything still queued on `shard` at an abrupt kill.
    fn drop_residual(&self, shard: usize) {
        let residual = self.queues[shard].drain_all();
        if residual.is_empty() {
            return;
        }
        for &l in &residual {
            self.states[l].store(LINK_PENDING, Ordering::Release);
        }
        self.obs.incr("serve.inflight_drops", residual.len() as u64);
    }

    /// Supervisor wrapper: restart-with-backoff on panic, unhealthy after
    /// the budget, reroute of orphaned work to the remaining shards.
    fn shard_wrapper(self: &Arc<Self>, shard: usize, tx: mpsc::Sender<LinkDone>) {
        loop {
            let result = catch_unwind(AssertUnwindSafe(|| self.shard_loop(shard, &tx)));
            let payload = match result {
                Ok(()) => return, // drained, closed, or killed
                Err(payload) => payload,
            };
            let message = panic_message(payload);
            self.obs.incr("serve.shard_panics", 1);
            let inflight = self.currents[shard].swap(NO_LINK, Ordering::AcqRel);
            let spent = self.restarts[shard].load(Ordering::Acquire);
            if spent < self.cfg.restart.budget {
                self.restarts[shard].store(spent + 1, Ordering::Release);
                if inflight != NO_LINK {
                    self.states[inflight].store(LINK_QUEUED, Ordering::Release);
                    // ShedOldest here regardless of the ingest policy: the
                    // interrupted link must not be lost to a full queue.
                    if matches!(
                        self.admit(inflight, "serve.requeued", ShedPolicy::ShedOldest),
                        Admit::NoShard
                    ) {
                        self.set_fatal(ServeError::ShardFailed {
                            shard: shard as u64,
                            message: message.clone(),
                        });
                        return;
                    }
                }
                std::thread::sleep(self.cfg.restart.backoff(shard as u64, spent + 1));
                self.obs.incr("serve.shard_restarts", 1);
                self.obs.event(&Event::ShardRestarted {
                    shard: shard as u64,
                    restarts: u64::from(spent + 1),
                });
                continue;
            }
            // Budget exhausted: out of rotation, hand the backlog over.
            self.healthy[shard].store(false, Ordering::Release);
            self.obs.incr("serve.shards_unhealthy", 1);
            self.obs.event(&Event::ShardUnhealthy { shard: shard as u64 });
            self.queues[shard].close();
            let mut orphans = self.queues[shard].drain_all();
            if inflight != NO_LINK {
                orphans.insert(0, inflight);
            }
            let mut stranded = false;
            for l in orphans {
                self.states[l].store(LINK_QUEUED, Ordering::Release);
                if matches!(
                    self.admit(l, "serve.requeued", ShedPolicy::ShedOldest),
                    Admit::NoShard
                ) {
                    stranded = true;
                }
            }
            if stranded || !self.healthy.iter().any(|h| h.load(Ordering::Acquire)) {
                self.set_fatal(ServeError::ShardFailed { shard: shard as u64, message });
            }
            return;
        }
    }

    /// Collector: sole owner of slots, pipeline merge, and checkpoint
    /// writes. Ends when every shard sender is gone.
    fn collector_loop(&self, rx: mpsc::Receiver<LinkDone>) {
        let n_shards = self.cfg.n_shards;
        let mut pending_per_shard = vec![0u64; n_shards];
        for done in rx {
            let link = done.link;
            let home = link % n_shards;
            {
                let mut slots = lock(&self.slots);
                if slots[link].is_some() {
                    continue; // already restored or completed
                }
                lock(&self.pipeline).merge(&done.metrics);
                slots[link] = Some(SlotDone { acc: done.acc, metrics: done.metrics });
            }
            self.slots_filled.fetch_add(1, Ordering::AcqRel);
            self.obs.incr("serve.links_completed", 1);
            if !self.stores.is_empty() {
                pending_per_shard[home] += 1;
                let every = self.cfg.checkpoint.as_ref().map_or(u64::MAX, |c| c.every_links);
                if pending_per_shard[home] >= every {
                    pending_per_shard[home] = 0;
                    if let Err(e) = self.write_shard_checkpoint(home) {
                        self.set_fatal(e.into());
                    }
                }
            }
        }
    }

    /// Writes shard `shard`'s checkpoint: every completed link homed to it
    /// (chunk id = link id, chunk size 1), rotated through the two-epoch
    /// store.
    fn write_shard_checkpoint(&self, shard: usize) -> Result<(), rwc_harness::CheckpointError> {
        let _span = Span::start(&*self.obs, "serve.checkpoint_write_micros");
        let mut cp = SweepCheckpoint::new(self.fingerprint.clone());
        {
            let slots = lock(&self.slots);
            for (link, slot) in slots.iter().enumerate() {
                if link % self.cfg.n_shards != shard {
                    continue;
                }
                if let Some(done) = slot {
                    cp.chunks.push(ChunkCheckpoint {
                        id: link as u64,
                        accumulator: done.acc.clone(),
                        metrics: Some(done.metrics.clone()),
                    });
                }
            }
        }
        let completed = cp.chunks.len() as u64;
        self.stores[shard].write(&cp)?;
        self.obs.incr("serve.checkpoints_written", 1);
        self.obs.event(&Event::CheckpointWritten { completed_chunks: completed });
        Ok(())
    }
}

/// The running daemon. Construct with [`Daemon::start`]; finish with
/// [`Daemon::drain`] (graceful: flush, final checkpoints, report) or
/// [`Daemon::kill`] (abrupt, simulating `kill -9`; periodic checkpoints
/// are all that survives).
#[derive(Debug)]
pub struct Daemon {
    inner: Arc<DaemonInner>,
    shard_handles: Vec<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonInner")
            .field("n_shards", &self.cfg.n_shards)
            .field("n_links", &self.cfg.n_links())
            .field("slots_filled", &self.slots_filled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Daemon {
    /// Validates the config, restores per-shard checkpoints (newest epoch
    /// that verifies; corrupt epochs are counted and skipped), and spawns
    /// the shard, supervisor and collector threads.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let n_links = cfg.n_links();
        let n_shards = cfg.n_shards;
        let gen = Arc::new(FleetGenerator::new(cfg.fleet.clone()));
        let fingerprint = SweepFingerprint {
            n_links: n_links as u64,
            chunk_size: 1,
            seed: cfg.fleet.seed,
            mode: SWEEP_MODE.into(),
        };
        let stores = match &cfg.checkpoint {
            None => Vec::new(),
            Some(ck) => {
                std::fs::create_dir_all(&ck.dir).map_err(|e| {
                    ServeError::Io(format!("create checkpoint dir {}: {e}", ck.dir.display()))
                })?;
                (0..n_shards)
                    .map(|s| CheckpointStore::new(ck.dir.join(format!("shard-{s}.ckpt"))))
                    .collect()
            }
        };
        let obs = Arc::new(MetricsObserver::new());
        let inner = Arc::new(DaemonInner {
            gen,
            fingerprint,
            queues: (0..n_shards).map(|_| Arc::new(BoundedQueue::new(cfg.queue_capacity))).collect(),
            states: (0..n_links).map(|_| AtomicU8::new(LINK_PENDING)).collect(),
            attempts: (0..n_links).map(|_| AtomicU32::new(0)).collect(),
            currents: (0..n_shards).map(|_| AtomicUsize::new(NO_LINK)).collect(),
            healthy: (0..n_shards).map(|_| AtomicBool::new(true)).collect(),
            restarts: (0..n_shards).map(|_| AtomicU32::new(0)).collect(),
            kill: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            obs,
            pipeline: Mutex::new(MetricsObserver::new().snapshot()),
            slots: Mutex::new((0..n_links).map(|_| None).collect()),
            capacities: (0..n_links).map(|_| OnceLock::new()).collect(),
            slots_filled: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            fatal: Mutex::new(None),
            stores,
            cfg,
        });
        inner.restore_from_stores()?;

        let (tx, rx) = mpsc::channel::<LinkDone>();
        let collector = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("rwc-serve-collector".into())
                .spawn(move || inner.collector_loop(rx))
                .map_err(|e| ServeError::Io(format!("spawn collector: {e}")))?
        };
        let mut shard_handles = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let inner = Arc::clone(&inner);
            let tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("rwc-serve-shard-{shard}"))
                .spawn(move || inner.shard_wrapper(shard, tx))
                .map_err(|e| ServeError::Io(format!("spawn shard {shard}: {e}")))?;
            shard_handles.push(handle);
        }
        drop(tx);
        Ok(Self { inner, shard_handles, collector: Some(collector) })
    }

    /// Offers link ids for processing. Idempotent: completed or queued
    /// links count as duplicates, so replaying a whole sweep after a
    /// resume converges instead of re-doing work.
    pub fn ingest(&self, links: &[usize]) -> Result<IngestReceipt, ServeError> {
        if self.inner.draining.load(Ordering::Acquire) || self.inner.kill.load(Ordering::Acquire)
        {
            return Err(ServeError::ShuttingDown);
        }
        let inner = &self.inner;
        let mut receipt = IngestReceipt::default();
        for &link in links {
            if link >= inner.cfg.n_links() {
                receipt.invalid += 1;
                continue;
            }
            if inner.states[link]
                .compare_exchange(LINK_PENDING, LINK_QUEUED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                receipt.duplicates += 1;
                inner.obs.incr("serve.duplicates", 1);
                continue;
            }
            match inner.admit(link, "serve.ingested", inner.cfg.shed_policy) {
                Admit::Accepted => receipt.accepted += 1,
                Admit::AcceptedShedding(n) => {
                    receipt.accepted += 1;
                    receipt.shed += n;
                }
                Admit::Rejected => receipt.rejected += 1,
                Admit::NoShard => {
                    return Err(self.take_fatal().unwrap_or(ServeError::ShardFailed {
                        shard: 0,
                        message: "no healthy shard to route to".into(),
                    }));
                }
            }
        }
        Ok(receipt)
    }

    /// Total links in the fleet.
    pub fn n_links(&self) -> usize {
        self.inner.cfg.n_links()
    }

    /// Links completed so far (fresh + restored from checkpoints).
    pub fn completed_links(&self) -> u64 {
        self.inner.slots_filled.load(Ordering::Acquire)
    }

    /// Whether every shard is still in rotation.
    pub fn is_ready(&self) -> bool {
        self.inner.healthy.iter().all(|h| h.load(Ordering::Acquire))
    }

    /// Per-shard health, restart spend, and queue depth.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        (0..self.inner.cfg.n_shards)
            .map(|s| ShardStatus {
                shard: s,
                healthy: self.inner.healthy[s].load(Ordering::Acquire),
                restarts: self.inner.restarts[s].load(Ordering::Acquire),
                queue_depth: self.inner.queues[s].len(),
            })
            .collect()
    }

    /// The `/readyz` body: overall readiness plus per-shard status.
    pub fn readyz_json(&self) -> String {
        let shards: Vec<String> = self
            .shard_statuses()
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\":{},\"healthy\":{},\"restarts\":{},\"queue_depth\":{}}}",
                    s.shard, s.healthy, s.restarts, s.queue_depth
                )
            })
            .collect();
        format!(
            "{{\"ready\":{},\"links_total\":{},\"links_completed\":{},\"shards\":[{}]}}",
            self.is_ready(),
            self.n_links(),
            self.completed_links(),
            shards.join(",")
        )
    }

    /// The `/metrics` body: merged pipeline metrics plus the daemon's own
    /// `serve.*` registry, in the `--obs-json` schema.
    pub fn metrics_json(&self) -> String {
        let mut merged = lock(&self.inner.pipeline).clone();
        merged.merge(&self.inner.obs.snapshot());
        merged.to_json()
    }

    /// The daemon's operational counters only.
    pub fn serve_metrics(&self) -> MetricsSnapshot {
        self.inner.obs.snapshot()
    }

    /// Feasible capacity of a completed link (None until analysed).
    pub fn capacity(&self, link: usize) -> Option<f64> {
        self.inner.capacities.get(link).and_then(|c| c.get().copied())
    }

    /// Counts one HTTP request into the serve registry.
    pub(crate) fn note_http_request(&self) {
        self.inner.obs.incr("serve.http_requests", 1);
    }

    /// Records how long one connection took from accept to reply.
    pub(crate) fn note_http_handled(&self, took: Duration) {
        self.inner.obs.record("serve.http_handler_micros", took.as_micros() as f64);
    }

    /// Holds shards off the queues (deterministic overload staging for
    /// tests and chaos drills). Ingest keeps running and backpressure
    /// applies exactly.
    pub fn pause_processing(&self) {
        self.inner.paused.store(true, Ordering::Release);
    }

    /// Releases [`Daemon::pause_processing`].
    pub fn resume_processing(&self) {
        self.inner.paused.store(false, Ordering::Release);
    }

    fn take_fatal(&self) -> Option<ServeError> {
        lock(&self.inner.fatal).take()
    }

    /// Joins every thread. The caller has just raised `draining` or `kill`;
    /// idle shards are woken to see it rather than sitting out `POP_WAIT`.
    fn join_all(&mut self) {
        for q in &self.inner.queues {
            q.stop_waiting();
        }
        for h in self.shard_handles.drain(..) {
            h.join().ok();
        }
        if let Some(c) = self.collector.take() {
            c.join().ok();
        }
    }

    /// Graceful drain: stop accepting, let every shard flush its queue,
    /// write final per-shard checkpoints, and fold the slots (ascending
    /// link order) into the report.
    pub fn drain(mut self) -> Result<ServeReport, ServeError> {
        self.inner.draining.store(true, Ordering::Release);
        self.join_all();
        if let Some(err) = self.take_fatal() {
            return Err(err);
        }
        if !self.inner.stores.is_empty() {
            for shard in 0..self.inner.cfg.n_shards {
                self.inner.write_shard_checkpoint(shard)?;
            }
        }
        let links_completed = self.completed_links();
        self.inner.obs.incr("serve.drains", 1);
        self.inner.obs.event(&Event::DrainCompleted { links_completed });
        let mut accumulator = FleetAccumulator::new();
        let mut pipeline_metrics = MetricsObserver::new().snapshot();
        {
            let mut slots = lock(&self.inner.slots);
            for slot in slots.iter_mut() {
                if let Some(done) = slot.take() {
                    accumulator.merge(done.acc);
                    pipeline_metrics.merge(&done.metrics);
                }
            }
        }
        Ok(ServeReport {
            accumulator,
            pipeline_metrics,
            serve_metrics: self.inner.obs.snapshot(),
            links_completed,
        })
    }

    /// Abrupt stop simulating `kill -9` mid-run: no final checkpoint, no
    /// report — only the periodic per-shard checkpoints survive for the
    /// next [`Daemon::start`] to resume from. Residual queued work is
    /// counted under `serve.inflight_drops` so the ledger still closes.
    pub fn kill(mut self) -> MetricsSnapshot {
        self.inner.kill.store(true, Ordering::Release);
        self.join_all();
        self.inner.obs.snapshot()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A dropped daemon must not leave shard threads running.
        self.inner.kill.store(true, Ordering::Release);
        self.join_all();
    }
}

impl DaemonInner {
    /// Restores completed links from every shard store (newest epoch that
    /// verifies; fallbacks and rejections are counted, never silent).
    fn restore_from_stores(&self) -> Result<(), ServeError> {
        if self.stores.is_empty() {
            return Ok(());
        }
        let mut slots = lock(&self.slots);
        for store in &self.stores {
            match store.load_or_fallback(Some(&self.fingerprint))? {
                StoreLoad::Fresh { rejected } => {
                    if !rejected.is_empty() {
                        self.obs.incr("serve.checkpoints_rejected", rejected.len() as u64);
                    }
                }
                StoreLoad::Loaded { checkpoint, epoch, rejected } => {
                    if !rejected.is_empty() {
                        self.obs.incr("serve.checkpoints_rejected", rejected.len() as u64);
                    }
                    if epoch == CheckpointEpoch::Previous {
                        self.obs.incr("serve.checkpoint_fallbacks", 1);
                    }
                    let mut restored = 0u64;
                    for chunk in checkpoint.chunks {
                        let link = chunk.id as usize;
                        if link >= slots.len() || slots[link].is_some() {
                            continue;
                        }
                        let metrics =
                            chunk.metrics.unwrap_or_else(|| MetricsObserver::new().snapshot());
                        if let Some(&cap) = chunk.accumulator.feasible_capacities().first() {
                            self.capacities[link].set(cap).ok();
                        }
                        lock(&self.pipeline).merge(&metrics);
                        slots[link] = Some(SlotDone { acc: chunk.accumulator, metrics });
                        self.states[link].store(LINK_DONE, Ordering::Release);
                        self.slots_filled.fetch_add(1, Ordering::AcqRel);
                        restored += 1;
                    }
                    if restored > 0 {
                        self.obs.event(&Event::ResumeVerified { restored_chunks: restored });
                    }
                }
            }
        }
        Ok(())
    }
}
