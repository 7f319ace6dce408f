//! rwc-serve: the sharded controller daemon.
//!
//! Puts the whole pipeline — fleet telemetry kernel, run/walk/crawl
//! controller, metrics — behind a long-running service built on std
//! threads and `std::net` (the workspace is offline-vendored; no async
//! runtime). The fleet is sharded across worker threads fed by bounded
//! ingest queues with explicit backpressure and deadline shedding — every
//! hop from an ingested reading to its visible capacity blocks on an
//! event (socket, condvar, channel), never on a timer; a
//! supervisor `catch_unwind`-isolates each shard and restarts it with a
//! jittered backoff budget; periodic per-shard checkpoints make an
//! abrupt kill resumable with byte-identical results.
//!
//! The determinism contract (and the reason the design works at all):
//! each link's analysis + decision is a pure function of `(seed, link)`,
//! so *operational* choices — shard count, shedding, panics, restarts,
//! kills, resumes — can never change the *pipeline* result, only the
//! `serve.*` counters that account for them.
//!
//! ```no_run
//! use rwc_serve::{Daemon, ServeConfig};
//!
//! let daemon = Daemon::start(ServeConfig::small()).unwrap();
//! let links: Vec<usize> = (0..daemon.n_links()).collect();
//! daemon.ingest(&links).unwrap();
//! // A link's capacity is served as soon as its shard has analysed it;
//! // `completed_links` follows once the collector has merged the result.
//! while daemon.completed_links() < daemon.n_links() as u64 {
//!     std::thread::sleep(std::time::Duration::from_millis(5));
//! }
//! assert!(daemon.capacity(0).is_some());
//! let report = daemon.drain().unwrap();
//! assert_eq!(report.links_completed, report.accumulator.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod error;
pub mod http;
pub mod queue;
pub mod shard;

pub use config::{ServeCheckpointConfig, ServeConfig};
pub use daemon::{Daemon, IngestReceipt, ServeReport, ShardStatus};
pub use error::ServeError;
pub use http::HttpServer;
pub use queue::{BoundedQueue, Offer, PopKind, Popped, ShedPolicy};
pub use shard::batch_reference;
