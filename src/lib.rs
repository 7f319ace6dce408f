//! # rwc — Run, Walk, Crawl: dynamic link capacities for optical WANs
//!
//! A from-scratch Rust reproduction of *Run, Walk, Crawl: Towards Dynamic
//! Link Capacities* (Singh, Ghobadi, Foerster, Filer, Gill — HotNets 2017).
//!
//! The paper argues that optical WAN links should adapt their capacity to
//! their measured signal-to-noise ratio instead of running at a fixed rate
//! behind conservative margins, and contributes a **graph abstraction**
//! that lets unmodified traffic-engineering controllers drive those
//! adaptive capacities. This crate re-exports the full workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`util`] | deterministic RNG, simulated time, `Db`/`Gbps` units, stats |
//! | [`obs`] | observability: counters/gauges/histograms, typed events, sinks |
//! | [`optics`] | modulation ladder, link budgets, constellations, BVT model |
//! | [`telemetry`] | synthetic 2.5-year SNR fleet (the paper's measurement corpus) |
//! | [`harness`] | crash-safe sweep runtime: checkpoint/resume, panic-isolated workers, chaos injection |
//! | [`serve`] | sharded controller daemon: bounded ingest, load shedding, shard supervision, crash recovery |
//! | [`failures`] | failure-ticket corpus + root-cause/availability analyses |
//! | [`faults`] | deterministic fault injection: BVT/telemetry/TE fault plans |
//! | [`topology`] | WAN graphs: Abilene, B4-like, Waxman, the paper's Fig. 7 |
//! | [`flow`] | Dinic, min-cost max-flow, path decomposition |
//! | [`lp`] | two-phase simplex + flow-problem encoders (exact baselines) |
//! | [`te`] | SWAN-, B4-, CSPF-style TE + consistent updates |
//! | [`core`] | **the paper's contribution**: Algorithm 1 augmentation, Theorem 1, the run/walk/crawl controller |
//!
//! ## Quickstart
//!
//! ```rust
//! use rwc::core::{augment, AugmentConfig, translate, PenaltyPolicy};
//! use rwc::te::{DemandMatrix, Priority, TeAlgorithm};
//! use rwc::topology::builders;
//! use rwc::util::units::{Db, Gbps};
//!
//! // The paper's Fig. 7 network: all links 100 G; A–B and C–D have the
//! // SNR headroom to double.
//! let mut wan = builders::fig7_example();
//! for (id, _) in wan.clone().links() {
//!     wan.set_snr(id, Db(7.5));
//! }
//! wan.set_snr(rwc::topology::wan::LinkId(0), Db(13.0));
//! wan.set_snr(rwc::topology::wan::LinkId(1), Db(13.0));
//!
//! // Demands grow from 100 to 125 G on both pairs.
//! let (a, b) = (wan.node_by_name("A").unwrap(), wan.node_by_name("B").unwrap());
//! let (c, d) = (wan.node_by_name("C").unwrap(), wan.node_by_name("D").unwrap());
//! let mut demands = DemandMatrix::new();
//! demands.add(a, b, Gbps(125.0), Priority::Elastic);
//! demands.add(c, d, Gbps(125.0), Priority::Elastic);
//!
//! // Algorithm 1: augment, hand to an unmodified TE algorithm, translate.
//! let cfg = AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() };
//! let aug = augment(&wan, &demands, &cfg, &[]);
//! let te = rwc::te::TeSolver::builder().build().expect("default configuration");
//! let solution = te.solve(&aug.problem);
//! let result = translate(&aug, &wan, &solution).expect("translation");
//!
//! assert!((solution.total - 250.0).abs() < 1e-6, "all demand routed");
//! assert!(result.requires_changes(), "some link must be upgraded");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rwc_core as core;
pub use rwc_failures as failures;
pub use rwc_faults as faults;
pub use rwc_flow as flow;
pub use rwc_harness as harness;
pub use rwc_lp as lp;
pub use rwc_obs as obs;
pub use rwc_optics as optics;
pub use rwc_serve as serve;
pub use rwc_te as te;
pub use rwc_telemetry as telemetry;
pub use rwc_topology as topology;
pub use rwc_util as util;
