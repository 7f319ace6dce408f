//! # rwc-core
//!
//! The primary contribution of *Run, Walk, Crawl: Towards Dynamic Link
//! Capacities* (HotNets'17): a graph abstraction that lets **unmodified**
//! traffic-engineering algorithms exploit SNR-adaptive link capacities.
//!
//! - [`penalty`]: the penalty-function library (§4.2: "the TE operator can
//!   set the penalty values arbitrarily");
//! - [`mod@augment`]: Algorithm 1 — insert a *fake link* next to every physical
//!   link whose SNR supports a higher rate, annotated `<capacity, cost>`;
//! - [`mod@translate`]: step 3 of the Theorem 1 construction — read the TE
//!   output back as (a) which links to upgrade and (b) the flow paths;
//! - [`theorem`]: an executable check of Theorem 1 (min-cost max-flow on
//!   the augmented graph ≡ max-flow on the dynamic-capacity graph);
//! - [`controller`]: the run/walk/crawl policy — step links up when SNR
//!   margin allows, step them *down* instead of failing them when SNR
//!   degrades, with hysteresis and dwell to suppress flapping, plus
//!   retry/quarantine handling for transceivers that fail to reconfigure;
//! - [`error`]: the [`error::RwcError`] hierarchy the fault-tolerant
//!   pipeline reports instead of panicking;
//! - [`network`]: [`network::DynamicCapacityNetwork`], the end-to-end API
//!   tying telemetry → augmentation → TE → consistent updates → BVT
//!   reconfiguration;
//! - [`scenario`]: multi-period simulation of the whole pipeline against a
//!   pinned binary-policy counterfactual.
//!
//! The Fig. 8 node-splitting gadget for unsplittable flows is not built
//! here: it is how the TE layer lowers an augmented problem under
//! `rwc_te::TeObjective::Unsplittable`, and [`translate()`] reads its
//! upgrades like any other solve's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod controller;
pub mod error;
pub mod network;
pub mod penalty;
pub mod scenario;
pub mod theorem;
pub mod translate;

pub use augment::{augment, AugmentConfig, AugmentStats, AugmentedProblem, FakeEdge, IncrementalAugmenter};
pub use controller::{Controller, ControllerConfig, Decision, LinkHealth};
pub use error::RwcError;
pub use network::DynamicCapacityNetwork;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioConfig, ScenarioReport};
pub use penalty::PenaltyPolicy;
pub use translate::{translate, Translation};
