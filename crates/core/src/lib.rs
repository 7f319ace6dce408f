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
//! - [`gadget`]: the Fig. 8 node-splitting construction for unsplittable
//!   flows;
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
//!   pinned binary-policy counterfactual;
//! - [`predictive`]: a forecast-driven controller that walks links down
//!   *before* the SNR crossing (extension beyond the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod controller;
pub mod error;
pub mod gadget;
pub mod network;
pub mod penalty;
pub mod predictive;
pub mod scenario;
pub mod theorem;
pub mod translate;

pub use augment::{augment, AugmentConfig, AugmentStats, AugmentedProblem, FakeEdge, IncrementalAugmenter};
pub use controller::{Controller, ControllerConfig, ControllerConfigBuilder, Decision, LinkHealth};
pub use error::RwcError;
pub use network::DynamicCapacityNetwork;
pub use scenario::{
    Scenario, ScenarioBuilder, ScenarioConfig, ScenarioConfigBuilder, ScenarioReport,
};
pub use penalty::PenaltyPolicy;
pub use translate::{translate, Translation};

/// One-stop imports for driving the pipeline.
///
/// ```
/// use rwc_core::prelude::*;
/// ```
///
/// pulls in the scenario/controller/network types, their builders, the
/// error hierarchy, and the units/time primitives every experiment needs.
/// Experiment code should prefer this over a dozen `use` lines; anything
/// more specialised (gadgets, theorem checks, penalty internals) is still
/// imported explicitly from its module.
pub mod prelude {
    pub use crate::augment::AugmentConfig;
    pub use crate::controller::{
        Controller, ControllerConfig, ControllerConfigBuilder, Decision, LinkHealth, SweepReport,
    };
    pub use crate::error::RwcError;
    pub use crate::network::{DynamicCapacityNetwork, MbbOutcome, MbbPhase, TeRound};
    pub use crate::penalty::PenaltyPolicy;
    pub use crate::scenario::{
        Scenario, ScenarioBuilder, ScenarioConfig, ScenarioConfigBuilder, ScenarioReport,
        ScenarioSample,
    };
    pub use rwc_obs::{Event, MetricsObserver, MetricsRegistry, NoopObserver, Observer};
    pub use rwc_topology::wan::{LinkId, WanTopology};
    pub use rwc_util::time::{SimDuration, SimTime};
    pub use rwc_util::units::{Db, Gbps};
}
