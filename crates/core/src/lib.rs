//! # holdcsim
//!
//! HolDCSim-RS: a holistic, event-driven data-center simulator that jointly
//! models servers and networks, reproducing *HolDCSim: A Holistic Simulator
//! for Data Centers* (Yao et al., IISWC 2019) in Rust.
//!
//! The crate wires the substrates together:
//!
//! * [`config`] — the experiment description (Fig. 1's inputs).
//! * [`sim`] — the [`sim::Datacenter`] event router and
//!   [`sim::Simulation`] driver. Two private child modules own the rest
//!   of the model: `sim/faults` (the fault calendar, the crash, straggle
//!   and fabric-outage handlers, retry, the resilience report) and
//!   `sim/controller` (the provisioning and WASP pool controllers and
//!   the DVFS governor).
//! * [`netstate`] — the fabric and its in-flight flow/packet transfers.
//! * `placement` (internal) — the placement policy, the eligible set,
//!   committed load and the free-core bitmap the driver keeps for it.
//! * [`report`] — run outcomes: latency percentiles, energy breakdowns,
//!   residency, power/time series.
//! * [`experiments`] — ready-made harnesses for every figure and table of
//!   the paper's evaluation (single-threaded reference implementations).
//! * [`validation`] — the §V server/switch power validation methodology.
//!
//! Sweeps over these building blocks — parameter grids × replications,
//! run in parallel with per-point confidence intervals and JSONL/CSV
//! artifacts — live in the `holdcsim-harness` crate, whose `holdcsim`
//! CLI (`run` / `sweep` / `fig <n>`) is the preferred entry point for
//! reproducing the paper's figures.
//!
//! ## Quickstart
//!
//! ```
//! use holdcsim::prelude::*;
//!
//! let cfg = SimConfig::server_farm(
//!     10, 4, 0.3,
//!     WorkloadPreset::WebSearch.template(),
//!     SimDuration::from_secs(10),
//! );
//! let report = Simulation::new(cfg).run();
//! println!("{}", report.summary());
//! assert!(report.jobs_completed > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod experiments;
pub mod export;
pub mod job;
pub mod netstate;
mod placement;
pub mod report;
pub mod sim;
pub mod validation;

pub use config::{
    ArrivalConfig, ClusterConfig, CommModel, ControllerConfig, NetworkConfig, PolicyKind,
    SimConfig, SiteSpec, TopologySpec, WanConfig, WanLink, WanLinkMode,
};
pub use holdcsim_sched::geo::GeoPolicy;
pub use report::{LatencyStats, NetworkReport, SeriesReport, ServerReport, SimReport};
pub use sim::{finish_report, Datacenter, DcEvent, FedPort, Simulation};

/// Convenience re-exports covering the whole stack.
pub mod prelude {
    pub use crate::config::{
        ArrivalConfig, ClusterConfig, CommModel, ControllerConfig, NetworkConfig, PolicyKind,
        SimConfig, SiteSpec, TopologySpec, WanConfig, WanLink, WanLinkMode,
    };
    pub use crate::report::{LatencyStats, SimReport};
    pub use crate::sim::{Datacenter, Simulation};
    pub use holdcsim_des::time::{SimDuration, SimTime};
    pub use holdcsim_sched::geo::GeoPolicy;
    pub use holdcsim_server::policy::{DeepState, SleepPolicy};
    pub use holdcsim_server::server::{LocalQueueMode, ServerId};
    pub use holdcsim_workload::presets::WorkloadPreset;
    pub use holdcsim_workload::service::ServiceDist;
    pub use holdcsim_workload::templates::JobTemplate;
}
