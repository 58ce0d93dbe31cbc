//! # holdcsim-workload
//!
//! Workload modeling for HolDCSim-RS (§III-C/D of the paper): the three
//! arrival processes (Poisson, 2-state MMPP, trace replay, each drawing
//! gaps through its own `next_gap`), synthetic trace generators standing
//! in for the Wikipedia/NLANR traces, service-time distributions, and
//! DAG-structured jobs with spatial and temporal dependence.
//!
//! ```
//! use holdcsim_workload::arrivals::PoissonArrivals;
//! use holdcsim_workload::presets::WorkloadPreset;
//! use holdcsim_des::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(7);
//! let tmpl = WorkloadPreset::WebSearch.template();
//! let dag = tmpl.generate(&mut rng);
//! assert_eq!(dag.len(), 1);
//! // Jobs arrive at 100/s; a stochastic process never runs dry.
//! assert!(PoissonArrivals::new(100.0).next_gap(&mut rng).is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod dag;
pub mod ids;
pub mod presets;
pub mod service;
pub mod templates;
pub mod trace;

pub use arrivals::{Mmpp2Arrivals, PoissonArrivals, TraceArrivals};
pub use dag::{BuildDagError, DagEdge, JobDag, JobDagBuilder, TaskSpec};
pub use ids::{JobId, TaskId};
pub use presets::WorkloadPreset;
pub use service::ServiceDist;
pub use templates::JobTemplate;
