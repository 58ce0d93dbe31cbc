//! # holdcsim-sched
//!
//! Global scheduling and cluster-level power controllers for HolDCSim-RS
//! (§III-E, §IV of the paper): placement policies (round-robin,
//! least-loaded, consolidating pack-first, random, server-network-aware),
//! the optional global task queue, the §IV-A provisioning controller, the
//! WASP two-pool manager, and dual-delay-timer assignment.
//!
//! ```
//! use holdcsim_sched::policy::{ClusterView, GlobalPolicy, LeastLoaded, NoNetworkCost};
//! use holdcsim_server::server::{Server, ServerConfig, ServerId};
//! use holdcsim_des::time::SimTime;
//!
//! let servers: Vec<Server> = (0..4)
//!     .map(|i| Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(2)))
//!     .collect();
//! let ids: Vec<ServerId> = (0..4).map(ServerId).collect();
//! let mut policy = LeastLoaded::new();
//! let view = ClusterView::new(&servers);
//! let pick = policy.select(&view, &ids, &NoNetworkCost);
//! assert_eq!(pick, Some(ServerId(0)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod geo;
pub mod policy;
pub mod pools;
pub mod provisioning;
pub mod queue;

pub use geo::{route_site, GeoPolicy};
pub use policy::{
    ClusterView, GlobalPolicy, LeastLoaded, NetworkAware, NetworkCost, NoNetworkCost, PackFirst,
    Random, RoundRobin,
};
pub use pools::{dual_timer_policies, PoolAction, PoolManager};
pub use provisioning::{ProvisionAction, ProvisioningController};
pub use queue::GlobalQueue;
