//! # holdcsim-sched
//!
//! Global scheduling and cluster-level power controllers for HolDCSim-RS
//! (§III-E, §IV of the paper): the placement policies as one [`Policy`]
//! enum (round-robin, least-loaded, consolidating pack-first, random,
//! server-network-aware), the optional global task queue, the §IV-A
//! provisioning controller, the WASP two-pool manager, and
//! dual-delay-timer assignment.
//!
//! ```
//! use holdcsim_sched::policy::{ClusterView, Policy};
//! use holdcsim_server::server::{LocalQueueMode, Server, ServerConfig, ServerId};
//! use holdcsim_server::SleepPolicy;
//! use holdcsim_des::time::SimTime;
//! use holdcsim_power::server_profile::ServerPowerProfile;
//!
//! let profile = ServerPowerProfile::xeon_e5_2680();
//! let cfg = ServerConfig {
//!     cores: 2,
//!     pstate: profile.pstates.len() - 1,
//!     profile,
//!     queue_mode: LocalQueueMode::Unified,
//!     policy: SleepPolicy::active_idle(),
//!     core_speeds: Vec::new(),
//!     sockets: 1,
//! };
//! let servers: Vec<Server> = (0..4)
//!     .map(|_| Server::new(SimTime::ZERO, cfg.clone()))
//!     .collect();
//! let ids: Vec<ServerId> = (0..4).map(ServerId).collect();
//! let mut policy = Policy::LeastLoaded;
//! let view = ClusterView::new(&servers);
//! // No fabric: every server's network wake cost is zero.
//! let pick = policy.select(&view, &ids, &[0.0; 4]);
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
pub use policy::{ClusterView, Policy};
pub use pools::{dual_timer_policies, PoolAction, PoolManager};
pub use provisioning::{ProvisionAction, ProvisioningController};
pub use queue::GlobalQueue;
