//! # holdcsim-server
//!
//! The multi-core server model of HolDCSim-RS (§III-A of the paper):
//! unified or per-core local task queues, DVFS-scaled execution,
//! hierarchical sleep (core/package C-states, system S-states), delay-timer
//! and shallow/deep sleep policies, and CPU/DRAM/platform energy
//! accounting.
//!
//! Servers are *passive state machines*: the simulation driver calls them
//! with the current time and a reusable `Vec<Effect>`, then schedules the
//! [`server::Effect`]s left in it.
//!
//! ```
//! use holdcsim_server::server::{LocalQueueMode, Server, ServerConfig};
//! use holdcsim_server::task::TaskHandle;
//! use holdcsim_server::SleepPolicy;
//! use holdcsim_des::time::{SimDuration, SimTime};
//! use holdcsim_power::server_profile::ServerPowerProfile;
//! use holdcsim_workload::ids::{JobId, TaskId};
//!
//! let profile = ServerPowerProfile::xeon_e5_2680();
//! let cfg = ServerConfig {
//!     cores: 4,
//!     pstate: profile.pstates.len() - 1,
//!     profile,
//!     queue_mode: LocalQueueMode::Unified,
//!     policy: SleepPolicy::active_idle(),
//!     core_speeds: Vec::new(),
//!     sockets: 1,
//! };
//! let mut server = Server::new(SimTime::ZERO, cfg);
//! let task = TaskHandle {
//!     id: TaskId::new(JobId(1), 0),
//!     service: SimDuration::from_millis(5),
//!     intensity: 1.0,
//! };
//! let mut effects = Vec::new();
//! server.submit(SimTime::ZERO, task, &mut effects);
//! assert_eq!(effects.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod policy;
pub mod server;
pub mod task;

pub use policy::{DeepState, IdleDescent, SleepPolicy};
pub use server::{Band, Effect, LocalQueueMode, Server, ServerConfig, ServerId, ServerMode};
pub use task::TaskHandle;
