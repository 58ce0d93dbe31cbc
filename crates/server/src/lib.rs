//! # holdcsim-server
//!
//! The multi-core server model of HolDCSim-RS (§III-A of the paper):
//! unified or per-core local task queues, DVFS-scaled execution,
//! hierarchical sleep (core/package C-states, system S-states), delay-timer
//! and shallow/deep sleep policies, and CPU/DRAM/platform energy
//! accounting.
//!
//! Servers are *passive state machines*: the simulation driver calls them
//! with the current time and schedules the returned [`server::Effect`]s.
//!
//! ```
//! use holdcsim_server::server::{EffectBuf, Server, ServerConfig, ServerId};
//! use holdcsim_server::task::TaskHandle;
//! use holdcsim_des::time::{SimDuration, SimTime};
//! use holdcsim_workload::ids::{JobId, TaskId};
//!
//! let mut server = Server::new(SimTime::ZERO, ServerId(0), ServerConfig::new(4));
//! let task = TaskHandle::new(TaskId::new(JobId(1), 0), SimDuration::from_millis(5));
//! let mut effects = EffectBuf::new();
//! server.submit(SimTime::ZERO, task, &mut effects);
//! assert_eq!(effects.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod policy;
pub mod server;
pub mod task;

pub use policy::{DeepState, IdleDescent, SleepPolicy};
pub use server::{
    Band, Effect, EffectBuf, LocalQueueMode, Server, ServerConfig, ServerId, ServerMode,
};
pub use task::TaskHandle;
