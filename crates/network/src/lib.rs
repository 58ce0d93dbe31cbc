//! # holdcsim-network
//!
//! The data-center network substrate of HolDCSim-RS (§III-B of the paper):
//! topology graphs and builders for fat tree, flattened butterfly, BCube,
//! CamCube, and star; hop-count ECMP routing with cached distance fields;
//! max-min fair flow-level communication; store-and-forward packet-level
//! communication; and switch devices with port LPI, line-card sleep, and
//! adaptive link rate built on `holdcsim-power`.
//!
//! ```
//! use holdcsim_network::routing::Router;
//! use holdcsim_network::topologies::{fat_tree, LinkSpec};
//!
//! let built = fat_tree(4, LinkSpec::gigabit());
//! assert_eq!(built.hosts.len(), 16);
//! let mut router = Router::new();
//! let route = router
//!     .route(&built.topology, built.hosts[0], built.hosts[15], 1)
//!     .unwrap();
//! assert_eq!(route.hops(), 6); // edge-agg-core-agg-edge across pods
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flow;
mod flow_cohort;
pub mod ids;
pub mod packet;
pub mod routing;
pub mod switch;
pub mod topologies;
pub mod topology;

pub use flow::{CompletedFlow, FlowNet};
pub use ids::{FlowId, LinkId, NodeId, PacketId, PortRef};
pub use packet::{Packet, PacketNet, TxOutcome};
pub use routing::{Route, Router};
pub use switch::SwitchDevice;
pub use topologies::{
    bcube, camcube, fat_tree, flattened_butterfly, star, BuiltTopology, LinkSpec,
};
pub use topology::{Link, NodeKind, Topology, TopologyBuilder, TopologyError};
