//! # holdcsim-power
//!
//! Hierarchical ACPI-style power modeling for HolDCSim-RS (§III-A/B/F of the
//! paper): state vocabularies for cores (Cx), packages (PCx), systems (Sx),
//! switch ports (Active/LPI/Off) and line cards (Active/Sleep/Off), and
//! measured-style power profiles, including presets for the paper's
//! validation hardware (Intel Xeon E5-2680 server, Cisco WS-C2960-24-S
//! switch). The server and switch models that step through these states
//! live in `holdcsim-server` and `holdcsim-network`.
//!
//! ```
//! use holdcsim_power::prelude::*;
//!
//! let server = ServerPowerProfile::xeon_e5_2680();
//! assert_eq!(server.package.pc0_w, 14.0);
//! // §V-B: the Cisco switch draws 14.7 W plus 0.23 W per active port.
//! let switch = SwitchPowerProfile::cisco_ws_c2960_24s();
//! assert_eq!((switch.chassis_w, switch.port.active_w), (14.7, 0.23));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod server_profile;
pub mod states;
pub mod switch_profile;

pub use server_profile::{
    CorePowerProfile, DramPowerProfile, PackagePowerProfile, PlatformPowerProfile,
    ServerPowerProfile,
};
pub use states::{CoreCState, LineCardPowerState, PState, PkgCState, PortPowerState, SystemState};
pub use switch_profile::{LineCardPowerProfile, PortPowerProfile, SwitchPowerProfile};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::server_profile::ServerPowerProfile;
    pub use crate::states::{
        CoreCState, LineCardPowerState, PState, PkgCState, PortPowerState, SystemState,
    };
    pub use crate::switch_profile::SwitchPowerProfile;
}
