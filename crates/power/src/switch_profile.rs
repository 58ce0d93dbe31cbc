//! Switch power profiles: chassis, line cards, and ports (§III-B, §V-B).
//!
//! The paper validates against a Cisco WS-C2960-24-S: base power 14.7 W plus
//! 0.23 W per active port. The [`SwitchPowerProfile::cisco_ws_c2960_24s`]
//! preset reproduces that; [`SwitchPowerProfile::datacenter_48port`] is a
//! larger modular switch for fat-tree studies.

use holdcsim_des::time::SimDuration;

/// Per-port power draws and IEEE 802.3az Low Power Idle timing.
#[derive(Debug, Clone, PartialEq)]
pub struct PortPowerProfile {
    /// Power with the port active at full rate.
    pub active_w: f64,
    /// Power in Low Power Idle.
    pub lpi_w: f64,
    /// Time to leave LPI before the first bit can go out (802.3az Tw).
    pub lpi_exit: SimDuration,
    /// Adaptive Link Rate ladder: `(rate_bps, power_scale)` pairs, slowest
    /// first. Scales `active_w` when the port negotiates a lower rate.
    pub alr_ladder: Vec<(u64, f64)>,
}

impl PortPowerProfile {
    /// Active power at `rate_bps` under ALR (nearest ladder entry at or
    /// above the rate; falls back to full power off-ladder).
    pub fn active_power_at_rate_w(&self, rate_bps: u64) -> f64 {
        for &(r, scale) in &self.alr_ladder {
            if rate_bps <= r {
                return self.active_w * scale;
            }
        }
        self.active_w
    }
}

/// Line-card power draws and wake latency.
#[derive(Debug, Clone, PartialEq)]
pub struct LineCardPowerProfile {
    /// Packet-processing hardware active.
    pub active_w: f64,
    /// Sleep state (paper's line-card sleep).
    pub sleep_w: f64,
    /// Latency to wake from sleep to active.
    pub wake_latency: SimDuration,
}

/// Full power profile of one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchPowerProfile {
    /// Chassis power with at least one line card active (fans, supervisor,
    /// fabric base).
    pub chassis_w: f64,
    /// Chassis power once every line card sleeps (the whole-switch sleep
    /// the §IV-D joint optimization exploits).
    pub chassis_sleep_w: f64,
    /// Line-card profile (uniform across cards).
    pub linecard: LineCardPowerProfile,
    /// Port profile (uniform across ports).
    pub port: PortPowerProfile,
}

impl SwitchPowerProfile {
    /// The paper's validation switch: Cisco WS-C2960-24-S, 24 ports,
    /// base 14.7 W, 0.23 W per active port (§V-B). The fixed-config switch
    /// has a single integrated "line card" drawing no extra power.
    pub fn cisco_ws_c2960_24s() -> Self {
        SwitchPowerProfile {
            chassis_w: 14.7,
            chassis_sleep_w: 14.7, // fixed-config switch: no chassis sleep
            linecard: LineCardPowerProfile {
                active_w: 0.0,
                sleep_w: 0.0,
                wake_latency: SimDuration::from_millis(1),
            },
            port: PortPowerProfile {
                active_w: 0.23,
                lpi_w: 0.023,
                lpi_exit: SimDuration::from_micros(5),
                alr_ladder: vec![(100_000_000, 0.45), (1_000_000_000, 1.0)],
            },
        }
    }

    /// A modular 48-port 10 GbE data-center switch for topology studies
    /// (fat tree, flattened butterfly): 4 line cards × 12 ports.
    pub fn datacenter_48port() -> Self {
        SwitchPowerProfile {
            chassis_w: 52.0,
            chassis_sleep_w: 6.5,
            linecard: LineCardPowerProfile {
                active_w: 18.0,
                sleep_w: 3.0,
                wake_latency: SimDuration::from_millis(10),
            },
            port: PortPowerProfile {
                active_w: 0.9,
                lpi_w: 0.09,
                lpi_exit: SimDuration::from_micros(5),
                alr_ladder: vec![
                    (100_000_000, 0.30),
                    (1_000_000_000, 0.55),
                    (10_000_000_000, 1.0),
                ],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cisco_preset_matches_paper_numbers() {
        let p = SwitchPowerProfile::cisco_ws_c2960_24s();
        assert_eq!(p.chassis_w, 14.7);
        assert_eq!(p.port.active_w, 0.23);
        // All 24 ports on: 14.7 + 24*0.23 = 20.22 W (the integrated line
        // card draws nothing).
        assert_eq!(p.linecard.active_w, 0.0);
        let peak = p.chassis_w + 24.0 * p.port.active_w;
        assert!((peak - 20.22).abs() < 1e-9, "peak {peak}");
    }

    #[test]
    fn port_states_order_power() {
        let p = SwitchPowerProfile::datacenter_48port().port;
        assert!(p.active_w > p.lpi_w);
        assert!(p.lpi_w > 0.0);
    }

    #[test]
    fn alr_ladder_scales_down() {
        let p = SwitchPowerProfile::datacenter_48port().port;
        let slow = p.active_power_at_rate_w(100_000_000);
        let mid = p.active_power_at_rate_w(1_000_000_000);
        let full = p.active_power_at_rate_w(10_000_000_000);
        assert!(slow < mid && mid < full);
        assert_eq!(full, p.active_w);
        // Off-ladder rates fall back to full power.
        assert_eq!(p.active_power_at_rate_w(40_000_000_000), p.active_w);
    }

    #[test]
    fn chassis_sleep_is_cheaper_on_modular_switch() {
        let p = SwitchPowerProfile::datacenter_48port();
        assert!(p.chassis_sleep_w < p.chassis_w);
        assert!(p.linecard.sleep_w < p.linecard.active_w);
        let c = SwitchPowerProfile::cisco_ws_c2960_24s();
        assert_eq!(
            c.chassis_sleep_w, c.chassis_w,
            "fixed-config switch never sleeps"
        );
    }
}
