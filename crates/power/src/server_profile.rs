//! Server power profiles: per-state power draws and transition latencies for
//! cores, packages, DRAM, and the platform (§III-A, §III-F).
//!
//! Profiles are plain data. Users can measure their own machines (RAPL,
//! power meters) or use modeling tools and fill these structs; the
//! [`ServerPowerProfile::xeon_e5_2680`] preset approximates the 10-core
//! Intel Xeon E5-2680 v2 server the paper validates against (§V-A).

use holdcsim_des::time::SimDuration;

use crate::states::{CoreCState, PState, SystemState};

/// Per-core power draws and wake latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePowerProfile {
    /// Power of a core executing instructions at the nominal P-state.
    pub c0_busy_w: f64,
    /// Power of a core in C0 but idle (polling/halt loop).
    pub c0_idle_w: f64,
    /// Power in C1 (halt).
    pub c1_w: f64,
    /// Power in C3.
    pub c3_w: f64,
    /// Power in C6 (power-gated).
    pub c6_w: f64,
    /// Wake latency C1 → C0.
    pub c1_wake: SimDuration,
    /// Wake latency C6 → C0.
    pub c6_wake: SimDuration,
}

impl CorePowerProfile {
    /// Idle power draw in `state` (busy power is a separate dimension).
    pub fn idle_power_w(&self, state: CoreCState) -> f64 {
        match state {
            CoreCState::C0 => self.c0_idle_w,
            CoreCState::C1 => self.c1_w,
            CoreCState::C3 => self.c3_w,
            CoreCState::C6 => self.c6_w,
        }
    }
}

/// Package (uncore) power draws and wake latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PackagePowerProfile {
    /// Uncore power with the package fully active.
    pub pc0_w: f64,
    /// Uncore power in the shallow package sleep.
    pub pc2_w: f64,
    /// Uncore power in deep package sleep (paper's package C6).
    pub pc6_w: f64,
    /// Wake latency PC6 → PC0 (paper: "less than 1 ms").
    pub pc6_wake: SimDuration,
}

/// DRAM power by activity and system state.
#[derive(Debug, Clone, PartialEq)]
pub struct DramPowerProfile {
    /// Power while cores actively reference memory.
    pub active_w: f64,
    /// Power while powered but unreferenced (precharge/active standby).
    pub idle_w: f64,
    /// Power in self-refresh (system S3).
    pub self_refresh_w: f64,
}

/// Platform (PSU inefficiency, fans, disk, NIC, board) power by system state.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformPowerProfile {
    /// Platform power with the system working (S0).
    pub s0_w: f64,
    /// Platform power suspended to RAM (S3).
    pub s3_w: f64,
    /// Platform power soft-off (S5).
    pub s5_w: f64,
    /// Latency to suspend S0 → S3.
    pub suspend_latency: SimDuration,
    /// Latency to resume S3 → S0 (dominates the delay-timer economics of
    /// §IV-B).
    pub resume_latency: SimDuration,
    /// Latency to boot from S5 to S0.
    pub boot_latency: SimDuration,
}

impl PlatformPowerProfile {
    /// Latency to return to S0 from `state`.
    pub fn wake_latency(&self, state: SystemState) -> SimDuration {
        match state {
            SystemState::S0 => SimDuration::ZERO,
            SystemState::S3 => self.resume_latency,
            SystemState::S5 => self.boot_latency,
        }
    }
}

/// Full hierarchical power profile of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPowerProfile {
    /// Per-core draws and latencies.
    pub core: CorePowerProfile,
    /// Uncore draws and latencies.
    pub package: PackagePowerProfile,
    /// DRAM draws.
    pub dram: DramPowerProfile,
    /// Platform draws and Sx latencies.
    pub platform: PlatformPowerProfile,
    /// DVFS operating points, slowest first. Must contain at least one
    /// entry; the last entry is the nominal (fastest) point.
    pub pstates: Vec<PState>,
}

impl ServerPowerProfile {
    /// Approximation of the paper's validation server: a 10-core Intel Xeon
    /// E5-2680 v2 machine with C0/C1/C3/C6, package C-states, and S3.
    ///
    /// Absolute draws are calibrated so that an idle package (cores in C6)
    /// sits near 14–15 W and a fully busy package near 55 W, matching the
    /// range of the paper's Fig. 12 RAPL traces.
    pub fn xeon_e5_2680() -> Self {
        ServerPowerProfile {
            core: CorePowerProfile {
                c0_busy_w: 4.0,
                c0_idle_w: 1.4,
                c1_w: 0.9,
                c3_w: 0.35,
                c6_w: 0.05,
                c1_wake: SimDuration::from_micros(2),
                c6_wake: SimDuration::from_micros(200),
            },
            package: PackagePowerProfile {
                pc0_w: 14.0,
                pc2_w: 8.0,
                pc6_w: 2.0,
                pc6_wake: SimDuration::from_micros(600),
            },
            dram: DramPowerProfile {
                active_w: 6.0,
                idle_w: 2.5,
                self_refresh_w: 0.5,
            },
            platform: PlatformPowerProfile {
                s0_w: 45.0,
                s3_w: 3.5,
                s5_w: 0.8,
                suspend_latency: SimDuration::from_millis(500),
                resume_latency: SimDuration::from_secs(4),
                boot_latency: SimDuration::from_secs(60),
            },
            pstates: vec![
                PState {
                    freq_ghz: 1.2,
                    busy_power_scale: 0.35,
                },
                PState {
                    freq_ghz: 1.6,
                    busy_power_scale: 0.48,
                },
                PState {
                    freq_ghz: 2.0,
                    busy_power_scale: 0.63,
                },
                PState {
                    freq_ghz: 2.4,
                    busy_power_scale: 0.80,
                },
                PState {
                    freq_ghz: 2.8,
                    busy_power_scale: 1.00,
                },
            ],
        }
    }

    /// The nominal (fastest) P-state.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no P-states (invalid profile).
    pub fn nominal_pstate(&self) -> PState {
        *self.pstates.last().expect("profile has no P-states")
    }

    /// Busy power of one core at P-state index `p` (clamped to the table).
    pub fn core_busy_power_w(&self, p: usize) -> f64 {
        let idx = p.min(self.pstates.len() - 1);
        self.core.c0_busy_w * self.pstates[idx].busy_power_scale
    }

    /// Execution speed ratio (vs nominal) at P-state index `p`.
    pub fn speed_ratio(&self, p: usize) -> f64 {
        let idx = p.min(self.pstates.len() - 1);
        self.pstates[idx].speed_ratio(self.nominal_pstate().freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_internally_consistent() {
        let p = ServerPowerProfile::xeon_e5_2680();
        // Deeper states draw less.
        assert!(p.core.c0_idle_w > p.core.c1_w);
        assert!(p.core.c1_w > p.core.c3_w);
        assert!(p.core.c3_w > p.core.c6_w);
        assert!(p.package.pc0_w > p.package.pc2_w);
        assert!(p.package.pc2_w > p.package.pc6_w);
        assert!(p.platform.s0_w > p.platform.s3_w);
        assert!(p.platform.s3_w > p.platform.s5_w);
        // Deeper states wake slower.
        assert!(p.core.c6_wake > p.core.c1_wake);
        assert!(p.platform.resume_latency > p.package.pc6_wake);
        // CPU package range matches the Fig. 12 calibration target.
        let idle_pkg = p.package.pc0_w + 10.0 * p.core.c6_w;
        let busy_pkg = p.package.pc0_w + 10.0 * p.core.c0_busy_w;
        assert!((14.0..16.0).contains(&idle_pkg), "idle pkg {idle_pkg}");
        assert!((50.0..60.0).contains(&busy_pkg), "busy pkg {busy_pkg}");
    }

    #[test]
    fn pstates_scale_speed_and_power() {
        let p = ServerPowerProfile::xeon_e5_2680();
        assert_eq!(p.speed_ratio(p.pstates.len() - 1), 1.0);
        assert!(p.speed_ratio(0) < 0.5);
        assert!(p.core_busy_power_w(0) < p.core_busy_power_w(4));
        // Clamping past the end returns the nominal point.
        assert_eq!(p.core_busy_power_w(99), p.core_busy_power_w(4));
    }

    #[test]
    fn lookup_helpers() {
        let p = ServerPowerProfile::xeon_e5_2680();
        assert_eq!(p.core.idle_power_w(CoreCState::C6), p.core.c6_w);
        assert_eq!(p.platform.wake_latency(SystemState::S0), SimDuration::ZERO);
        assert_eq!(
            p.platform.wake_latency(SystemState::S3),
            p.platform.resume_latency
        );
    }

    #[test]
    fn peak_and_idle_power() {
        let p = ServerPowerProfile::xeon_e5_2680();
        // Ten cores: everything on and busy, against idle in S0 with every
        // core in C6.
        let peak = p.platform.s0_w + p.dram.active_w + p.package.pc0_w + 10.0 * p.core.c0_busy_w;
        let idle = p.platform.s0_w
            + p.dram.idle_w
            + p.package.pc0_w
            + 10.0 * p.core.idle_power_w(CoreCState::C6);
        assert!(peak > idle);
        assert!((100.0..120.0).contains(&peak), "peak {peak}");
    }
}
