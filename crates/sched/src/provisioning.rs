//! Dynamic resource provisioning (§IV-A, Fig. 4): keep the load per active
//! server between two thresholds by activating/parking servers.

/// What the provisioning loop should do after a load sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionAction {
    /// Load per server exceeded the max threshold: bring one server back.
    ActivateOne,
    /// Load per server dropped below the min threshold: park one server
    /// (it finishes pending work, then sleeps).
    DeactivateOne,
    /// Load is within band.
    Hold,
}

/// The §IV-A threshold controller.
///
/// # Examples
///
/// ```
/// use holdcsim_sched::provisioning::{ProvisionAction, ProvisioningController};
///
/// let ctl = ProvisioningController::new(1.0, 3.0, 100);
/// assert_eq!(ctl.decide(200.0, 50), ProvisionAction::ActivateOne); // 4 > 3
/// assert_eq!(ctl.decide(20.0, 50), ProvisionAction::DeactivateOne); // 0.4 < 1
/// assert_eq!(ctl.decide(100.0, 50), ProvisionAction::Hold); // 2 in band
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisioningController {
    min_load: f64,
    max_load: f64,
    total_servers: usize,
}

impl ProvisioningController {
    /// Creates a controller with per-server load thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `min_load >= max_load`, either is negative, or
    /// `total_servers == 0`.
    pub fn new(min_load: f64, max_load: f64, total_servers: usize) -> Self {
        assert!(
            min_load >= 0.0 && max_load > min_load,
            "thresholds must satisfy 0 <= min < max"
        );
        assert!(total_servers > 0, "need at least one server");
        ProvisioningController {
            min_load,
            max_load,
            total_servers,
        }
    }

    /// Decides on a sample of `total_pending` tasks across `active` servers.
    ///
    /// Never deactivates the last server, never activates beyond the farm.
    pub fn decide(&self, total_pending: f64, active: usize) -> ProvisionAction {
        if active == 0 {
            return ProvisionAction::ActivateOne;
        }
        let per_server = total_pending / active as f64;
        if per_server > self.max_load && active < self.total_servers {
            ProvisionAction::ActivateOne
        } else if per_server < self.min_load && active > 1 {
            ProvisionAction::DeactivateOne
        } else {
            ProvisionAction::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_respected() {
        let ctl = ProvisioningController::new(1.0, 3.0, 4);
        // At full farm, high load holds.
        assert_eq!(ctl.decide(100.0, 4), ProvisionAction::Hold);
        // At one server, low load holds.
        assert_eq!(ctl.decide(0.0, 1), ProvisionAction::Hold);
        // Zero active always activates.
        assert_eq!(ctl.decide(0.0, 0), ProvisionAction::ActivateOne);
    }

    #[test]
    fn band_edges_hold() {
        let ctl = ProvisioningController::new(1.0, 3.0, 10);
        assert_eq!(ctl.decide(30.0, 10), ProvisionAction::Hold); // exactly max
        assert_eq!(ctl.decide(10.0, 10), ProvisionAction::Hold); // exactly min
    }

    #[test]
    fn converges_to_band_in_closed_loop() {
        // Simulated closed loop: constant 120 pending tasks, controller
        // adjusts the active count until load/server is within [2, 6].
        let ctl = ProvisioningController::new(2.0, 6.0, 100);
        let mut active = 100usize;
        for _ in 0..200 {
            match ctl.decide(120.0, active) {
                ProvisionAction::ActivateOne => active += 1,
                ProvisionAction::DeactivateOne => active -= 1,
                ProvisionAction::Hold => break,
            }
        }
        let per = 120.0 / active as f64;
        assert!(
            (2.0..=6.0).contains(&per),
            "load per server {per} with {active} active"
        );
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn inverted_thresholds_rejected() {
        let _ = ProvisioningController::new(3.0, 1.0, 10);
    }
}
