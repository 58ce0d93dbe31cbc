//! Task handles as servers see them.

use holdcsim_des::time::SimDuration;
use holdcsim_workload::ids::TaskId;

/// A task dispatched to a server: the identity plus the execution demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskHandle {
    /// The task's identity (job + index).
    pub id: TaskId,
    /// Nominal service time at the nominal core frequency.
    pub service: SimDuration,
    /// Compute intensiveness α ∈ `[0, 1]`: fraction of the service time that
    /// scales with frequency.
    pub intensity: f64,
}

impl TaskHandle {
    /// Execution time at `speed_ratio` (relative to nominal frequency):
    /// `service · (α/speed + (1 − α))`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_ratio` is not strictly positive.
    pub fn execution_time(&self, speed_ratio: f64) -> SimDuration {
        assert!(speed_ratio > 0.0, "speed ratio must be positive");
        let a = self.intensity.clamp(0.0, 1.0);
        self.service.mul_f64(a / speed_ratio + (1.0 - a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_workload::ids::JobId;

    fn task(ms: u64, intensity: f64) -> TaskHandle {
        TaskHandle {
            id: TaskId::new(JobId(1), 0),
            service: SimDuration::from_millis(ms),
            intensity,
        }
    }

    #[test]
    fn nominal_speed_is_identity() {
        assert_eq!(
            task(10, 1.0).execution_time(1.0),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            task(10, 0.3).execution_time(1.0),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn compute_bound_scales_inversely_with_speed() {
        assert_eq!(
            task(10, 1.0).execution_time(0.5),
            SimDuration::from_millis(20)
        );
        assert_eq!(
            task(10, 1.0).execution_time(2.0),
            SimDuration::from_millis(5)
        );
    }

    #[test]
    fn memory_bound_fraction_does_not_scale() {
        // α = 0.5 at half speed: 10 * (0.5/0.5 + 0.5) = 15 ms.
        assert_eq!(
            task(10, 0.5).execution_time(0.5),
            SimDuration::from_millis(15)
        );
        // α = 0 never scales.
        assert_eq!(
            task(10, 0.0).execution_time(0.25),
            SimDuration::from_millis(10)
        );
    }
}
