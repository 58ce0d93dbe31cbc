//! Pool-based power management: the WASP workload-adaptive two-pool
//! framework (§IV-C, Fig. 7) and the dual-delay-timer partitioning
//! (§IV-B, Fig. 6, after \[69\]).

use std::collections::BTreeSet;

use holdcsim_des::time::SimDuration;
use holdcsim_server::policy::SleepPolicy;
use holdcsim_server::server::ServerId;

/// What the pool controller wants done after a load sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolAction {
    /// Move `server` from the sleep pool to the active pool and wake it.
    Promote(ServerId),
    /// Move `server` from the active pool to the sleep pool.
    Demote(ServerId),
    /// No change.
    Hold,
}

/// The WASP two-pool manager: an *active pool* (shallow sleep only, takes
/// all dispatches) and a *sleep pool* (descends to deep sleep). Servers
/// migrate between pools on pending-load thresholds T_wakeup / T_sleep.
///
/// # Examples
///
/// ```
/// use holdcsim_sched::pools::{PoolAction, PoolManager};
/// use holdcsim_server::server::ServerId;
/// use holdcsim_des::time::SimDuration;
///
/// let ids: Vec<ServerId> = (0..4).map(ServerId).collect();
/// let mut mgr = PoolManager::new(&ids, 2, 3.0, 0.5, SimDuration::from_secs(1));
/// assert_eq!(mgr.active_iter().count(), 2);
/// // Load of 4 pending/active-server > T_wakeup: promote one.
/// match mgr.decide(8.0) {
///     PoolAction::Promote(id) => mgr.apply_promote(id),
///     other => panic!("{other:?}"),
/// }
/// assert_eq!(mgr.active_iter().count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PoolManager {
    active: BTreeSet<ServerId>,
    sleeping: BTreeSet<ServerId>,
    t_wakeup: f64,
    t_sleep: f64,
    sleep_pool_tau: SimDuration,
    min_active: usize,
}

impl PoolManager {
    /// Creates a manager over `servers`, starting with the first
    /// `initial_active` of them in the active pool.
    ///
    /// * `t_wakeup` — promote when pending jobs per active server rises
    ///   above this.
    /// * `t_sleep` — demote when it falls below this.
    /// * `sleep_pool_tau` — the delay timer sleep-pool members run before
    ///   descending from package C6 to system sleep.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, `initial_active` is zero or exceeds
    /// the server count, or `t_sleep >= t_wakeup`.
    pub fn new(
        servers: &[ServerId],
        initial_active: usize,
        t_wakeup: f64,
        t_sleep: f64,
        sleep_pool_tau: SimDuration,
    ) -> Self {
        assert!(!servers.is_empty(), "pool manager needs servers");
        assert!(
            initial_active >= 1 && initial_active <= servers.len(),
            "initial_active out of range"
        );
        assert!(t_sleep < t_wakeup, "T_sleep must be below T_wakeup");
        let active: BTreeSet<ServerId> = servers[..initial_active].iter().copied().collect();
        let sleeping: BTreeSet<ServerId> = servers[initial_active..].iter().copied().collect();
        PoolManager {
            active,
            sleeping,
            t_wakeup,
            t_sleep,
            sleep_pool_tau,
            min_active: 1,
        }
    }

    /// Iterates the active pool ascending by id without allocating.
    pub fn active_iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.active.iter().copied()
    }

    /// `true` if `id` is currently in the active pool.
    pub fn is_active(&self, id: ServerId) -> bool {
        self.active.contains(&id)
    }

    /// The policy active-pool members should run: shallow sleep only.
    pub fn active_pool_policy(&self) -> SleepPolicy {
        SleepPolicy::shallow_only()
    }

    /// The policy sleep-pool members should run: shallow, then deep after τ.
    pub fn sleep_pool_policy(&self) -> SleepPolicy {
        SleepPolicy::shallow_then_deep(self.sleep_pool_tau)
    }

    /// Decides on a sample of `total_pending` jobs (pending per active
    /// server vs the thresholds). The returned server is a *suggestion*;
    /// the driver applies it with [`apply_promote`](Self::apply_promote) /
    /// [`apply_demote`](Self::apply_demote) after acting on the hardware.
    pub fn decide(&self, total_pending: f64) -> PoolAction {
        let per = total_pending / self.active.len() as f64;
        if per > self.t_wakeup {
            if let Some(&id) = self.sleeping.iter().next() {
                return PoolAction::Promote(id);
            }
        } else if per < self.t_sleep && self.active.len() > self.min_active {
            // Demote the highest-id active server (LIFO keeps a stable core
            // set hot, concentrating load like the paper's Fig. 9).
            if let Some(&id) = self.active.iter().next_back() {
                return PoolAction::Demote(id);
            }
        }
        PoolAction::Hold
    }

    /// Records a promotion decided by [`decide`](Self::decide).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the sleep pool.
    pub fn apply_promote(&mut self, id: ServerId) {
        assert!(self.sleeping.remove(&id), "{id} was not sleeping");
        self.active.insert(id);
    }

    /// Records a demotion decided by [`decide`](Self::decide).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the active pool.
    pub fn apply_demote(&mut self, id: ServerId) {
        assert!(self.active.remove(&id), "{id} was not active");
        self.sleeping.insert(id);
    }
}

/// Dual-delay-timer assignment (§IV-B, Fig. 6): the first `n_high` servers
/// get a long timer τ_high and absorb the steady load; the rest get a short
/// timer τ_low so they sleep promptly after bursts.
///
/// Returns one policy per server, aligned with `n_servers`.
///
/// # Panics
///
/// Panics if `n_high > n_servers`.
pub fn dual_timer_policies(
    n_servers: usize,
    n_high: usize,
    tau_high: SimDuration,
    tau_low: SimDuration,
) -> Vec<SleepPolicy> {
    assert!(n_high <= n_servers, "n_high exceeds the farm");
    (0..n_servers)
        .map(|i| {
            if i < n_high {
                SleepPolicy::delay_timer(tau_high)
            } else {
                SleepPolicy::delay_timer(tau_low)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn initial_split() {
        let mgr = PoolManager::new(&ids(5), 2, 3.0, 0.5, SimDuration::from_secs(1));
        assert_eq!(
            mgr.active_iter().collect::<Vec<_>>(),
            [ServerId(0), ServerId(1)]
        );
        assert_eq!(mgr.sleeping.len(), 3);
        assert!(mgr.is_active(ServerId(0)));
        assert!(!mgr.is_active(ServerId(4)));
    }

    #[test]
    fn promote_on_high_load() {
        let mut mgr = PoolManager::new(&ids(3), 1, 2.0, 0.5, SimDuration::from_secs(1));
        match mgr.decide(5.0) {
            PoolAction::Promote(id) => {
                assert_eq!(id, ServerId(1));
                mgr.apply_promote(id);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mgr.active.len(), 2);
    }

    #[test]
    fn demote_on_low_load() {
        let mut mgr = PoolManager::new(&ids(3), 3, 2.0, 0.5, SimDuration::from_secs(1));
        match mgr.decide(0.3) {
            PoolAction::Demote(id) => {
                assert_eq!(id, ServerId(2), "demotes highest id");
                mgr.apply_demote(id);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mgr.active.len(), 2);
    }

    #[test]
    fn never_demotes_last_server() {
        let mgr = PoolManager::new(&ids(3), 1, 2.0, 0.5, SimDuration::from_secs(1));
        assert_eq!(mgr.decide(0.0), PoolAction::Hold);
    }

    #[test]
    fn hold_when_all_promoted() {
        let mgr = PoolManager::new(&ids(2), 2, 2.0, 0.5, SimDuration::from_secs(1));
        assert_eq!(mgr.decide(100.0), PoolAction::Hold);
    }

    #[test]
    fn hold_inside_band() {
        let mgr = PoolManager::new(&ids(4), 2, 3.0, 0.5, SimDuration::from_secs(1));
        assert_eq!(mgr.decide(2.0), PoolAction::Hold); // 1.0 per server
    }

    #[test]
    fn pool_policies_match_wasp() {
        let mgr = PoolManager::new(&ids(2), 1, 2.0, 0.5, SimDuration::from_secs(3));
        assert_eq!(mgr.active_pool_policy(), SleepPolicy::shallow_only());
        assert_eq!(
            mgr.sleep_pool_policy(),
            SleepPolicy::shallow_then_deep(SimDuration::from_secs(3))
        );
    }

    #[test]
    fn dual_timer_split() {
        let ps = dual_timer_policies(
            4,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_millis(100),
        );
        assert_eq!(ps.len(), 4);
        assert_eq!(ps[0], SleepPolicy::delay_timer(SimDuration::from_secs(10)));
        for p in &ps[1..] {
            assert_eq!(*p, SleepPolicy::delay_timer(SimDuration::from_millis(100)));
        }
    }

    #[test]
    #[should_panic(expected = "T_sleep must be below")]
    fn inverted_thresholds_rejected() {
        let _ = PoolManager::new(&ids(2), 1, 0.5, 2.0, SimDuration::from_secs(1));
    }
}
