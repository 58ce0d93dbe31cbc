//! The cluster controllers — §IV-A provisioning and the §IV-C WASP
//! pools — and the on-demand DVFS governor, all run on the controller
//! tick.

use std::collections::BTreeSet;

use holdcsim_des::engine::Context;
use holdcsim_des::time::SimTime;
use holdcsim_sched::pools::{PoolAction, PoolManager};
use holdcsim_sched::provisioning::{ProvisionAction, ProvisioningController};
use holdcsim_server::policy::SleepPolicy;
use holdcsim_server::server::ServerId;

use super::{Datacenter, DcEvent};
use crate::config::{ControllerConfig, SimConfig};

/// The configured cluster controller, if any.
#[derive(Debug)]
pub(super) struct Controller(Option<Kind>);

#[derive(Debug)]
enum Kind {
    Provisioning {
        ctl: ProvisioningController,
        parked: BTreeSet<ServerId>,
    },
    Pools {
        mgr: PoolManager,
    },
}

impl Controller {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Controller(cfg.controller.as_ref().map(|cc| match cc {
            ControllerConfig::Provisioning { min_load, max_load } => Kind::Provisioning {
                ctl: ProvisioningController::new(*min_load, *max_load, cfg.server_count),
                parked: BTreeSet::new(),
            },
            ControllerConfig::Pools {
                t_wakeup,
                t_sleep,
                sleep_pool_tau,
                initial_active,
            } => {
                let ids: Vec<ServerId> = (0..cfg.server_count as u32).map(ServerId).collect();
                Kind::Pools {
                    mgr: PoolManager::new(
                        &ids,
                        *initial_active,
                        *t_wakeup,
                        *t_sleep,
                        *sleep_pool_tau,
                    ),
                }
            }
        }))
    }

    /// The servers placement may use at start: the active pool under the
    /// pool manager, every server otherwise (the provisioning controller
    /// starts with nothing parked).
    pub(super) fn initially_eligible(&self, servers: usize) -> Vec<ServerId> {
        match &self.0 {
            Some(Kind::Pools { mgr }) => mgr.active_iter().collect(),
            _ => (0..servers as u32).map(ServerId).collect(),
        }
    }

    /// The policy server `i` adopts at init, if any: its pool's policy
    /// under the pool manager (arming sleep-pool timers), otherwise its
    /// configured policy when that arms a delay timer.
    pub(super) fn initial_policy(&self, cfg: &SimConfig, i: usize) -> Option<SleepPolicy> {
        match &self.0 {
            Some(Kind::Pools { mgr }) if mgr.is_active(ServerId(i as u32)) => {
                Some(mgr.active_pool_policy())
            }
            Some(Kind::Pools { mgr }) => Some(mgr.sleep_pool_policy()),
            _ => Some(cfg.policy_for(i)).filter(|p| p.deep_after.is_some()),
        }
    }
}

impl Datacenter {
    pub(super) fn on_controller_tick(&mut self, ctx: &mut Context<'_, DcEvent>) {
        let now = ctx.now();
        // Act repeatedly within one tick so deep load swings are matched by
        // batch activations/parkings rather than one server per period.
        for _ in 0..8 {
            if !self.controller_step(ctx) {
                break;
            }
        }
        // On-demand DVFS governor: step server frequencies toward the load.
        if let Some(dvfs) = self.cfg.dvfs {
            for s in &mut self.servers {
                let load = s.pending() as f64 / s.core_count() as f64;
                let p = s.pstate();
                if load > dvfs.high && p + 1 < s.pstate_count() {
                    s.set_pstate(now, p + 1);
                } else if load < dvfs.low && p > 0 {
                    s.set_pstate(now, p - 1);
                }
            }
        }
        // Keep ticking within the horizon.
        if now + self.cfg.controller_period <= SimTime::ZERO + self.cfg.duration {
            ctx.schedule_in(self.cfg.controller_period, DcEvent::ControllerTick);
        }
    }

    /// One controller decision; returns `true` if it acted.
    fn controller_step(&mut self, ctx: &mut Context<'_, DcEvent>) -> bool {
        let now = ctx.now();
        let total_pending = self.total_pending() as f64;
        // Controller decisions (extracted first to satisfy the borrow
        // checker: acting on servers needs &mut self).
        enum Decision {
            Park(ServerId),
            Activate(ServerId, SleepPolicy),
            Demote(ServerId, SleepPolicy),
            None,
        }
        let decision = match &mut self.controller.0 {
            Some(Kind::Provisioning { ctl, parked }) => {
                let active = self.servers.len() - parked.len();
                match ctl.decide(total_pending, active) {
                    ProvisionAction::ActivateOne => match parked.iter().next().copied() {
                        Some(id) => {
                            parked.remove(&id);
                            Decision::Activate(id, self.cfg.policy_for(id.0 as usize))
                        }
                        None => Decision::None,
                    },
                    ProvisionAction::DeactivateOne => {
                        // Park the highest-id non-parked server.
                        let candidate = (0..self.servers.len() as u32)
                            .rev()
                            .map(ServerId)
                            .find(|id| !parked.contains(id));
                        match candidate {
                            Some(id) if self.servers.len() - parked.len() > 1 => {
                                parked.insert(id);
                                Decision::Park(id)
                            }
                            _ => Decision::None,
                        }
                    }
                    ProvisionAction::Hold => Decision::None,
                }
            }
            Some(Kind::Pools { mgr }) => {
                // Pool load counts only the active pool's pending work.
                let active_pending: usize = mgr
                    .active_iter()
                    .map(|id| self.servers[id.0 as usize].pending())
                    .sum();
                match mgr.decide(active_pending as f64 + self.global_queue.len() as f64) {
                    PoolAction::Promote(id) => {
                        mgr.apply_promote(id);
                        Decision::Activate(id, mgr.active_pool_policy())
                    }
                    PoolAction::Demote(id) => {
                        mgr.apply_demote(id);
                        Decision::Demote(id, mgr.sleep_pool_policy())
                    }
                    PoolAction::Hold => Decision::None,
                }
            }
            None => Decision::None,
        };
        match decision {
            Decision::Park(id) => {
                // Parked servers simply stop receiving work; their own
                // sleep policy (delay timer) decides when they descend.
                self.placement.set_eligible(&self.servers, id, false);
            }
            Decision::Activate(id, policy) => self.activate(ctx, id, policy),
            // A crashed node ignores controller policy pokes (see
            // `activate`).
            Decision::Demote(id, policy) => {
                if !self.is_down(id) {
                    self.servers[id.0 as usize].set_policy(now, policy, &mut self.fx);
                    Self::apply_effects(ctx, id, &self.fx, self.crash_gen(id));
                }
                self.placement.set_eligible(&self.servers, id, false);
            }
            Decision::None => return false,
        }
        true
    }

    /// Returns `id` to service under `policy` (an unparked or promoted
    /// server): wakes it and makes it eligible. A crashed node ignores
    /// controller wake-ups and policy pokes; it rejoins the eligible set
    /// at its FaultRecover instant (the controller's own bookkeeping
    /// still advances).
    fn activate(&mut self, ctx: &mut Context<'_, DcEvent>, id: ServerId, policy: SleepPolicy) {
        if self.is_down(id) {
            return;
        }
        let (now, gen) = (ctx.now(), self.crash_gen(id));
        let server = &mut self.servers[id.0 as usize];
        server.set_policy(now, policy, &mut self.fx);
        Self::apply_effects(ctx, id, &self.fx, gen);
        server.request_wake(now, &mut self.fx);
        Self::apply_effects(ctx, id, &self.fx, gen);
        self.placement.set_eligible(&self.servers, id, true);
    }
}
