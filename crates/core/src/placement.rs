//! Task placement: the eligible set, the per-server committed load, the
//! free-core bitmap, and the global policy that picks from them.
//!
//! [`Placement`] keeps one invariant for the driver: bit `i` of the
//! free-core bitmap is set iff server `i` is placement-eligible, awake,
//! and has `pending + committed < cores` — exactly
//! [`ClusterView::has_free_core`] restricted to the eligible set. The
//! eligibility and committed-load updates re-derive the bit themselves;
//! the driver calls [`Placement::refresh`] after every server call that
//! can change a mode, a queue or a running core. Consolidating
//! placement then finds its first choice by walking set bits instead of
//! probing every eligible server.

use holdcsim_sched::policy::{ClusterView, Policy};
use holdcsim_server::server::{Server, ServerId};

use crate::config::{PolicyKind, SimConfig};
use crate::netstate::NetState;

/// The placement layer of the driver: where each ready task goes.
#[derive(Debug)]
pub(crate) struct Placement {
    policy: Policy,
    /// Placement-eligible servers, ascending by id. Maintained
    /// incrementally by controller and fault decisions; never rebuilt per
    /// placement.
    eligible: Vec<ServerId>,
    /// `eligible_mask[i]` ⇔ `ServerId(i)` is in `eligible` (O(1) probes).
    eligible_mask: Vec<bool>,
    /// Per-server tasks committed but still waiting on inbound transfers.
    committed: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` ⇔ server `i` is eligible, awake, and
    /// has `pending + committed < cores`.
    free: Vec<u64>,
    /// Scratch for the class/free-core-filtered candidate list (reused
    /// across placements; no per-placement allocation).
    scratch_candidates: Vec<ServerId>,
    /// Server-indexed network wake-cost table (reused; only entries for
    /// the current candidate set are meaningful). All zeros unless the
    /// policy is network-aware and the run has a fabric.
    cost_scratch: Vec<f64>,
}

impl Placement {
    /// The configured policy over freshly built `servers`, with `eligible`
    /// (ascending) as the eligible set. Fresh servers are awake with no
    /// work, so the bitmap starts as the eligibility mask and is built
    /// without reading the servers.
    pub(crate) fn new(cfg: &SimConfig, servers: &[Server], eligible: Vec<ServerId>) -> Self {
        let policy = match cfg.policy {
            PolicyKind::RoundRobin => Policy::RoundRobin { next: 0 },
            PolicyKind::LeastLoaded => Policy::LeastLoaded,
            PolicyKind::PackFirst => Policy::PackFirst,
            PolicyKind::Random => Policy::random(cfg.seed ^ 0xD15C0),
            PolicyKind::NetworkAware => Policy::NetworkAware,
        };
        let n = cfg.server_count;
        debug_assert!(eligible.windows(2).all(|w| w[0] < w[1]));
        let mut eligible_mask = vec![false; n];
        let mut free = vec![0u64; n.div_ceil(64)];
        for &id in &eligible {
            eligible_mask[id.0 as usize] = true;
            free[id.0 as usize / 64] |= 1 << (id.0 % 64);
        }
        let placement = Placement {
            policy,
            eligible,
            eligible_mask,
            committed: vec![0; n],
            free,
            scratch_candidates: Vec::new(),
            cost_scratch: vec![0.0; n],
        };
        debug_assert!((0..n as u32)
            .map(ServerId)
            .all(|id| placement.bit(id) == placement.is_free(servers, id)));
        placement
    }

    /// Per-server tasks committed but still waiting on inbound transfers
    /// (indexed by server id).
    pub(crate) fn committed(&self) -> &[u32] {
        &self.committed
    }

    /// `true` if `id` is in the eligible set.
    pub(crate) fn is_eligible(&self, id: ServerId) -> bool {
        self.eligible_mask[id.0 as usize]
    }

    /// Adds or removes `id` from the eligible set, keeping `eligible`
    /// sorted ascending, and re-derives its free-core bit.
    pub(crate) fn set_eligible(&mut self, servers: &[Server], id: ServerId, on: bool) {
        let i = id.0 as usize;
        if self.eligible_mask[i] != on {
            self.eligible_mask[i] = on;
            match self.eligible.binary_search(&id) {
                Ok(pos) if !on => {
                    self.eligible.remove(pos);
                }
                Err(pos) if on => {
                    self.eligible.insert(pos, id);
                }
                _ => {}
            }
        }
        self.refresh(servers, id);
    }

    /// Commits a task to `id` ahead of its inbound transfers (it holds a
    /// core reservation until [`Placement::release`]).
    pub(crate) fn commit(&mut self, servers: &[Server], id: ServerId) {
        self.committed[id.0 as usize] += 1;
        self.refresh(servers, id);
    }

    /// Drops one committed task from `id` (dispatched or killed).
    pub(crate) fn release(&mut self, servers: &[Server], id: ServerId) {
        self.committed[id.0 as usize] -= 1;
        self.refresh(servers, id);
    }

    /// Re-derives `id`'s free-core bit. The driver calls this after every
    /// server call that can change its mode, queues or running cores.
    pub(crate) fn refresh(&mut self, servers: &[Server], id: ServerId) {
        let i = id.0 as usize;
        let bit = 1u64 << (i % 64);
        if self.is_free(servers, id) {
            self.free[i / 64] |= bit;
        } else {
            self.free[i / 64] &= !bit;
        }
    }

    /// The bitmap predicate: eligible and [`ClusterView::has_free_core`].
    fn is_free(&self, servers: &[Server], id: ServerId) -> bool {
        self.eligible_mask[id.0 as usize]
            && ClusterView::with_committed(servers, &self.committed).has_free_core(id)
    }

    fn bit(&self, id: ServerId) -> bool {
        let i = id.0 as usize;
        self.free[i / 64] >> (i % 64) & 1 == 1
    }

    /// Chooses a server for a task whose data sources are `srcs`, honoring
    /// a server-class constraint if the task names one; `None` leaves the
    /// task to the global queue.
    pub(crate) fn select_server(
        &mut self,
        servers: &[Server],
        cfg: &SimConfig,
        net: Option<&mut NetState>,
        srcs: &[ServerId],
        class: Option<u32>,
        seed: u64,
    ) -> Option<ServerId> {
        let use_gq = cfg.use_global_queue;
        // Fast path: no class constraint and no free-core filter means the
        // eligible list can be borrowed as-is (O(1) placement for O(1)
        // policies — the Table I scalability path).
        let needs_filter = use_gq || (class.is_some() && !cfg.server_classes.is_empty());
        if needs_filter {
            let Placement {
                eligible,
                scratch_candidates,
                committed,
                ..
            } = self;
            scratch_candidates.clear();
            scratch_candidates.extend(
                eligible
                    .iter()
                    .copied()
                    .filter(|&id| match (class, cfg.server_classes.is_empty()) {
                        (Some(c), false) => cfg.server_classes[id.0 as usize] == c,
                        _ => true,
                    })
                    .filter(|&id| {
                        if !use_gq {
                            return true;
                        }
                        // Free capacity counts tasks committed to the
                        // server but still awaiting inbound transfers.
                        let s = &servers[id.0 as usize];
                        s.is_awake() && s.busy_cores() + committed[id.0 as usize] < s.core_count()
                    }),
            );
        }
        let candidates: &[ServerId] = if needs_filter {
            &self.scratch_candidates
        } else {
            &self.eligible
        };
        // Network-aware placement needs per-candidate wake costs; fill the
        // server-indexed scratch table for exactly the candidate set.
        if let Some(net) = net.filter(|_| matches!(self.policy, Policy::NetworkAware)) {
            for &id in candidates {
                self.cost_scratch[id.0 as usize] = net.wake_cost(srcs, id, seed);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let view =
            ClusterView::with_committed(servers, &self.committed).with_free_bitmap(&self.free);
        debug_assert!(
            candidates
                .iter()
                .all(|&id| self.bit(id) == view.has_free_core(id)),
            "free-core bitmap out of step with the servers"
        );
        self.policy.select(&view, candidates, &self.cost_scratch)
    }
}
