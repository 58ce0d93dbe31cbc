// A `FlowNet` driven in lockstep with a test-side shadow of the max-min
// oracle. Shared by `holdcsim-network`'s flow tests and
// `tests/properties.rs`, which each `include!` it into a module that
// imports `max_min_shares`, `FlowNet`, `FlowId`, `LinkId`, `NodeId`,
// `Topology`, `SimDuration` and `SimTime`.
//
// The shadow tracks every live flow's progress at the oracle's rates
// (`max_min_shares` over the live flow set) in exact u128 progress
// units, under the solver's contract: progress is banked when a flow's
// rate changes (the clock moves to the operation's instant, as the
// solver's does), a flow found drained at a rate change completes at
// once, and completions re-rate the rest until none drains. After every
// operation the lockstep runs `FlowNet::check_max_min` and requires the
// net's completions to be the shadow's, in the same order, each at an
// instant within 1 ns of the shadow's.

/// One payload byte in progress units: 8 bits × 2²⁰ rate units per bit/s
/// × 10⁹ ns/s (a flow at `r` rate units drains `r` units per ns).
const PROGRESS_PER_BYTE: u128 = 8 * (1 << 20) * 1_000_000_000;

/// One live flow of the shadow.
struct ShadowFlow {
    id: FlowId,
    links: Vec<LinkId>,
    /// Undelivered payload in progress units, as of `since`.
    remaining: u128,
    /// The oracle's rate, in 2⁻²⁰ bps units.
    rate: u64,
    since: SimTime,
}

impl ShadowFlow {
    /// Banks the progress made since `since` and moves the clock to `now`.
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.since).as_nanos();
        self.remaining = self
            .remaining
            .saturating_sub(u128::from(self.rate) * u128::from(dt));
        self.since = now;
    }

    /// The first whole nanosecond at which the payload has drained at the
    /// current rate.
    fn due(&self) -> Option<SimTime> {
        (self.rate > 0).then(|| {
            let ns = self.remaining.div_ceil(u128::from(self.rate));
            self.since.saturating_add(SimDuration::from_nanos(
                u64::try_from(ns).unwrap_or(u64::MAX),
            ))
        })
    }
}

/// Asserts that two instants lie within 1 ns of each other.
fn assert_within_ns(a: SimTime, b: SimTime, what: &str) {
    let gap = a.max(b).saturating_duration_since(a.min(b));
    assert!(gap <= SimDuration::from_nanos(1), "{what}: {a} vs {b}");
}

/// A `FlowNet` and its shadow, driven operation by operation.
pub struct Lockstep {
    /// The solver under test.
    pub net: FlowNet,
    /// Link capacities in rate units.
    capacity: Vec<u64>,
    /// The shadow's live flows, in admission order.
    shadow: Vec<ShadowFlow>,
    /// Shadow completions not yet matched: `(flow, instant)`.
    shadow_done: Vec<(FlowId, SimTime)>,
    /// Every matched completion so far: `(flow, instant)`, in order.
    pub done: Vec<(FlowId, SimTime)>,
}

impl Lockstep {
    /// A fresh net and shadow over `topo`'s links.
    pub fn new(topo: &Topology) -> Self {
        Lockstep {
            net: FlowNet::new(topo),
            capacity: topo.links().iter().map(|l| l.rate_bps << 20).collect(),
            shadow: Vec::new(),
            shadow_done: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Admits a flow to both and re-solves; returns the net's key.
    pub fn add_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        let key = self.net.add_flow(now, id, links, bytes);
        self.admit(now, id, links, bytes);
        self.rerate(now);
        self.check(now);
        key
    }

    /// Admits a flow to both without re-solving (see [`Self::flush`]).
    pub fn add_flow_batched(
        &mut self,
        now: SimTime,
        id: FlowId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        self.admit(now, id, links, bytes);
        self.net.add_flow_batched(now, id, links, bytes)
    }

    /// Re-solves a batch of admissions on both.
    pub fn flush(&mut self, now: SimTime) {
        self.net.flush(now);
        self.rerate(now);
        self.check(now);
    }

    /// Cancels flow `id` (net key `key`) on both.
    pub fn remove_flow(&mut self, now: SimTime, key: u64, id: FlowId) {
        assert!(self.net.remove_flow(now, key), "flow {id} is live");
        self.shadow.retain(|f| f.id != id);
        self.rerate(now);
        self.check(now);
    }

    /// Fires the earliest projected completion on both (the two dues
    /// must agree within 1 ns) and returns the net's due, or `None` when
    /// no flow is rated.
    pub fn advance(&mut self) -> Option<SimTime> {
        let due = self.net.next_due();
        let shadow_due = self.shadow.iter().filter_map(ShadowFlow::due).min();
        assert_eq!(
            due.is_some(),
            shadow_due.is_some(),
            "net due {due:?} vs shadow due {shadow_due:?}"
        );
        let (due, shadow_due) = (due?, shadow_due?);
        assert_within_ns(due, shadow_due, "next due");
        self.net.advance_due(due);
        // `shadow_due` is the least due, so every flow it drains shares
        // it, and admission order is the solver's `(due, key)` order.
        let drained: Vec<bool> = (self.shadow.iter())
            .map(|f| f.due() == Some(shadow_due))
            .collect();
        self.retire(&drained, shadow_due);
        self.rerate(shadow_due);
        self.check(due);
        Some(due)
    }

    fn admit(&mut self, now: SimTime, id: FlowId, links: &[LinkId], bytes: u64) {
        self.shadow.push(ShadowFlow {
            id,
            links: links.to_vec(),
            remaining: u128::from(bytes) * PROGRESS_PER_BYTE,
            rate: 0,
            since: now,
        });
    }

    /// Re-rates the shadow at `now` from the oracle. A flow whose rate
    /// changes banks its progress first; one found drained completes, and
    /// the rest re-rate without it.
    fn rerate(&mut self, now: SimTime) {
        loop {
            let shares = {
                let routes: Vec<&[LinkId]> =
                    self.shadow.iter().map(|f| f.links.as_slice()).collect();
                max_min_shares(&self.capacity, &routes)
            };
            let mut drained = vec![false; self.shadow.len()];
            for ((f, &share), drained) in self.shadow.iter_mut().zip(&shares).zip(&mut drained) {
                if share == f.rate {
                    continue;
                }
                f.settle(now);
                if f.remaining == 0 {
                    *drained = true;
                } else {
                    f.rate = share;
                }
            }
            if !drained.contains(&true) {
                return;
            }
            self.retire(&drained, now);
        }
    }

    /// Completes the shadow flows marked in `drained` at `at`, in
    /// admission order.
    fn retire(&mut self, drained: &[bool], at: SimTime) {
        let mut i = 0;
        let done = &mut self.shadow_done;
        self.shadow.retain(|f| {
            i += 1;
            if drained[i - 1] {
                done.push((f.id, at));
            }
            !drained[i - 1]
        });
    }

    /// Matches the net's completions since the last check against the
    /// shadow's, then runs the net's max-min check.
    fn check(&mut self, now: SimTime) {
        let got: Vec<(FlowId, SimTime)> =
            self.net.drain_completed().map(|c| (c.id, now)).collect();
        let want = std::mem::take(&mut self.shadow_done);
        let ids = |v: &[(FlowId, SimTime)]| v.iter().map(|&(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&got), ids(&want), "completions at {now}");
        for (&(id, at), &(_, shadow_at)) in got.iter().zip(&want) {
            assert_within_ns(at, shadow_at, &format!("completion of {id}"));
        }
        assert_eq!(self.net.active_flows(), self.shadow.len(), "live flows");
        if let Err(e) = self.net.check_max_min() {
            panic!("at {now}: {e}");
        }
        self.done.extend(got);
    }
}
