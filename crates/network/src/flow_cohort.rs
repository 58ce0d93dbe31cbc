//! The cohort engine behind [`FlowNet`](crate::flow::FlowNet): every
//! bottleneck cohort — the flows fixed at one link's fair share — is
//! represented by a single *rate cell* carrying a virtual-time clock, so
//! a rate-level shift is O(1) bookkeeping per affected *link* (update the
//! cell's share) instead of O(flows) settles and retimes.
//!
//! # The virtual-time cell model
//!
//! A cell accumulates `vclock = Σ share · dt` in exact progress units
//! (see [`PROGRESS_PER_BYTE`]): the progress *every* member has made,
//! since all members of a cell run at the cell's share by definition. A
//! member stores only `vfinish` — the cell virtual time at which its
//! payload has fully drained (`vclock`-at-join + payload) — so
//! admission, completion projection, and settling never touch the
//! member set:
//!
//! * a member's remaining payload is `vfinish − vclock`,
//! * its completion instant is `last_update + ceil((vfinish − vclock)
//!   / share)`,
//! * and the cell's earliest completion is read off a per-cell lazy
//!   min-heap of `(vfinish, key)` — the head that survives validation.
//!
//! Because progress is exact integer arithmetic (associative
//! multiply-subtracts), any schedule of cell settles lands on the same
//! remainders as per-flow settles would, and the identity
//! `ceil((R − s·Δ)/s) = ceil(R/s) − Δ` makes completion instants
//! invariant under partial settles at constant share — which is what
//! lets the engine keep per-flow completion instants while doing
//! O(cells) work per re-solve.
//!
//! Flows materialize real timestamps only when they complete, migrate
//! cells (split/merge rebases their `vfinish` onto the new cell's
//! clock), or are observed (`completion_of`).
//!
//! # The bottleneck-aware re-solve
//!
//! A change seeded at some links can only move the rate of cells whose
//! *bottleneck* (the link whose progressive-filling round fixed them)
//! is transitively affected. The solve pulls exactly those cells into a
//! dirty set via a per-link bottleneck registry, charges every untouched
//! cell crossing a dirty link as a fixed reservation (link budgets come
//! from the exact share-weighted allocation aggregate), and re-runs
//! progressive filling on the sub-problem, popping canonical `(share,
//! link)` bottlenecks from a [`LazyHeap`]. Because shares are exact
//! integers, the reservation sums are order-independent, so a link's
//! budget never counts capacity twice and no link is ever allocated past
//! its capacity. A reservation made at a floor-division tie may sit a
//! quantum or a few away from the share the global fill would give it,
//! so the sub-problem's rates track the canonical fill's within
//! [`FlowNet::check_max_min`]'s tolerance rather than bitwise (see the
//! [`flow`](crate::flow) module docs for the measured gaps). A
//! post-solve audit expands the dirty set and re-solves in the (rare)
//! case a dirty link's new fair level undercuts a reserved share. Cells
//! whose members straddle a bottleneck are split (smaller half moves),
//! and cells fixed at the same `(bottleneck, share)` merge back
//! (smaller into larger) at commit.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use holdcsim_des::lazy_heap::LazyHeap;
use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::SimTime;

use crate::flow::{
    drained_units, due_after, link_capacities, max_min_shares, progress_units, CompletedFlow,
    RouteLinks, RATE_UNIT_PER_BPS,
};
use crate::ids::{FlowId, LinkId};
use crate::topology::Topology;

/// Sentinel cell index.
const NO_CELL: u32 = u32::MAX;

/// Sentinel bottleneck index for cells not fixed by any link yet (fresh
/// or just split off, before the solve fixes them).
const NO_BOTTLENECK: u32 = u32::MAX;

/// One active flow: route, identity, and its position on its cell's
/// virtual clock. No rate, no progress remainder, no due-heap slot —
/// those all live in (or derive from) the cell.
#[derive(Debug, Clone)]
struct CFlow {
    id: FlowId,
    links: RouteLinks,
    /// The owning cell's virtual time at which this flow's payload has
    /// fully drained. Rebased on cell migration.
    vfinish: u128,
    /// The owning cell.
    cell: u32,
    /// This flow's index in the owning cell's member list.
    member_pos: u32,
    /// `true` once the flow's payload has drained but its completion is
    /// deferred (its cell's share did not change at the resolve that
    /// discovered it) — it completes at the next [`FlowNet::advance_due`]
    /// with its original due, parked in [`FlowNet::overdue`].
    overdue: bool,
}

/// A rate cell: one bottleneck cohort's shared rate and virtual clock.
#[derive(Debug, Clone, Default)]
struct Cell {
    live: bool,
    /// The committed fair share of every member, in rate units.
    share: u64,
    /// The share the in-progress solve assigned (synced back to `share`
    /// at commit so stale audit reads are safe).
    new_share: u64,
    /// Accumulated progress: `Σ share · dt` over the cell's lifetime,
    /// exact, as of `last_update`.
    vclock: u128,
    /// When `vclock` was last settled.
    last_update: SimTime,
    /// The link whose progressive-filling round fixed this cohort.
    bottleneck: u32,
    /// The bottleneck the in-progress solve assigned.
    new_bottleneck: u32,
    /// Outside a solve: `true`. Cells pulled into the dirty set flip to
    /// `false` until re-fixed.
    fixed: bool,
    /// Member flow keys (unordered; flows track their slot).
    members: Vec<u64>,
    /// `(link, member count crossing it)`, sorted by link — the cell's
    /// link footprint. `Σ share · count` over cells is each link's exact
    /// allocation aggregate.
    cross: Vec<(u32, u32)>,
    /// Lazy min-heap of `(vfinish, key)` over members: entries go stale
    /// when a member migrates, completes, or parks overdue, and are
    /// dropped on contact at the head.
    heap: BinaryHeap<Reverse<(u128, u64)>>,
    /// Audit-scan stamp: equal to the net's `scan_epoch` when this cell
    /// was already seen by the in-progress registry compaction, so
    /// duplicate registrations (possible across cell-slot reuse) are
    /// dropped on contact instead of accumulating.
    scan_mark: u64,
}

/// Bumps `li`'s member count in a sorted cross list.
fn cross_inc(cross: &mut Vec<(u32, u32)>, li: u32) {
    match cross.binary_search_by_key(&li, |e| e.0) {
        Ok(p) => cross[p].1 += 1,
        Err(p) => cross.insert(p, (li, 1)),
    }
}

/// Drops one crossing of `li` (removing the entry at zero).
fn cross_dec(cross: &mut Vec<(u32, u32)>, li: u32) {
    match cross.binary_search_by_key(&li, |e| e.0) {
        Ok(p) => {
            cross[p].1 -= 1;
            if cross[p].1 == 0 {
                cross.remove(p);
            }
        }
        Err(_) => debug_assert!(false, "decrement of absent cross link"),
    }
}

/// How many members of `cell` cross `li`.
fn cross_of(cell: &Cell, li: u32) -> u32 {
    cell.cross
        .binary_search_by_key(&li, |e| e.0)
        .map_or(0, |p| cell.cross[p].1)
}

/// `true` if `(vf, key)` is a live, current, non-parked entry of
/// `cell_id`'s heap.
fn entry_valid(flows: &SlotWindow<CFlow>, cell_id: u32, vf: u128, key: u64) -> bool {
    flows
        .get(key)
        .is_some_and(|f| f.cell == cell_id && f.vfinish == vf && !f.overdue)
}

/// Advances `cell`'s virtual clock to `now`, extracting every member
/// whose payload drains within the window into `overdue` as `(exact
/// due, key, share at extraction)` — the due is computed from the
/// *pre-settle* state, so it is the member's true completion instant
/// (invariant under the settle by the ceiling identity). Extracted
/// members stay in the member set (they still hold their reservation
/// until unlinked); only their heap entry is consumed and their
/// `overdue` flag raised.
fn settle_cell(
    cell: &mut Cell,
    cell_id: u32,
    flows: &mut SlotWindow<CFlow>,
    now: SimTime,
    overdue: &mut Vec<(SimTime, u64, u64)>,
) {
    let dt = now.saturating_duration_since(cell.last_update).as_nanos();
    if dt == 0 {
        // The clock origin moves to `now` even when `now` precedes
        // `last_update` (a resolve triggered by a stale past due),
        // re-charging the overlap: a per-flow settle banks that same
        // surplus, and the lockstep shadow in the tests mirrors it.
        cell.last_update = now;
        return;
    }
    let v_new = cell.vclock + drained_units(cell.share, dt);
    while let Some(&Reverse((vf, key))) = cell.heap.peek() {
        if vf > v_new {
            break;
        }
        let valid = entry_valid(flows, cell_id, vf, key);
        cell.heap.pop();
        if !valid {
            continue;
        }
        // vf ≤ v_new and vf > vclock (live-member invariant) ⇒ share > 0.
        debug_assert!(vf > cell.vclock, "member was already past due");
        let due = cell
            .last_update
            .saturating_add(due_after(vf - cell.vclock, cell.share));
        flows.get_mut(key).expect("validated live").overdue = true;
        overdue.push((due, key, cell.share));
    }
    cell.vclock = v_new;
    cell.last_update = now;
}

/// Recomputes `cell_id`'s entry in the cell-due heap from its surviving
/// head (dropping stale heads on the way). The cell-due heap must be
/// *exact* at rest — a spurious earlier entry would fire a spurious
/// calendar event and change the event trajectory — so every mutation
/// that can move a cell's head calls this eagerly.
fn refresh_cell_due(
    cell: &mut Cell,
    cell_id: u32,
    flows: &SlotWindow<CFlow>,
    cell_due: &mut LazyHeap<SimTime>,
) {
    while let Some(&Reverse((vf, key))) = cell.heap.peek() {
        if entry_valid(flows, cell_id, vf, key) {
            break;
        }
        cell.heap.pop();
    }
    match cell.heap.peek() {
        Some(&Reverse((vf, _))) if cell.share > 0 => {
            debug_assert!(vf > cell.vclock);
            let due = cell
                .last_update
                .saturating_add(due_after(vf - cell.vclock, cell.share));
            cell_due.update(cell_id as usize, due);
        }
        _ => cell_due.remove(cell_id as usize),
    }
}

/// The cohort-cell flow engine; see the module docs for the model.
#[derive(Debug)]
pub struct FlowNet {
    /// Link capacities in rate units.
    capacity: Vec<u64>,
    flows: SlotWindow<CFlow>,
    /// The ids of the live flows: admission refuses a reused one.
    live_ids: BTreeSet<FlowId>,
    cells: Vec<Cell>,
    free_cells: Vec<u32>,
    /// Σ share · crossing-count over live cells, per link — the exact
    /// committed allocation aggregate, the solver's O(1) budget source.
    alloc: Vec<u64>,
    /// Active-flow count per link (`flows_on_link`).
    nflows: Vec<u32>,
    /// Cells bottlenecked at each link — the dirty-set pull index.
    /// Entries are lazy (validated as `live && bottleneck == link` when
    /// drained); every re-solve re-registers its dirty cells.
    cells_at: Vec<Vec<u32>>,
    /// Cells crossing each link — the audit index. Entries are lazy
    /// (validated as `live && crosses link`), compacted in place by the
    /// audit scans that walk them.
    cells_crossing: Vec<Vec<u32>>,
    /// One entry per cell with a projected completion: the cell's
    /// earliest member due. Exact at rest (eagerly refreshed), so
    /// `next_due` is a peek.
    cell_due: LazyHeap<SimTime>,
    /// Parked past-due members: `(original due, key, share at parking)`.
    /// A parked flow completes at the next `advance_due` — or at the
    /// first commit that changes its cell's share away from the parked
    /// share, the cell-world image of settling a rate-changed flow to
    /// zero remaining.
    overdue: Vec<(SimTime, u64, u64)>,
    completed: Vec<CompletedFlow>,
    total_admitted: u64,
    last_solve_touched: usize,
    /// Recycled flow states (route-vector allocations).
    pool: Vec<CFlow>,
    /// Pending re-solve seeds: links whose membership changed, and
    /// just-created singleton cells that must be rated.
    seed_links: Vec<usize>,
    seed_cells: Vec<u32>,
    /// Sim time of the pending admission batch (debug-asserted to never
    /// span two instants).
    pending_since: SimTime,
    // ---- solver scratch (all persistent; cleared per solve) ----
    /// Residual budget per dirty link during a fill.
    cap: Vec<u64>,
    /// Unfixed dirty-flow count per dirty link during a fill.
    cnt: Vec<u64>,
    /// Bottleneck selector over dirty links, keyed by fair share with
    /// deterministic `(share, link)` tie-breaking. Entries are refreshed
    /// lazily: a popped entry whose share is stale (fair shares only rise
    /// within a fill) is re-pushed at its current value, which preserves
    /// the canonical pop order without per-(cell × link) heap updates.
    heap: LazyHeap<u64>,
    dirty_links: Vec<usize>,
    dirty_mask: Vec<bool>,
    dirty_cells: Vec<u32>,
    /// Dirty cells crossing each dirty link (fill candidates; splits
    /// append, so fills iterate by index).
    dirty_list: Vec<Vec<u32>>,
    /// Σ share · crossing-count of dirty cells per dirty link: credited
    /// back against `alloc` to get the sub-problem budget.
    dirty_alloc: Vec<u64>,
    /// Dirty-flow (member) count per dirty link.
    dirty_weight: Vec<u64>,
    /// `(link, fair level)` per progressive-filling round, for the audit.
    levels: Vec<(usize, u64)>,
    /// Persistent per-link upper bound on any crossing cell's share
    /// (ratcheted up at fix time, tightened by clean audit scans) — the
    /// audit's skip gate: a popped level at or above the bound cannot
    /// have undercut any reservation, so the per-cell scan is skipped,
    /// which is the common case when completions *raise* levels.
    res_max: Vec<u64>,
    /// Split partition scratch (member keys).
    part_scratch: Vec<u64>,
    /// Monotonic audit-compaction counter (pairs with `Cell::scan_mark`
    /// to dedup registry entries in place; starts at 1 so a freshly
    /// zeroed mark never collides).
    scan_epoch: u64,
    /// Commit grouping scratch: `(new bottleneck, cell)` sorted.
    order_scratch: Vec<(u32, u32)>,
    /// Flows completing inside the current resolve (sorted by key).
    done_scratch: Vec<u64>,
    /// Advance harvest scratch: `(due, key)`.
    harvest: Vec<(SimTime, u64)>,
}

impl FlowNet {
    /// Creates a flow network over `topo`'s links.
    pub fn new(topo: &Topology) -> Self {
        let capacity = link_capacities(topo);
        let n = capacity.len();
        FlowNet {
            capacity,
            flows: SlotWindow::new(),
            live_ids: BTreeSet::new(),
            cells: Vec::new(),
            free_cells: Vec::new(),
            alloc: vec![0; n],
            nflows: vec![0; n],
            cells_at: vec![Vec::new(); n],
            cells_crossing: vec![Vec::new(); n],
            cell_due: LazyHeap::new(),
            overdue: Vec::new(),
            completed: Vec::new(),
            total_admitted: 0,
            last_solve_touched: 0,
            pool: Vec::new(),
            seed_links: Vec::new(),
            seed_cells: Vec::new(),
            pending_since: SimTime::ZERO,
            cap: vec![0; n],
            cnt: vec![0; n],
            heap: LazyHeap::new(),
            dirty_links: Vec::new(),
            dirty_mask: vec![false; n],
            dirty_cells: Vec::new(),
            dirty_list: vec![Vec::new(); n],
            dirty_alloc: vec![0; n],
            dirty_weight: vec![0; n],
            levels: Vec::new(),
            res_max: vec![0; n],
            part_scratch: Vec::new(),
            scan_epoch: 1,
            order_scratch: Vec::new(),
            done_scratch: Vec::new(),
            harvest: Vec::new(),
        }
    }

    /// Allocates a blank live cell (recycling freed slots and their
    /// vector allocations), stamped at `now` with an empty footprint.
    fn alloc_cell(&mut self, now: SimTime) -> u32 {
        let c = match self.free_cells.pop() {
            Some(c) => c,
            None => {
                self.cells.push(Cell::default());
                (self.cells.len() - 1) as u32
            }
        };
        let cell = &mut self.cells[c as usize];
        debug_assert!(cell.members.is_empty() && cell.cross.is_empty() && cell.heap.is_empty());
        cell.live = true;
        cell.share = 0;
        cell.new_share = 0;
        cell.vclock = 0;
        cell.last_update = now;
        cell.bottleneck = NO_BOTTLENECK;
        cell.new_bottleneck = NO_BOTTLENECK;
        cell.fixed = true;
        cell.scan_mark = 0;
        c
    }

    /// Frees an empty (or fully-migrated) cell.
    fn free_cell(&mut self, c: u32) {
        let cell = &mut self.cells[c as usize];
        cell.live = false;
        cell.members.clear();
        cell.cross.clear();
        cell.heap.clear();
        self.cell_due.remove(c as usize);
        self.free_cells.push(c);
    }

    /// Admits a flow of `bytes` over `links` at `now`, re-solves the
    /// affected component, and returns the flow's key. Reschedule the
    /// completion check if [`next_due`](Self::next_due) moved earlier.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active, the route is empty (same-
    /// host transfers never reach the network), or `bytes == 0`.
    pub fn add_flow(&mut self, now: SimTime, id: FlowId, links: &[LinkId], bytes: u64) -> u64 {
        let key = self.add_flow_batched(now, id, links, bytes);
        self.flush(now);
        key
    }

    /// Like [`add_flow`](Self::add_flow) but defers the re-solve,
    /// accumulating seeds until [`flush`](Self::flush) (or any reading
    /// call that flushes) runs. Admissions that land in the same event —
    /// a task's inbound transfer fan-in — share one re-solve this way;
    /// with max-min fairness the final rates only depend on the final
    /// flow set, so batching at one instant is exact. Each flow becomes a
    /// singleton cell (share 0, fresh clock) seeded for the flush's
    /// solve, where the commit's merge pass folds it into its cohort's
    /// cell.
    ///
    /// # Panics
    ///
    /// As [`add_flow`](Self::add_flow); additionally (debug) if a batch
    /// spans two distinct sim times without an intervening flush.
    pub fn add_flow_batched(
        &mut self,
        now: SimTime,
        id: FlowId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        assert!(!links.is_empty(), "flow with empty route");
        assert!(bytes > 0, "flow with no data");
        assert!(self.live_ids.insert(id), "flow id {id} reused while active");
        debug_assert!(
            self.seed_cells.is_empty() || self.pending_since == now,
            "a batch must not span sim times; flush first"
        );
        let c = self.alloc_cell(now);
        let mut st = self.pool.pop().unwrap_or_else(|| CFlow {
            id,
            links: RouteLinks::default(),
            vfinish: 0,
            cell: NO_CELL,
            member_pos: 0,
            overdue: false,
        });
        st.id = id;
        st.links.set(links);
        st.vfinish = progress_units(bytes);
        st.cell = c;
        st.member_pos = 0;
        st.overdue = false;
        let key = self.flows.insert(st);
        let cell = &mut self.cells[c as usize];
        cell.members.push(key);
        cell.heap.push(Reverse((progress_units(bytes), key)));
        for &l in links {
            cross_inc(&mut cell.cross, l.0);
        }
        for i in 0..self.cells[c as usize].cross.len() {
            let li = self.cells[c as usize].cross[i].0 as usize;
            self.cells_crossing[li].push(c);
        }
        for &l in links {
            let li = l.0 as usize;
            self.nflows[li] += 1;
            self.seed_links.push(li);
        }
        self.seed_cells.push(c);
        self.pending_since = now;
        self.total_admitted += 1;
        key
    }

    /// Re-solves any batched admissions. A no-op when none are pending.
    pub fn flush(&mut self, now: SimTime) {
        if self.seed_cells.is_empty() && self.seed_links.is_empty() {
            return;
        }
        debug_assert_eq!(self.pending_since, now, "batch flushed at a later instant");
        self.resolve(now);
    }

    /// The earliest projected completion among active flows: the
    /// cell-due head against the parked minimum. Exact (no stale entry is
    /// ever reported) and O(parked). Arm one calendar event at this
    /// instant. Batched admissions must be flushed first.
    pub fn next_due(&mut self) -> Option<SimTime> {
        debug_assert!(
            self.seed_cells.is_empty() && self.seed_links.is_empty(),
            "flush batched admissions before reading completions"
        );
        let FlowNet { overdue, flows, .. } = self;
        overdue.retain(|&(_, key, _)| flows.contains(key));
        let mut min = self.overdue.iter().map(|&(d, _, _)| d).min();
        if let Some((_, d)) = self.cell_due.peek() {
            min = Some(min.map_or(d, |m| m.min(d)));
        }
        min
    }

    /// Completes every flow whose projection is due at or before `now`
    /// (they land in [`drain_completed`](Self::drain_completed) in
    /// deterministic `(due, key)` order), then re-solves the freed
    /// component(s) in one batch, retiming neighbors whose rate changed.
    /// A no-op when nothing is due.
    pub fn advance_due(&mut self, now: SimTime) {
        self.flush(now);
        self.seed_links.clear();
        self.seed_cells.clear();
        // Every cell whose head is due settles to `now`, extracting its
        // drained members (the cell-due heap is exact, so no other cell
        // can hold a due member).
        while let Some((c, due)) = self.cell_due.peek() {
            if due > now {
                break;
            }
            let c = c as u32;
            {
                let FlowNet {
                    cells,
                    flows,
                    overdue,
                    ..
                } = self;
                settle_cell(&mut cells[c as usize], c, flows, now, overdue);
            }
            let FlowNet {
                cells,
                flows,
                cell_due,
                ..
            } = self;
            refresh_cell_due(&mut cells[c as usize], c, flows, cell_due);
        }
        let mut harvest = std::mem::take(&mut self.harvest);
        harvest.clear();
        {
            let FlowNet { overdue, flows, .. } = self;
            overdue.retain(|&(due, key, _)| {
                if !flows.contains(key) {
                    return false;
                }
                debug_assert!(due <= now, "parked entries are past due by construction");
                harvest.push((due, key));
                false
            });
        }
        harvest.sort_unstable();
        for &(_, key) in &harvest {
            self.unlink(key, true);
        }
        let any = !harvest.is_empty();
        self.harvest = harvest;
        if any {
            self.resolve(now);
        }
    }

    /// Cancels a live flow (no completion is reported), re-solving the
    /// freed component. Returns `false` if the key is not live.
    pub fn remove_flow(&mut self, now: SimTime, flow: u64) -> bool {
        self.flush(now);
        if !self.flows.contains(flow) {
            return false;
        }
        self.seed_links.clear();
        self.seed_cells.clear();
        self.unlink(flow, false);
        self.resolve(now);
        true
    }

    /// Removes `flow` from its cell and the link tables, extending
    /// `seed_links` with its links and optionally reporting it
    /// completed. Frees the cell if this was its last member, else
    /// eagerly refreshes the cell's due entry (the head may have been
    /// this flow).
    fn unlink(&mut self, flow: u64, completed: bool) {
        let f = self.flows.remove(flow).expect("live flow");
        self.live_ids.remove(&f.id);
        let c = f.cell;
        let pos = f.member_pos as usize;
        let cell = &mut self.cells[c as usize];
        debug_assert_eq!(cell.members[pos], flow);
        cell.members.swap_remove(pos);
        if pos < cell.members.len() {
            let moved = cell.members[pos];
            self.flows
                .get_mut(moved)
                .expect("member is live")
                .member_pos = pos as u32;
        }
        let share = self.cells[c as usize].share;
        for &l in f.links.as_slice() {
            let li = l.0 as usize;
            cross_dec(&mut self.cells[c as usize].cross, l.0);
            self.alloc[li] -= share;
            self.nflows[li] -= 1;
            self.seed_links.push(li);
        }
        if self.cells[c as usize].members.is_empty() {
            self.free_cell(c);
        } else {
            let FlowNet {
                cells,
                flows,
                cell_due,
                ..
            } = self;
            refresh_cell_due(&mut cells[c as usize], c, flows, cell_due);
        }
        if completed {
            self.completed.push(CompletedFlow { id: f.id });
        }
        self.pool.push(f);
    }

    // ------------------------------------------------------------------
    // The cell-granular bottleneck-aware solve (see the module docs):
    // budgets from the allocation aggregate, canonical `(share, link)`
    // pops with lazy revalidation, a `res_max`-gated audit — over cells,
    // with per-link member counts taken from cross counts.
    // ------------------------------------------------------------------

    /// Marks `li` dirty (idempotent), resetting its per-solve
    /// accumulators.
    fn mark_link(&mut self, li: usize) {
        if self.dirty_mask[li] {
            return;
        }
        self.dirty_mask[li] = true;
        self.dirty_links.push(li);
        self.dirty_list[li].clear();
        self.dirty_alloc[li] = 0;
        self.dirty_weight[li] = 0;
    }

    /// Pulls cell `c` into the dirty set (idempotent), dirtying its
    /// links and crediting its members' committed shares back to their
    /// budgets.
    fn pull_cell(&mut self, c: u32) {
        if !self.cells[c as usize].fixed {
            return;
        }
        self.cells[c as usize].fixed = false;
        self.dirty_cells.push(c);
        let share = self.cells[c as usize].share;
        for i in 0..self.cells[c as usize].cross.len() {
            let (li, k) = self.cells[c as usize].cross[i];
            let li = li as usize;
            self.mark_link(li);
            self.dirty_list[li].push(c);
            self.dirty_alloc[li] += share * k as u64;
            self.dirty_weight[li] += k as u64;
        }
    }

    /// Fixes cell `c` wholly at `(bl, share)`, charging its footprint
    /// against the fill's residuals.
    fn fix_cell(&mut self, c: u32, bl: u32, share: u64) {
        let FlowNet {
            cells,
            cap,
            cnt,
            res_max,
            ..
        } = self;
        let cell = &mut cells[c as usize];
        cell.fixed = true;
        cell.new_share = share;
        cell.new_bottleneck = bl;
        for &(li, k) in &cell.cross {
            let li = li as usize;
            cap[li] -= share * k as u64;
            cnt[li] -= k as u64;
            res_max[li] = res_max[li].max(share);
        }
    }

    /// Splits the members of dirty cell `c` that cross `bl` from those
    /// that do not, moving the smaller subset to a fresh cell
    /// (small-to-large amortization), and returns the cell now holding
    /// exactly the `bl`-crossing members. Both halves keep the source's
    /// pre-solve share and bottleneck, so every budget aggregate the
    /// solve derived from the source is preserved by the partition; the
    /// new cell starts a zero clock at `now` with members' `vfinish`
    /// rebased, which the settle-invariance identity makes transparent.
    fn split_cell(&mut self, c: u32, bl: u32, now: SimTime) -> u32 {
        {
            let FlowNet {
                cells,
                flows,
                overdue,
                ..
            } = self;
            settle_cell(&mut cells[c as usize], c, flows, now, overdue);
        }
        let mut part = std::mem::take(&mut self.part_scratch);
        part.clear();
        let crosses = |f: &CFlow| f.links.as_slice().iter().any(|l| l.0 == bl);
        for &k in &self.cells[c as usize].members {
            if crosses(self.flows.get(k).expect("member is live")) {
                part.push(k);
            }
        }
        let n = self.cells[c as usize].members.len();
        debug_assert!(!part.is_empty() && part.len() < n, "split must be proper");
        let move_crossing = part.len() * 2 <= n;
        if !move_crossing {
            part.clear();
            for &k in &self.cells[c as usize].members {
                if !crosses(self.flows.get(k).expect("member is live")) {
                    part.push(k);
                }
            }
        }
        let nc = self.alloc_cell(now);
        {
            let (src, dst) = (c as usize, nc as usize);
            let v_src = self.cells[src].vclock;
            self.cells[dst].share = self.cells[src].share;
            self.cells[dst].new_share = self.cells[src].share;
            self.cells[dst].bottleneck = self.cells[src].bottleneck;
            self.cells[dst].new_bottleneck = NO_BOTTLENECK;
            self.cells[dst].fixed = false;
            let FlowNet { cells, flows, .. } = self;
            for &k in &part {
                let f = flows.get_mut(k).expect("member is live");
                f.cell = nc;
                // Parked members rebase to the clock origin (their
                // vfinish is spent; the overdue list tracks them).
                f.vfinish = f.vfinish.saturating_sub(v_src);
                let (vf, od) = (f.vfinish, f.overdue);
                f.member_pos = cells[dst].members.len() as u32;
                cells[dst].members.push(k);
                if !od {
                    cells[dst].heap.push(Reverse((vf, k)));
                }
                for &l in f.links.as_slice() {
                    cross_dec(&mut cells[src].cross, l.0);
                    cross_inc(&mut cells[dst].cross, l.0);
                }
            }
            // Compact the source member list and re-slot survivors.
            let flows = &self.flows;
            self.cells[src]
                .members
                .retain(|&k| flows.get(k).expect("member is live").cell == c);
            for pos in 0..self.cells[src].members.len() {
                let k = self.cells[src].members[pos];
                self.flows.get_mut(k).expect("member is live").member_pos = pos as u32;
            }
        }
        part.clear();
        self.part_scratch = part;
        // Register the new cell everywhere the source was: audit index,
        // dirty set, and the per-link fill candidate lists. The dirty
        // budget aggregates are untouched — the partition preserves
        // their sums.
        self.dirty_cells.push(nc);
        for i in 0..self.cells[nc as usize].cross.len() {
            let li = self.cells[nc as usize].cross[i].0 as usize;
            debug_assert!(self.dirty_mask[li], "split cell's links are all dirty");
            self.cells_crossing[li].push(nc);
            self.dirty_list[li].push(nc);
        }
        if move_crossing {
            nc
        } else {
            c
        }
    }

    /// The cell-granular solve: pull, budget, fill, audit (see the module
    /// docs). `now` is needed only by splits (their clock rebasing
    /// settles the source).
    fn solve_cells(&mut self, now: SimTime) {
        self.dirty_links.clear();
        self.dirty_cells.clear();
        for i in 0..self.seed_links.len() {
            let li = self.seed_links[i];
            self.mark_link(li);
        }
        for i in 0..self.seed_cells.len() {
            let c = self.seed_cells[i];
            self.pull_cell(c);
        }
        loop {
            // Pull phase: drain every dirty link's bottleneck cohort
            // registry — the cells whose defining constraint is being
            // re-solved. Pulled cells dirty their links, which may
            // expose further registries. Drained entries lose nothing:
            // every dirty cell re-registers at commit.
            let mut i = 0;
            while i < self.dirty_links.len() {
                let li = self.dirty_links[i];
                i += 1;
                let mut list = std::mem::take(&mut self.cells_at[li]);
                for c in list.drain(..) {
                    let cell = &self.cells[c as usize];
                    if cell.live && cell.bottleneck == li as u32 {
                        self.pull_cell(c);
                    }
                }
                self.cells_at[li] = list;
            }
            // Budget phase: capacity minus the committed shares of
            // untouched cells, from the exact aggregates — O(1) per
            // dirty link. Exact integers make the budget independent of
            // summation order, so fixing the sub-problem inside it never
            // over-allocates the link; the reserved shares it leaves out
            // are the committed ones, which may sit a few quanta off the
            // global fill's at floor-division ties.
            self.heap.clear();
            for i in 0..self.dirty_links.len() {
                let li = self.dirty_links[i];
                let reserved = self.alloc[li] - self.dirty_alloc[li];
                let budget = self.capacity[li]
                    .checked_sub(reserved)
                    .expect("reservations never exceed capacity");
                let w = self.dirty_weight[li];
                self.cap[li] = budget;
                self.cnt[li] = w;
                if let Some(share) = budget.checked_div(w) {
                    self.heap.update(li, share);
                }
            }
            // Fill phase: progressive filling over the sub-problem, by
            // cell. `unfixed` counts member flows, which splits leave
            // unchanged.
            self.levels.clear();
            let mut unfixed: u64 = self
                .dirty_cells
                .iter()
                .map(|&c| self.cells[c as usize].members.len() as u64)
                .sum();
            while unfixed > 0 {
                let Some((bl, stale_share)) = self.heap.pop() else {
                    // Defensive: cannot run dry while cells are unfixed
                    // (every dirty cell crosses a dirty link counting
                    // it). Park stragglers at zero on their first link.
                    for i in 0..self.dirty_cells.len() {
                        let c = self.dirty_cells[i] as usize;
                        if !self.cells[c].fixed {
                            self.cells[c].fixed = true;
                            self.cells[c].new_share = 0;
                            self.cells[c].new_bottleneck = self.cells[c]
                                .cross
                                .first()
                                .map_or(NO_BOTTLENECK, |&(l, _)| l);
                        }
                    }
                    break;
                };
                if self.cnt[bl] == 0 {
                    continue; // emptied passively since its last push
                }
                // Lazy revalidation: shares only rise as cells fix, so a
                // stale entry is an optimistic lower bound — re-push the
                // current share and keep popping. The first validated
                // pop is exactly the canonical (share, link) minimum.
                let share = self.cap[bl] / self.cnt[bl];
                if share != stale_share {
                    self.heap.update(bl, share);
                    continue;
                }
                self.levels.push((bl, share));
                let mut fixed_any = false;
                // By index: splits append their new cell to this list
                // when it crosses `bl`, and it must be fixed this round.
                let mut j = 0;
                while j < self.dirty_list[bl].len() {
                    let c = self.dirty_list[bl][j];
                    j += 1;
                    if self.cells[c as usize].fixed {
                        continue;
                    }
                    let k = cross_of(&self.cells[c as usize], bl as u32);
                    if k == 0 {
                        continue; // split remnant that left this link
                    }
                    let n = self.cells[c as usize].members.len() as u32;
                    let target = if k == n {
                        c
                    } else {
                        self.split_cell(c, bl as u32, now)
                    };
                    if self.cells[target as usize].fixed {
                        continue; // the split registered it here twice
                    }
                    self.fix_cell(target, bl as u32, share);
                    unfixed -= self.cells[target as usize].members.len() as u64;
                    fixed_any = true;
                }
                debug_assert!(fixed_any);
            }
            // Audit phase: a reservation is only valid while its cell
            // stays bottlenecked elsewhere at or below every dirty
            // link's new level. Pull any clean cell whose reserved share
            // a popped level undercut, and re-solve the grown
            // sub-problem (rare: the change shifted which link
            // constrains the cell). Scans compact their index in place.
            let mut grew = false;
            for level_idx in 0..self.levels.len() {
                let (li, level) = self.levels[level_idx];
                if self.res_max[li] <= level {
                    continue;
                }
                let mut seen_max = 0u64;
                let mut pulled_here = false;
                self.scan_epoch += 1;
                let epoch = self.scan_epoch;
                let mut list = std::mem::take(&mut self.cells_crossing[li]);
                let mut w = 0;
                for r in 0..list.len() {
                    let c = list[r];
                    let (live, on_link, share, new_share, bott) = {
                        let cell = &self.cells[c as usize];
                        (
                            cell.live,
                            cross_of(cell, li as u32) > 0,
                            cell.share,
                            cell.new_share,
                            cell.bottleneck,
                        )
                    };
                    if !live || !on_link {
                        continue; // stale registration: drop it
                    }
                    if self.cells[c as usize].scan_mark == epoch {
                        continue; // duplicate registration: drop it
                    }
                    self.cells[c as usize].scan_mark = epoch;
                    list[w] = c;
                    w += 1;
                    seen_max = seen_max.max(share.max(new_share));
                    // Dirty cells are recognized by their pre-solve
                    // bottleneck being dirty (pulling marks it);
                    // reservations keep a clean bottleneck.
                    let reserved = bott != NO_BOTTLENECK && !self.dirty_mask[bott as usize];
                    if reserved && share > level {
                        self.pull_cell(c);
                        grew = true;
                        pulled_here = true;
                    }
                }
                list.truncate(w);
                self.cells_crossing[li] = list;
                if !pulled_here {
                    self.res_max[li] = seen_max;
                }
            }
            if !grew {
                break;
            }
            for i in 0..self.dirty_cells.len() {
                let c = self.dirty_cells[i] as usize;
                self.cells[c].fixed = false;
            }
        }
        for i in 0..self.dirty_links.len() {
            let li = self.dirty_links[i];
            self.dirty_mask[li] = false;
        }
    }

    /// Commits the solve: applies new shares in canonical order (settling
    /// each changed cell's clock first), merges cells that converged on
    /// the same bottleneck level, rebuilds the bottleneck registries and
    /// due heap, and routes parked-overdue members whose share finally
    /// changed into the done set.
    fn commit(&mut self, now: SimTime) {
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        let mut touched = 0usize;
        for i in 0..self.dirty_cells.len() {
            let c = self.dirty_cells[i];
            let cell = &self.cells[c as usize];
            if !cell.live {
                continue;
            }
            touched += cell.members.len();
            order.push((cell.new_bottleneck, c));
        }
        self.last_solve_touched = touched;
        order.sort_unstable();
        for &(_, c) in &order {
            self.apply_share(c, now);
        }
        // Merge runs that fixed at the same bottleneck: they now share a
        // rate and a constraining link, i.e. they are one cohort. The
        // largest member count hosts (small-to-large), ties to the
        // lowest cell id — the run is sorted ascending, so strict `>`
        // keeps the first on ties.
        let mut i = 0;
        while i < order.len() {
            let bl = order[i].0;
            let mut j = i + 1;
            while j < order.len() && order[j].0 == bl {
                j += 1;
            }
            if bl != NO_BOTTLENECK && j - i >= 2 {
                self.merge_run(&order[i..j], now);
            }
            i = j;
        }
        for &(_, c) in &order {
            let cell = &self.cells[c as usize];
            if !cell.live {
                continue; // absorbed by a merge
            }
            let bl = cell.bottleneck;
            if bl != NO_BOTTLENECK {
                self.cells_at[bl as usize].push(c);
            }
            let FlowNet {
                cells,
                flows,
                cell_due,
                ..
            } = self;
            refresh_cell_due(&mut cells[c as usize], c, flows, cell_due);
        }
        order.clear();
        self.order_scratch = order;
        // Parked-overdue members whose cell's share changed this solve
        // complete now — exactly the flows that settling at the rate
        // change finds drained. Unchanged shares stay parked.
        let FlowNet {
            overdue,
            flows,
            cells,
            done_scratch,
            ..
        } = self;
        overdue.retain(|&(_, key, park_share)| {
            let Some(f) = flows.get(key) else {
                return false;
            };
            if cells[f.cell as usize].share != park_share {
                done_scratch.push(key);
                return false;
            }
            true
        });
    }

    /// Applies a dirty cell's solved `(new_share, new_bottleneck)`. A
    /// share change settles the clock first so drained progress is
    /// banked at the old rate; the bottleneck is promoted
    /// unconditionally, since ties can move it at an unchanged share.
    fn apply_share(&mut self, c: u32, now: SimTime) {
        let changed = self.cells[c as usize].new_share != self.cells[c as usize].share;
        if changed {
            {
                let FlowNet {
                    cells,
                    flows,
                    overdue,
                    ..
                } = self;
                settle_cell(&mut cells[c as usize], c, flows, now, overdue);
            }
            let (old, new) = {
                let cell = &self.cells[c as usize];
                (cell.share, cell.new_share)
            };
            for i in 0..self.cells[c as usize].cross.len() {
                let (li, k) = self.cells[c as usize].cross[i];
                let li = li as usize;
                self.alloc[li] = self.alloc[li] - old * k as u64 + new * k as u64;
            }
            self.cells[c as usize].share = new;
        }
        let cell = &mut self.cells[c as usize];
        cell.bottleneck = cell.new_bottleneck;
        cell.new_share = cell.share;
        cell.fixed = true;
    }

    /// Merges a committed run of same-bottleneck, same-share cells into
    /// the one with the most members.
    fn merge_run(&mut self, run: &[(u32, u32)], now: SimTime) {
        let mut target = run[0].1;
        for &(_, c) in &run[1..] {
            if self.cells[c as usize].members.len() > self.cells[target as usize].members.len() {
                target = c;
            }
        }
        for &(_, c) in run {
            if c != target {
                self.merge_into(target, c, now);
            }
        }
    }

    /// Folds cell `s` into cell `t` (same share, same bottleneck):
    /// settles both clocks, rebases member virtual deadlines onto `t`'s
    /// clock, and unions the cross-count footprints. The shared share
    /// makes the rebase exact — both clocks advance identically from
    /// `now` on.
    fn merge_into(&mut self, t: u32, s: u32, now: SimTime) {
        debug_assert_eq!(self.cells[t as usize].share, self.cells[s as usize].share);
        {
            let FlowNet {
                cells,
                flows,
                overdue,
                ..
            } = self;
            settle_cell(&mut cells[t as usize], t, flows, now, overdue);
            settle_cell(&mut cells[s as usize], s, flows, now, overdue);
        }
        let members = std::mem::take(&mut self.cells[s as usize].members);
        let cross = std::mem::take(&mut self.cells[s as usize].cross);
        let v_src = self.cells[s as usize].vclock;
        let v_tgt = self.cells[t as usize].vclock;
        for k in members {
            let f = self.flows.get_mut(k).expect("member is live");
            f.cell = t;
            f.vfinish = v_tgt + f.vfinish.saturating_sub(v_src);
            let (vf, od) = (f.vfinish, f.overdue);
            f.member_pos = self.cells[t as usize].members.len() as u32;
            self.cells[t as usize].members.push(k);
            if !od {
                self.cells[t as usize].heap.push(Reverse((vf, k)));
            }
        }
        for (li, k) in cross {
            let tc = &mut self.cells[t as usize].cross;
            match tc.binary_search_by_key(&li, |&(l, _)| l) {
                Ok(pos) => tc[pos].1 += k,
                Err(pos) => {
                    tc.insert(pos, (li, k));
                    self.cells_crossing[li as usize].push(t);
                }
            }
        }
        self.cell_due.remove(s as usize);
        self.cells[s as usize].live = false;
        self.cells[s as usize].heap.clear();
        self.free_cells.push(s);
    }

    /// Re-solves after seeded changes and drains the completion cascade:
    /// freshly-unlinked flows relax their links, which may complete more
    /// flows, until a solve finishes nobody.
    fn resolve(&mut self, now: SimTime) {
        loop {
            self.solve_cells(now);
            self.seed_cells.clear();
            self.commit(now);
            self.seed_links.clear();
            let mut done = std::mem::take(&mut self.done_scratch);
            let finished = done.is_empty();
            done.sort_unstable();
            for &key in &done {
                self.unlink(key, true);
            }
            done.clear();
            self.done_scratch = done;
            if finished {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Observers. These are the materialization points: reading a flow's
    // rate, progress, or projected completion converts the cell's
    // virtual time into real quantities on demand.
    // ------------------------------------------------------------------

    /// Drains the flows that have completed since the last call, without
    /// surrendering the buffer (allocation-free on the driving
    /// simulation's hot path).
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, CompletedFlow> {
        self.completed.drain(..)
    }

    /// The projected completion of a live flow with a positive rate (an
    /// observer for tests and tools — the driving simulation arms a
    /// single event at [`next_due`](Self::next_due) instead).
    /// Parked-overdue flows report the instant their virtual deadline
    /// elapsed.
    pub fn completion_of(&self, flow: u64) -> Option<SimTime> {
        let f = self.flows.get(flow)?;
        if f.overdue {
            return self
                .overdue
                .iter()
                .find(|&&(_, k, _)| k == flow)
                .map(|&(due, _, _)| due);
        }
        let cell = &self.cells[f.cell as usize];
        if cell.share == 0 {
            return None;
        }
        Some(
            cell.last_update
                .saturating_add(due_after(f.vfinish.saturating_sub(cell.vclock), cell.share)),
        )
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total flows ever admitted.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Size of the most recent re-solve's dirty set, in flows: the
    /// members of the cells it re-rated — 0 before any solve. A locality
    /// observable sampled by the metrics probes.
    pub fn last_solve_touched(&self) -> usize {
        self.last_solve_touched
    }

    /// The current fair rate of `id` in bits/second, if active (a linear
    /// scan — an observer for tests and reports, not the event hot path).
    pub fn flow_rate_bps(&self, id: FlowId) -> Option<f64> {
        self.find(id)
            .map(|f| self.cells[f.cell as usize].share as f64 / RATE_UNIT_PER_BPS as f64)
    }

    fn find(&self, id: FlowId) -> Option<&CFlow> {
        self.flows.iter().find(|(_, f)| f.id == id).map(|(_, f)| f)
    }

    /// Fraction of `link`'s capacity currently allocated.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let cap = self.capacity[link.0 as usize];
        if cap == 0 {
            return 0.0;
        }
        self.alloc[link.0 as usize] as f64 / cap as f64
    }

    /// Number of active flows crossing `link`.
    pub fn flows_on_link(&self, link: LinkId) -> usize {
        self.nflows[link.0 as usize] as usize
    }

    /// Checks the committed allocation against the max-min oracle
    /// ([`max_min_shares`] over the live flows): no link carries more
    /// rate units than its capacity, exactly, and every flow's rate is
    /// within 4 quanta (2⁻²⁰ bps each) or 10⁻⁹ relative of the oracle's
    /// share. Parked past-due flows count: they hold their share until
    /// they complete. O(flows × route length) plus the oracle — an
    /// audit for tests and tools, not the event hot path.
    ///
    /// # Errors
    ///
    /// Names the first over-allocated link or the first flow whose rate
    /// strays from the oracle, or reports admissions still awaiting a
    /// [`flush`](Self::flush).
    pub fn check_max_min(&self) -> Result<(), String> {
        if !(self.seed_cells.is_empty() && self.seed_links.is_empty()) {
            return Err("batched admissions await a flush".to_string());
        }
        let mut used = vec![0u128; self.capacity.len()];
        let mut routes = Vec::with_capacity(self.flows.len());
        for (_, f) in self.flows.iter() {
            let share = self.cells[f.cell as usize].share;
            for l in f.links.as_slice() {
                used[l.0 as usize] += u128::from(share);
            }
            routes.push(f.links.as_slice());
        }
        for (li, (&carried, &cap)) in used.iter().zip(&self.capacity).enumerate() {
            if carried > u128::from(cap) {
                return Err(format!(
                    "link {li} carries {carried} rate units, over its capacity of {cap}"
                ));
            }
        }
        let oracle = max_min_shares(&self.capacity, &routes);
        for ((_, f), &want) in self.flows.iter().zip(&oracle) {
            let got = self.cells[f.cell as usize].share;
            let tolerance = (got.max(want) / 1_000_000_000).max(4);
            if got.abs_diff(want) > tolerance {
                return Err(format!(
                    "flow {} runs at {got} rate units; the max-min oracle gives {want}",
                    f.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl FlowNet {
    /// Live cell count — the structural observable the engine's
    /// complexity claim rests on.
    fn live_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.live).count()
    }

    /// State dump: `(id, rate units, route)` per live flow, sorted by id.
    pub(crate) fn dump(&self) -> Vec<(u64, u64, Vec<u32>)> {
        let mut v: Vec<_> = self
            .flows
            .iter()
            .map(|(_, f)| {
                let cell = &self.cells[f.cell as usize];
                (
                    f.id.0,
                    cell.share,
                    f.links.as_slice().iter().map(|l| l.0).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::routing::Router;
    use crate::topologies::{star, LinkSpec};
    use holdcsim_des::time::SimDuration;

    fn route(topo: &Topology, router: &mut Router, a: NodeId, b: NodeId, seed: u64) -> Vec<LinkId> {
        router.route(topo, a, b, seed).unwrap().links
    }

    /// Incast is the cohort engine's raison d'être: N senders converging on
    /// one receiver share the receiver's downlink fair share, so the
    /// whole hot set must coalesce into a single rate cell.
    #[test]
    fn incast_coalesces_into_one_cell() {
        let built = star(16, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        for i in 1..16u64 {
            let links = route(&topo, &mut router, h[i as usize], h[0], i);
            net.add_flow(SimTime::ZERO, FlowId(i), &links, 1_000_000);
        }
        assert_eq!(net.active_flows(), 15);
        assert_eq!(net.live_cells(), 1, "one bottleneck, one cell");
        // All members finish together: one due instant drains them all.
        let due = net.next_due().expect("pending completions");
        net.advance_due(due);
        assert_eq!(net.drain_completed().collect::<Vec<_>>().len(), 15);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.live_cells(), 0);
    }

    /// A batched admission wave lands as singleton seeds and coalesces
    /// in the single flush-time solve.
    #[test]
    fn batched_incast_coalesces_on_flush() {
        let built = star(8, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        for i in 1..8u64 {
            let links = route(&topo, &mut router, h[i as usize], h[0], i);
            net.add_flow_batched(SimTime::ZERO, FlowId(i), &links, 500_000);
        }
        net.flush(SimTime::ZERO);
        assert_eq!(net.live_cells(), 1);
    }

    /// Contention elsewhere peels a subset of a cohort off to a new
    /// bottleneck: the cell must split rather than drag the whole cohort
    /// to the lower share.
    #[test]
    fn contention_shift_splits_the_cell() {
        let built = star(6, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        // Two flows into h0: one cohort on h0's downlink at cap/2 each.
        for (i, src) in [(1u64, 1usize), (2, 2)] {
            let links = route(&topo, &mut router, h[src], h[0], i);
            net.add_flow(SimTime::ZERO, FlowId(i), &links, 10_000_000);
        }
        assert_eq!(net.live_cells(), 1);
        // Two more flows out of h1: h1's uplink now carries three flows
        // (cap/3 < cap/2), so flow 1 re-bottlenecks there and must leave
        // the downlink cohort.
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        for (i, dst) in [(3u64, 3usize), (4, 4)] {
            let links = route(&topo, &mut router, h[1], h[dst], i);
            net.add_flow(t, FlowId(i), &links, 10_000_000);
        }
        let third = 1_000_000_000.0 / 3.0;
        for i in [1u64, 3, 4] {
            let r = net.flow_rate_bps(FlowId(i)).unwrap();
            assert!((r - third).abs() < 2.0, "flow {i}: {r}");
        }
        // Flow 2 keeps the downlink's leftover share alone.
        let r2 = net.flow_rate_bps(FlowId(2)).unwrap();
        assert!((r2 - (1_000_000_000.0 - third)).abs() < 2.0, "{r2}");
    }

    /// The max-min check passes a solved net and names each way a
    /// corrupted one breaks the contract: a share past a link's capacity
    /// and a share that strays from the oracle's, beyond its tolerance.
    #[test]
    fn check_max_min_names_over_allocation_and_drift() {
        let built = star(3, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        for (i, (a, b)) in [(1usize, 0usize), (2, 0), (1, 2)].into_iter().enumerate() {
            let links = route(&topo, &mut router, h[a], h[b], i as u64);
            net.add_flow(SimTime::ZERO, FlowId(i as u64), &links, 1_000_000);
        }
        assert_eq!(net.check_max_min(), Ok(()));
        let cell_of = |net: &FlowNet, id: u64| {
            net.flows
                .iter()
                .find(|(_, f)| f.id == FlowId(id))
                .map(|(_, f)| f.cell as usize)
                .unwrap()
        };
        // Flows 0 and 1 fill h0's downlink: one more unit overflows it.
        let c = cell_of(&net, 0);
        net.cells[c].share += 1;
        let err = net.check_max_min().unwrap_err();
        assert!(err.contains("over its capacity"), "{err}");
        net.cells[c].share -= 1;
        // Flow 2 runs at 0.5 Gb/s, where the tolerance is 10⁻⁹ relative:
        // one unit past it is drift, and lowering a share never
        // over-allocates.
        let c = cell_of(&net, 2);
        let tolerance = net.cells[c].share / 1_000_000_000;
        net.cells[c].share -= tolerance + 1;
        let err = net.check_max_min().unwrap_err();
        assert!(err.contains("flow f2"), "{err}");
        net.cells[c].share += 1;
        assert_eq!(net.check_max_min(), Ok(()), "the tolerance itself passes");
    }

    /// A flow whose virtual deadline elapsed mid-settle while its share
    /// was unchanged stays parked with its original due and completes at
    /// the next `advance_due` — never earlier, never retimed.
    #[test]
    fn parked_overdue_flow_completes_at_original_due() {
        let built = star(2, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let links = route(&topo, &mut router, h[1], h[0], 1);
        net.add_flow(SimTime::ZERO, FlowId(1), &links, 125_000);
        let due = net.next_due().unwrap();
        // 125 kB at 1 Gb/s = 1 ms exactly.
        assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(1));
        // Drive the net well past the due via an unrelated observation
        // instant: the completion must still report the original due.
        net.advance_due(due + SimDuration::from_millis(5));
        let done = net.drain_completed().collect::<Vec<_>>();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, FlowId(1));
    }
}
