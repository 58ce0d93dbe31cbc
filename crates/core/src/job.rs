//! Job lifecycle tracking: DAG readiness counting, placement, transfer
//! barriers, and completion detection (§III-C).

use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::SimTime;
use holdcsim_server::server::ServerId;
use holdcsim_workload::dag::JobDag;
use holdcsim_workload::ids::JobId;

/// One in-flight job.
#[derive(Debug)]
pub struct JobState {
    /// The job's DAG.
    pub dag: JobDag,
    /// When the job arrived at the front end.
    pub arrived: SimTime,
    /// Unfinished-predecessor counts per task.
    remaining_preds: Vec<u32>,
    /// Placement of each task once decided.
    assigned: Vec<Option<ServerId>>,
    /// Outstanding inbound transfers per task (task may not start until 0).
    pending_transfers: Vec<u32>,
    /// Tasks not yet finished.
    unfinished: u32,
    /// Fault-retry attempts per task (stays empty until the first retry;
    /// fault-free runs never touch it).
    retries: Vec<u32>,
    /// `true` once any task of this job was retried after a fault.
    fault_affected: bool,
    /// `true` once the retry budget ran out: the job will never complete
    /// and stays in the table as unfinished.
    abandoned: bool,
}

impl JobState {
    /// Creates tracking state for a job arriving at `arrived`.
    pub fn new(dag: JobDag, arrived: SimTime) -> Self {
        let mut state = JobState {
            remaining_preds: Vec::new(),
            assigned: Vec::new(),
            pending_transfers: Vec::new(),
            unfinished: 0,
            retries: Vec::new(),
            fault_affected: false,
            abandoned: false,
            dag,
            arrived,
        };
        state.reset(arrived);
        state
    }

    /// Reinitializes the tracking state for the current `dag`, reusing all
    /// allocations. Callers recycling a completed job's state rewrite
    /// `dag` first (e.g. via `JobTemplate::generate_into`), then reset.
    pub fn reset(&mut self, arrived: SimTime) {
        let n = self.dag.len();
        self.arrived = arrived;
        self.remaining_preds.clear();
        self.remaining_preds.resize(n, 0);
        for e in self.dag.edges() {
            self.remaining_preds[e.to as usize] += 1;
        }
        self.assigned.clear();
        self.assigned.resize(n, None);
        self.pending_transfers.clear();
        self.pending_transfers.resize(n, 0);
        self.unfinished = n as u32;
        self.retries.clear();
        self.fault_affected = false;
        self.abandoned = false;
    }

    /// Records that `task` finished, appending newly ready successors to
    /// `ready` (the driver passes a reusable scratch buffer, keeping the
    /// completion hot path allocation-free).
    pub fn finish_task_into(&mut self, task: u32, ready: &mut Vec<u32>) {
        debug_assert!(self.unfinished > 0);
        self.unfinished -= 1;
        for &s in self.dag.successors(task) {
            let r = &mut self.remaining_preds[s as usize];
            debug_assert!(*r > 0);
            *r -= 1;
            if *r == 0 {
                ready.push(s);
            }
        }
    }

    /// `true` once every task has finished.
    pub fn is_complete(&self) -> bool {
        self.unfinished == 0
    }

    /// Records the placement decision for `task`.
    pub fn assign(&mut self, task: u32, server: ServerId) {
        self.assigned[task as usize] = Some(server);
    }

    /// Where `task` was placed, if yet.
    pub fn assignment(&self, task: u32) -> Option<ServerId> {
        self.assigned[task as usize]
    }

    /// Registers `n` inbound transfers that must land before `task` starts.
    pub fn add_transfers(&mut self, task: u32, n: u32) {
        self.pending_transfers[task as usize] += n;
    }

    /// One inbound transfer for `task` landed; `true` when none remain.
    pub fn transfer_done(&mut self, task: u32) -> bool {
        let p = &mut self.pending_transfers[task as usize];
        debug_assert!(*p > 0, "transfer_done without pending transfer");
        *p -= 1;
        *p == 0
    }

    /// Drops any outstanding inbound-transfer barriers for `task` (fault
    /// retry: the task is re-placed from scratch and its predecessors'
    /// outputs re-sent, so stale in-flight barriers must not carry over).
    pub fn clear_transfers(&mut self, task: u32) {
        self.pending_transfers[task as usize] = 0;
    }

    /// Counts one fault-retry attempt for `task`, returning the new
    /// attempt number (1 for the first). The counter vector materializes
    /// lazily so fault-free jobs carry no per-task overhead.
    pub fn note_retry(&mut self, task: u32) -> u32 {
        if self.retries.is_empty() {
            self.retries.resize(self.dag.len(), 0);
        }
        self.retries[task as usize] += 1;
        self.retries[task as usize]
    }

    /// Marks the job fault-affected; returns `true` if it was clean
    /// before (i.e. this is the job's first retry).
    pub fn mark_fault_affected(&mut self) -> bool {
        !std::mem::replace(&mut self.fault_affected, true)
    }

    /// `true` once any task of this job was retried after a fault.
    pub fn fault_affected(&self) -> bool {
        self.fault_affected
    }

    /// Gives up on the job: its retry budget is exhausted.
    pub fn mark_abandoned(&mut self) {
        self.abandoned = true;
    }

    /// `true` once the job was abandoned (it will never complete).
    pub fn is_abandoned(&self) -> bool {
        self.abandoned
    }
}

/// The table of in-flight jobs.
///
/// Job ids are allocated sequentially and jobs mostly complete in arrival
/// order — exactly the lifetime pattern [`SlotWindow`] is built for — so
/// lookups on the per-event hot path are a single index instead of a hash
/// probe, and one long-running straggler job cannot pin the window (it
/// compacts into the window's sparse overflow).
///
/// Jobs are held boxed: a job's state is written once, when it is
/// generated, and from then on only its pointer moves — into the table,
/// through a straggler's overflow, out on completion and back to the
/// recycling pool (on a federation, across the WAN as well).
#[derive(Debug, Default)]
pub struct JobTable {
    /// In-flight jobs, keyed by job id (the window issues the ids).
    window: SlotWindow<Box<JobState>>,
    submitted: u64,
    completed: u64,
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next job id. Ids are finalized by the matching
    /// [`insert`](Self::insert), which must follow before the next
    /// allocation.
    pub fn alloc_id(&mut self) -> JobId {
        JobId(self.window.next_key())
    }

    /// Inserts a new job.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not the most recently allocated id: jobs enter
    /// the table in allocation order.
    pub fn insert(&mut self, id: JobId, state: Box<JobState>) {
        let key = self.window.insert(state);
        assert_eq!(key, id.0, "jobs must be inserted in allocation order");
        self.submitted += 1;
    }

    /// The job with this id.
    ///
    /// # Panics
    ///
    /// Panics if the job is not in flight.
    pub fn get_mut(&mut self, id: JobId) -> &mut JobState {
        self.window.get_mut(id.0).expect("job not in flight")
    }

    /// Shared access.
    ///
    /// # Panics
    ///
    /// Panics if the job is not in flight.
    pub fn get(&self, id: JobId) -> &JobState {
        self.window.get(id.0).expect("job not in flight")
    }

    /// Removes a completed job, returning its state.
    pub fn remove_completed(&mut self, id: JobId) -> Box<JobState> {
        let state = self.window.remove(id.0).expect("job not in flight");
        self.completed += 1;
        state
    }

    /// Jobs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Jobs ever submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Jobs completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_des::time::SimDuration;
    use holdcsim_workload::dag::TaskSpec;

    fn chain3() -> JobDag {
        JobDag::builder()
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .edge(0, 1, 100)
            .edge(1, 2, 100)
            .build()
            .unwrap()
    }

    fn boxed_chain3() -> Box<JobState> {
        Box::new(JobState::new(chain3(), SimTime::ZERO))
    }

    /// Finishes every task in index order (a chain's topological order).
    fn finish_all(js: &mut JobState) {
        let mut ready = Vec::new();
        for t in 0..js.dag.len() as u32 {
            js.finish_task_into(t, &mut ready);
        }
    }

    #[test]
    fn readiness_flows_down_the_chain() {
        let mut js = JobState::new(chain3(), SimTime::ZERO);
        assert_eq!(js.dag.roots(), &[0]);
        let mut ready = Vec::new();
        js.finish_task_into(0, &mut ready);
        assert_eq!(ready, [1]);
        assert!(!js.is_complete());
        // Newly ready successors append to the caller's buffer.
        js.finish_task_into(1, &mut ready);
        assert_eq!(ready, [1, 2]);
        js.finish_task_into(2, &mut ready);
        assert_eq!(ready, [1, 2]);
        assert!(js.is_complete());
    }

    #[test]
    fn fan_in_waits_for_all_preds() {
        let dag = JobDag::builder()
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .task(TaskSpec::compute(SimDuration::from_millis(1)))
            .edge(0, 2, 0)
            .edge(1, 2, 0)
            .build()
            .unwrap();
        let mut js = JobState::new(dag, SimTime::ZERO);
        assert_eq!(js.dag.roots(), &[0, 1]);
        let mut ready = Vec::new();
        js.finish_task_into(0, &mut ready);
        assert!(ready.is_empty());
        js.finish_task_into(1, &mut ready);
        assert_eq!(ready, [2]);
    }

    #[test]
    fn transfer_barrier() {
        let mut js = JobState::new(chain3(), SimTime::ZERO);
        js.add_transfers(1, 2);
        assert!(!js.transfer_done(1));
        assert_eq!(js.pending_transfers[1], 1);
        assert!(js.transfer_done(1));
    }

    #[test]
    fn assignment_bookkeeping() {
        let mut js = JobState::new(chain3(), SimTime::ZERO);
        assert_eq!(js.assignment(0), None);
        js.assign(0, ServerId(3));
        assert_eq!(js.assignment(0), Some(ServerId(3)));
    }

    #[test]
    fn recycled_state_matches_a_fresh_one() {
        // Completed jobs return to a pool (a forwarded job to its
        // destination site's), so a recycled state must keep nothing of
        // its last job. Wear one out, regenerate its DAG both ways
        // `JobTemplate::generate_into` does, reset, and compare with a
        // fresh state on the same DAG.
        fn wear(js: &mut JobState) {
            js.assign(0, ServerId(3));
            js.add_transfers(0, 2);
            assert_eq!(js.note_retry(0), 1);
            assert!(js.mark_fault_affected());
            js.mark_abandoned();
            js.finish_task_into(0, &mut Vec::new());
        }
        let at = SimTime::from_millis(5);
        let single = TaskSpec::compute(SimDuration::from_millis(2));
        let mut js = JobState::new(chain3(), SimTime::ZERO);
        wear(&mut js);
        js.dag.reset_single(single.clone());
        js.reset(at);
        let fresh = JobState::new(JobDag::single(single), at);
        assert_eq!(format!("{js:?}"), format!("{fresh:?}"));
        // And back from a single task to a multi-task chain.
        wear(&mut js);
        js.dag = chain3();
        js.reset(at);
        let fresh = JobState::new(chain3(), at);
        assert_eq!(format!("{js:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn straggler_job_does_not_pin_the_window() {
        // One never-finishing job at the window front while thousands of
        // later jobs complete: the window must compact the straggler into
        // the sparse overflow instead of growing per job submitted.
        let mut t = JobTable::new();
        let straggler = t.alloc_id();
        t.insert(straggler, boxed_chain3());
        for _ in 0..20_000 {
            let id = t.alloc_id();
            t.insert(id, boxed_chain3());
            finish_all(t.get_mut(id));
            t.remove_completed(id);
        }
        assert_eq!(t.in_flight(), 1);
        assert!(
            t.window.dense_len() < 2 * holdcsim_des::slot_window::COMPACT_SLACK + 16,
            "window should compact behind the straggler, got {} slots",
            t.window.dense_len()
        );
        // The compacted job is still fully addressable.
        assert_eq!(t.get(straggler).dag.len(), 3);
        finish_all(t.get_mut(straggler));
        assert!(t.get(straggler).is_complete());
        t.remove_completed(straggler);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.window.overflow_len(), 0, "overflow drained");
    }

    #[test]
    fn table_counts() {
        let mut t = JobTable::new();
        let id = t.alloc_id();
        assert_eq!(id, JobId(0));
        t.insert(id, boxed_chain3());
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.submitted(), 1);
        finish_all(t.get_mut(id));
        assert!(t.get(id).is_complete());
        t.remove_completed(id);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.in_flight(), 0);
    }
}
