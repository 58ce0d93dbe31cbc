//! The optional global task queue (§III-E): tasks the global scheduler
//! could not place wait here until a server frees up.
//!
//! Tasks wait in per-server-class sub-queues, each in arrival order and
//! tagged with a global arrival sequence, so a class-constrained pull
//! ([`GlobalQueue::pop_eligible`]) compares at most two sub-queue fronts
//! — O(1) — instead of linearly scanning the whole queue, while
//! preserving exactly the global FIFO order among matching tasks that a
//! linear scan produces. Tasks leave only from sub-queue fronts.

use std::collections::VecDeque;

use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_server::task::TaskHandle;

/// One queued task: its global arrival sequence, enqueue time, and the
/// task.
type QueueEntry = (u64, SimTime, TaskHandle);

/// A FIFO of unplaced tasks with waiting-time statistics and per-class
/// sub-queues.
///
/// # Examples
///
/// ```
/// use holdcsim_sched::queue::GlobalQueue;
/// use holdcsim_server::task::TaskHandle;
/// use holdcsim_des::time::{SimDuration, SimTime};
/// use holdcsim_workload::ids::{JobId, TaskId};
///
/// let mut q = GlobalQueue::new();
/// let t = TaskHandle::new(TaskId::new(JobId(1), 0), SimDuration::from_millis(5));
/// q.push(SimTime::ZERO, t);
/// let (task, waited) = q.pop(SimTime::from_millis(3)).unwrap();
/// assert_eq!(task.id, t.id);
/// assert_eq!(waited.as_secs_f64(), 0.003);
/// ```
#[derive(Debug, Default)]
pub struct GlobalQueue {
    /// Tasks with no class constraint.
    unclassed: VecDeque<QueueEntry>,
    /// Tasks per class constraint (linear class lookup: class counts are
    /// tiny, and this avoids hashing on the pull path entirely).
    classed: Vec<(u32, VecDeque<QueueEntry>)>,
    len: usize,
    max_len: usize,
    total_enqueued: u64,
}

/// Arrival sequence of `q`'s front; an empty sub-queue sorts last.
fn front_seq(q: &VecDeque<QueueEntry>) -> u64 {
    q.front().map_or(u64::MAX, |&(seq, _, _)| seq)
}

impl GlobalQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an unplaced task at `now` with no class constraint
    /// (equivalent to [`push_classed`](Self::push_classed) with `None`).
    pub fn push(&mut self, now: SimTime, task: TaskHandle) {
        self.push_classed(now, task, None);
    }

    /// Enqueues an unplaced task at `now` on the sub-queue of its
    /// server-class constraint, so class-aware pulls are O(1).
    pub fn push_classed(&mut self, now: SimTime, task: TaskHandle, class: Option<u32>) {
        let entry = (self.total_enqueued, now, task);
        let q = match class {
            None => &mut self.unclassed,
            Some(c) => {
                let i = match self.classed.iter().position(|(cc, _)| *cc == c) {
                    Some(i) => i,
                    None => {
                        self.classed.push((c, VecDeque::new()));
                        self.classed.len() - 1
                    }
                };
                &mut self.classed[i].1
            }
        };
        q.push_back(entry);
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
        self.total_enqueued += 1;
    }

    /// Dequeues the oldest task overall, returning it with its queueing
    /// delay.
    pub fn pop(&mut self, now: SimTime) -> Option<(TaskHandle, SimDuration)> {
        let mut best = (front_seq(&self.unclassed), None);
        for (i, (_, q)) in self.classed.iter().enumerate() {
            best = best.min((front_seq(q), Some(i)));
        }
        self.take(best.1, now)
    }

    /// Dequeues the oldest task a server of class `server_class` may run:
    /// the earliest-queued among unclassed tasks and tasks constrained to
    /// exactly that class. O(1) — two sub-queue fronts are compared,
    /// matching a linear scan's order exactly.
    pub fn pop_eligible(
        &mut self,
        now: SimTime,
        server_class: u32,
    ) -> Option<(TaskHandle, SimDuration)> {
        let mut best = (front_seq(&self.unclassed), None);
        if let Some(i) = self.classed.iter().position(|(c, _)| *c == server_class) {
            best = best.min((front_seq(&self.classed[i].1), Some(i)));
        }
        self.take(best.1, now)
    }

    /// Pops the front of class sub-queue `class` (`None`: the unclassed
    /// one) and returns its task.
    fn take(&mut self, class: Option<usize>, now: SimTime) -> Option<(TaskHandle, SimDuration)> {
        let q = match class {
            None => &mut self.unclassed,
            Some(i) => &mut self.classed[i].1,
        };
        let (_, enq, task) = q.pop_front()?;
        self.len -= 1;
        Some((task, now.saturating_duration_since(enq)))
    }

    /// Tasks currently waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no tasks wait.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of the queue length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Total tasks that ever waited here.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_des::rng::SimRng;
    use holdcsim_des::time::SimDuration;
    use holdcsim_workload::ids::{JobId, TaskId};

    fn th(n: u64) -> TaskHandle {
        TaskHandle::new(TaskId::new(JobId(n), 0), SimDuration::from_millis(1))
    }

    #[test]
    fn fifo_order_and_waits() {
        let mut q = GlobalQueue::new();
        q.push(SimTime::ZERO, th(1));
        q.push(SimTime::from_millis(5), th(2));
        let (a, wa) = q.pop(SimTime::from_millis(10)).unwrap();
        assert_eq!(a.id.job.0, 1);
        assert_eq!(wa, SimDuration::from_millis(10));
        let (b, wb) = q.pop(SimTime::from_millis(10)).unwrap();
        assert_eq!(b.id.job.0, 2);
        assert_eq!(wb, SimDuration::from_millis(5));
        assert!(q.pop(SimTime::from_millis(11)).is_none());
    }

    #[test]
    fn stats_track_high_water() {
        let mut q = GlobalQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, th(1));
        q.push(SimTime::ZERO, th(2));
        q.pop(SimTime::ZERO);
        q.push(SimTime::ZERO, th(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_len(), 2);
        assert_eq!(q.total_enqueued(), 3);
    }

    #[test]
    fn pop_interleaves_classes_in_global_fifo_order() {
        let mut q = GlobalQueue::new();
        q.push_classed(SimTime::ZERO, th(0), Some(1));
        q.push_classed(SimTime::ZERO, th(1), None);
        q.push_classed(SimTime::ZERO, th(2), Some(0));
        q.push_classed(SimTime::ZERO, th(3), Some(1));
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop(SimTime::ZERO).map(|(t, _)| t.id.job.0)).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "pop ignores class boundaries");
    }

    #[test]
    fn pop_eligible_matches_class_and_unclassed_in_fifo_order() {
        let mut q = GlobalQueue::new();
        q.push_classed(SimTime::ZERO, th(0), Some(1)); // other class
        q.push_classed(SimTime::ZERO, th(1), Some(0)); // ours
        q.push_classed(SimTime::ZERO, th(2), None); // unconstrained
        q.push_classed(SimTime::ZERO, th(3), Some(0)); // ours
        let (a, _) = q.pop_eligible(SimTime::ZERO, 0).unwrap();
        let (b, _) = q.pop_eligible(SimTime::ZERO, 0).unwrap();
        let (c, _) = q.pop_eligible(SimTime::ZERO, 0).unwrap();
        assert_eq!(
            (a.id.job.0, b.id.job.0, c.id.job.0),
            (1, 2, 3),
            "oldest eligible first, across class and unclassed queues"
        );
        assert!(q.pop_eligible(SimTime::ZERO, 0).is_none(), "class 1 left");
        let (d, _) = q.pop_eligible(SimTime::ZERO, 1).unwrap();
        assert_eq!(d.id.job.0, 0);
        assert!(q.is_empty());
    }

    /// A workload mixing class pulls (some for classes no task names) and
    /// plain pops must never leave entries behind in any sub-queue: held
    /// sub-queue entries always equal the waiting count. The name dates
    /// from the removed `pop_matching`, whose out-of-band removals were
    /// the original source of dead keys.
    #[test]
    fn mixed_pop_matching_and_class_pulls_hold_no_dead_keys() {
        let root = SimRng::seed_from(0xDEAD5);
        for trial in 0..8u64 {
            let mut rng = root.substream(trial);
            let mut q = GlobalQueue::new();
            let mut next_job = 0u64;
            for _ in 0..3_000 {
                match rng.below(10) {
                    0..=4 => {
                        let class = match rng.below(4) {
                            0 => None,
                            c => Some((c - 1) as u32),
                        };
                        q.push_classed(SimTime::ZERO, th(next_job), class);
                        next_job += 1;
                    }
                    5..=6 => {
                        // Classes 3 and 4 are never pushed.
                        q.pop_eligible(SimTime::ZERO, rng.below(5) as u32);
                    }
                    7..=8 => {
                        q.pop_eligible(SimTime::ZERO, rng.below(3) as u32);
                    }
                    _ => {
                        q.pop(SimTime::ZERO);
                    }
                }
                let held: usize =
                    q.unclassed.len() + q.classed.iter().map(|(_, v)| v.len()).sum::<usize>();
                assert_eq!(held, q.len(), "trial {trial}: dead sub-queue keys");
                assert_eq!(q.is_empty(), held == 0, "trial {trial}");
            }
        }
    }

    /// Equivalence: `pop_eligible` and `pop` must reproduce a linear scan
    /// of one global FIFO under a randomized class workload.
    #[test]
    fn pop_eligible_matches_linear_scan_reference() {
        let root = SimRng::seed_from(0xC1A55);
        for trial in 0..10u64 {
            let mut rng = root.substream(trial);
            let mut q = GlobalQueue::new();
            // The reference model: a plain FIFO of (job, class).
            let mut model: VecDeque<(u64, Option<u32>)> = VecDeque::new();
            let mut next_job = 0u64;
            for _ in 0..2_000 {
                if model.is_empty() || rng.uniform_f64() < 0.55 {
                    let class = match rng.below(4) {
                        0 => None,
                        c => Some((c - 1) as u32),
                    };
                    q.push_classed(SimTime::ZERO, th(next_job), class);
                    model.push_back((next_job, class));
                    next_job += 1;
                } else if rng.uniform_f64() < 0.2 {
                    // Reference: the front of the global FIFO.
                    let got = q.pop(SimTime::ZERO).map(|(t, _)| t.id.job.0);
                    assert_eq!(got, model.pop_front().map(|(j, _)| j), "trial {trial}");
                } else {
                    let server_class = rng.below(3) as u32;
                    let got = q
                        .pop_eligible(SimTime::ZERO, server_class)
                        .map(|(t, _)| t.id.job.0);
                    // Reference: first entry whose class is None or equal.
                    let want_idx = model
                        .iter()
                        .position(|(_, c)| c.is_none() || *c == Some(server_class));
                    let want = want_idx.map(|i| model.remove(i).expect("index from position").0);
                    assert_eq!(got, want, "trial {trial}");
                }
                assert_eq!(q.len(), model.len());
            }
        }
    }
}
