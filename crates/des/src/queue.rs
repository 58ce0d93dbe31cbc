//! The event calendar: a monotone radix heap of timestamped events.
//!
//! A discrete-event calendar never pops an event earlier than the last one
//! it popped, and never accepts one earlier than that either: its keys are
//! monotone. That is the precondition of the radix heap (Ahuja, Mehlhorn,
//! Orlin & Tarjan, "Faster algorithms for the shortest path problem",
//! JACM 1990), which this calendar is:
//!
//! * **Slab.** Each queued event and its time sit in one slot of a slab
//!   (slots are recycled through a free list). Buckets hold only `u32`
//!   slot ids, so moving an event between buckets moves four bytes and no
//!   bucket keeps capacity sized for whole events.
//! * **Buckets.** Let `last` be the time of the last popped event.
//!   Bucket 0 holds the events at exactly `last`; bucket `b ≥ 1` holds the
//!   events whose highest bit differing from `last` is bit `b − 1`. A bit
//!   mask of the non-empty buckets finds the lowest one in one instruction.
//! * **Pop.** Bucket 0 pops from its front. When it is empty, the lowest
//!   non-empty bucket is scanned for its earliest time, `last` advances to
//!   it, and the bucket's slots are redistributed into the buckets below
//!   it, which are all empty. An event only ever moves to a lower bucket.
//!
//! **FIFO invariant.** Every bucket lists its slots in push order: a push
//! appends to its bucket, and a redistribution walks one bucket in order
//! into empty buckets. Events at one instant always share a bucket, so
//! they pop in push order. Pop order is therefore fully determined by
//! `(time, push order)`, with no sequence number stored.
//!
//! Events cannot be cancelled. A model that must retract one stamps it
//! with a generation and ignores it when it fires stale.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A min-priority queue of `(SimTime, E)` pairs with FIFO tie-breaking,
/// for monotone use: no event may be pushed earlier than the last one
/// popped.
///
/// # Examples
///
/// ```
/// use holdcsim_des::queue::EventQueue;
/// use holdcsim_des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(1), "second");
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
/// // Nothing is due by 1.5 s. A bounded pop that finds nothing leaves the
/// // last pop at 1 s, so 1.2 s can still be scheduled.
/// assert_eq!(q.pop_until(SimTime::from_millis(1_500)), None);
/// q.push(SimTime::from_millis(1_200), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1_200), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Time of the last popped event, ns: no queued event is earlier.
    last: u64,
    /// Bucket 0: slots of the events at exactly `last`, in push order.
    due: VecDeque<u32>,
    /// `buckets[i]` is bucket `i + 1`: slots of the events whose highest
    /// bit differing from `last` is bit `i`, in push order.
    buckets: [Vec<u32>; 64],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// The event in each slot; `None` while the slot is free.
    events: Vec<Option<E>>,
    /// The time of each slot's event, ns.
    times: Vec<u64>,
    /// Free slots, reused last in, first out.
    free: Vec<u32>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue whose last pop is at time zero.
    pub fn new() -> Self {
        EventQueue {
            last: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            events: Vec::new(),
            times: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last popped event: the calendar is
    /// monotone, and an earlier event could no longer pop in time order.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.as_nanos();
        assert!(
            at >= self.last,
            "cannot push an event at {} before the last popped instant {}",
            SimTime::from_nanos(at),
            SimTime::from_nanos(self.last)
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                self.times[slot as usize] = at;
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.events.len()).expect("fewer than 2^32 pending events");
                self.events.push(Some(event));
                self.times.push(at);
                slot
            }
        };
        self.place(slot, at);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is at or before
    /// `limit`. Otherwise leaves the queue as it was, so an event may still
    /// be pushed at any instant from the last pop on.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_nanos();
        if self.due.is_empty() {
            let (i, min) = self.lowest_bucket()?;
            if min > limit {
                return None;
            }
            self.advance(i, min);
        } else if self.last > limit {
            return None;
        }
        let slot = self.due.pop_front()?;
        self.free.push(slot);
        let event = self.events[slot as usize]
            .take()
            .expect("a queued slot holds its event until popped");
        Some((SimTime::from_nanos(self.last), event))
    }

    /// The timestamp of the earliest event, if any. Exact, and leaves the
    /// last popped instant where it is: an event may still be pushed
    /// earlier than the returned time, as long as it is not before the
    /// last pop.
    pub fn peek_time(&self) -> Option<SimTime> {
        let at = if self.due.is_empty() {
            self.lowest_bucket()?.1
        } else {
            self.last
        };
        Some(SimTime::from_nanos(at))
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.events.len() - self.free.len()
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `slot`, whose event is at `at`, to its bucket relative to
    /// `last`.
    #[inline]
    fn place(&mut self, slot: u32, at: u64) {
        let diff = at ^ self.last;
        if diff == 0 {
            self.due.push_back(slot);
        } else {
            let i = diff.ilog2() as usize;
            self.buckets[i].push(slot);
            self.occupied |= 1 << i;
        }
    }

    /// The lowest non-empty bucket above bucket 0 and its earliest time.
    fn lowest_bucket(&self) -> Option<(usize, u64)> {
        if self.occupied == 0 {
            return None;
        }
        let i = self.occupied.trailing_zeros() as usize;
        let min = self.buckets[i]
            .iter()
            .map(|&slot| self.times[slot as usize])
            .min()?;
        Some((i, min))
    }

    /// Advances `last` to `min`, the earliest time in `buckets[i]`, the
    /// lowest non-empty bucket, and redistributes that bucket in order.
    /// Its events agree with `min` on every bit above `i`, so each lands
    /// in bucket 0 or in a bucket below `i`; the buckets above `i` stay
    /// valid because `last` keeps every bit above `i`.
    fn advance(&mut self, i: usize, min: u64) {
        self.last = min;
        self.occupied &= !(1 << i);
        let mut moved = std::mem::take(&mut self.buckets[i]);
        for &slot in &moved {
            self.place(slot, self.times[slot as usize]);
        }
        moved.clear();
        self.buckets[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    /// Miri interprets ~100x slower than native; shrink churn counts
    /// under `cfg(miri)` while keeping every bucket path exercised.
    fn scaled(native: u64, miri: u64) -> u64 {
        if cfg!(miri) {
            miri
        } else {
            native
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn compacted_event_still_fires() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), u64::MAX);
        for i in 0..scaled(50_000, 3_000) {
            q.push(SimTime::from_nanos(i), i);
            q.pop();
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), u64::MAX)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_is_exact_and_leaves_earlier_pushes_valid() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "a")));
        q.push(SimTime::from_nanos(1_000), "far");
        q.push(SimTime::from_nanos(900), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(900)));
        // A peek, and a pop_until short of the minimum, leave the last pop
        // at 100 ns: pushes between it and the peeked minimum stay valid.
        assert_eq!(q.pop_until(SimTime::from_nanos(899)), None);
        q.push(SimTime::from_nanos(500), "between");
        q.push(SimTime::from_nanos(100), "at the last pop");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(100)));
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["at the last pop", "between", "near", "far"]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "before the last popped instant")]
    fn push_before_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), ());
        q.pop();
        q.push(SimTime::from_nanos(49), ());
    }

    /// Interleaved pushes, pops and bounded pops, driven by [`SimRng`],
    /// against a sorted `(time, push index)` reference. Push delays mix
    /// same-instant, short, long and far-future (millions of ns) offsets,
    /// some of them between the last pop and the peeked minimum.
    #[test]
    fn matches_a_sorted_reference_under_interleaving() {
        let mut rng = SimRng::seed_from(0xCA1E_4DA2);
        for _ in 0..scaled(8, 2) {
            let mut q = EventQueue::new();
            let mut reference = BTreeSet::new();
            let mut last = 0u64;
            let mut pushed = 0u64;
            for _ in 0..scaled(40_000, 600) {
                let peek = q.peek_time().map(SimTime::as_nanos);
                assert_eq!(peek, reference.first().map(|&(t, _)| t), "peek is exact");
                assert_eq!(q.len(), reference.len());
                let roll = rng.below(100);
                if roll < 55 {
                    let at = match rng.below(6) {
                        0 => last,
                        1 => last + rng.below(16),
                        2 => last + rng.below(5_000),
                        3 => last + 1_000_000 + rng.below(50_000_000),
                        // From `last` up to the peeked minimum.
                        4 => last + rng.below(peek.map_or(1, |p| p - last + 1)),
                        _ => peek.unwrap_or(last),
                    };
                    q.push(SimTime::from_nanos(at), pushed);
                    reference.insert((at, pushed));
                    pushed += 1;
                } else {
                    let limit = if roll < 80 {
                        u64::MAX
                    } else {
                        peek.map_or(last, |p| p.saturating_sub(1) + rng.below(3))
                    };
                    let got = q.pop_until(SimTime::from_nanos(limit));
                    let want = reference.first().copied().filter(|&(t, _)| t <= limit);
                    if let Some(entry) = want {
                        reference.remove(&entry);
                        last = entry.0;
                    }
                    assert_eq!(got, want.map(|(t, i)| (SimTime::from_nanos(t), i)));
                }
            }
            while let Some((t, i)) = q.pop() {
                assert_eq!(reference.pop_first(), Some((t.as_nanos(), i)));
            }
            assert!(reference.is_empty() && q.is_empty());
        }
    }
}
