//! A lazy-deletion min-heap over densely-indexed items — the bottleneck
//! selector and cell-due heap behind the cohort fair-share solver.
//!
//! # Design note
//!
//! Iterative solvers (progressive filling, label-correcting searches,
//! earliest-deadline scans) repeatedly ask "which item currently has the
//! smallest priority?" while priorities of a few items change per round.
//! A comparison heap supports this, but eager `decrease-key` needs
//! per-item heap positions. [`LazyHeap`] instead pairs every pushed entry
//! with the item's *generation* at push time: updating or removing an
//! item just bumps its generation, and [`LazyHeap::pop`] discards entries
//! whose generation is stale. Each update costs one O(log n) push; stale
//! entries are garbage-collected as they surface.
//!
//! Ties are broken by item index, so pop order is fully deterministic —
//! a requirement for reproducible simulation, where the pop order decides
//! floating-point evaluation order.
//!
//! Priorities only need a total order on the values actually inserted
//! (`PartialOrd`; `f64` works as long as no NaN is pushed — NaN
//! priorities panic in debug builds and lose ordering guarantees in
//! release).

/// One heap entry: `(priority, item, generation at push time)`.
#[derive(Debug, Clone, Copy)]
struct Entry<P> {
    pri: P,
    item: u32,
    gen: u32,
}

/// A min-heap over items `0..n` with lazy deletion by generation:
/// O(log n) [`update`](LazyHeap::update)/[`remove`](LazyHeap::remove)/
/// [`pop`](LazyHeap::pop), deterministic tie-breaking by item index, and
/// reusable storage ([`clear`](LazyHeap::clear) keeps capacity).
///
/// # Examples
///
/// ```
/// use holdcsim_des::lazy_heap::LazyHeap;
///
/// let mut h: LazyHeap<f64> = LazyHeap::new();
/// h.update(3, 2.0);
/// h.update(7, 1.0);
/// h.update(3, 0.5); // re-prioritize: the old entry goes stale
/// assert_eq!(h.pop(), Some((3, 0.5)));
/// h.remove(7);
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct LazyHeap<P> {
    entries: Vec<Entry<P>>,
    /// Current generation per item; an entry is live iff its generation
    /// matches. Odd trick-free: generations simply count updates/removals.
    gens: Vec<u32>,
}

impl<P: PartialOrd + Copy> Default for LazyHeap<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PartialOrd + Copy> LazyHeap<P> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        LazyHeap {
            entries: Vec::new(),
            gens: Vec::new(),
        }
    }

    /// `(a, ia)` strictly precedes `(b, ib)` in pop order.
    #[inline]
    fn before(a: P, ia: u32, b: P, ib: u32) -> bool {
        debug_assert!(
            a.partial_cmp(&b).is_some(),
            "LazyHeap priorities must be totally ordered (no NaN)"
        );
        a < b || (a == b && ia < ib)
    }

    /// Sets `item`'s priority, superseding any previous entry for it.
    pub fn update(&mut self, item: usize, pri: P) {
        let gen = self.bump(item);
        let idx = u32::try_from(item).expect("LazyHeap items are dense u32 indices");
        self.entries.push(Entry {
            pri,
            item: idx,
            gen,
        });
        self.sift_up(self.entries.len() - 1);
    }

    /// Drops `item` from the heap (its entries go stale; no new entry is
    /// pushed). A later [`update`](Self::update) re-inserts it.
    pub fn remove(&mut self, item: usize) {
        self.bump(item);
    }

    /// Pops the live entry with the smallest `(priority, item)`, if any.
    pub fn pop(&mut self) -> Option<(usize, P)> {
        loop {
            let e = *self.entries.first()?;
            self.pop_root();
            if self.gens[e.item as usize] == e.gen {
                // Consume it: the item must be re-`update`d to reappear.
                self.gens[e.item as usize] = e.gen.wrapping_add(1);
                return Some((e.item as usize, e.pri));
            }
        }
    }

    /// Returns the live entry with the smallest `(priority, item)`
    /// without consuming it: the item stays in the heap and will be
    /// returned again by the next [`peek`](Self::peek) or
    /// [`pop`](Self::pop) unless superseded. Stale entries surfacing at
    /// the root are garbage-collected on the way (hence `&mut self`).
    ///
    /// This is the "what fires next?" query for schedulers that must
    /// report the next deadline exactly without committing to it — e.g.
    /// a due-time heap asked for `next_due` between mutations.
    pub fn peek(&mut self) -> Option<(usize, P)> {
        loop {
            let e = *self.entries.first()?;
            if self.gens[e.item as usize] == e.gen {
                return Some((e.item as usize, e.pri));
            }
            self.pop_root();
        }
    }

    /// Empties the heap, invalidating every item. Keeps allocations.
    ///
    /// O(1) in the item space: generations survive the clear (an entry
    /// can only appear via [`update`](Self::update), which bumps its
    /// item's generation first, so stale generations can never validate
    /// a fresh entry). Callers that clear per solve over a small working
    /// set must not pay for the full index range.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Bumps and returns `item`'s new generation, growing the index space
    /// on first sight.
    fn bump(&mut self, item: usize) -> u32 {
        if item >= self.gens.len() {
            self.gens.resize(item + 1, 0);
        }
        self.gens[item] = self.gens[item].wrapping_add(1);
        self.gens[item]
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (c, p) = (self.entries[i], self.entries[parent]);
            if Self::before(c.pri, c.item, p.pri, p.item) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Removes the root entry, restoring the heap property.
    fn pop_root(&mut self) {
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        self.entries.pop();
        let n = self.entries.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l >= n {
                break;
            }
            let mut m = l;
            if r < n {
                let (a, b) = (self.entries[r], self.entries[l]);
                if Self::before(a.pri, a.item, b.pri, b.item) {
                    m = r;
                }
            }
            let (c, p) = (self.entries[m], self.entries[i]);
            if Self::before(c.pri, c.item, p.pri, p.item) {
                self.entries.swap(i, m);
                i = m;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miri interprets ~100x slower than native; shrink churn counts
    /// under `cfg(miri)` while keeping them above the compaction
    /// threshold (`COMPACT_SLACK`) so every structural path still fires.
    fn scaled(native: u64, miri: u64) -> u64 {
        if cfg!(miri) {
            miri
        } else {
            native
        }
    }
    use crate::rng::SimRng;

    #[test]
    fn pops_in_priority_then_index_order() {
        let mut h: LazyHeap<f64> = LazyHeap::new();
        h.update(5, 3.0);
        h.update(2, 1.0);
        h.update(9, 1.0);
        h.update(1, 2.0);
        assert_eq!(h.pop(), Some((2, 1.0)), "ties break by item index");
        assert_eq!(h.pop(), Some((9, 1.0)));
        assert_eq!(h.pop(), Some((1, 2.0)));
        assert_eq!(h.pop(), Some((5, 3.0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn update_supersedes_and_remove_deletes() {
        let mut h: LazyHeap<f64> = LazyHeap::new();
        h.update(0, 1.0);
        h.update(1, 2.0);
        h.update(0, 5.0); // worsen 0's priority
        h.remove(1);
        assert_eq!(h.pop(), Some((0, 5.0)));
        assert_eq!(h.pop(), None);
        // Re-inserting a removed/popped item works.
        h.update(1, 0.25);
        h.update(0, 0.5);
        assert_eq!(h.pop(), Some((1, 0.25)));
        assert_eq!(h.pop(), Some((0, 0.5)));
    }

    #[test]
    fn pop_consumes_the_item() {
        let mut h: LazyHeap<i64> = LazyHeap::new();
        h.update(4, 10);
        assert_eq!(h.pop(), Some((4, 10)));
        // No duplicate delivery from any stale path.
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn peek_is_non_consuming_and_tracks_updates() {
        let mut h: LazyHeap<u64> = LazyHeap::new();
        assert_eq!(h.peek(), None);
        h.update(3, 20);
        h.update(5, 10);
        assert_eq!(h.peek(), Some((5, 10)));
        assert_eq!(h.peek(), Some((5, 10)), "peek must not consume");
        h.update(5, 30); // head re-prioritized: stale root pruned by peek
        assert_eq!(h.peek(), Some((3, 20)));
        h.remove(3);
        assert_eq!(h.peek(), Some((5, 30)));
        assert_eq!(h.pop(), Some((5, 30)));
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn clear_resets_but_keeps_working() {
        let mut h: LazyHeap<f64> = LazyHeap::new();
        for i in 0..100 {
            h.update(i, i as f64);
        }
        h.clear();
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
        h.update(3, 1.5);
        assert_eq!(h.pop(), Some((3, 1.5)));
    }

    /// Randomized model check against a scan-based reference: arbitrary
    /// interleavings of update/remove/pop must match a linear scan with
    /// the same `(priority, item)` order.
    #[test]
    fn random_interleavings_match_scan_reference() {
        let root = SimRng::seed_from(0x4EA9);
        for trial in 0..scaled(20, 4) {
            let mut rng = root.substream(trial);
            let mut h: LazyHeap<f64> = LazyHeap::new();
            // Reference: current priority per item, None = absent.
            let mut model: Vec<Option<f64>> = vec![None; 64];
            for _ in 0..scaled(2_000, 300) {
                match rng.below(10) {
                    0..=5 => {
                        let item = rng.below(64) as usize;
                        // Coarse priorities force plenty of exact ties.
                        let pri = rng.below(8) as f64;
                        h.update(item, pri);
                        model[item] = Some(pri);
                    }
                    6..=7 => {
                        let item = rng.below(64) as usize;
                        h.remove(item);
                        model[item] = None;
                    }
                    _ => {
                        let want = model
                            .iter()
                            .enumerate()
                            .filter_map(|(i, p)| p.map(|p| (i, p)))
                            .min_by(|(ia, pa), (ib, pb)| {
                                pa.partial_cmp(pb).unwrap().then(ia.cmp(ib))
                            });
                        assert_eq!(h.pop(), want);
                        if let Some((i, _)) = want {
                            model[i] = None;
                        }
                    }
                }
            }
            // Drain fully and compare the tail order.
            let mut rest: Vec<(usize, f64)> = model
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (i, p)))
                .collect();
            rest.sort_by(|(ia, pa), (ib, pb)| pa.partial_cmp(pb).unwrap().then(ia.cmp(ib)));
            let drained: Vec<(usize, f64)> = std::iter::from_fn(|| h.pop()).collect();
            assert_eq!(drained, rest, "trial {trial}");
        }
    }
}
