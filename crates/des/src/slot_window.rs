//! A sliding window of sequentially-keyed slots with straggler compaction
//! — the shared kernel behind every "mostly-FIFO lifetime" table in the
//! simulator.
//!
//! # Design note
//!
//! Discrete-event simulations are full of tables whose keys are allocated
//! sequentially and whose entries mostly die in allocation order: job
//! tables (job ids), dispatch and retry ledgers, and flow tables. A hash
//! map supports them but pays a
//! hash probe per event on the hottest paths. [`SlotWindow`] exploits the
//! allocation pattern instead:
//!
//! * **Dense window.** Entries with keys in `[base, base + dense_len)`
//!   live in a [`VecDeque`] of `Option<T>` slots; a lookup is one bounds
//!   check and one index. Removing an entry leaves a `None` until the
//!   front of the window drains past it, so removal order may be
//!   arbitrary.
//! * **Sparse overflow.** One long-lived straggler must not pin the dense
//!   window to O(keys allocated since). When the window is dominated by
//!   dead slots (`dense_len > 4 × len + `[`COMPACT_SLACK`]), the sparse
//!   survivors at its front are *compacted* into a side [`BTreeMap`];
//!   steady-state churn (window ≈ live entries) never compacts, and a
//!   compacted entry keeps full `get`/`get_mut`/`remove` semantics.
//! * **Monotonic keys.** Keys are `u64`s issued by [`SlotWindow::insert`]
//!   in increasing order and never reused, so they double as age: the
//!   smallest live key is the oldest entry (the FIFO property sub-queue
//!   indices rely on).
//!
//! All operations are O(1) amortized; compaction is amortized against the
//! inserts that grew the window. The simulator's job table, its dispatch,
//! retry and remote-inbox ledgers, the fair-share solver's flow table and
//! the WAN's transfers are built on this type, which is also the unit
//! that a future intra-simulation parallelism pass would shard: the window
//! bounds the live key range each shard must track.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Dense-window slack: compaction triggers only once the window exceeds
/// this many slots beyond four windows' worth of live entries, so small
/// tables and steady-state churn never compact.
pub const COMPACT_SLACK: usize = 1024;

/// A map from sequentially-issued `u64` keys to values, optimized for
/// mostly-FIFO lifetimes: O(1) amortized insert/get/remove with no hashing
/// on the dense path, and straggler compaction so one long-lived entry
/// cannot pin memory.
///
/// # Examples
///
/// ```
/// use holdcsim_des::slot_window::SlotWindow;
///
/// let mut w = SlotWindow::new();
/// let a = w.insert("alpha");
/// let b = w.insert("beta");
/// assert_eq!(w.get(a), Some(&"alpha"));
/// assert_eq!(w.remove(a), Some("alpha"));
/// assert_eq!(w.remove(a), None, "keys are never revived");
/// assert_eq!(w.len(), 1);
/// assert_eq!(w.remove(b), Some("beta"));
/// ```
#[derive(Debug, Clone)]
pub struct SlotWindow<T> {
    /// Slots for keys in `[base, base + slots.len())`; removed entries
    /// leave a `None` until the front of the window drains past them.
    slots: VecDeque<Option<T>>,
    /// Key of the first dense slot.
    base: u64,
    /// Sparse entries below `base`: long-lived stragglers compacted out of
    /// the dense window (rare — one per straggler).
    overflow: BTreeMap<u64, T>,
    /// The key the next `insert` will issue. Monotonic.
    next_key: u64,
    /// Live entries (dense `Some`s plus overflow).
    live: usize,
}

impl<T> Default for SlotWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotWindow<T> {
    /// Creates an empty window whose first key will be `0`.
    pub fn new() -> Self {
        SlotWindow {
            slots: VecDeque::new(),
            base: 0,
            overflow: BTreeMap::new(),
            next_key: 0,
            live: 0,
        }
    }

    /// The key the next [`insert`](Self::insert) will return.
    pub fn next_key(&self) -> u64 {
        self.next_key
    }

    /// Inserts `value`, returning its key. Keys are issued sequentially
    /// and never reused.
    pub fn insert(&mut self, value: T) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.live += 1;
        self.slots.push_back(Some(value));
        if self.slots.len() > 4 * self.live + COMPACT_SLACK {
            self.compact();
        }
        key
    }

    /// Moves sparse stragglers at the front of a removal-dominated window
    /// into `overflow`, bounding the dense window to O(live). Amortized
    /// O(1) per insert; never triggered while the window is mostly alive.
    fn compact(&mut self) {
        let keep = 2 * self.live + COMPACT_SLACK / 2;
        while self.slots.len() > keep {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            if let Some(value) = slot {
                self.overflow.insert(self.base, value);
            }
            self.base += 1;
        }
    }

    /// Shared access to the entry at `key`, if live.
    pub fn get(&self, key: u64) -> Option<&T> {
        if key >= self.base {
            self.slots
                .get((key - self.base) as usize)
                .and_then(|s| s.as_ref())
        } else {
            self.overflow.get(&key)
        }
    }

    /// Mutable access to the entry at `key`, if live.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        if key >= self.base {
            self.slots
                .get_mut((key - self.base) as usize)
                .and_then(|s| s.as_mut())
        } else {
            self.overflow.get_mut(&key)
        }
    }

    /// `true` if `key` is live.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the entry at `key`. Returns `None` if the key
    /// was never issued or its entry was already removed.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let value = if key >= self.base {
            let slot = self.slots.get_mut((key - self.base) as usize)?;
            let taken = slot.take()?;
            // Trim the drained front so the window tracks the live span.
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
            taken
        } else {
            self.overflow.remove(&key)?
        };
        self.live -= 1;
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live `(key, &value)` pairs in ascending key order:
    /// compacted stragglers (whose keys all precede the dense window's
    /// base) first, then the dense window front to back. Deterministic
    /// iteration order is a contract here — every hot-path table in the
    /// simulator is built on this type, so an arbitrary order would
    /// leak straight into event processing and reports.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.overflow.iter().map(|(&k, v)| (k, v)).chain(
            self.slots
                .iter()
                .enumerate()
                .filter_map(move |(i, s)| s.as_ref().map(|v| (base + i as u64, v))),
        )
    }

    /// Slots currently held by the dense window (live + not-yet-drained
    /// dead); an observability hook for compaction tests and memory
    /// accounting.
    pub fn dense_len(&self) -> usize {
        self.slots.len()
    }

    /// Stragglers currently parked in the sparse overflow.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // The randomized model test checks SlotWindow *against* a HashMap
    // reference on purpose; order never leaves the test.
    #[allow(clippy::disallowed_types)]
    use std::collections::HashMap;

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
    fn keys_are_sequential_and_unique() {
        let mut w = SlotWindow::new();
        assert_eq!(w.next_key(), 0);
        let a = w.insert(10);
        let b = w.insert(20);
        assert_eq!((a, b), (0, 1));
        assert_eq!(w.next_key(), 2);
        w.remove(a);
        let c = w.insert(30);
        assert_eq!(c, 2, "keys are never reused");
    }

    #[test]
    fn get_and_get_mut_address_live_entries() {
        let mut w = SlotWindow::new();
        let k = w.insert(5i32);
        assert_eq!(w.get(k), Some(&5));
        *w.get_mut(k).unwrap() = 7;
        assert_eq!(w.remove(k), Some(7));
        assert_eq!(w.get(k), None);
        assert_eq!(w.get_mut(k), None);
        assert_eq!(w.get(999), None, "never-issued keys are dead");
    }

    #[test]
    fn out_of_order_removal_leaves_holes_then_drains() {
        let mut w = SlotWindow::new();
        let keys: Vec<u64> = (0..4).map(|i| w.insert(i)).collect();
        assert_eq!(w.remove(keys[2]), Some(2));
        assert_eq!(w.remove(keys[0]), Some(0));
        // Front drained past key 0; key 1 is now the window base.
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(keys[1]), Some(&1));
        assert_eq!(w.get(keys[3]), Some(&3));
        assert_eq!(w.remove(keys[2]), None, "double remove is dead");
    }

    #[test]
    fn straggler_compacts_into_overflow_and_stays_addressable() {
        // One never-removed entry at the window front while tens of
        // thousands of later entries churn: the window must compact the
        // straggler into the sparse overflow instead of growing per key.
        let mut w = SlotWindow::new();
        let anchor = w.insert(u64::MAX);
        for i in 0..scaled(50_000, 3_000) {
            let k = w.insert(i);
            assert_eq!(w.remove(k), Some(i));
        }
        assert!(
            w.dense_len() < 2 * COMPACT_SLACK + 16,
            "window should compact behind the straggler, got {} slots",
            w.dense_len()
        );
        assert_eq!(w.overflow_len(), 1);
        assert_eq!(w.len(), 1);
        // The compacted entry keeps full semantics.
        assert_eq!(w.get(anchor), Some(&u64::MAX));
        *w.get_mut(anchor).unwrap() = 9;
        assert_eq!(w.remove(anchor), Some(9));
        assert_eq!(w.remove(anchor), None);
        assert_eq!(w.overflow_len(), 0, "overflow drained after the remove");
    }

    #[test]
    fn reuse_after_compaction_keeps_working() {
        // After a compaction cycle the window must keep issuing keys and
        // addressing both dense and overflow entries correctly.
        let mut w = SlotWindow::new();
        let old = w.insert("old");
        for _ in 0..scaled(20_000, 3_000) {
            let k = w.insert("churn");
            w.remove(k);
        }
        assert_eq!(w.overflow_len(), 1);
        let young = w.insert("young");
        assert_eq!(w.get(old), Some(&"old"));
        assert_eq!(w.get(young), Some(&"young"));
        assert_eq!(w.remove(young), Some("young"));
        assert_eq!(w.remove(old), Some("old"));
        assert!(w.is_empty());
        // And it still grows a fresh dense window afterwards.
        let k = w.insert("fresh");
        assert_eq!(w.get(k), Some(&"fresh"));
    }

    #[test]
    fn iter_visits_dense_and_overflow_entries() {
        let mut w = SlotWindow::new();
        let straggler = w.insert(1_000u64);
        for i in 0..scaled(20_000, 3_000) {
            let k = w.insert(i);
            w.remove(k);
        }
        let keep = w.insert(2_000);
        assert!(w.overflow_len() > 0, "straggler compacted");
        let mut seen: Vec<(u64, u64)> = w.iter().map(|(k, &v)| (k, v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(straggler, 1_000), (keep, 2_000)]);
    }

    /// Randomized model test: a `SlotWindow` must agree with a `HashMap`
    /// reference under arbitrary interleavings of insert/get/remove,
    /// including removal orders that force holes, drains, and compaction.
    #[test]
    #[allow(clippy::disallowed_types)] // HashMap is the reference model here
    fn random_interleavings_match_hashmap_reference() {
        let root = SimRng::seed_from(0x51077);
        for trial in 0..scaled(20, 4) {
            let mut rng = root.substream(trial);
            let mut w: SlotWindow<u64> = SlotWindow::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut issued: Vec<u64> = Vec::new();
            for step in 0..scaled(5_000, 600) {
                match rng.below(10) {
                    // Weighted toward inserts early, removes always.
                    0..=4 => {
                        let v = step ^ trial;
                        let k = w.insert(v);
                        assert_eq!(model.insert(k, v), None, "fresh key");
                        issued.push(k);
                    }
                    5..=8 => {
                        if issued.is_empty() {
                            continue;
                        }
                        let k = issued[rng.below(issued.len() as u64) as usize];
                        assert_eq!(w.remove(k), model.remove(&k));
                    }
                    _ => {
                        if issued.is_empty() {
                            continue;
                        }
                        let k = issued[rng.below(issued.len() as u64) as usize];
                        assert_eq!(w.get(k), model.get(&k));
                        assert_eq!(w.contains(k), model.contains_key(&k));
                    }
                }
                assert_eq!(w.len(), model.len());
            }
            // Full drain must agree too.
            for k in issued {
                assert_eq!(w.remove(k), model.remove(&k));
            }
            assert!(w.is_empty() && model.is_empty());
        }
    }
}
