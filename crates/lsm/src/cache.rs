//! The block cache shared by a [`Db`](crate::Db) and every snapshot cut
//! from it.

use crate::run::Run;
use memtree_common::hash::fmix64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One CLOCK ring of the striped [`BlockCache`].
#[derive(Default)]
struct CacheStripe {
    /// (table id, block idx, payload, referenced)
    slots: Vec<(u64, usize, Arc<Run>, bool)>,
    /// `(table id, block idx)` → slot position — O(1) probes instead of a
    /// linear scan of every slot. Maintained by CLOCK replacement below.
    index: HashMap<(u64, usize), usize>,
    capacity: usize,
    hand: usize,
    hits: u64,
    misses: u64,
}

impl CacheStripe {
    fn get(&mut self, table: u64, block: usize) -> Option<Arc<Run>> {
        let &i = self.index.get(&(table, block))?;
        let slot = &mut self.slots[i];
        slot.3 = true;
        self.hits += 1;
        Some(Arc::clone(&slot.2))
    }

    /// Caches `data`, returning the block it displaced — for the caller
    /// to drop once the stripe lock is released.
    fn insert(&mut self, table: u64, block: usize, data: Arc<Run>) -> Option<Arc<Run>> {
        self.misses += 1;
        if self.capacity == 0 {
            return None;
        }
        // Refresh an already-cached `(table, block)` in place. Blindly
        // indexing a second slot would leave the old slot in the CLOCK
        // ring but out of the index — a stale duplicate that wastes
        // capacity and is invisible to `invalidate`.
        if let Some(&i) = self.index.get(&(table, block)) {
            self.slots[i].3 = true;
            return Some(std::mem::replace(&mut self.slots[i].2, data));
        }
        if self.slots.len() < self.capacity {
            self.index.insert((table, block), self.slots.len());
            self.slots.push((table, block, data, true));
            return None;
        }
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.3 {
                slot.3 = false;
                self.hand = (self.hand + 1) % self.slots.len();
            } else {
                self.index.remove(&(slot.0, slot.1));
                self.index.insert((table, block), self.hand);
                let old = std::mem::replace(&mut self.slots[self.hand], (table, block, data, true));
                self.hand = (self.hand + 1) % self.slots.len();
                return Some(old.2);
            }
        }
    }

    /// Drops one cached block. The swap-removed slot's new occupant is
    /// re-indexed and the hand is clamped back into range.
    fn invalidate(&mut self, table: u64, block: usize) {
        let Some(i) = self.index.remove(&(table, block)) else {
            return;
        };
        self.slots.swap_remove(i);
        if i < self.slots.len() {
            self.index.insert((self.slots[i].0, self.slots[i].1), i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }

    /// Index ↔ slots bijection plus hand range, asserted by the
    /// differential cache tests after every operation.
    #[cfg(test)]
    fn assert_coherent(&self) {
        assert_eq!(self.index.len(), self.slots.len(), "index/slot count desync");
        assert!(self.slots.len() <= self.capacity);
        for (pos, slot) in self.slots.iter().enumerate() {
            assert_eq!(
                self.index.get(&(slot.0, slot.1)),
                Some(&pos),
                "slot {pos} not indexed at its position"
            );
        }
        assert!(self.hand == 0 || self.hand < self.slots.len(), "hand out of range");
    }
}

/// The block cache — each slot is one validated frame buffer plus its
/// offset table ([`Run::from_frame`]): CLOCK replacement behind a HashMap index,
/// striped across several independently locked rings so concurrent
/// snapshot readers on different blocks never serialize on one lock.
/// Stripe choice is a hash of `(table, block)`, so a given block always
/// lives in exactly one stripe.
pub(crate) struct BlockCache {
    stripes: Vec<Mutex<CacheStripe>>,
}

impl BlockCache {
    /// At most 8 stripes, never more than `capacity` (a tiny cache gains
    /// nothing from extra locks), and a single stripe for capacity 0 so
    /// the miss counters still have a home.
    pub(crate) fn new(capacity: usize) -> Self {
        let n = if capacity == 0 { 1 } else { capacity.min(8) };
        let per = capacity.div_ceil(n);
        Self {
            stripes: (0..n)
                .map(|_| {
                    Mutex::new(CacheStripe {
                        capacity: per,
                        ..Default::default()
                    })
                })
                .collect(),
        }
    }

    fn stripe(&self, table: u64, block: usize) -> MutexGuard<'_, CacheStripe> {
        let h = fmix64(table ^ (block as u64).rotate_left(32)) as usize;
        self.stripes[h % self.stripes.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn get(&self, table: u64, block: usize) -> Option<Arc<Run>> {
        self.stripe(table, block).get(table, block)
    }

    pub(crate) fn insert(&self, table: u64, block: usize, data: Arc<Run>) {
        // The guard is a temporary of this statement: the displaced block
        // (usually the last reference to a frame-sized buffer) is freed
        // after the stripe is unlocked, not while other readers wait.
        let displaced = self.stripe(table, block).insert(table, block, data);
        drop(displaced);
    }

    /// Drops one cached block. Production code retires whole tables via
    /// [`BlockCache::invalidate_table`]; the per-block form is kept for the
    /// cache coherence tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn invalidate(&self, table: u64, block: usize) {
        self.stripe(table, block).invalidate(table, block);
    }

    /// Drops every cached block of `table` (table retirement).
    pub(crate) fn invalidate_table(&self, table: u64) {
        for stripe in &self.stripes {
            let mut s = stripe.lock().unwrap_or_else(|e| e.into_inner());
            let blocks: Vec<usize> =
                s.slots.iter().filter(|sl| sl.0 == table).map(|sl| sl.1).collect();
            for b in blocks {
                s.invalidate(table, b);
            }
        }
    }

    /// (hits, misses) summed across stripes.
    pub(crate) fn stats(&self) -> (u64, u64) {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()))
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }

    #[cfg(test)]
    fn slot_count(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).slots.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use std::collections::HashSet;

    fn blk(tag: u8) -> Arc<Run> {
        let mut run = RunBuilder::sized(1, 1, 4);
        run.push(&[tag], Some(&[tag; 4]));
        Arc::new(run.finish())
    }

    /// Regression for the duplicate-slot bug: re-inserting an already-
    /// cached `(table, block)` must refresh the existing slot in place —
    /// the old `insert` blindly indexed a new slot, leaving the previous
    /// one in the CLOCK ring unindexed (capacity silently lost, and
    /// `invalidate` could never find it).
    #[test]
    fn reinsert_refreshes_in_place_without_duplicate_slots() {
        let cache = BlockCache::new(4);
        cache.insert(1, 0, blk(1));
        assert_eq!(cache.slot_count(), 1);
        assert!(cache.get(1, 0).is_some());
        // Re-insert the same block (a racing fill after a concurrent
        // invalidate-miss does exactly this).
        cache.insert(1, 0, blk(2));
        assert_eq!(cache.slot_count(), 1, "duplicate slot for re-inserted block");
        let got = cache.get(1, 0).expect("still cached");
        assert_eq!(got.key(0), [2u8], "refresh must install the new payload");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 2), "both inserts count as misses, both gets as hits");
        for s in &cache.stripes {
            s.lock().unwrap().assert_coherent();
        }
        // And invalidate actually removes it — with the duplicate bug the
        // stale twin survived invisibly.
        cache.invalidate(1, 0);
        assert_eq!(cache.slot_count(), 0);
        assert!(cache.get(1, 0).is_none());
    }

    /// Randomized differential test: drive insert/get/invalidate/
    /// invalidate-table schedules against a map model and assert the
    /// index ↔ slot bijection after every operation, across capacities
    /// (0, 1, and the hand-wraparound-prone small sizes).
    #[test]
    fn randomized_cache_vs_model() {
        for capacity in [0usize, 1, 2, 3, 8, 17] {
            for seed in 0..16u64 {
                let cache = BlockCache::new(capacity);
                // Model: what the newest inserted payload for a key is.
                let mut model: HashMap<(u64, usize), u8> = HashMap::new();
                let mut gone: HashSet<(u64, usize)> = HashSet::new();
                let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) + 1;
                for step in 0..400u64 {
                    let r = memtree_common::hash::splitmix64(&mut state);
                    let table = r % 3;
                    let block = (r >> 8) as usize % 5;
                    let tag = (step % 251) as u8;
                    match (r >> 16) % 10 {
                        0..=4 => {
                            cache.insert(table, block, blk(tag));
                            model.insert((table, block), tag);
                            gone.remove(&(table, block));
                        }
                        5..=7 => {
                            if let Some(hit) = cache.get(table, block) {
                                assert!(
                                    !gone.contains(&(table, block)),
                                    "cap {capacity} seed {seed}: invalidated key served"
                                );
                                assert_eq!(
                                    hit.key(0)[0], model[&(table, block)],
                                    "cap {capacity} seed {seed}: stale payload"
                                );
                            }
                        }
                        8 => {
                            cache.invalidate(table, block);
                            gone.insert((table, block));
                        }
                        _ => {
                            cache.invalidate_table(table);
                            for b in 0..5 {
                                gone.insert((table, b));
                            }
                        }
                    }
                    for s in &cache.stripes {
                        s.lock().unwrap().assert_coherent();
                    }
                    // Invalidated keys must miss until re-inserted.
                    for &(t, b) in &gone {
                        assert!(
                            cache.get(t, b).is_none(),
                            "cap {capacity} seed {seed}: ghost entry ({t},{b})"
                        );
                    }
                }
                assert!(cache.slot_count() <= capacity.max(1) * 8);
            }
        }
    }

    /// Evict-then-reinsert the same key under a full ring: the CLOCK hand
    /// and index must stay coherent through wraparound after removals.
    #[test]
    fn evict_reinsert_and_hand_wraparound_stay_coherent() {
        let cache = BlockCache::new(1); // one stripe, one slot: maximal churn
        for round in 0..20u64 {
            cache.insert(round % 2, 0, blk(round as u8));
            assert_eq!(cache.slot_count(), 1);
            if round % 3 == 0 {
                cache.invalidate(round % 2, 0);
                assert_eq!(cache.slot_count(), 0);
            }
            for s in &cache.stripes {
                s.lock().unwrap().assert_coherent();
            }
        }
        // Capacity-0 cache: inserts are counted misses, nothing sticks.
        let zero = BlockCache::new(0);
        zero.insert(1, 1, blk(9));
        assert!(zero.get(1, 1).is_none());
        assert_eq!(zero.slot_count(), 0);
        assert_eq!(zero.stats(), (0, 1), "the insert after the miss is what counts it");
    }
}
