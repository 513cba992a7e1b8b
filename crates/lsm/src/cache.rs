//! The block cache shared by a [`Db`](crate::Db) and every snapshot cut
//! from it.
//!
//! ## Frame lifecycle
//!
//! A cached block is an `Arc<Run>`: one frame buffer, one offset table and
//! the `Arc` around them ([`Run::refill`]). Readers clone the `Arc` under
//! the stripe lock and keep it as long as they like. When CLOCK displaces
//! a block and `Arc::get_mut` shows that no reader holds it, the block is
//! not freed: it becomes its stripe's **spare** (at most one per stripe).
//! The next miss on that stripe takes the spare in the same lock
//! acquisition as its failed lookup ([`BlockCache::get_or_spare`]), has
//! the device read the new block into it in place, and inserts it — so a
//! steady-state miss allocates nothing, and no thread frees a frame that
//! another thread allocated. A victim that a reader still pins is left to
//! that reader (it keeps reading the old block's bytes, untouched) and the
//! miss allocates a new block. Resident block memory is therefore bounded
//! by `capacity + stripes` blocks, plus whatever readers pin. The spares
//! belong to the cache instance: there is no global or per-thread pool.

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
    /// A displaced block no reader holds, for the next miss to refill.
    spare: Option<Arc<Run>>,
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
/// offset table ([`Run::refill`]): CLOCK replacement behind a HashMap index,
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

    /// The cached block, or on a miss the spare of the stripe the block
    /// will be inserted into (`None` when it has none), taken in the same
    /// lock acquisition. A spare has no other holder: the caller refills it
    /// through `Arc::get_mut` and passes it to [`BlockCache::insert`].
    pub(crate) fn get_or_spare(
        &self,
        table: u64,
        block: usize,
    ) -> std::result::Result<Arc<Run>, Option<Arc<Run>>> {
        let mut stripe = self.stripe(table, block);
        stripe.get(table, block).ok_or_else(|| stripe.spare.take())
    }

    pub(crate) fn insert(&self, table: u64, block: usize, data: Arc<Run>) {
        // A displaced block no reader holds becomes the stripe's spare when
        // it has none; any other displaced reference is dropped after the
        // stripe is unlocked, so a last reference frees its buffers while
        // no reader waits.
        let displaced = {
            let mut stripe = self.stripe(table, block);
            let mut displaced = stripe.insert(table, block, data);
            let unpinned = displaced
                .as_mut()
                .is_some_and(|d| Arc::get_mut(d).is_some());
            if unpinned && stripe.spare.is_none() {
                stripe.spare = displaced.take();
            }
            displaced
        };
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
    use crate::db::{Db, DbOptions};
    use crate::disk::SimDisk;
    use crate::sstable::SsTable;
    use memtree_alloc_probe::retained;
    use memtree_common::key::{decode_u64, encode_u64};
    use std::collections::HashSet;

    fn blk(tag: u8) -> Arc<Run> {
        let (key, value) = ([tag], [tag; 4]);
        Arc::new(Run::collect((1, 1, 4), std::iter::once((&key[..], Some(&value[..])))))
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

    /// One miss of the fetch ladder without a device: the stripe's spare,
    /// or a new block, refilled by `fill` and inserted.
    fn miss(cache: &BlockCache, table: u64, block: usize, fill: impl FnOnce(&mut Run)) -> Arc<Run> {
        match cache.get_or_spare(table, block) {
            Ok(hit) => hit,
            Err(spare) => {
                let mut run = spare.unwrap_or_default();
                fill(Arc::get_mut(&mut run).expect("a spare has no other holder"));
                cache.insert(table, block, Arc::clone(&run));
                run
            }
        }
    }

    /// Resident memory of a full cache: whatever the churn, the heap it
    /// holds beyond its index is at most `capacity + stripes` blocks, each
    /// no larger than the largest frame plus the largest offset table.
    /// The index (slot rings, hash tables, `Arc`s) is measured on a twin
    /// cache that runs the same schedule with empty blocks.
    #[test]
    fn a_full_cache_holds_at_most_capacity_plus_stripes_blocks() {
        // Frames of 1..=60 entries with values up to 40 bytes.
        let mut state = 0x5eed_u64;
        let mut next = || memtree_common::hash::splitmix64(&mut state);
        let frames: Vec<(Vec<u8>, usize)> = (0..32)
            .map(|_| {
                let n = 1 + next() as usize % 60;
                let vlen = next() as usize % 40;
                let rows: Vec<([u8; 8], Vec<u8>)> = (0..n as u64)
                    .map(|i| (encode_u64(i), vec![7; vlen]))
                    .collect();
                let refs: Vec<_> = rows.iter().map(|(k, v)| (&k[..], Some(&v[..]))).collect();
                {
                    let mut frame = Vec::new();
                    Run::encode_frame(&refs, &mut frame).unwrap();
                    (frame, n)
                }
            })
            .collect();
        // A recycled block's two buffers each keep the largest size they
        // ever held, so the bound is the largest frame plus the largest
        // offset table, not the largest sum of one block's two.
        let largest_block = frames.iter().map(|(f, _)| f.len()).max().unwrap()
            + frames.iter().map(|(_, n)| 8 * (n + 1)).max().unwrap();
        let disk = SimDisk::new(std::time::Duration::ZERO);
        let ids: Vec<u32> = frames
            .iter()
            .map(|(f, _)| disk.write(f.clone().into_boxed_slice()).unwrap())
            .collect();
        let schedule: Vec<(u64, usize, usize, bool)> = (0..4000)
            .map(|_| {
                let r = next();
                (
                    r % 4,
                    (r >> 8) as usize % 50,
                    (r >> 16) as usize % frames.len(),
                    r >> 32 & 3 == 0,
                )
            })
            .collect();
        for capacity in [1usize, 3, 8, 17, 64] {
            // Runs `schedule`, pinning every fourth block for a while, and
            // returns the cache plus the live heap it holds at the end.
            let churn = |real: bool| {
                retained(|| {
                    let cache = BlockCache::new(capacity);
                    let mut pinned = std::collections::VecDeque::new();
                    for &(table, block, frame, pin) in &schedule {
                        let blk = miss(&cache, table, block, |run| {
                            if real {
                                run.refill(|buf| disk.read_into(ids[frame], buf)).unwrap();
                            }
                        });
                        if pin {
                            pinned.push_back(blk);
                            if pinned.len() > 3 {
                                pinned.pop_front();
                            }
                        }
                    }
                    drop(pinned);
                    cache
                })
            };
            let ((cache, held), (_twin, index)) = (churn(true), churn(false));
            let stripes = cache.stripes.len();
            assert_eq!(cache.slot_count(), capacity.div_ceil(stripes) * stripes);
            let spares = cache
                .stripes
                .iter()
                .filter(|s| s.lock().unwrap().spare.is_some())
                .count();
            assert!(spares > 0, "cap {capacity}: the churn left no spare behind");
            let blocks = (held - index) as usize;
            let bound = (cache.slot_count() + stripes) * largest_block;
            assert!(
                blocks <= bound,
                "cap {capacity}: {blocks} B of blocks over the {bound} B bound"
            );
            let smallest = frames.iter().map(|(f, _)| f.len()).min().unwrap();
            assert!(
                blocks >= cache.slot_count() * smallest,
                "cap {capacity}: cache not full"
            );
        }
    }

    /// A table of one flushed run: 2 000 keys whose values name them, in
    /// a one-slot cache (one stripe), with its block 0 and block 1 read so
    /// that the stripe holds a spare.
    fn one_slot_db() -> (Db, Arc<SsTable>) {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 1,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        let table = Arc::clone(&db.levels[0][0]);
        assert!(table.index.len() > 4);
        db.view().fetch_block(&table, 0);
        db.view().fetch_block(&table, 1);
        assert!(db.cache.stripes[0].lock().unwrap().spare.is_some());
        (db, table)
    }

    fn value(i: u64) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    /// The keys and values a block holds.
    fn rows(run: &Run) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        run.iter().map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))).collect()
    }

    /// A corrupt copy read into a spare takes the read-repair re-read into
    /// the same buffers and answers with the new block's entries only —
    /// on both handles.
    #[test]
    fn a_refilled_spare_takes_the_read_repair_and_shows_only_the_new_block() {
        let (db, table) = one_slot_db();
        let snap = db.snapshot();
        let faults = db.disk.faults();
        faults.enable(3);
        for (block, writer) in [(2, true), (3, false)] {
            let key = &table.first_key(&db.disk, block);
            let i = decode_u64(key);
            faults.arm("lsm.disk.read_corrupt", 1.0, Some(1));
            let got = if writer { db.get(key) } else { snap.get(key) };
            assert_eq!(got, Some(value(i)), "block {block}: the re-read repairs the copy");
            assert_eq!(faults.trips("lsm.disk.read_corrupt"), 1);
            let cached = db.cache.get(table.id, block).expect("the repaired block is cached");
            let frame = db.disk.read(table.index.block_id(block)).unwrap().into_vec();
            let want = Run::from_frame(frame).unwrap();
            assert_eq!(cached.frame(), want.frame(), "block {block}: the device's frame");
            assert_eq!(rows(&cached), rows(&want), "block {block}: no entry of the evicted block");
        }
        faults.disable();
        assert_eq!(db.io_stats().read_repairs, 1, "the writer counts its repair");
        assert_eq!(db.io_stats().quarantined_blocks, 0);
    }

    /// A transient storm that outlasts the retry budget while a spare is
    /// refilled: the query gets "empty", the cache keeps nothing of it,
    /// and the next miss reads the block whole.
    #[test]
    fn an_exhausted_transient_refill_answers_empty_and_caches_nothing() {
        let (db, table) = one_slot_db();
        let snap = db.snapshot();
        let faults = db.disk.faults();
        for (block, writer) in [(2, true), (3, false)] {
            let key = &table.first_key(&db.disk, block);
            let i = decode_u64(key);
            let read = || if writer { db.get(key) } else { snap.get(key) };
            assert!(db.cache.stripes[0].lock().unwrap().spare.is_some());
            faults.enable(5);
            faults.arm("lsm.disk.read_transient", 1.0, None);
            assert_eq!(read(), None, "block {block}: empty for this query");
            assert_eq!(faults.trips("lsm.disk.read_transient"), 8, "the whole retry budget");
            faults.disable();
            assert!(db.cache.get(table.id, block).is_none(), "block {block}: nothing cached");
            assert_eq!(read(), Some(value(i)), "block {block}: the next query is whole");
            let cached = db.cache.get(table.id, block).expect("now cached");
            assert_eq!(cached.frame(), Some(&*db.disk.read(table.index.block_id(block)).unwrap()));
        }
        assert_eq!(db.io_stats().quarantined_blocks, 0, "transients never quarantine");
        assert_eq!(db.io_stats().read_repairs, 0);
    }

    /// A snapshot scan that holds a block the cache has evicted keeps
    /// reading that block's own bytes while two other threads miss on the
    /// same (only) stripe and recycle every victim nobody holds.
    #[test]
    fn a_held_evicted_block_keeps_its_bytes_while_other_threads_recycle() {
        let (db, table) = one_slot_db();
        let snap = db.snapshot();
        let blocks = table.index.len() as u64;
        let (misses_before, reads_before) = (db.cache_stats().1, db.io_stats().block_reads);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let snap = &snap;
                s.spawn(move || {
                    for round in 0..40u64 {
                        for i in (t * 7 + round..2000).step_by(53) {
                            assert_eq!(snap.get(&encode_u64(i)), Some(value(i)), "key {i}");
                        }
                    }
                });
            }
            // The scan's cursor holds one block at a time; every block it
            // holds is evicted by the readers above while it walks it.
            let lo = encode_u64(0);
            let mut cursor = snap.cursor(&lo, None);
            for i in 0..2000u64 {
                let (k, v) = cursor.peek().expect("row");
                assert_eq!((k, v), (&encode_u64(i)[..], &value(i)[..]), "row {i}");
                cursor.advance();
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
            assert!(cursor.peek().is_none());
        });
        let misses = db.cache_stats().1 - misses_before;
        assert!(misses > 2 * blocks, "the readers missed {misses} times");
        assert!(db.io_stats().block_reads - reads_before >= misses);
    }
}
