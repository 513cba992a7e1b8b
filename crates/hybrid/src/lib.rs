//! The Hybrid Index: a dual-stage architecture (Chapter 5, Figure 5.1).
//!
//! A hybrid index is one logical index made of two physical trees: a small
//! **dynamic stage** that absorbs every write, and a compact, read-only
//! **static stage** holding the bulk of the entries. A ratio-based trigger
//! (default 10) periodically *merges* the dynamic stage into the static
//! stage (merge-all strategy, §5.2.2); a Bloom filter over the dynamic
//! stage lets most point reads skip straight to the static stage.
//!
//! The generic [`DualStage`] implements the Dual-Stage Transformation for
//! any `(OrderedIndex, StaticIndex)` pair; the thesis's four instantiations
//! are exported as type aliases ([`HybridBTree`], [`HybridMasstree`],
//! [`HybridSkipList`], [`HybridArt`]) plus the Compression-rule variant
//! [`HybridCompressedBTree`].

#![warn(missing_docs)]

use memtree_common::error::MemtreeError;
use memtree_common::traits::{BatchProbe, OrderedIndex, PointFilter, StaticIndex, Value};
use memtree_faults::{fail_point, Faults};
use memtree_filters::DynamicBloom;
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub mod secondary;
pub use secondary::SecondaryIndex;

/// What to merge (§5.2.2). The thesis ships merge-all and discusses
/// merge-cold as the other end of a tunable spectrum; we implement both so
/// the trade-off can be measured (see `repro fig5_7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Move every dynamic-stage entry (the thesis default): treats the
    /// dynamic stage as a write buffer, minimizing merge frequency.
    All,
    /// Keep recently re-written keys in the dynamic stage (a write-back
    /// cache): shortcuts hot updates at the price of more frequent merges
    /// and per-key tracking overhead.
    Cold,
}

/// When to move the dynamic stage into the static stage (§5.2.2).
#[derive(Debug, Clone, Copy)]
pub enum MergeTrigger {
    /// Merge when `static_mem <= dynamic_mem * ratio` — the thesis default
    /// (ratio 10), which keeps merge cost amortized-constant over time.
    Ratio(usize),
    /// Merge when the dynamic stage exceeds a fixed byte size — better for
    /// read-mostly workloads, too merge-happy for OLTP (§5.2.2).
    ConstantBytes(usize),
    /// Never merge automatically (manual [`DualStage::force_merge`] only).
    Manual,
}

/// Statistics over the lifetime of a hybrid index.
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeStats {
    /// Completed merges.
    pub merges: u64,
    /// Merge attempts that failed (the index stayed in its pre-merge
    /// state; see the crash-consistency contract on
    /// [`DualStage::force_merge`]).
    pub failed_merges: u64,
    /// Failed attempts that were retried by
    /// [`DualStage::merge_with_retry`] (each retry waits an
    /// exponentially growing backoff).
    pub merge_retries: u64,
    /// Total blocking time spent merging.
    pub total_merge_time: Duration,
    /// Duration of the most recent merge.
    pub last_merge_time: Duration,
    /// Static-stage entry count at the most recent merge.
    pub last_merge_static_len: usize,
}

/// Maximum attempts an automatic (trigger-driven) merge makes before
/// giving up until the next trigger.
pub const MERGE_MAX_ATTEMPTS: u32 = 3;
/// First retry backoff; doubles per retry, capped at [`MERGE_BACKOFF_CAP`].
pub const MERGE_BACKOFF_START: Duration = Duration::from_micros(100);
/// Upper bound on the per-retry backoff sleep.
pub const MERGE_BACKOFF_CAP: Duration = Duration::from_millis(10);

/// The dual-stage hybrid index.
#[derive(Debug)]
pub struct DualStage<D: OrderedIndex + Default, S: StaticIndex> {
    dynamic: D,
    stat: Option<S>,
    bloom: Option<DynamicBloom>,
    trigger: MergeTrigger,
    strategy: MergeStrategy,
    /// Keys re-written (updated or re-inserted) since the last merge —
    /// merge-cold's hotness signal.
    hot: HashSet<Vec<u8>>,
    /// Keys deleted from the static stage, reclaimed at the next merge.
    tombstones: HashSet<Vec<u8>>,
    stats: MergeStats,
    len: usize,
    /// The `hybrid.merge.*` fail points of this index's merges.
    faults: Faults,
}

/// Expected dynamic-stage capacity used to size the Bloom filter.
const BLOOM_EXPECTED: usize = 1 << 17;
/// Bloom bits per dynamic-stage key (the thesis calls the overhead
/// "negligible"; 10 bits/key at a bounded stage size is).
const BLOOM_BITS_PER_KEY: f64 = 10.0;

impl<D: OrderedIndex + Default, S: StaticIndex> Default for DualStage<D, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: OrderedIndex + Default, S: StaticIndex> DualStage<D, S> {
    /// Creates a hybrid index with the thesis defaults (ratio-10 trigger,
    /// Bloom filter enabled).
    pub fn new() -> Self {
        Self::with_config(MergeTrigger::Ratio(10), true)
    }

    /// Creates a hybrid index with an explicit trigger and Bloom choice.
    pub fn with_config(trigger: MergeTrigger, bloom: bool) -> Self {
        Self::with_strategy(trigger, bloom, MergeStrategy::All)
    }

    /// Creates a hybrid index with full control of the merge policy.
    pub fn with_strategy(trigger: MergeTrigger, bloom: bool, strategy: MergeStrategy) -> Self {
        Self {
            dynamic: D::default(),
            stat: None,
            bloom: bloom.then(|| DynamicBloom::new(BLOOM_EXPECTED, BLOOM_BITS_PER_KEY)),
            trigger,
            strategy,
            hot: HashSet::new(),
            tombstones: HashSet::new(),
            stats: MergeStats::default(),
            len: 0,
            faults: Faults::default(),
        }
    }

    /// Lifetime merge statistics.
    pub fn merge_stats(&self) -> MergeStats {
        self.stats
    }

    /// The fail points this index's merges evaluate:
    /// `hybrid.merge.prepare`, `hybrid.merge.build`, `hybrid.merge.swap`.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Entries currently in the dynamic stage.
    pub fn dynamic_len(&self) -> usize {
        self.dynamic.len()
    }

    /// Entries currently in the static stage.
    pub fn static_len(&self) -> usize {
        self.stat.as_ref().map_or(0, |s| s.len())
    }

    fn static_get(&self, key: &[u8]) -> Option<Value> {
        if self.tombstones.contains(key) {
            return None;
        }
        self.stat.as_ref()?.get(key)
    }

    fn bloom_may_contain(&self, key: &[u8]) -> bool {
        self.bloom.as_ref().is_none_or(|b| b.may_contain(key))
    }

    fn should_merge(&self) -> bool {
        match self.trigger {
            MergeTrigger::Ratio(r) => {
                // Entry-count ratio: merging when the dynamic stage reaches
                // 1/r of the static stage keeps the per-entry amortized
                // merge cost constant (each entry is re-merged ~r times).
                // A minimum dynamic size stops tiny indexes from merging on
                // every insert.
                let dyn_len = self.dynamic.len();
                dyn_len >= 4096 && dyn_len * r >= self.static_len().max(1)
            }
            MergeTrigger::ConstantBytes(bytes) => self.dynamic.mem_usage() >= bytes,
            MergeTrigger::Manual => false,
        }
    }

    /// Merges the dynamic stage into the static stage (blocking,
    /// merge-all). The core is a linear merge of two sorted runs — the
    /// array extension of §5.2.1.
    ///
    /// # Crash consistency
    ///
    /// The merge builds the replacement static stage entirely off to the
    /// side and commits it with an atomic in-memory swap only after the
    /// build succeeds. If the merge fails partway (e.g. via a point armed
    /// on [`DualStage::faults`]: `hybrid.merge.prepare`,
    /// `hybrid.merge.build`, or `hybrid.merge.swap`), the index is left
    /// exactly as it was: both stages, tombstones, Bloom filter, and hot
    /// set are untouched, and every key remains readable.
    pub fn force_merge(&mut self) -> Result<(), MemtreeError> {
        match self.try_merge() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.failed_merges += 1;
                Err(e)
            }
        }
    }

    fn try_merge(&mut self) -> Result<(), MemtreeError> {
        let start = Instant::now();
        fail_point!(self.faults, "hybrid.merge.prepare");
        // Snapshot the dynamic stage without draining it — nothing is
        // mutated until the commit point below.
        let mut dyn_entries: Vec<(Vec<u8>, Value)> = Vec::with_capacity(self.dynamic.len());
        self.dynamic
            .for_each_sorted(&mut |k, v| dyn_entries.push((k.to_vec(), v)));
        // Merge-cold: recently re-written keys go back to the dynamic
        // stage instead of migrating — unless nearly everything is hot
        // (then retaining would starve the merge, §5.2.2's caveat).
        let mut retained: Vec<(Vec<u8>, Value)> = Vec::new();
        if self.strategy == MergeStrategy::Cold && self.hot.len() * 2 < dyn_entries.len() {
            let hot = &self.hot;
            let (keep, merge): (Vec<_>, Vec<_>) =
                dyn_entries.into_iter().partition(|(k, _)| hot.contains(k));
            retained = keep;
            dyn_entries = merge;
        }
        let mut merged: Vec<(Vec<u8>, Value)> =
            Vec::with_capacity(dyn_entries.len() + self.static_len());
        match self.stat.as_ref() {
            None => {
                merged.extend(
                    dyn_entries
                        .into_iter()
                        .filter(|(k, _)| !self.tombstones.contains(k)),
                );
            }
            Some(old) => {
                // In-order merge of the static run and the dynamic run;
                // dynamic entries shadow static ones, tombstones drop them.
                let mut di = dyn_entries.into_iter().peekable();
                old.for_each_sorted(&mut |k, v| {
                    while let Some((dk, _)) = di.peek() {
                        if dk.as_slice() < k {
                            let (dk, dv) = di.next().unwrap();
                            if !self.tombstones.contains(&dk) {
                                merged.push((dk, dv));
                            }
                        } else {
                            break;
                        }
                    }
                    let shadowed = di.peek().is_some_and(|(dk, _)| dk.as_slice() == k);
                    if shadowed {
                        let (dk, dv) = di.next().unwrap();
                        if !self.tombstones.contains(&dk) {
                            merged.push((dk, dv));
                        }
                    } else if !self.tombstones.contains(k) {
                        merged.push((k.to_vec(), v));
                    }
                });
                for (dk, dv) in di {
                    if !self.tombstones.contains(&dk) {
                        merged.push((dk, dv));
                    }
                }
            }
        }
        fail_point!(self.faults, "hybrid.merge.build");
        let new_stat = S::build(&merged);
        fail_point!(self.faults, "hybrid.merge.swap");

        // ---- commit point: everything below is infallible. ----
        // Retained hot keys that shadow a surviving static copy must not
        // be double-counted.
        let retained_new = retained
            .iter()
            .filter(|(k, _)| merged.binary_search_by(|(m, _)| m.cmp(k)).is_err())
            .count();
        self.len = merged.len() + retained_new;
        self.stat = Some(new_stat);
        self.dynamic.clear();
        self.tombstones.clear();
        self.hot.clear();
        if let Some(b) = &mut self.bloom {
            b.reset();
        }
        for (k, v) in retained {
            // Retained hot keys shadow their (now re-merged) static copies.
            if let Some(b) = &mut self.bloom {
                b.add(&k);
            }
            self.dynamic.insert(&k, v);
        }
        let elapsed = start.elapsed();
        self.stats.merges += 1;
        self.stats.total_merge_time += elapsed;
        self.stats.last_merge_time = elapsed;
        self.stats.last_merge_static_len = self.len;
        Ok(())
    }

    /// [`force_merge`](Self::force_merge) with bounded retry and
    /// exponential backoff. Each failed attempt bumps
    /// [`MergeStats::merge_retries`] and sleeps (100µs doubling, capped
    /// at 10ms) before trying again; after `max_attempts` failures it
    /// gives up with [`MemtreeError::MergeFailed`]. The index stays fully
    /// readable throughout.
    pub fn merge_with_retry(&mut self, max_attempts: u32) -> Result<(), MemtreeError> {
        let mut backoff = MERGE_BACKOFF_START;
        for attempt in 1..=max_attempts.max(1) {
            match self.force_merge() {
                Ok(()) => return Ok(()),
                Err(_) if attempt < max_attempts => {
                    self.stats.merge_retries += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MERGE_BACKOFF_CAP);
                }
                Err(_) => break,
            }
        }
        Err(MemtreeError::MergeFailed {
            attempts: max_attempts.max(1),
        })
    }

    fn maybe_merge(&mut self) {
        if self.should_merge() {
            // A merge that keeps failing is survivable: writes continue to
            // land in the dynamic stage and the trigger re-fires on the
            // next insert. `failed_merges` records the degradation.
            let _ = self.merge_with_retry(MERGE_MAX_ATTEMPTS);
        }
    }
}

impl<D: OrderedIndex + Default, S: StaticIndex> OrderedIndex for DualStage<D, S> {
    fn insert(&mut self, key: &[u8], value: Value) -> bool {
        // Primary-index uniqueness check spans both stages (§5.3.2 calls
        // this the main insert-throughput cost).
        if self.dynamic.get(key).is_some() || self.static_get(key).is_some() {
            return false;
        }
        self.dynamic.insert(key, value);
        self.tombstones.remove(key);
        if let Some(b) = &mut self.bloom {
            b.add(key);
        }
        self.len += 1;
        self.maybe_merge();
        true
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        if self.bloom_may_contain(key) {
            if let Some(v) = self.dynamic.get(key) {
                return Some(v);
            }
        }
        self.static_get(key)
    }

    fn update(&mut self, key: &[u8], value: Value) -> bool {
        // Primary-index update: in place if dynamic, otherwise shadow the
        // static entry with a fresh dynamic one (§5.1).
        if self.dynamic.update(key, value) {
            if self.strategy == MergeStrategy::Cold {
                self.hot.insert(key.to_vec());
            }
            return true;
        }
        if self.static_get(key).is_some() {
            self.dynamic.insert(key, value);
            if self.strategy == MergeStrategy::Cold {
                self.hot.insert(key.to_vec());
            }
            if let Some(b) = &mut self.bloom {
                b.add(key);
            }
            self.maybe_merge();
            true
        } else {
            false
        }
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        let in_dynamic = self.dynamic.remove(key);
        let in_static = self.static_get(key).is_some();
        if in_static {
            self.tombstones.insert(key.to_vec());
        }
        if in_dynamic || in_static {
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        // Collect the (small) dynamic side, then stream the static side
        // against it — static keys are compared in place, never copied.
        let mut dyn_part: Vec<(Vec<u8>, Value)> = Vec::new();
        self.dynamic.range_from(low, &mut |k, v| {
            if dyn_part.len() == n {
                return false;
            }
            dyn_part.push((k.to_vec(), v));
            dyn_part.len() < n
        });
        let before = out.len();
        let mut i = 0usize; // cursor into dyn_part
        if let Some(s) = &self.stat {
            s.range_from(low, &mut |k, v| {
                // Emit dynamic entries smaller than this static key.
                while i < dyn_part.len()
                    && out.len() - before < n
                    && dyn_part[i].0.as_slice() <= k
                {
                    let shadowing = dyn_part[i].0.as_slice() == k;
                    out.push(dyn_part[i].1);
                    i += 1;
                    if shadowing {
                        return out.len() - before < n;
                    }
                }
                if out.len() - before == n {
                    return false;
                }
                if !self.tombstones.contains(k) {
                    out.push(v);
                }
                out.len() - before < n
            });
        }
        while i < dyn_part.len() && out.len() - before < n {
            out.push(dyn_part[i].1);
            i += 1;
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_usage(&self) -> usize {
        self.dynamic.mem_usage()
            + self.stat.as_ref().map_or(0, |s| s.mem_usage())
            + self.bloom.as_ref().map_or(0, |b| b.size_bytes())
            + self
                .tombstones
                .iter()
                .map(|k| k.len() + 48)
                .sum::<usize>()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        self.range_from(&[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        // Full ordered co-iteration: materialize both streams lazily in
        // chunks would complicate; hybrid scans in the thesis are short, so
        // a straightforward merged walk over collected runs is acceptable
        // for correctness-critical full iterations too.
        let mut dyn_part: Vec<(Vec<u8>, Value)> = Vec::new();
        self.dynamic.range_from(low, &mut |k, v| {
            dyn_part.push((k.to_vec(), v));
            true
        });
        let mut stat_part: Vec<(Vec<u8>, Value)> = Vec::new();
        if let Some(s) = &self.stat {
            s.range_from(low, &mut |k, v| {
                if !self.tombstones.contains(k) {
                    stat_part.push((k.to_vec(), v));
                }
                true
            });
        }
        let (mut i, mut j) = (0, 0);
        while i < dyn_part.len() || j < stat_part.len() {
            let take_dyn = if j >= stat_part.len() {
                true
            } else if i >= dyn_part.len() {
                false
            } else {
                dyn_part[i].0 <= stat_part[j].0
            };
            let cont = if take_dyn {
                if j < stat_part.len() && dyn_part[i].0 == stat_part[j].0 {
                    j += 1; // shadowed
                }
                let r = f(&dyn_part[i].0, dyn_part[i].1);
                i += 1;
                r
            } else {
                let r = f(&stat_part[j].0, stat_part[j].1);
                j += 1;
                r
            };
            if !cont {
                return;
            }
        }
    }

    fn clear(&mut self) {
        self.dynamic.clear();
        self.stat = None;
        self.tombstones.clear();
        if let Some(b) = &mut self.bloom {
            b.reset();
        }
        self.len = 0;
    }
}

impl<D: OrderedIndex + Default, S: StaticIndex + BatchProbe> BatchProbe for DualStage<D, S> {
    fn probe_one(&self, key: &[u8]) -> Option<Value> {
        self.get(key)
    }

    /// Batched dual-stage probe: each key takes the Bloom-guarded dynamic
    /// probe first (the dynamic stage is small and hot in cache), and
    /// every unresolved, non-tombstoned key falls through to the static
    /// stage in **one** batched `multi_get` — so the static structure's
    /// own batching (level-synchronous trie descent, sorted-batch B+tree
    /// descent, …) amortizes its cache misses across the whole batch.
    fn multi_get(&self, keys: &[&[u8]], out: &mut Vec<Option<Value>>) {
        let base = out.len();
        out.resize(base + keys.len(), None);
        let mut pending_idx: Vec<u32> = Vec::new();
        let mut pending_keys: Vec<&[u8]> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if self.bloom_may_contain(key) {
                if let Some(v) = self.dynamic.get(key) {
                    out[base + i] = Some(v);
                    continue;
                }
            }
            if self.stat.is_some() && !self.tombstones.contains(key) {
                pending_idx.push(i as u32);
                pending_keys.push(key);
            }
        }
        if let Some(s) = &self.stat {
            let mut results = Vec::with_capacity(pending_keys.len());
            s.multi_get(&pending_keys, &mut results);
            for (&i, r) in pending_idx.iter().zip(results) {
                out[base + i as usize] = r;
            }
        }
    }

    fn scan_one(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        self.scan(low, n, out)
    }
}

impl DualStage<memtree_btree::BPlusTree, memtree_btree::CompressedBTree> {
    /// Sets the static stage's decompressed-node cache capacity (0 = off) —
    /// the Figure 5.9 node-cache ablation knob.
    pub fn set_static_cache_blocks(&mut self, capacity: usize) {
        if let Some(s) = &mut self.stat {
            s.set_cache_blocks(capacity);
        }
    }
}

/// Hybrid B+tree: dynamic B+tree + Compact B+tree.
pub type HybridBTree = DualStage<memtree_btree::BPlusTree, memtree_btree::CompactBTree>;
/// Hybrid-Compressed B+tree: dynamic B+tree + block-compressed static leaves.
pub type HybridCompressedBTree =
    DualStage<memtree_btree::BPlusTree, memtree_btree::CompressedBTree>;
/// Hybrid Masstree: dynamic Masstree + Compact Masstree.
pub type HybridMasstree = DualStage<memtree_masstree::Masstree, memtree_masstree::CompactMasstree>;
/// Hybrid Skip List: paged skip list + Compact Skip List.
pub type HybridSkipList = DualStage<memtree_skiplist::SkipList, memtree_skiplist::CompactSkipList>;
/// Hybrid ART: dynamic ART + Compact ART.
pub type HybridArt = DualStage<memtree_art::Art, memtree_art::CompactArt>;

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::hash::splitmix64;
    use memtree_common::key::encode_u64;

    fn check_roundtrip<D: OrderedIndex + Default, S: StaticIndex>(name: &str) {
        let mut h: DualStage<D, S> = DualStage::with_config(MergeTrigger::Ratio(10), true);
        let mut state = 42u64;
        let mut keys = Vec::new();
        for _ in 0..20_000 {
            let k = splitmix64(&mut state) % 500_000;
            if h.insert(&encode_u64(k), k) {
                keys.push(k);
            }
        }
        assert!(h.merge_stats().merges > 0, "{name}: no merges happened");
        assert!(h.static_len() > h.dynamic_len(), "{name}: static should dominate");
        for &k in keys.iter().step_by(7) {
            assert_eq!(h.get(&encode_u64(k)), Some(k), "{name} get {k}");
        }
        assert_eq!(h.len(), keys.len(), "{name} len");
        // Sorted iteration across both stages.
        keys.sort_unstable();
        let mut got = Vec::new();
        h.for_each_sorted(&mut |_k, v| got.push(v));
        assert_eq!(got, keys, "{name} sorted iteration");
    }

    #[test]
    fn roundtrip_all_four_hybrids() {
        check_roundtrip::<memtree_btree::BPlusTree, memtree_btree::CompactBTree>("btree");
        check_roundtrip::<memtree_skiplist::SkipList, memtree_skiplist::CompactSkipList>(
            "skiplist",
        );
        check_roundtrip::<memtree_art::Art, memtree_art::CompactArt>("art");
        check_roundtrip::<memtree_masstree::Masstree, memtree_masstree::CompactMasstree>(
            "masstree",
        );
    }

    #[test]
    fn compressed_hybrid_works() {
        let mut h = HybridCompressedBTree::new();
        for i in 0..30_000u64 {
            assert!(h.insert(&encode_u64(i), i));
        }
        for i in (0..30_000u64).step_by(97) {
            assert_eq!(h.get(&encode_u64(i)), Some(i));
        }
    }

    #[test]
    fn duplicate_across_stages_rejected() {
        let mut h = HybridBTree::new();
        for i in 0..5000u64 {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        assert_eq!(h.dynamic_len(), 0);
        // Key now lives in the static stage; a re-insert must fail.
        assert!(!h.insert(&encode_u64(42), 999));
        assert_eq!(h.get(&encode_u64(42)), Some(42));
    }

    #[test]
    fn update_shadows_static_entry() {
        let mut h = HybridBTree::new();
        for i in 0..5000u64 {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        assert!(h.update(&encode_u64(100), 12345));
        assert_eq!(h.get(&encode_u64(100)), Some(12345));
        // After another merge the shadow wins permanently.
        h.force_merge().unwrap();
        assert_eq!(h.get(&encode_u64(100)), Some(12345));
        assert_eq!(h.len(), 5000);
        assert!(!h.update(&encode_u64(999_999), 1));
    }

    #[test]
    fn remove_via_tombstone() {
        let mut h = HybridBTree::new();
        for i in 0..5000u64 {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        assert!(h.remove(&encode_u64(7)));
        assert_eq!(h.get(&encode_u64(7)), None);
        assert!(!h.remove(&encode_u64(7)));
        assert_eq!(h.len(), 4999);
        // Reinsert after delete works and survives a merge.
        assert!(h.insert(&encode_u64(7), 77));
        assert_eq!(h.get(&encode_u64(7)), Some(77));
        h.force_merge().unwrap();
        assert_eq!(h.get(&encode_u64(7)), Some(77));
        assert_eq!(h.len(), 5000);
    }

    #[test]
    fn scan_merges_stages_in_order() {
        let mut h = HybridBTree::with_config(MergeTrigger::Manual, true);
        // Even keys to static, odd keys stay dynamic.
        for i in (0..1000u64).step_by(2) {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        for i in (1..1000u64).step_by(2) {
            h.insert(&encode_u64(i), i);
        }
        let mut out = Vec::new();
        h.scan(&encode_u64(100), 10, &mut out);
        assert_eq!(out, (100..110).collect::<Vec<_>>());
        // Update shadows during scan too.
        h.update(&encode_u64(104), 99999);
        out.clear();
        h.scan(&encode_u64(100), 10, &mut out);
        assert_eq!(out[4], 99999);
    }

    #[test]
    fn ratio_trigger_controls_merge_frequency() {
        let run = |ratio: usize| {
            let mut h = HybridBTree::with_config(MergeTrigger::Ratio(ratio), true);
            let mut state = 9u64;
            for _ in 0..30_000 {
                let k = splitmix64(&mut state);
                h.insert(&encode_u64(k), k);
            }
            h.merge_stats().merges
        };
        let low_ratio = run(2);
        let high_ratio = run(50);
        assert!(
            high_ratio > low_ratio,
            "ratio 50 merges ({high_ratio}) should exceed ratio 2 ({low_ratio})"
        );
    }

    #[test]
    fn multi_get_matches_per_key_across_stages() {
        fn check<D: OrderedIndex + Default, S: StaticIndex + BatchProbe>(name: &str) {
            let mut h: DualStage<D, S> = DualStage::with_config(MergeTrigger::Manual, true);
            // Static stage: even keys. Dynamic stage: odd keys. Plus
            // shadowed updates and tombstoned deletes on the static side.
            for i in (0..8000u64).step_by(2) {
                h.insert(&encode_u64(i), i);
            }
            h.force_merge().unwrap();
            for i in (1..8000u64).step_by(2) {
                h.insert(&encode_u64(i), i);
            }
            for i in (0..8000u64).step_by(100) {
                h.update(&encode_u64(i), i + 1_000_000);
            }
            for i in (2..8000u64).step_by(274) {
                h.remove(&encode_u64(i));
            }
            let probes: Vec<Vec<u8>> = (0..10_000u64)
                .map(|i| encode_u64(i.wrapping_mul(2654435761) % 9000).to_vec())
                .collect();
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let expect: Vec<Option<Value>> = refs.iter().map(|k| h.get(k)).collect();
            for chunk in [1usize, 16, 256, refs.len()] {
                let mut got = Vec::new();
                for c in refs.chunks(chunk) {
                    h.multi_get(c, &mut got);
                }
                assert_eq!(got, expect, "{name} chunk {chunk}");
            }
        }
        check::<memtree_btree::BPlusTree, memtree_btree::CompactBTree>("btree");
        check::<memtree_art::Art, memtree_art::CompactArt>("art");
        check::<memtree_skiplist::SkipList, memtree_skiplist::CompactSkipList>("skiplist");
    }

    #[test]
    fn memory_advantage_over_pure_dynamic() {
        let mut h = HybridBTree::new();
        let mut d = memtree_btree::BPlusTree::new();
        for i in 0..50_000u64 {
            h.insert(&encode_u64(i), i);
            d.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        assert!(
            (h.mem_usage() as f64) < 0.75 * d.mem_usage() as f64,
            "hybrid {} vs dynamic {}",
            h.mem_usage(),
            d.mem_usage()
        );
    }
}

#[cfg(test)]
mod merge_cold_tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn hot_keys_stay_in_dynamic_stage() {
        let mut h: HybridBTree =
            DualStage::with_strategy(MergeTrigger::Manual, true, MergeStrategy::Cold);
        for i in 0..10_000u64 {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        // A small hot set of re-writes (shadowing static copies) plus a
        // batch of fresh cold inserts.
        for i in 0..100u64 {
            assert!(h.update(&encode_u64(i), i + 1_000_000));
        }
        for i in 10_000..10_900u64 {
            assert!(h.insert(&encode_u64(i), i));
        }
        assert_eq!(h.dynamic_len(), 1000);
        h.force_merge().unwrap();
        // Hot keys were retained; cold inserts migrated.
        assert_eq!(h.dynamic_len(), 100, "hot keys should stay dynamic");
        assert_eq!(h.len(), 10_900, "no double counting");
        for i in 0..100u64 {
            assert_eq!(h.get(&encode_u64(i)), Some(i + 1_000_000));
        }
        for i in (100..10_000u64).step_by(501) {
            assert_eq!(h.get(&encode_u64(i)), Some(i));
        }
        // A second merge with no new heat migrates everything.
        h.force_merge().unwrap();
        assert_eq!(h.dynamic_len(), 0);
        assert_eq!(h.len(), 10_900);
        assert_eq!(h.get(&encode_u64(5)), Some(1_000_005));
    }

    #[test]
    fn all_hot_falls_back_to_merge_all() {
        let mut h: HybridBTree =
            DualStage::with_strategy(MergeTrigger::Manual, false, MergeStrategy::Cold);
        for i in 0..100u64 {
            h.insert(&encode_u64(i), i);
        }
        h.force_merge().unwrap();
        for i in 0..100u64 {
            h.update(&encode_u64(i), i + 1);
        }
        // Everything is hot: retaining all would starve the merge.
        h.force_merge().unwrap();
        assert_eq!(h.dynamic_len(), 0);
        assert_eq!(h.len(), 100);
        assert_eq!(h.get(&encode_u64(7)), Some(8));
    }
}
