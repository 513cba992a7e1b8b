//! Compressed B+tree — the Compression rule (§2.4).
//!
//! Leaf entries are grouped into fixed-size blocks, serialized, and run
//! through the block codec. Only leaf blocks are compressed so a point
//! query decompresses at most one block; a CLOCK cache of recently
//! decompressed blocks amortizes that cost (Figure 2.3, rightmost column).

use memtree_common::error::MemtreeError;
use memtree_common::mem::{vec_bytes, vec_of_bytes};
use memtree_common::traits::{StaticIndex, Value};
use std::cell::RefCell;
use std::collections::HashMap;

/// Entries per compressed leaf block.
pub const BLOCK_ENTRIES: usize = 128;

/// Default number of decompressed blocks kept in the CLOCK cache.
pub const DEFAULT_CACHE_BLOCKS: usize = 32;

/// A decoded leaf block: materialized keys and values.
struct DecodedBlock {
    key_offsets: Vec<u32>,
    key_bytes: Vec<u8>,
    vals: Vec<Value>,
}

impl DecodedBlock {
    fn key(&self, i: usize) -> &[u8] {
        &self.key_bytes[self.key_offsets[i] as usize..self.key_offsets[i + 1] as usize]
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn from_bytes(raw: &[u8]) -> Self {
        let n = u32::from_le_bytes(raw[0..4].try_into().unwrap()) as usize;
        let mut pos = 4;
        let mut key_offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            key_offsets.push(u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()));
            pos += 4;
        }
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(Value::from_le_bytes(raw[pos..pos + 8].try_into().unwrap()));
            pos += 8;
        }
        let key_bytes = raw[pos..].to_vec();
        Self {
            key_offsets,
            key_bytes,
            vals,
        }
    }

    fn to_bytes(entries: &[(Vec<u8>, Value)]) -> Vec<u8> {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut off = 0u32;
        for (k, _) in entries {
            raw.extend_from_slice(&off.to_le_bytes());
            off += k.len() as u32;
        }
        raw.extend_from_slice(&off.to_le_bytes());
        for (_, v) in entries {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        for (k, _) in entries {
            raw.extend_from_slice(k);
        }
        raw
    }

    fn mem_usage(&self) -> usize {
        vec_bytes(&self.key_offsets) + vec_bytes(&self.key_bytes) + vec_bytes(&self.vals)
    }
}

/// CLOCK (second-chance) cache of decompressed blocks.
struct ClockCache {
    capacity: usize,
    /// (block_id, decoded, referenced)
    slots: Vec<(usize, DecodedBlock, bool)>,
    /// block_id → slot position — O(1) probes instead of a linear scan.
    index: HashMap<usize, usize>,
    hand: usize,
    hits: u64,
    misses: u64,
}

impl ClockCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            index: HashMap::new(),
            hand: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn find(&mut self, block_id: usize) -> Option<usize> {
        let &idx = self.index.get(&block_id)?;
        self.slots[idx].2 = true;
        self.hits += 1;
        Some(idx)
    }

    /// Caches a decode, returning its slot — or gives the block back
    /// (`Err`) when the cache holds nothing (capacity 0). The former code
    /// relied on every caller guarding capacity 0 externally: an unguarded
    /// insert ran the CLOCK sweep over zero slots and indexed out of
    /// bounds. A re-insert of an already-cached id refreshes the existing
    /// slot in place instead of indexing a duplicate that would orphan the
    /// old slot in the ring.
    fn insert(&mut self, block_id: usize, block: DecodedBlock) -> Result<usize, DecodedBlock> {
        self.misses += 1;
        if self.capacity == 0 {
            return Err(block);
        }
        if let Some(&i) = self.index.get(&block_id) {
            self.slots[i].1 = block;
            self.slots[i].2 = true;
            return Ok(i);
        }
        if self.slots.len() < self.capacity {
            self.index.insert(block_id, self.slots.len());
            self.slots.push((block_id, block, true));
            return Ok(self.slots.len() - 1);
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim.
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.2 {
                slot.2 = false;
                self.hand = (self.hand + 1) % self.slots.len();
            } else {
                let victim = self.hand;
                self.index.remove(&self.slots[victim].0);
                self.index.insert(block_id, victim);
                self.slots[victim] = (block_id, block, true);
                self.hand = (self.hand + 1) % self.slots.len();
                return Ok(victim);
            }
        }
    }

    /// Drops a cached decode (if any), keeping the slot index coherent.
    fn invalidate(&mut self, block_id: usize) {
        if let Some(i) = self.index.remove(&block_id) {
            self.slots.swap_remove(i);
            if i < self.slots.len() {
                self.index.insert(self.slots[i].0, i);
            }
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
        }
    }

    /// Index ↔ slots bijection plus hand range, asserted by the
    /// differential cache test after every operation.
    #[cfg(test)]
    fn assert_coherent(&self) {
        assert_eq!(self.index.len(), self.slots.len(), "index/slot count desync");
        assert!(self.slots.len() <= self.capacity);
        for (pos, slot) in self.slots.iter().enumerate() {
            assert_eq!(self.index.get(&slot.0), Some(&pos), "slot {pos} not indexed");
        }
        assert!(self.hand == 0 || self.hand < self.slots.len(), "hand out of range");
    }
}

/// A static B+tree whose leaf blocks are block-compressed.
///
/// Blocks are stored in checksummed frames
/// ([`memtree_compress::encode_block`]); every decode validates the frame,
/// so corruption of a stored block is detected rather than returning wrong
/// values. [`CompressedBTree::try_get`] and
/// [`CompressedBTree::verify_blocks`] expose the checked results; the
/// (infallible) [`StaticIndex`] methods panic on a corrupt block, which for
/// this in-memory structure means the process's own heap was damaged.
pub struct CompressedBTree {
    /// Compressed leaf blocks (checksum-framed unless built via
    /// [`CompressedBTree::build_unframed`]).
    blocks: Vec<Vec<u8>>,
    /// First key of each block (uncompressed separators).
    block_first_keys: Vec<Vec<u8>>,
    /// Separator index for descending: a compact tree over block ids.
    len: usize,
    /// Whether blocks carry the checksum frame. Always true in production;
    /// false only for the `build_unframed` robustness-tax baseline.
    framed: bool,
    cache: RefCell<ClockCache>,
}

impl CompressedBTree {
    /// Rebuilds with a given cache capacity (in blocks).
    pub fn set_cache_blocks(&mut self, capacity: usize) {
        *self.cache.borrow_mut() = ClockCache::new(capacity);
    }

    /// (hits, misses) of the decompressed-block cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.cache.borrow();
        (c.hits, c.misses)
    }

    fn block_for(&self, key: &[u8]) -> usize {
        // Last block whose first key <= key.
        self.block_first_keys
            .partition_point(|fk| fk.as_slice() <= key)
            .saturating_sub(1)
    }

    fn try_with_block<R>(
        &self,
        block_id: usize,
        f: impl FnOnce(&DecodedBlock) -> R,
    ) -> Result<R, MemtreeError> {
        let mut cache = self.cache.borrow_mut();
        if let Some(i) = cache.find(block_id) {
            return Ok(f(&cache.slots[i].1));
        }
        let raw = if self.framed {
            memtree_compress::decode_block(&self.blocks[block_id])?
        } else {
            memtree_compress::decompress(&self.blocks[block_id]).map_err(|e| {
                MemtreeError::corruption("compressed-btree", format!("unframed block: {e}"))
            })?
        };
        let decoded = DecodedBlock::from_bytes(&raw);
        match cache.insert(block_id, decoded) {
            Ok(idx) => Ok(f(&cache.slots[idx].1)),
            // Capacity 0: the cache handed the decode back.
            Err(decoded) => Ok(f(&decoded)),
        }
    }

    fn with_block<R>(&self, block_id: usize, f: impl FnOnce(&DecodedBlock) -> R) -> R {
        self.try_with_block(block_id, f)
            .expect("corrupt in-memory leaf block (use try_get/verify_blocks for checked access)")
    }

    /// Checked point lookup: like [`StaticIndex::get`] but surfaces a
    /// corrupt leaf block as [`MemtreeError::Corruption`] instead of
    /// panicking.
    pub fn try_get(&self, key: &[u8]) -> Result<Option<Value>, MemtreeError> {
        if self.len == 0 {
            return Ok(None);
        }
        let b = self.block_for(key);
        self.try_with_block(b, |blk| {
            let mut lo = 0usize;
            let mut hi = blk.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                match blk.key(mid).cmp(key) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => return Some(blk.vals[mid]),
                }
            }
            None
        })
    }

    /// Validates the checksum frame of every stored block.
    pub fn verify_blocks(&self) -> Result<(), MemtreeError> {
        for b in &self.blocks {
            if self.framed {
                memtree_compress::decode_block(b)?;
            } else {
                memtree_compress::decompress(b).map_err(|e| {
                    MemtreeError::corruption("compressed-btree", format!("unframed block: {e}"))
                })?;
            }
        }
        Ok(())
    }

    /// Builds with raw (unchecksummed) compressed blocks. **Benchmark
    /// baseline only** — measures the robustness tax of the checksum frame;
    /// corruption of an unframed block is *not* reliably detected.
    pub fn build_unframed(entries: &[(Vec<u8>, Value)]) -> Self {
        Self::build_inner(entries, false)
    }

    fn build_inner(entries: &[(Vec<u8>, Value)], framed: bool) -> Self {
        let mut blocks = Vec::new();
        let mut block_first_keys = Vec::new();
        for chunk in entries.chunks(BLOCK_ENTRIES) {
            block_first_keys.push(chunk[0].0.clone());
            let raw = DecodedBlock::to_bytes(chunk);
            let mut compressed = if framed {
                memtree_compress::encode_block(&raw)
            } else {
                memtree_compress::compress(&raw)
            };
            compressed.shrink_to_fit();
            blocks.push(compressed);
        }
        Self {
            blocks,
            block_first_keys,
            len: entries.len(),
            framed,
            cache: RefCell::new(ClockCache::new(DEFAULT_CACHE_BLOCKS)),
        }
    }

    /// Test hook: XORs `mask` into one stored byte of block
    /// `block_id` so corruption-detection paths can be exercised. Returns
    /// false when the block or offset is out of range.
    #[doc(hidden)]
    pub fn corrupt_block_byte(&mut self, block_id: usize, offset: usize, mask: u8) -> bool {
        // Drop any cached decode of this block so reads hit the frame.
        self.cache.borrow_mut().invalidate(block_id);
        match self.blocks.get_mut(block_id).and_then(|b| b.get_mut(offset)) {
            Some(byte) => {
                *byte ^= mask;
                mask != 0
            }
            None => false,
        }
    }
}

impl StaticIndex for CompressedBTree {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        Self::build_inner(entries, true)
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        if self.len == 0 {
            return None;
        }
        let b = self.block_for(key);
        self.with_block(b, |blk| {
            let mut lo = 0usize;
            let mut hi = blk.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                match blk.key(mid).cmp(key) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => return Some(blk.vals[mid]),
                }
            }
            None
        })
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut b = self.block_for(low);
        let mut taken = 0usize;
        let mut start_lower = Some(low.to_vec());
        while taken < n && b < self.blocks.len() {
            self.with_block(b, |blk| {
                let start = match &start_lower {
                    Some(lowk) => {
                        let mut lo = 0;
                        let mut hi = blk.len();
                        while lo < hi {
                            let mid = (lo + hi) / 2;
                            if blk.key(mid) < lowk.as_slice() {
                                lo = mid + 1;
                            } else {
                                hi = mid;
                            }
                        }
                        lo
                    }
                    None => 0,
                };
                for i in start..blk.len() {
                    if taken == n {
                        break;
                    }
                    out.push(blk.vals[i]);
                    taken += 1;
                }
            });
            start_lower = None;
            b += 1;
        }
        taken
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_usage(&self) -> usize {
        // Compressed payload + separators + resident cache.
        vec_of_bytes(&self.blocks)
            + vec_of_bytes(&self.block_first_keys)
            + self
                .cache
                .borrow()
                .slots
                .iter()
                .map(|(_, b, _)| b.mem_usage())
                .sum::<usize>()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        for b in 0..self.blocks.len() {
            self.with_block(b, |blk| {
                for i in 0..blk.len() {
                    f(blk.key(i), blk.vals[i]);
                }
            });
        }
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        if self.len == 0 {
            return;
        }
        let mut b = self.block_for(low);
        let mut first = true;
        while b < self.blocks.len() {
            let more = self.with_block(b, |blk| {
                let start = if first {
                    let mut lo = 0;
                    let mut hi = blk.len();
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        if blk.key(mid) < low {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                } else {
                    0
                };
                for i in start..blk.len() {
                    if !f(blk.key(i), blk.vals[i]) {
                        return false;
                    }
                }
                true
            });
            if !more {
                return;
            }
            first = false;
            b += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    fn entries(n: u64) -> Vec<(Vec<u8>, Value)> {
        (0..n).map(|i| (encode_u64(i * 2).to_vec(), i)).collect()
    }

    #[test]
    fn get_hit_miss_roundtrip() {
        let t = CompressedBTree::build(&entries(10_000));
        for i in (0..10_000).step_by(31) {
            assert_eq!(t.get(&encode_u64(i * 2)), Some(i));
            assert_eq!(t.get(&encode_u64(i * 2 + 1)), None);
        }
    }

    #[test]
    fn empty_and_single() {
        let t = CompressedBTree::build(&[]);
        assert_eq!(t.get(b"x"), None);
        let t = CompressedBTree::build(&[(b"k".to_vec(), 7)]);
        assert_eq!(t.get(b"k"), Some(7));
        assert_eq!(t.get(b"j"), None);
        assert_eq!(t.get(b"l"), None);
    }

    #[test]
    fn scan_across_blocks() {
        let t = CompressedBTree::build(&entries(1000));
        let mut out = Vec::new();
        // Start mid-block, cross a block boundary (BLOCK_ENTRIES = 128).
        let got = t.scan(&encode_u64(200), 200, &mut out);
        assert_eq!(got, 200);
        assert_eq!(out, (100..300).collect::<Vec<_>>());
    }

    #[test]
    fn cache_hits_on_repeat_access() {
        let t = CompressedBTree::build(&entries(10_000));
        for _ in 0..100 {
            t.get(&encode_u64(42));
        }
        let (hits, misses) = t.cache_stats();
        assert!(hits >= 99, "hits={hits} misses={misses}");
    }

    #[test]
    fn compresses_sorted_integer_keys() {
        use memtree_common::traits::StaticIndex as _;
        let e = entries(50_000);
        let t = CompressedBTree::build(&e);
        let raw_size: usize = e.iter().map(|(k, _)| k.len() + 8).sum();
        assert!(
            t.mem_usage() < raw_size,
            "compressed {} raw {}",
            t.mem_usage(),
            raw_size
        );
    }

    #[test]
    fn for_each_sorted_matches_input() {
        let e = entries(700);
        let t = CompressedBTree::build(&e);
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, v| got.push((k.to_vec(), v)));
        assert_eq!(got, e);
    }

    #[test]
    fn corrupt_block_surfaces_as_error_not_wrong_value() {
        let mut t = CompressedBTree::build(&entries(1000));
        assert!(t.verify_blocks().is_ok());
        // Key 0 lives in block 0; flip every byte of that block in turn.
        // (Probe the block length via the test hook: XOR twice is a no-op.)
        let block_len = {
            let mut len = 0;
            while t.corrupt_block_byte(0, len, 1) {
                t.corrupt_block_byte(0, len, 1); // undo
                len += 1;
            }
            len
        };
        assert!(block_len > 16, "block suspiciously small: {block_len}");
        for off in 0..block_len {
            assert!(t.corrupt_block_byte(0, off, 0x40));
            match t.try_get(&encode_u64(0)) {
                Err(memtree_common::error::MemtreeError::Corruption { .. }) => {}
                other => panic!("offset {off}: expected corruption, got {other:?}"),
            }
            assert!(t.verify_blocks().is_err(), "offset {off}");
            assert!(t.corrupt_block_byte(0, off, 0x40)); // restore
        }
        assert_eq!(t.try_get(&encode_u64(0)).unwrap(), Some(0));
        assert!(t.verify_blocks().is_ok());
    }

    #[test]
    fn unframed_baseline_reads_identically() {
        let e = entries(3000);
        let framed = CompressedBTree::build(&e);
        let mut unframed = CompressedBTree::build_unframed(&e);
        unframed.set_cache_blocks(0);
        assert!(unframed.verify_blocks().is_ok());
        for i in (0..3000).step_by(17) {
            assert_eq!(unframed.get(&encode_u64(i * 2)), framed.get(&encode_u64(i * 2)));
            assert_eq!(unframed.get(&encode_u64(i * 2 + 1)), None);
        }
        // The frame costs exactly its header per block.
        assert!(framed.mem_usage() > unframed.mem_usage());
    }

    /// Differential test of the CLOCK cache against a map model:
    /// randomized insert / find / invalidate schedules, with the index ↔
    /// slot bijection asserted after every operation. Capacity 0 must
    /// reject inserts (`Err`) instead of sweeping an empty ring — the old
    /// code indexed out of bounds when called unguarded — and a re-insert
    /// of a cached id must refresh in place, not orphan a duplicate.
    #[test]
    fn randomized_clock_cache_vs_model() {
        fn decoded(tag: u64) -> DecodedBlock {
            DecodedBlock::from_bytes(&DecodedBlock::to_bytes(&[(b"k".to_vec(), tag)]))
        }
        for capacity in [0usize, 1, 2, 3, 7] {
            for seed in 0..12u64 {
                let mut cache = ClockCache::new(capacity);
                let mut newest: HashMap<usize, u64> = HashMap::new();
                let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                for step in 0..300u64 {
                    let r = memtree_common::hash::splitmix64(&mut state);
                    let id = (r % 9) as usize;
                    match (r >> 8) % 8 {
                        0..=3 => {
                            match cache.insert(id, decoded(step)) {
                                Err(_) => {
                                    assert_eq!(capacity, 0, "only capacity 0 hands back")
                                }
                                Ok(idx) => {
                                    assert_ne!(capacity, 0, "capacity-0 insert must hand back");
                                    assert_eq!(cache.slots[idx].0, id);
                                    assert_eq!(cache.slots[idx].1.vals[0], step);
                                }
                            }
                            newest.insert(id, step);
                        }
                        4..=6 => {
                            if let Some(idx) = cache.find(id) {
                                assert_eq!(cache.slots[idx].0, id);
                                assert_eq!(
                                    cache.slots[idx].1.vals[0],
                                    newest[&id],
                                    "cap {capacity} seed {seed}: stale decode served"
                                );
                            }
                        }
                        _ => cache.invalidate(id),
                    }
                    cache.assert_coherent();
                }
            }
        }
    }

    #[test]
    fn tiny_cache_still_correct() {
        let mut t = CompressedBTree::build(&entries(5000));
        t.set_cache_blocks(1);
        // Ping-pong between far-apart blocks.
        for i in 0..200u64 {
            let k = (i % 2) * 4000;
            assert_eq!(t.get(&encode_u64(k * 2)), Some(k));
        }
        let (hits, misses) = t.cache_stats();
        assert!(misses >= 199, "hits={hits} misses={misses}");
    }
}
