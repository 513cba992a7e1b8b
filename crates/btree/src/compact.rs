//! Compact B+tree — the Compaction + Structural Reduction rules (§2.2–2.3).
//!
//! All leaf entries live in one contiguous, 100 %-full array (concatenated
//! key bytes + an offset array). The "internal nodes" are sampled separator
//! arrays storing **leaf indexes** instead of key copies: every `F`-th key
//! of the level below becomes one entry, and a child's position is computed
//! (`node * F + slot`) instead of following a stored pointer — the dashed
//! arrows of Figure 2.3.

use crate::sepsearch;
use memtree_common::mem::vec_bytes;
use memtree_common::traits::{StaticIndex, Value};

/// Sampling factor / logical node size of the computed internal levels.
pub const NODE_FANOUT: usize = 32;

/// A static, read-optimized B+tree built from sorted entries.
#[derive(Debug)]
pub struct CompactBTree {
    /// Concatenated key bytes, in order.
    key_bytes: Vec<u8>,
    /// `key_offsets[i]..key_offsets[i+1]` is key `i`; length `n + 1`.
    key_offsets: Vec<u32>,
    vals: Vec<Value>,
    /// `levels[0]` indexes leaf keys; `levels[l]` indexes `levels[l-1]`
    /// entries (all ultimately leaf key ids). The topmost level has at most
    /// `NODE_FANOUT` entries.
    levels: Vec<Vec<u32>>,
    /// `prefixes[l][i]` is the 8-byte big-endian prefix of the key
    /// `levels[l][i]` points at — the SIMD-searchable side of each
    /// separator array ([`sepsearch`]).
    prefixes: Vec<Vec<u64>>,
}

impl CompactBTree {
    #[inline]
    fn key(&self, i: usize) -> &[u8] {
        &self.key_bytes[self.key_offsets[i] as usize..self.key_offsets[i + 1] as usize]
    }

    /// First slot of `levels[depth][s..e]` whose separator key is
    /// `> target` — the `partition_point` of `key <= target`, resolved as
    /// one SIMD prefix count over the whole node plus a scalar walk of the
    /// (usually empty) run of 8-byte-prefix ties, the only separators
    /// whose full keys must be fetched.
    #[inline]
    fn separator_slot(&self, depth: usize, s: usize, e: usize, target: &[u8], tp: u64) -> usize {
        let (lt, le) = sepsearch::count_lt_le(&self.prefixes[depth][s..e], tp);
        let mut slot = lt;
        for &ki in &self.levels[depth][s + lt..s + le] {
            if self.key(ki as usize) <= target {
                slot += 1;
            } else {
                break; // separators are sorted; the first miss ends the run
            }
        }
        slot
    }

    /// Index of the first key `>= target` (i.e. lower bound), or `len()`.
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        let n = self.len();
        if n == 0 {
            return 0;
        }
        let tp = sepsearch::key_prefix8(target);
        // Descend the computed levels to narrow to one logical node.
        let (mut lo, mut hi) = (0usize, n); // leaf-entry range
        if let Some(top) = self.levels.last() {
            // Each level narrows to a NODE_FANOUT-wide child range.
            let mut node_range = (0usize, top.len());
            for (depth, level) in self.levels.iter().enumerate().rev() {
                let (s, e) = node_range;
                // First separator > target, prefix-count + tie walk.
                let slot = self.separator_slot(depth, s, e, target, tp);
                // Child covered by separator slot-1 (or the leftmost child).
                let child = s + slot.saturating_sub(1);
                if depth == 0 {
                    // level[child] is a leaf key id; leaf range spans until
                    // the next sampled key.
                    lo = level[child] as usize;
                    hi = level
                        .get(child + 1)
                        .map_or(n, |&next| next as usize);
                } else {
                    node_range = (
                        child * NODE_FANOUT,
                        ((child + 1) * NODE_FANOUT).min(self.levels[depth - 1].len()),
                    );
                }
            }
        }
        lo + self.key_bytes_partition(lo, hi, target)
    }

    /// partition_point of `key < target` within leaf range `[lo, hi)`.
    fn key_bytes_partition(&self, lo: usize, hi: usize, target: &[u8]) -> usize {
        let mut l = lo;
        let mut h = hi;
        while l < h {
            let mid = (l + h) / 2;
            if self.key(mid) < target {
                l = mid + 1;
            } else {
                h = mid;
            }
        }
        l - lo
    }

    /// The key at sorted position `i`.
    pub fn key_at(&self, i: usize) -> &[u8] {
        self.key(i)
    }

    /// The value at sorted position `i`.
    pub fn value_at(&self, i: usize) -> Value {
        self.vals[i]
    }
}

impl StaticIndex for CompactBTree {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "input must be sorted and duplicate-free"
        );
        let n = entries.len();
        let total_bytes: usize = entries.iter().map(|(k, _)| k.len()).sum();
        let mut key_bytes = Vec::with_capacity(total_bytes);
        let mut key_offsets = Vec::with_capacity(n + 1);
        let mut vals = Vec::with_capacity(n);
        for (k, v) in entries {
            key_offsets.push(key_bytes.len() as u32);
            key_bytes.extend_from_slice(k);
            vals.push(*v);
        }
        key_offsets.push(key_bytes.len() as u32);

        // Build sampled separator levels bottom-up until one fits in a node:
        // level 0 holds every NODE_FANOUT-th leaf key id, each higher level
        // samples the one below.
        let mut levels: Vec<Vec<u32>> = Vec::new();
        if n > NODE_FANOUT {
            let mut cur: Vec<u32> = (0..n).step_by(NODE_FANOUT).map(|i| i as u32).collect();
            while cur.len() > NODE_FANOUT {
                let next: Vec<u32> = cur.iter().step_by(NODE_FANOUT).copied().collect();
                levels.push(cur);
                cur = next;
            }
            levels.push(cur);
        }

        let mut tree = Self {
            key_bytes,
            key_offsets,
            vals,
            levels,
            prefixes: Vec::new(),
        };
        // Side arrays of 8-byte key prefixes, one per separator, so the
        // descent can count most of a node's separators with one SIMD
        // sweep instead of a pointer-chasing binary search.
        tree.prefixes = tree
            .levels
            .iter()
            .map(|level| {
                level.iter().map(|&ki| sepsearch::key_prefix8(tree.key(ki as usize))).collect()
            })
            .collect();
        tree
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let pos = self.lower_bound(key);
        if pos < self.len() && self.key(pos) == key {
            Some(self.vals[pos])
        } else {
            None
        }
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let start = self.lower_bound(low);
        let end = (start + n).min(self.len());
        out.extend_from_slice(&self.vals[start..end]);
        end - start
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn mem_usage(&self) -> usize {
        vec_bytes(&self.key_bytes)
            + vec_bytes(&self.key_offsets)
            + vec_bytes(&self.vals)
            + self.levels.iter().map(vec_bytes).sum::<usize>()
            + self.prefixes.iter().map(vec_bytes).sum::<usize>()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        for i in 0..self.len() {
            f(self.key(i), self.vals[i]);
        }
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        for i in self.lower_bound(low)..self.len() {
            if !f(self.key(i), self.vals[i]) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    fn build_seq(n: u64) -> CompactBTree {
        let entries: Vec<(Vec<u8>, Value)> =
            (0..n).map(|i| (encode_u64(i * 3).to_vec(), i)).collect();
        CompactBTree::build(&entries)
    }

    #[test]
    fn get_hit_and_miss() {
        let t = build_seq(10_000);
        for i in (0..10_000).step_by(97) {
            assert_eq!(t.get(&encode_u64(i * 3)), Some(i));
            assert_eq!(t.get(&encode_u64(i * 3 + 1)), None);
        }
        assert_eq!(t.get(&encode_u64(30_000)), None);
    }

    #[test]
    fn tiny_trees() {
        for n in [0u64, 1, 2, NODE_FANOUT as u64, NODE_FANOUT as u64 + 1] {
            let t = build_seq(n);
            assert_eq!(t.len(), n as usize);
            for i in 0..n {
                assert_eq!(t.get(&encode_u64(i * 3)), Some(i), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn lower_bound_and_scan() {
        let t = build_seq(1000);
        assert_eq!(t.lower_bound(&encode_u64(0)), 0);
        assert_eq!(t.lower_bound(&encode_u64(1)), 1); // key 3 at pos 1
        assert_eq!(t.lower_bound(&encode_u64(3 * 999)), 999);
        assert_eq!(t.lower_bound(&encode_u64(3 * 999 + 1)), 1000);
        let mut out = Vec::new();
        assert_eq!(t.scan(&encode_u64(4), 5, &mut out), 5);
        assert_eq!(out, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn matches_reference_on_random_strings() {
        let mut state = 11u64;
        let mut keys: Vec<Vec<u8>> = (0..5000)
            .map(|_| {
                let len = 1 + (memtree_common::hash::splitmix64(&mut state) % 20) as usize;
                (0..len)
                    .map(|_| (memtree_common::hash::splitmix64(&mut state) % 256) as u8)
                    .collect()
            })
            .collect();
        keys.sort();
        keys.dedup();
        let entries: Vec<(Vec<u8>, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as Value))
            .collect();
        let t = CompactBTree::build(&entries);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as Value));
        }
        // Lower bound against a std binary search reference.
        for probe in 0..2000u64 {
            let p = encode_u64(probe * 7919);
            let expect = keys.partition_point(|k| k.as_slice() < p.as_slice());
            assert_eq!(t.lower_bound(&p), expect);
        }
    }

    /// Keys sharing a long (> 8 byte) common prefix make every separator
    /// prefix tie, forcing the SIMD count to resolve nothing and the
    /// scalar tie-walk to do all the work — the worst case for the
    /// prefix-count separator search, and the one a botched tie bound
    /// would answer wrongly.
    #[test]
    fn lower_bound_survives_all_prefix_ties() {
        let stem = b"shared-prefix-longer-than-eight-bytes-";
        let keys: Vec<Vec<u8>> = (0..4000u64)
            .map(|i| {
                let mut k = stem.to_vec();
                k.extend_from_slice(&encode_u64(i * 3));
                k
            })
            .collect();
        let entries: Vec<(Vec<u8>, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as Value))
            .collect();
        let t = CompactBTree::build(&entries);
        for probe in 0..4000u64 {
            let mut p = stem.to_vec();
            p.extend_from_slice(&encode_u64(probe * 3 + probe % 2));
            let expect = keys.partition_point(|k| k.as_slice() < p.as_slice());
            assert_eq!(t.lower_bound(&p), expect, "probe {probe}");
        }
    }

    #[test]
    fn compact_is_smaller_than_dynamic() {
        use crate::dynamic::BPlusTree;
        use memtree_common::traits::OrderedIndex;
        let mut dt = BPlusTree::new();
        let entries: Vec<(Vec<u8>, Value)> = (0..50_000u64)
            .map(|i| (encode_u64(i).to_vec(), i))
            .collect();
        for (k, v) in &entries {
            dt.insert(k, *v);
        }
        let ct = CompactBTree::build(&entries);
        assert!(
            (ct.mem_usage() as f64) < 0.7 * dt.mem_usage() as f64,
            "compact {} vs dynamic {}",
            ct.mem_usage(),
            dt.mem_usage()
        );
    }

    #[test]
    fn for_each_sorted_roundtrip() {
        let entries: Vec<(Vec<u8>, Value)> = (0..500u64)
            .map(|i| (encode_u64(i).to_vec(), i * 2))
            .collect();
        let t = CompactBTree::build(&entries);
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, v| got.push((k.to_vec(), v)));
        assert_eq!(got, entries);
    }
}
