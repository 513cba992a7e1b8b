//! Paged-deterministic skip list (§2.1) and its Compact variant.
//!
//! The dynamic structure follows the *paged-deterministic skip list* the
//! thesis uses: every level is a linked list of pages; level 0 holds the
//! entries, higher levels hold one (key, down-pointer) pair per page of the
//! level below. Search walks right along a level skip-list-style, then
//! descends. The hierarchy "resembles a B+tree" (the thesis's words) but
//! grows bottom-up by page splits instead of top-down rebalancing.
//!
//! [`CompactSkipList`] applies the Compaction + Structural Reduction rules:
//! each level becomes a single 100 %-full sorted array, lane entries index
//! the level below, and all next-pointers disappear (positions are implied
//! by array order).

#![warn(missing_docs)]

use memtree_common::mem::vec_bytes;
use memtree_common::probe::ProbeStats;
use memtree_common::traits::{OrderedIndex, StaticIndex, Value};

type PageId = u32;
const NIL: PageId = u32::MAX;

/// Maximum entries per page.
pub const PAGE_CAP: usize = 32;

#[derive(Debug)]
struct Page {
    keys: Vec<Box<[u8]>>,
    /// Level 0: values. Level > 0: page ids of the level below.
    payload: Vec<u64>,
    next: PageId,
}

impl Page {
    fn new() -> Self {
        Self {
            keys: Vec::new(),
            payload: Vec::new(),
            next: NIL,
        }
    }
}

/// A paged-deterministic skip list mapping byte strings to values.
#[derive(Debug)]
pub struct SkipList {
    pages: Vec<Page>,
    /// Head page of each level; `heads[0]` is the entry level.
    heads: Vec<PageId>,
    len: usize,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl SkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let pages = vec![Page::new()];
        Self {
            pages,
            heads: vec![0],
            len: 0,
        }
    }

    fn alloc(&mut self, page: Page) -> PageId {
        self.pages.push(page);
        (self.pages.len() - 1) as PageId
    }

    /// Walks right along `level` starting at `from` until the page that may
    /// hold `key`; returns its id.
    fn walk_right(&self, mut id: PageId, key: &[u8]) -> PageId {
        loop {
            let page = &self.pages[id as usize];
            if page.next == NIL {
                return id;
            }
            let next = &self.pages[page.next as usize];
            match next.keys.first() {
                Some(first) if first.as_ref() <= key => id = page.next,
                _ => return id,
            }
        }
    }

    /// Descends from the top level to the level-0 page that may hold `key`,
    /// recording the path of page ids (top level first).
    fn descend(&self, key: &[u8]) -> Vec<PageId> {
        let mut path = Vec::with_capacity(self.heads.len());
        let mut id = *self.heads.last().expect("at least one level");
        for level in (0..self.heads.len()).rev() {
            id = self.walk_right(id, key);
            path.push(id);
            if level > 0 {
                let page = &self.pages[id as usize];
                let slot = page.keys.partition_point(|k| k.as_ref() <= key);
                id = page.payload[slot.saturating_sub(1)] as PageId;
            }
        }
        path
    }

    /// Splits page `id` (at `level`) if over capacity; inserts the new
    /// page's first key into the parent recorded in `path`, growing levels
    /// as needed. `path[path.len()-1-level]` is the page at `level`.
    fn split_up(&mut self, path: &[PageId], mut level: usize) {
        let mut id = path[path.len() - 1 - level];
        loop {
            if self.pages[id as usize].keys.len() <= PAGE_CAP {
                return;
            }
            let page = &mut self.pages[id as usize];
            let mid = page.keys.len() / 2;
            let r_keys = page.keys.split_off(mid);
            let r_payload = page.payload.split_off(mid);
            let sep = r_keys[0].clone();
            let old_next = page.next;
            let rid = self.alloc(Page {
                keys: r_keys,
                payload: r_payload,
                next: old_next,
            });
            self.pages[id as usize].next = rid;
            // Insert (sep, rid) into the parent level.
            level += 1;
            if level == self.heads.len() {
                // New top level pointing at both pages. The head page's
                // first separator is an explicit -infinity (empty string):
                // the leftmost spine can absorb ever-smaller keys, so any
                // concrete first separator would go stale-high and misroute
                // descents below it.
                let old_head = self.heads[level - 1];
                let top = self.alloc(Page {
                    keys: vec![Box::from(&[][..]), sep],
                    payload: vec![old_head as u64, rid as u64],
                    next: NIL,
                });
                self.heads.push(top);
                return;
            }
            let parent = path[path.len() - 1 - level];
            let p = &mut self.pages[parent as usize];
            let slot = p.keys.partition_point(|k| k.as_ref() <= sep.as_ref());
            p.keys.insert(slot, sep);
            p.payload.insert(slot, rid as u64);
            id = parent;
        }
    }

    /// Instrumented point query for the Table 2.2 reproduction.
    pub fn get_profiled(&self, key: &[u8]) -> (Option<Value>, ProbeStats) {
        let mut stats = ProbeStats::default();
        let mut id = *self.heads.last().unwrap();
        for level in (0..self.heads.len()).rev() {
            // Horizontal walk.
            loop {
                stats.nodes_visited += 1;
                let page = &self.pages[id as usize];
                if page.next == NIL {
                    break;
                }
                let next_first = &self.pages[page.next as usize].keys[0];
                stats.key_bytes_compared +=
                    (memtree_common::key::common_prefix_len(next_first, key) + 1) as u64;
                if next_first.as_ref() <= key {
                    stats.pointer_derefs += 1;
                    id = page.next;
                } else {
                    break;
                }
            }
            let page = &self.pages[id as usize];
            let slot = page.keys.partition_point(|k| {
                stats.key_bytes_compared +=
                    (memtree_common::key::common_prefix_len(k, key) + 1) as u64;
                k.as_ref() <= key
            });
            if level > 0 {
                stats.pointer_derefs += 1;
                id = page.payload[slot.saturating_sub(1)] as PageId;
            } else {
                if slot > 0 && page.keys[slot - 1].as_ref() == key {
                    return (Some(page.payload[slot - 1]), stats);
                }
                return (None, stats);
            }
        }
        unreachable!()
    }

    /// Iterates in order from the first key `>= low` until `f` returns
    /// `false`.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        let path = self.descend(low);
        let mut id = *path.last().unwrap();
        let mut start = self.pages[id as usize]
            .keys
            .partition_point(|k| k.as_ref() < low);
        loop {
            let page = &self.pages[id as usize];
            for i in start..page.keys.len() {
                if !f(&page.keys[i], page.payload[i]) {
                    return;
                }
            }
            if page.next == NIL {
                return;
            }
            id = page.next;
            start = 0;
        }
    }
}

impl OrderedIndex for SkipList {
    fn insert(&mut self, key: &[u8], value: Value) -> bool {
        let path = self.descend(key);
        let leaf = *path.last().unwrap();
        let page = &mut self.pages[leaf as usize];
        match page.keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(_) => false,
            Err(pos) => {
                page.keys.insert(pos, key.into());
                page.payload.insert(pos, value);
                self.len += 1;
                self.split_up(&path, 0);
                true
            }
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let path = self.descend(key);
        let leaf = &self.pages[*path.last().unwrap() as usize];
        leaf.keys
            .binary_search_by(|k| k.as_ref().cmp(key))
            .ok()
            .map(|i| leaf.payload[i])
    }

    fn update(&mut self, key: &[u8], value: Value) -> bool {
        let path = self.descend(key);
        let leaf = &mut self.pages[*path.last().unwrap() as usize];
        match leaf.keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(i) => {
                leaf.payload[i] = value;
                true
            }
            Err(_) => false,
        }
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        // Removal without page merging (splits maintain balance; empty
        // pages are skipped by the horizontal walk).
        let path = self.descend(key);
        let leaf = *path.last().unwrap();
        let page = &mut self.pages[leaf as usize];
        match page.keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(i) => {
                page.keys.remove(i);
                page.payload.remove(i);
                self.len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let before = out.len();
        self.range_from(low, &mut |_k, v| {
            if out.len() - before == n {
                return false;
            }
            out.push(v);
            out.len() - before < n
        });
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_usage(&self) -> usize {
        let mut total = vec_bytes(&self.pages) + vec_bytes(&self.heads);
        for p in &self.pages {
            total += vec_bytes(&p.keys)
                + p.keys.iter().map(|k| k.len()).sum::<usize>()
                + vec_bytes(&p.payload);
        }
        total
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        SkipList::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        SkipList::range_from(self, low, f);
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.pages.push(Page::new());
        self.heads.clear();
        self.heads.push(0);
        self.len = 0;
    }
}

/// Compact skip list: every level flattened into one contiguous array,
/// next-pointers removed (Figure 2.3, Skip List row).
#[derive(Debug)]
pub struct CompactSkipList {
    key_bytes: Vec<u8>,
    key_offsets: Vec<u32>,
    vals: Vec<Value>,
    /// Express lanes: `lanes[0]` samples every [`PAGE_CAP`]-th entry,
    /// `lanes[l]` samples the lane below. Entries are leaf indexes.
    lanes: Vec<Vec<u32>>,
}

impl CompactSkipList {
    #[inline]
    fn key(&self, i: usize) -> &[u8] {
        &self.key_bytes[self.key_offsets[i] as usize..self.key_offsets[i + 1] as usize]
    }

    /// First position with key `>= target`.
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        let n = self.vals.len();
        if n == 0 {
            return 0;
        }
        // Skip-list style: scan each lane left-to-right within the window
        // inherited from the lane above.
        let mut lo = 0usize; // candidate leaf index
        let mut window: Option<(usize, usize)> = None; // lane-relative range
        for (depth, lane) in self.lanes.iter().enumerate().rev() {
            let (s, e) = window.unwrap_or((0, lane.len()));
            let mut i = s;
            // Linear "express-lane" scan: the window is at most PAGE_CAP wide.
            while i + 1 < e && self.key(lane[i + 1] as usize) <= target {
                i += 1;
            }
            lo = lane[i] as usize;
            if depth > 0 {
                let below = &self.lanes[depth - 1];
                window = Some((i * PAGE_CAP, ((i + 1) * PAGE_CAP).min(below.len())));
            } else {
                window = Some((lo, (lo + PAGE_CAP).min(n)));
            }
        }
        let (s, e) = window.unwrap_or((0, n.min(PAGE_CAP)));
        let mut i = s.max(lo);
        while i < e && self.key(i) < target {
            i += 1;
        }
        // The window math guarantees the answer is inside [s, e] or at e.
        i
    }
}

impl StaticIndex for CompactSkipList {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        let n = entries.len();
        let mut key_bytes = Vec::with_capacity(entries.iter().map(|(k, _)| k.len()).sum());
        let mut key_offsets = Vec::with_capacity(n + 1);
        let mut vals = Vec::with_capacity(n);
        for (k, v) in entries {
            key_offsets.push(key_bytes.len() as u32);
            key_bytes.extend_from_slice(k);
            vals.push(*v);
        }
        key_offsets.push(key_bytes.len() as u32);
        let mut lanes = Vec::new();
        if n > PAGE_CAP {
            let mut cur: Vec<u32> = (0..n).step_by(PAGE_CAP).map(|i| i as u32).collect();
            while cur.len() > PAGE_CAP {
                let next = cur.iter().step_by(PAGE_CAP).copied().collect();
                lanes.push(cur);
                cur = next;
            }
            lanes.push(cur);
        }
        Self {
            key_bytes,
            key_offsets,
            vals,
            lanes,
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let pos = self.lower_bound(key);
        if pos < self.vals.len() && self.key(pos) == key {
            Some(self.vals[pos])
        } else {
            None
        }
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let start = self.lower_bound(low);
        let end = (start + n).min(self.vals.len());
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
            + self.lanes.iter().map(vec_bytes).sum::<usize>()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        for i in 0..self.vals.len() {
            f(self.key(i), self.vals[i]);
        }
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        for i in self.lower_bound(low)..self.vals.len() {
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

    #[test]
    fn insert_get_many() {
        let mut s = SkipList::new();
        for i in 0..5000u64 {
            assert!(s.insert(&encode_u64(i * 7), i));
        }
        assert_eq!(s.len(), 5000);
        for i in 0..5000u64 {
            assert_eq!(s.get(&encode_u64(i * 7)), Some(i));
            assert_eq!(s.get(&encode_u64(i * 7 + 1)), None);
        }
        assert!(s.heads.len() >= 2, "should have grown express lanes");
    }

    #[test]
    fn random_order_inserts() {
        let mut s = SkipList::new();
        let mut state = 17u64;
        let mut keys = Vec::new();
        for _ in 0..3000 {
            let k = memtree_common::hash::splitmix64(&mut state);
            if s.insert(&encode_u64(k), k) {
                keys.push(k);
            }
        }
        for &k in &keys {
            assert_eq!(s.get(&encode_u64(k)), Some(k));
        }
        keys.sort_unstable();
        let mut got = Vec::new();
        s.for_each_sorted(&mut |_k, v| got.push(v));
        assert_eq!(got, keys);
    }

    #[test]
    fn duplicates_updates_removals() {
        let mut s = SkipList::new();
        assert!(s.insert(b"k1", 1));
        assert!(!s.insert(b"k1", 2));
        assert!(s.update(b"k1", 3));
        assert_eq!(s.get(b"k1"), Some(3));
        assert!(s.remove(b"k1"));
        assert!(!s.remove(b"k1"));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn scan_ordering() {
        let mut s = SkipList::new();
        for i in (0..1000u64).rev() {
            s.insert(&encode_u64(i * 2), i);
        }
        let mut out = Vec::new();
        s.scan(&encode_u64(101), 5, &mut out);
        assert_eq!(out, vec![51, 52, 53, 54, 55]);
    }

    #[test]
    fn compact_matches_dynamic() {
        let mut s = SkipList::new();
        let mut state = 23u64;
        for _ in 0..4000 {
            let k = memtree_common::hash::splitmix64(&mut state) % 100_000;
            s.insert(&encode_u64(k), k);
        }
        let entries = s.drain_sorted();
        let c = CompactSkipList::build(&entries);
        assert_eq!(c.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(c.get(k), Some(*v), "key {v}");
        }
        assert_eq!(c.get(&encode_u64(200_000)), None);
        // Lower-bound cross-check on probes.
        for probe in 0..500u64 {
            let p = encode_u64(probe * 211);
            let expect = entries.partition_point(|(k, _)| k.as_slice() < p.as_slice());
            assert_eq!(c.lower_bound(&p), expect, "probe {probe}");
        }
    }

    #[test]
    fn compact_saves_memory() {
        let mut s = SkipList::new();
        for i in 0..50_000u64 {
            s.insert(&encode_u64(i), i);
        }
        let entries: Vec<_> = {
            let mut v = Vec::new();
            s.for_each_sorted(&mut |k, val| v.push((k.to_vec(), val)));
            v
        };
        let c = CompactSkipList::build(&entries);
        assert!(
            (c.mem_usage() as f64) < 0.7 * s.mem_usage() as f64,
            "compact {} dynamic {}",
            c.mem_usage(),
            s.mem_usage()
        );
    }

    #[test]
    fn compact_empty_and_small() {
        let c = CompactSkipList::build(&[]);
        assert_eq!(c.get(b"x"), None);
        let mut out = Vec::new();
        assert_eq!(c.scan(b"", 10, &mut out), 0);
        let c = CompactSkipList::build(&[(b"only".to_vec(), 9)]);
        assert_eq!(c.get(b"only"), Some(9));
        assert_eq!(c.get(b"onlx"), None);
    }

    #[test]
    fn profiled_get() {
        let mut s = SkipList::new();
        for i in 0..10_000u64 {
            s.insert(&encode_u64(i), i);
        }
        let (v, stats) = s.get_profiled(&encode_u64(9876));
        assert_eq!(v, Some(9876));
        assert!(stats.nodes_visited >= 2);
        assert!(stats.key_bytes_compared > 0);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use memtree_common::key::encode_u64;

    /// Regression: a cascade split on the leftmost spine used to insert a
    /// separator at slot 0 of a head page whose first key had gone
    /// stale-high, misrouting all smaller keys. Incremental verification
    /// catches any reintroduction.
    #[test]
    fn leftmost_spine_split_keeps_all_keys() {
        let mut s = SkipList::new();
        let mut state = 17u64;
        let mut keys = Vec::new();
        for n in 0..2000 {
            let k = memtree_common::hash::splitmix64(&mut state);
            if s.insert(&encode_u64(k), k) {
                keys.push(k);
            }
            if n % 64 == 0 || (1800..1900).contains(&n) {
                for &kk in &keys {
                    assert_eq!(
                        s.get(&encode_u64(kk)),
                        Some(kk),
                        "lost key {kk} after insert #{n}"
                    );
                }
            }
        }
    }
}
