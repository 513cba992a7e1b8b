//! Compact ART (C-ART): the static, D-to-S-transformed ART (§2.2).
//!
//! Node layouts are customized to the exact fanout `n` of each node: the
//! sorted key/child arrays of Layout 1 when `n <= 227`, the 256-slot direct
//! child array of Layout 3 otherwise (the break-even point from Figure 2.2).
//! All per-node storage is flattened into shared arenas — there are no
//! per-node allocations and no stored sibling pointers.

use memtree_common::mem::vec_bytes;
use memtree_common::traits::{BatchProbe, StaticIndex, Value};

/// Fanout above which Layout 3 (direct 256-slot array) is smaller than
/// Layout 1 (key byte + 4-byte child ref per branch): `256*4 < n*(1+4)`.
pub const LAYOUT3_THRESHOLD: usize = 227;

const NONE: u32 = u32::MAX;
const LEAF_BIT: u32 = 0x8000_0000;
const LAYOUT3: u16 = u16::MAX;

#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    prefix_start: u32,
    prefix_len: u16,
    /// Number of Layout-1 edges, or [`LAYOUT3`].
    edges_len: u16,
    /// Start into `edge_keys`/`edge_children` (Layout 1) or into `child256`
    /// (Layout 3, always a multiple of 256).
    edges_start: u32,
    /// `0` = no terminal value; otherwise `terminal_vals[terminal - 1]`.
    terminal: u32,
}

/// The static Compact ART.
#[derive(Debug)]
pub struct CompactArt {
    meta: Vec<NodeMeta>,
    prefix_bytes: Vec<u8>,
    edge_keys: Vec<u8>,
    edge_children: Vec<u32>,
    child256: Vec<u32>,
    leaf_bytes: Vec<u8>,
    leaf_offsets: Vec<u32>,
    leaf_vals: Vec<Value>,
    terminal_vals: Vec<Value>,
    root: u32,
    len: usize,
}

impl CompactArt {
    #[inline]
    fn leaf_suffix(&self, leaf: usize) -> &[u8] {
        &self.leaf_bytes[self.leaf_offsets[leaf] as usize..self.leaf_offsets[leaf + 1] as usize]
    }

    #[inline]
    fn prefix(&self, m: &NodeMeta) -> &[u8] {
        &self.prefix_bytes[m.prefix_start as usize..m.prefix_start as usize + m.prefix_len as usize]
    }

    /// Child reference for `byte` under node `m`, or `NONE`.
    fn child(&self, m: &NodeMeta, byte: u8) -> u32 {
        if m.edges_len == LAYOUT3 {
            self.child256[m.edges_start as usize + byte as usize]
        } else {
            let s = m.edges_start as usize;
            let e = s + m.edges_len as usize;
            match self.edge_keys[s..e].binary_search(&byte) {
                Ok(i) => self.edge_children[s + i],
                Err(_) => NONE,
            }
        }
    }

    fn add_leaf(&mut self, key: &[u8], depth: usize, val: Value) -> u32 {
        let idx = self.leaf_vals.len();
        self.leaf_bytes.extend_from_slice(&key[depth..]);
        self.leaf_offsets.push(self.leaf_bytes.len() as u32);
        self.leaf_vals.push(val);
        LEAF_BIT | idx as u32
    }

    /// Builds the subtree for the sorted, unique `entries` slice, whose keys
    /// all share `depth` leading bytes with each other. Returns a child ref.
    fn build_node(&mut self, entries: &[(Vec<u8>, Value)], depth: usize) -> u32 {
        debug_assert!(!entries.is_empty());
        if entries.len() == 1 {
            return self.add_leaf(&entries[0].0, depth, entries[0].1);
        }
        // Common prefix of the whole range = cp(first, last).
        let first = &entries[0].0;
        let last = &entries[entries.len() - 1].0;
        let cp = first[depth..]
            .iter()
            .zip(&last[depth..])
            .take_while(|(a, b)| a == b)
            .count();
        let ndepth = depth + cp;
        let prefix_start = self.prefix_bytes.len() as u32;
        self.prefix_bytes.extend_from_slice(&first[depth..ndepth]);

        let mut terminal = 0u32;
        let mut rest = entries;
        if first.len() == ndepth {
            self.terminal_vals.push(entries[0].1);
            terminal = self.terminal_vals.len() as u32;
            rest = &entries[1..];
        }
        // Partition by the branch byte at ndepth and build children.
        let mut edges: Vec<(u8, u32)> = Vec::new();
        let mut i = 0usize;
        while i < rest.len() {
            let b = rest[i].0[ndepth];
            let mut j = i + 1;
            while j < rest.len() && rest[j].0[ndepth] == b {
                j += 1;
            }
            let child = self.build_node(&rest[i..j], ndepth + 1);
            edges.push((b, child));
            i = j;
        }
        // Emit the node with a size-customized layout.
        let (edges_start, edges_len) = if edges.len() > LAYOUT3_THRESHOLD {
            let start = self.child256.len() as u32;
            self.child256.resize(self.child256.len() + 256, NONE);
            for (b, c) in &edges {
                self.child256[start as usize + *b as usize] = *c;
            }
            (start, LAYOUT3)
        } else {
            let start = self.edge_keys.len() as u32;
            for (b, c) in &edges {
                self.edge_keys.push(*b);
                self.edge_children.push(*c);
            }
            (start, edges.len() as u16)
        };
        self.meta.push(NodeMeta {
            prefix_start,
            prefix_len: cp as u16,
            edges_len,
            edges_start,
            terminal,
        });
        (self.meta.len() - 1) as u32
    }

    /// In-order traversal from the first key `>= low`.
    fn walk_from(
        &self,
        child: u32,
        path: &mut Vec<u8>,
        low: &[u8],
        restricted: bool,
        f: &mut dyn FnMut(&[u8], Value) -> bool,
    ) -> bool {
        if child == NONE {
            return true;
        }
        if child & LEAF_BIT != 0 {
            let leaf = (child & !LEAF_BIT) as usize;
            let suffix = self.leaf_suffix(leaf);
            if restricted {
                let tail = &low[path.len().min(low.len())..];
                if suffix < tail {
                    return true;
                }
            }
            let depth = path.len();
            path.extend_from_slice(suffix);
            let cont = f(path, self.leaf_vals[leaf]);
            path.truncate(depth);
            return cont;
        }
        let m = &self.meta[child as usize];
        let prefix = self.prefix(m);
        let depth = path.len();
        let mut restricted = restricted;
        if restricted {
            let seg_end = (depth + prefix.len()).min(low.len());
            let seg = &low[depth.min(low.len())..seg_end];
            match prefix[..seg.len()].cmp(seg) {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => restricted = false,
                std::cmp::Ordering::Equal => {
                    if low.len() <= depth + prefix.len() {
                        restricted = false;
                    }
                }
            }
        }
        path.extend_from_slice(prefix);
        let ndepth = path.len();
        if !restricted && m.terminal != 0
            && !f(path, self.terminal_vals[m.terminal as usize - 1]) {
                path.truncate(depth);
                return false;
            }
        let pivot = if restricted { low[ndepth] } else { 0 };
        let mut cont = true;
        if m.edges_len == LAYOUT3 {
            for b in pivot..=255 {
                let c = self.child256[m.edges_start as usize + b as usize];
                if c != NONE {
                    path.push(b);
                    cont = self.walk_from(c, path, low, restricted && b == pivot, f);
                    path.pop();
                    if !cont {
                        break;
                    }
                }
                if b == 255 {
                    break;
                }
            }
        } else {
            let s = m.edges_start as usize;
            for i in 0..m.edges_len as usize {
                let b = self.edge_keys[s + i];
                if restricted && b < pivot {
                    continue;
                }
                path.push(b);
                cont = self.walk_from(
                    self.edge_children[s + i],
                    path,
                    low,
                    restricted && b == pivot,
                    f,
                );
                path.pop();
                if !cont {
                    break;
                }
            }
        }
        path.truncate(depth);
        cont
    }

    /// Iterates `(key, value)` in order from the first key `>= low` until
    /// `f` returns `false`.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        let mut path = Vec::new();
        self.walk_from(self.root, &mut path, low, !low.is_empty(), f);
    }
}

impl StaticIndex for CompactArt {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "input must be sorted and duplicate-free"
        );
        let mut art = Self {
            meta: Vec::new(),
            prefix_bytes: Vec::new(),
            edge_keys: Vec::new(),
            edge_children: Vec::new(),
            child256: Vec::new(),
            leaf_bytes: Vec::new(),
            leaf_offsets: vec![0],
            leaf_vals: Vec::new(),
            terminal_vals: Vec::new(),
            root: NONE,
            len: entries.len(),
        };
        if !entries.is_empty() {
            art.root = art.build_node(entries, 0);
        }
        art.prefix_bytes.shrink_to_fit();
        art.edge_keys.shrink_to_fit();
        art.edge_children.shrink_to_fit();
        art.leaf_bytes.shrink_to_fit();
        art
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let mut child = self.root;
        let mut depth = 0usize;
        loop {
            if child == NONE {
                return None;
            }
            if child & LEAF_BIT != 0 {
                let leaf = (child & !LEAF_BIT) as usize;
                return (self.leaf_suffix(leaf) == &key[depth..])
                    .then(|| self.leaf_vals[leaf]);
            }
            let m = &self.meta[child as usize];
            let prefix = self.prefix(m);
            if !key[depth..].starts_with(prefix) {
                return None;
            }
            depth += prefix.len();
            if depth == key.len() {
                return (m.terminal != 0).then(|| self.terminal_vals[m.terminal as usize - 1]);
            }
            child = self.child(m, key[depth]);
            depth += 1;
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
        vec_bytes(&self.meta)
            + vec_bytes(&self.prefix_bytes)
            + vec_bytes(&self.edge_keys)
            + vec_bytes(&self.edge_children)
            + vec_bytes(&self.child256)
            + vec_bytes(&self.leaf_bytes)
            + vec_bytes(&self.leaf_offsets)
            + vec_bytes(&self.leaf_vals)
            + vec_bytes(&self.terminal_vals)
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        CompactArt::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        CompactArt::range_from(self, low, f);
    }
}

impl BatchProbe for CompactArt {
    fn probe_one(&self, key: &[u8]) -> Option<Value> {
        self.get(key)
    }

    fn scan_one(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        self.scan(low, n, out)
    }

    /// Merged-traversal multi-scan: sorted range starts share one in-order
    /// walk (`range_from`), so clustered ranges pay one descent per cluster
    /// instead of one per range.
    fn multi_scan(&self, ranges: &[(&[u8], usize)], out: &mut Vec<Vec<Value>>) {
        memtree_common::traits::multi_scan_merged(
            &|low, f| CompactArt::range_from(self, low, f),
            ranges,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::Art;
    use memtree_common::key::encode_u64;
    use memtree_common::traits::OrderedIndex;

    fn sorted_random(n: usize, seed: u64, modulo: u64) -> Vec<(Vec<u8>, Value)> {
        let mut state = seed;
        let mut keys: Vec<u64> = (0..n)
            .map(|_| memtree_common::hash::splitmix64(&mut state) % modulo)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| (encode_u64(k).to_vec(), k))
            .collect()
    }

    #[test]
    fn get_hit_miss() {
        let entries = sorted_random(10_000, 3, u64::MAX);
        let t = CompactArt::build(&entries);
        assert_eq!(t.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.get(&encode_u64(1)), None);
    }

    #[test]
    fn layout3_nodes() {
        // Root with 256 branches must use Layout 3.
        let mut entries: Vec<(Vec<u8>, Value)> = (0..=255u8)
            .map(|b| (vec![b, b ^ 0x5A], b as Value))
            .collect();
        entries.sort();
        let t = CompactArt::build(&entries);
        assert!(!t.child256.is_empty(), "expected a Layout-3 node");
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.get(&[0, 0, 0]), None);
    }

    #[test]
    fn terminals_and_prefix_keys() {
        let mut entries: Vec<(Vec<u8>, Value)> = vec![
            (b"f".to_vec(), 1),
            (b"fa".to_vec(), 2),
            (b"far".to_vec(), 3),
            (b"fas".to_vec(), 4),
            (b"fast".to_vec(), 5),
            (b"fat".to_vec(), 6),
            (b"s".to_vec(), 7),
            (b"top".to_vec(), 8),
            (b"toy".to_vec(), 9),
            (b"trie".to_vec(), 10),
            (b"trip".to_vec(), 11),
            (b"try".to_vec(), 12),
        ];
        entries.sort();
        let t = CompactArt::build(&entries);
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v), "{:?}", String::from_utf8_lossy(k));
        }
        assert_eq!(t.get(b"fa\x00"), None);
        assert_eq!(t.get(b"t"), None);
        assert_eq!(t.get(b""), None);
    }

    #[test]
    fn matches_dynamic_art_on_scans() {
        let entries = sorted_random(3000, 7, 100_000);
        let mut dyn_art = Art::new();
        for (k, v) in &entries {
            dyn_art.insert(k, *v);
        }
        let compact = CompactArt::build(&entries);
        for probe in [0u64, 1, 50_000, 99_999] {
            let low = encode_u64(probe);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            dyn_art.scan(&low, 25, &mut a);
            compact.scan(&low, 25, &mut b);
            assert_eq!(a, b, "probe {probe}");
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        dyn_art.for_each_sorted(&mut |k, v| a.push((k.to_vec(), v)));
        compact.for_each_sorted(&mut |k, v| b.push((k.to_vec(), v)));
        assert_eq!(a, b);
    }

    #[test]
    fn compact_is_smaller() {
        let entries = sorted_random(50_000, 13, u64::MAX);
        let mut dyn_art = Art::new();
        for (k, v) in &entries {
            dyn_art.insert(k, *v);
        }
        let compact = CompactArt::build(&entries);
        assert!(
            (compact.mem_usage() as f64) < 0.6 * dyn_art.mem_usage() as f64,
            "compact {} dynamic {}",
            compact.mem_usage(),
            dyn_art.mem_usage()
        );
    }

    #[test]
    fn empty_and_single() {
        let t = CompactArt::build(&[]);
        assert_eq!(t.get(b"anything"), None);
        let t = CompactArt::build(&[(b"solo".to_vec(), 42)]);
        assert_eq!(t.get(b"solo"), Some(42));
        assert_eq!(t.get(b"sol"), None);
        assert_eq!(t.get(b"solos"), None);
    }

    #[test]
    fn multi_get_matches_per_key_loop() {
        // String keys with heavy prefix sharing plus pure-random integers;
        // probes mix hits, extensions, truncations, and duplicates.
        let mut cases: Vec<Vec<(Vec<u8>, Value)>> = vec![
            sorted_random(6000, 31, u64::MAX),
            sorted_random(2000, 33, 50_000),
        ];
        let mut emails: Vec<(Vec<u8>, Value)> = (0..3000u64)
            .map(|i| {
                (
                    format!("com.domain{}@user{:05}", i % 13, i).into_bytes(),
                    i,
                )
            })
            .collect();
        emails.sort();
        cases.push(emails);
        for entries in cases {
            let t = CompactArt::build(&entries);
            let mut probes: Vec<Vec<u8>> = Vec::new();
            for (i, (k, _)) in entries.iter().enumerate() {
                probes.push(k.clone());
                if i % 2 == 0 {
                    let mut q = k.clone();
                    q.push(0xFF);
                    probes.push(q);
                }
                if i % 3 == 0 && !k.is_empty() {
                    probes.push(k[..k.len() - 1].to_vec());
                }
                if i % 7 == 0 {
                    probes.push(k.clone());
                }
            }
            probes.push(Vec::new());
            probes.reverse();
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let expect: Vec<Option<Value>> = refs.iter().map(|k| t.get(k)).collect();
            for chunk in [1usize, 16, 200, refs.len()] {
                let mut got = Vec::new();
                for c in refs.chunks(chunk) {
                    t.multi_get(c, &mut got);
                }
                assert_eq!(got, expect, "chunk {chunk}");
            }
        }
        let t = CompactArt::build(&[]);
        assert_eq!(t.multi_get_vec(&[b"x".as_slice()]), vec![None]);
    }

    #[test]
    fn multi_scan_matches_per_range_loop() {
        let mut state = 41u64;
        for entries in [
            Vec::new(),
            sorted_random(1, 39, u64::MAX),
            sorted_random(2500, 37, 80_000),
        ] {
            let t = CompactArt::build(&entries);
            let mut lows: Vec<Vec<u8>> = Vec::new();
            for _ in 0..150 {
                let r = memtree_common::hash::splitmix64(&mut state);
                lows.push(encode_u64(r % 100_000).to_vec());
            }
            lows.push(Vec::new());
            lows.push(encode_u64(u64::MAX).to_vec());
            let ranges: Vec<(&[u8], usize)> = lows
                .iter()
                .enumerate()
                .map(|(i, low)| (low.as_slice(), [0usize, 1, 9, 5000][i % 4]))
                .collect();
            let expect: Vec<Vec<Value>> = ranges
                .iter()
                .map(|&(low, cnt)| {
                    let mut one = Vec::new();
                    t.scan(low, cnt, &mut one);
                    one
                })
                .collect();
            assert_eq!(t.multi_scan_vec(&ranges), expect, "n={}", entries.len());
        }
    }

    #[test]
    fn email_keys() {
        let mut entries: Vec<(Vec<u8>, Value)> = (0..2000u64)
            .map(|i| {
                (
                    format!("com.domain{}@user{:05}", i % 13, i).into_bytes(),
                    i,
                )
            })
            .collect();
        entries.sort();
        let t = CompactArt::build(&entries);
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v));
        }
        let mut out = Vec::new();
        t.scan(b"com.domain3@", 5, &mut out);
        assert_eq!(out.len(), 5);
    }
}
