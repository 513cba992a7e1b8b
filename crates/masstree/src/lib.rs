//! Masstree (§2.1, Figure 2.1) and Compact Masstree (§2.3, Figure 2.4).
//!
//! Masstree is a trie with 8-byte keyslices where every trie node is a
//! B+tree. A key is consumed one 8-byte slice per layer; a slice's entry is
//! either a value with the remaining key suffix stored in the layer's
//! *keybag*, or a pointer to a lower-layer B+tree when several keys share
//! the slice. Entries are identified by `(slice, slice_len)` — the
//! zero-padded big-endian slice plus the number of real bytes in it — whose
//! tuple order equals byte-string order.
//!
//! [`CompactMasstree`] applies the D-to-S rules exactly as Figure 2.4: each
//! trie node's B+tree is flattened into sorted slice arrays searched by
//! binary search, and all key suffixes of a trie node are concatenated into
//! a single byte array with an offset array marking starts.

#![warn(missing_docs)]

use memtree_common::key::keyslice;
use memtree_common::mem::vec_bytes;
use memtree_common::probe::ProbeStats;
use memtree_common::traits::{OrderedIndex, StaticIndex, Value};

mod slicetree;
use slicetree::SliceTree;

/// An entry of one trie layer.
#[derive(Debug)]
enum Entry {
    /// A single key owns this slice; `suffix` holds its bytes beyond the
    /// slice (always empty when the slice length is < 8).
    Value { suffix: Box<[u8]>, value: Value },
    /// Multiple keys share this full 8-byte slice; their suffixes live in
    /// a lower layer.
    SubLayer(Box<Layer>),
}

/// One trie node: a B+tree over `(slice, len)` keys.
#[derive(Debug, Default)]
struct Layer {
    tree: SliceTree<Entry>,
}

impl Layer {
    fn insert(&mut self, key: &[u8], depth: usize, value: Value) -> bool {
        let (slice, len) = keyslice(key, depth);
        let len = len as u8;
        match self.tree.get_mut(&(slice, len)) {
            None => {
                let suffix: Box<[u8]> = if len == 8 {
                    key[(depth + 1) * 8..].into()
                } else {
                    Box::from(&[][..])
                };
                self.tree.insert((slice, len), Entry::Value { suffix, value });
                true
            }
            Some(entry) => match entry {
                Entry::Value { suffix, value: old } => {
                    if len < 8 {
                        return false; // identical short key
                    }
                    let new_suffix = &key[(depth + 1) * 8..];
                    if suffix.as_ref() == new_suffix {
                        return false; // identical key
                    }
                    // Convert to a sub-layer holding both suffixes.
                    let old_suffix = std::mem::replace(suffix, Box::from(&[][..]));
                    let old_value = *old;
                    let mut sub = Box::new(Layer::default());
                    sub.insert(&old_suffix, 0, old_value);
                    sub.insert(new_suffix, 0, value);
                    *entry = Entry::SubLayer(sub);
                    true
                }
                Entry::SubLayer(sub) => sub.insert(&key[(depth + 1) * 8..], 0, value),
            },
        }
    }

    fn get(&self, key: &[u8], depth: usize) -> Option<Value> {
        let (slice, len) = keyslice(key, depth);
        match self.tree.get(&(slice, len as u8))? {
            Entry::Value { suffix, value } => {
                let rest: &[u8] = if len == 8 { &key[(depth + 1) * 8..] } else { &[] };
                (suffix.as_ref() == rest).then_some(*value)
            }
            Entry::SubLayer(sub) => {
                if len < 8 {
                    return None;
                }
                sub.get(&key[(depth + 1) * 8..], 0)
            }
        }
    }

    fn get_profiled(&self, key: &[u8], depth: usize, stats: &mut ProbeStats) -> Option<Value> {
        let (slice, len) = keyslice(key, depth);
        let entry = self.tree.get_profiled(&(slice, len as u8), stats)?;
        match entry {
            Entry::Value { suffix, value } => {
                let rest: &[u8] = if len == 8 { &key[(depth + 1) * 8..] } else { &[] };
                stats.key_bytes_compared += suffix.len().min(rest.len()) as u64 + 1;
                (suffix.as_ref() == rest).then_some(*value)
            }
            Entry::SubLayer(sub) => {
                if len < 8 {
                    return None;
                }
                stats.pointer_derefs += 1;
                sub.get_profiled(&key[(depth + 1) * 8..], 0, stats)
            }
        }
    }

    fn update(&mut self, key: &[u8], depth: usize, value: Value) -> bool {
        let (slice, len) = keyslice(key, depth);
        match self.tree.get_mut(&(slice, len as u8)) {
            None => false,
            Some(Entry::Value { suffix, value: v }) => {
                let rest: &[u8] = if len == 8 { &key[(depth + 1) * 8..] } else { &[] };
                if suffix.as_ref() == rest {
                    *v = value;
                    true
                } else {
                    false
                }
            }
            Some(Entry::SubLayer(sub)) => {
                len == 8 && sub.update(&key[(depth + 1) * 8..], 0, value)
            }
        }
    }

    /// Removes `key`. Sub-layers are not collapsed back into values (the
    /// thesis compacts via rebuild, not via online shrinking).
    fn remove(&mut self, key: &[u8], depth: usize) -> bool {
        let (slice, len) = keyslice(key, depth);
        let len = len as u8;
        match self.tree.get_mut(&(slice, len)) {
            None => false,
            Some(Entry::Value { suffix, .. }) => {
                let rest: &[u8] = if len == 8 { &key[(depth + 1) * 8..] } else { &[] };
                if suffix.as_ref() == rest {
                    self.tree.remove(&(slice, len));
                    true
                } else {
                    false
                }
            }
            Some(Entry::SubLayer(sub)) => {
                if len < 8 {
                    return false;
                }
                let removed = sub.remove(&key[(depth + 1) * 8..], 0);
                if removed && sub.tree.is_empty() {
                    self.tree.remove(&(slice, len));
                }
                removed
            }
        }
    }

    /// In-order traversal from the first key `>= low` (relative to this
    /// layer), with `path` holding the bytes consumed by outer layers.
    fn walk_from(
        &self,
        path: &mut Vec<u8>,
        low: &[u8],
        restricted: bool,
        f: &mut dyn FnMut(&[u8], Value) -> bool,
    ) -> bool {
        let (lslice, llen) = if restricted {
            let (s, l) = keyslice(low, 0);
            (s, l as u8)
        } else {
            (0, 0)
        };
        let mut cont = true;
        self.tree.range_from(&(lslice, llen), &mut |&(s, l), entry| {
            let exact = restricted && s == lslice && l == llen;
            let depth = path.len();
            path.extend_from_slice(&s.to_be_bytes()[..l as usize]);
            match entry {
                Entry::Value { suffix, value } => {
                    let emit = if exact {
                        if l == 8 {
                            suffix.as_ref() >= &low[8.min(low.len())..]
                        } else {
                            // Key equals low's prefix; it qualifies only if
                            // low ends exactly here.
                            low.len() <= l as usize
                        }
                    } else {
                        true
                    };
                    if emit {
                        path.extend_from_slice(suffix);
                        cont = f(path, *value);
                    }
                }
                Entry::SubLayer(sub) => {
                    let sub_low: &[u8] = if exact { &low[8.min(low.len())..] } else { &[] };
                    cont = sub.walk_from(path, sub_low, exact && !sub_low.is_empty(), f);
                }
            }
            path.truncate(depth);
            cont
        });
        cont
    }

    fn mem_usage(&self) -> usize {
        let mut total = self.tree.mem_usage();
        self.tree.for_each(&mut |_k, e| {
            match e {
                Entry::Value { suffix, .. } => total += suffix.len(),
                Entry::SubLayer(sub) => {
                    total += std::mem::size_of::<Layer>() + sub.mem_usage();
                }
            }
            true
        });
        total
    }

}

/// The dynamic Masstree.
#[derive(Debug, Default)]
pub struct Masstree {
    root: Layer,
    len: usize,
}

impl Masstree {
    /// Creates an empty Masstree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates `(key, value)` in order from the first key `>= low` until
    /// `f` returns `false`.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        let mut path = Vec::new();
        self.root.walk_from(&mut path, low, !low.is_empty(), f);
    }

    /// Instrumented point query for the Table 2.2 reproduction.
    pub fn get_profiled(&self, key: &[u8]) -> (Option<Value>, ProbeStats) {
        let mut stats = ProbeStats::default();
        let v = self.root.get_profiled(key, 0, &mut stats);
        (v, stats)
    }
}

impl OrderedIndex for Masstree {
    fn insert(&mut self, key: &[u8], value: Value) -> bool {
        if self.root.insert(key, 0, value) {
            self.len += 1;
            true
        } else {
            false
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        self.root.get(key, 0)
    }

    fn update(&mut self, key: &[u8], value: Value) -> bool {
        self.root.update(key, 0, value)
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        if self.root.remove(key, 0) {
            self.len -= 1;
            true
        } else {
            false
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
        std::mem::size_of::<Layer>() + self.root.mem_usage()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        Masstree::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        Masstree::range_from(self, low, f);
    }

    fn clear(&mut self) {
        self.root = Layer::default();
        self.len = 0;
    }
}

// ---------------------------------------------------------------------------
// Compact Masstree
// ---------------------------------------------------------------------------

const KIND_VALUE: u8 = 1;
const KIND_SUBLAYER: u8 = 2;

/// One flattened trie node (Figure 2.4): sorted slice arrays + a single
/// concatenated suffix byte array with offsets.
#[derive(Debug, Default)]
struct CompactLayer {
    slices: Vec<u64>,
    lens: Vec<u8>,
    kinds: Vec<u8>,
    /// `KIND_VALUE`: index into `vals`; `KIND_SUBLAYER`: layer arena index.
    payload: Vec<u32>,
    /// Suffix `i` (only for value entries) is
    /// `suffix_bytes[suffix_offsets[i]..suffix_offsets[i+1]]`; sub-layer
    /// entries have empty ranges.
    suffix_offsets: Vec<u32>,
    suffix_bytes: Vec<u8>,
    vals: Vec<Value>,
}

impl CompactLayer {
    fn suffix(&self, i: usize) -> &[u8] {
        &self.suffix_bytes[self.suffix_offsets[i] as usize..self.suffix_offsets[i + 1] as usize]
    }

    fn mem_usage(&self) -> usize {
        vec_bytes(&self.slices)
            + vec_bytes(&self.lens)
            + vec_bytes(&self.kinds)
            + vec_bytes(&self.payload)
            + vec_bytes(&self.suffix_offsets)
            + vec_bytes(&self.suffix_bytes)
            + vec_bytes(&self.vals)
    }
}

/// The static Compact Masstree.
#[derive(Debug)]
pub struct CompactMasstree {
    layers: Vec<CompactLayer>,
    root: u32,
    len: usize,
}

impl CompactMasstree {
    /// Builds one layer from entries whose keys are the *remaining* bytes at
    /// this layer. Returns the arena index.
    fn build_layer(layers: &mut Vec<CompactLayer>, entries: &[(&[u8], Value)]) -> u32 {
        let mut layer = CompactLayer::default();
        layer.suffix_offsets.push(0);
        let id = layers.len();
        layers.push(CompactLayer::default());

        let mut i = 0usize;
        while i < entries.len() {
            let (key, val) = entries[i];
            let (slice, len) = keyslice(key, 0);
            let len = len as u8;
            // Group keys sharing this full (slice, len) pair. Only len == 8
            // groups can exceed one entry (shorter keys are unique).
            let mut j = i + 1;
            if len == 8 {
                while j < entries.len() {
                    let (s2, l2) = keyslice(entries[j].0, 0);
                    if s2 == slice && l2 == 8 {
                        j += 1;
                    } else {
                        break;
                    }
                }
            }
            layer.slices.push(slice);
            layer.lens.push(len);
            if j - i == 1 {
                layer.kinds.push(KIND_VALUE);
                layer.payload.push(layer.vals.len() as u32);
                layer.vals.push(val);
                let suffix: &[u8] = if len == 8 { &key[8..] } else { &[] };
                layer.suffix_bytes.extend_from_slice(suffix);
            } else {
                let sub: Vec<(&[u8], Value)> =
                    entries[i..j].iter().map(|(k, v)| (&k[8..], *v)).collect();
                let child = Self::build_layer(layers, &sub);
                layer.kinds.push(KIND_SUBLAYER);
                layer.payload.push(child);
            }
            layer.suffix_offsets.push(layer.suffix_bytes.len() as u32);
            i = j;
        }
        layer.slices.shrink_to_fit();
        layer.lens.shrink_to_fit();
        layer.kinds.shrink_to_fit();
        layer.payload.shrink_to_fit();
        layer.suffix_bytes.shrink_to_fit();
        layer.suffix_offsets.shrink_to_fit();
        layer.vals.shrink_to_fit();
        layers[id] = layer;
        id as u32
    }

    fn layer_walk(
        &self,
        layer: u32,
        path: &mut Vec<u8>,
        low: &[u8],
        restricted: bool,
        f: &mut dyn FnMut(&[u8], Value) -> bool,
    ) -> bool {
        let l = &self.layers[layer as usize];
        let (lslice, llen) = if restricted {
            let (s, ln) = keyslice(low, 0);
            (s, ln as u8)
        } else {
            (0, 0)
        };
        let start = {
            let mut lo = 0usize;
            let mut hi = l.slices.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                if (l.slices[mid], l.lens[mid]) < (lslice, llen) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        for idx in start..l.slices.len() {
            let (s, ln) = (l.slices[idx], l.lens[idx]);
            let exact = restricted && s == lslice && ln == llen;
            let depth = path.len();
            path.extend_from_slice(&s.to_be_bytes()[..ln as usize]);
            let mut cont = true;
            if l.kinds[idx] == KIND_VALUE {
                let suffix = l.suffix(idx);
                let emit = if exact {
                    if ln == 8 {
                        suffix >= &low[8.min(low.len())..]
                    } else {
                        low.len() <= ln as usize
                    }
                } else {
                    true
                };
                if emit {
                    path.extend_from_slice(suffix);
                    cont = f(path, l.vals[l.payload[idx] as usize]);
                }
            } else {
                let sub_low: &[u8] = if exact { &low[8.min(low.len())..] } else { &[] };
                cont = self.layer_walk(
                    l.payload[idx],
                    path,
                    sub_low,
                    exact && !sub_low.is_empty(),
                    f,
                );
            }
            path.truncate(depth);
            if !cont {
                return false;
            }
        }
        true
    }

    /// Iterates `(key, value)` in order from the first key `>= low`.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        if !self.layers.is_empty() {
            let mut path = Vec::new();
            self.layer_walk(self.root, &mut path, low, !low.is_empty(), f);
        }
    }
}

impl StaticIndex for CompactMasstree {
    fn build(entries: &[(Vec<u8>, Value)]) -> Self {
        let mut layers = Vec::new();
        let root = if entries.is_empty() {
            0
        } else {
            let refs: Vec<(&[u8], Value)> =
                entries.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
            Self::build_layer(&mut layers, &refs)
        };
        Self {
            layers,
            root,
            len: entries.len(),
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        if self.layers.is_empty() {
            return None;
        }
        let mut layer = &self.layers[self.root as usize];
        let mut depth = 0usize;
        loop {
            let (slice, len) = keyslice(key, depth);
            let len = len as u8;
            let idx = {
                let mut lo = 0usize;
                let mut hi = layer.slices.len();
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if (layer.slices[mid], layer.lens[mid]) < (slice, len) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo >= layer.slices.len()
                    || layer.slices[lo] != slice
                    || layer.lens[lo] != len
                {
                    return None;
                }
                lo
            };
            if layer.kinds[idx] == KIND_VALUE {
                let rest: &[u8] = if len == 8 { &key[(depth + 1) * 8..] } else { &[] };
                return (layer.suffix(idx) == rest)
                    .then(|| layer.vals[layer.payload[idx] as usize]);
            }
            if len < 8 {
                return None;
            }
            layer = &self.layers[layer.payload[idx] as usize];
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
        vec_bytes(&self.layers) + self.layers.iter().map(|l| l.mem_usage()).sum::<usize>()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        CompactMasstree::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        CompactMasstree::range_from(self, low, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn short_and_long_keys() {
        let mut t = Masstree::new();
        let keys: Vec<&[u8]> = vec![
            b"a",
            b"ab",
            b"abcdefgh",          // exactly one slice
            b"abcdefghi",         // slice + 1
            b"abcdefghijklmnopq", // three slices
            b"abcdefgz",
            b"",
        ];
        for (i, k) in keys.iter().enumerate() {
            assert!(t.insert(k, i as u64), "insert {i}");
        }
        assert_eq!(t.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "get {i}");
        }
        assert_eq!(t.get(b"abcdefg"), None);
        assert_eq!(t.get(b"abcdefghij"), None);
        // Duplicates rejected.
        assert!(!t.insert(b"ab", 99));
        assert!(!t.insert(b"abcdefghijklmnopq", 99));
    }

    #[test]
    fn slice_collision_creates_sublayer() {
        let mut t = Masstree::new();
        // Same first slice, different suffixes.
        assert!(t.insert(b"12345678AAAA", 1));
        assert!(t.insert(b"12345678BBBB", 2));
        assert!(t.insert(b"12345678", 3)); // ends exactly at the slice
        assert_eq!(t.get(b"12345678AAAA"), Some(1));
        assert_eq!(t.get(b"12345678BBBB"), Some(2));
        assert_eq!(t.get(b"12345678"), Some(3));
        assert_eq!(t.get(b"12345678CCCC"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn random_u64_keys() {
        let mut t = Masstree::new();
        let mut state = 77u64;
        let mut keys = Vec::new();
        for _ in 0..5000 {
            let k = memtree_common::hash::splitmix64(&mut state);
            if t.insert(&encode_u64(k), k) {
                keys.push(k);
            }
        }
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
        keys.sort_unstable();
        let mut got = Vec::new();
        t.for_each_sorted(&mut |_k, v| got.push(v));
        assert_eq!(got, keys);
    }

    #[test]
    fn update_remove() {
        let mut t = Masstree::new();
        t.insert(b"hello world foo", 1);
        t.insert(b"hello world bar", 2);
        assert!(t.update(b"hello world foo", 10));
        assert_eq!(t.get(b"hello world foo"), Some(10));
        assert!(!t.update(b"hello world baz", 1));
        assert!(t.remove(b"hello world foo"));
        assert_eq!(t.get(b"hello world foo"), None);
        assert_eq!(t.get(b"hello world bar"), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sorted_iteration_emails() {
        let mut t = Masstree::new();
        let mut keys: Vec<Vec<u8>> = (0..3000u64)
            .map(|i| format!("com.test{}@u{:06}", i % 5, (i * 2654435761) % 1_000_000).into_bytes())
            .collect();
        keys.sort();
        keys.dedup();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64);
        }
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, _| got.push(k.to_vec()));
        assert_eq!(got, keys);
        // scan from lower bound
        let mut out = Vec::new();
        t.scan(b"com.test3@", 7, &mut out);
        let expect: Vec<Value> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.as_slice() >= b"com.test3@".as_slice())
            .take(7)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn compact_matches_dynamic() {
        let mut t = Masstree::new();
        let mut state = 5u64;
        for _ in 0..4000 {
            let k = memtree_common::hash::splitmix64(&mut state) % 1_000_000;
            let key = format!("prefix/{k:09}/suffix-data");
            t.insert(key.as_bytes(), k);
        }
        let mut entries = Vec::new();
        t.for_each_sorted(&mut |k, v| entries.push((k.to_vec(), v)));
        let c = CompactMasstree::build(&entries);
        assert_eq!(c.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(c.get(k), Some(*v));
        }
        assert_eq!(c.get(b"prefix/xxx"), None);
        let mut a = Vec::new();
        let mut b = Vec::new();
        t.for_each_sorted(&mut |k, v| a.push((k.to_vec(), v)));
        c.for_each_sorted(&mut |k, v| b.push((k.to_vec(), v)));
        assert_eq!(a, b);
        // Scans agree from arbitrary probes.
        for probe in [&b"prefix/0005"[..], b"prefix/9", b"a", b"zzz"] {
            let (mut oa, mut ob) = (Vec::new(), Vec::new());
            t.scan(probe, 11, &mut oa);
            c.scan(probe, 11, &mut ob);
            assert_eq!(oa, ob, "probe {probe:?}");
        }
    }

    #[test]
    fn compact_is_much_smaller() {
        let mut t = Masstree::new();
        for i in 0..50_000u64 {
            t.insert(&encode_u64(i), i);
        }
        let mut entries = Vec::new();
        t.for_each_sorted(&mut |k, v| entries.push((k.to_vec(), v)));
        let c = CompactMasstree::build(&entries);
        assert!(
            (c.mem_usage() as f64) < 0.5 * t.mem_usage() as f64,
            "compact {} dynamic {}",
            c.mem_usage(),
            t.mem_usage()
        );
        for i in (0..50_000u64).step_by(613) {
            assert_eq!(c.get(&encode_u64(i)), Some(i));
        }
    }

    #[test]
    fn compact_empty() {
        let c = CompactMasstree::build(&[]);
        assert_eq!(c.get(b"x"), None);
        let mut out = Vec::new();
        assert_eq!(c.scan(b"", 5, &mut out), 0);
    }

    #[test]
    fn profiled_get() {
        let mut t = Masstree::new();
        for i in 0..10_000u64 {
            t.insert(&encode_u64(i), i);
        }
        let (v, stats) = t.get_profiled(&encode_u64(4321));
        assert_eq!(v, Some(4321));
        assert!(stats.nodes_visited > 0);
    }
}
